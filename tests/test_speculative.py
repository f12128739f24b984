"""Speculative self-drafting (PR 9).

Covers the `SpecConfig` knob surface, KV rollback (`truncate`), the
engine's draft/verify primitives, and the serving contract:
speculation-on output is token-identical to ``speculation=None`` across
the batch x sharing/budget/preemption matrix for greedy and seeded-sampled requests, adaptive draft depth
reacts to the acceptance EMA, and the `ServeReport` speculation
telemetry (``drafted_tokens`` / ``accepted_tokens`` /
``acceptance_rate`` / ``draft_seconds`` / ``verify_seconds``) adds up.
"""

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.eval.latency import measure_batched_serving
from repro.eval.reporting import format_speculation
from repro.model.paged_kvcache import PagedKVCache
from repro.model.sampler import SamplerConfig
from repro.serving import ContinuousBatchingScheduler, Request, SpecConfig

SPEC = SpecConfig(k=3, draft_alpha=0.8)
CFG = SamplerConfig(temperature=0.9, top_k=8, top_p=0.95, seed=17)
PROMPTS = [[1, 4, 2], [3, 5], [6, 7, 8, 9], [2, 2, 1], [10, 3], [4, 4, 4]]

# Same serving knob matrix as the sampling acceptance sweep: every
# sharing/budget/preemption shape the scheduler supports.
MATRIX = [
    dict(),
    dict(prefix_sharing=True),
    dict(prefix_sharing=True, cache_pages=8),
    dict(prefix_sharing=True, cache_pages=8, step_budget=4),
    dict(prefix_sharing=True, cache_pages=8, preemption=True),
]


def run_scheduler(weights, requests, max_batch_size, sampling=None,
                  speculation=None, **knobs):
    """Drain ``requests``; return ({request_id: generated_ids}, report)."""
    scheduler_keys = ("step_budget", "preemption")
    engine_knobs = {k: v for k, v in knobs.items() if k not in scheduler_keys}
    sched_knobs = {k: v for k, v in knobs.items() if k in scheduler_keys}
    engine = build_batched_engine(
        weights, max_batch_size=max_batch_size, sampling=sampling,
        speculation=speculation, **engine_knobs,
    )
    scheduler = ContinuousBatchingScheduler(engine, **sched_knobs)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    assert all(c.ok for c in report.completions)
    return {c.request_id: list(c.generated_ids) for c in report.completions}, report


def make_requests(n=6, max_new=6, sampling=None):
    return [
        Request(request_id=i, prompt_ids=tuple(PROMPTS[i]),
                max_new_tokens=max_new, sampling=sampling)
        for i in range(n)
    ]


class TestSpecConfig:
    def test_defaults(self):
        spec = SpecConfig()
        assert spec.k >= 1 and 0 < spec.draft_alpha and spec.adaptive

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            SpecConfig(k=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="draft_alpha"):
            SpecConfig(draft_alpha=0.0)

    def test_rejects_bad_ema_decay(self):
        with pytest.raises(ValueError, match="ema_decay"):
            SpecConfig(ema_decay=1.0)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError, match="threshold"):
            SpecConfig(raise_threshold=0.3, lower_threshold=0.6)

    def test_frozen(self):
        with pytest.raises(Exception):
            SpecConfig().k = 5


class TestTruncate:
    """KV rollback (the speculation primitive)."""

    def test_truncate_within_a_page_and_reappend(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=1)
        slot = cache.allocate()
        d = micro_config.d_model
        for pos in range(5):
            for layer in range(micro_config.n_layers):
                slot.append(layer, np.full(d, pos + 1.0),
                            np.full(d, -(pos + 1.0)), pos)
            slot.advance()
        slot.truncate(3)
        assert slot.length == 3
        for pos in (3, 4):
            for layer in range(micro_config.n_layers):
                slot.append(layer, np.full(d, 100.0 + pos),
                            np.full(d, -(100.0 + pos)), pos)
            slot.advance()
        keys, _ = slot.view(0, slot.length)
        assert keys[2, 0] == 3.0          # kept prefix untouched
        assert keys[3, 0] == 103.0        # rewritten tail
        cache.release(slot)

    def test_truncate_validates(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=1)
        slot = cache.allocate()
        with pytest.raises(ValueError, match="truncate"):
            slot.truncate(1)              # beyond current length
        with pytest.raises(ValueError, match="truncate"):
            slot.truncate(-1)

    def test_paged_truncate_frees_tail_pages_and_recredits(
            self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=2, page_size=2, n_pages=8)
        slot = cache.allocate(max_positions=7)     # reserves 4 pages
        d = micro_config.d_model
        for pos in range(6):                        # 3 pages mapped
            for layer in range(micro_config.n_layers):
                slot.append(layer, np.full(d, 1.0), np.full(d, 2.0), pos)
            slot.advance()
        pool = cache.pool
        free_before = pool.n_free_pages
        slot.truncate(3)                            # keep 2 pages
        assert slot.length == 3
        assert len(slot.page_table) == 2
        assert pool.n_free_pages == free_before + 1
        # The freed page went back onto the slot's reservation, so the
        # sequence can still regrow to its worst case.
        for pos in range(3, 7):
            for layer in range(micro_config.n_layers):
                slot.append(layer, np.full(d, 1.0), np.full(d, 2.0), pos)
            slot.advance()
        assert slot.length == 7
        cache.release(slot)

    def test_paged_truncate_noop_keeps_pages(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=1, page_size=4, n_pages=4)
        slot = cache.allocate(max_positions=8)
        d = micro_config.d_model
        for pos in range(5):
            for layer in range(micro_config.n_layers):
                slot.append(layer, np.full(d, 1.0), np.full(d, 2.0), pos)
            slot.advance()
        pages_before = list(slot.page_table)
        slot.truncate(5)
        assert slot.page_table == pages_before
        cache.release(slot)


class TestEnginePrimitives:
    def test_verify_chunk_rows_match_decode_steps(self, micro_weights):
        """Row i of the verify chunk == the decode logits after token i."""
        prompt = [1, 4, 2, 7]
        drafts = [5, 9, 3]
        ref = build_batched_engine(micro_weights, max_batch_size=1)
        slot = ref.cache.allocate()
        logits = ref.prefill(slot, prompt)
        t0 = int(np.argmax(logits))
        expected = []
        feed = [t0] + drafts
        for tok in feed:
            expected.append(ref.decode_step([slot], [tok])[0])

        spec_engine = build_batched_engine(
            micro_weights, max_batch_size=1, speculation=SPEC,
        )
        vslot = spec_engine.cache.allocate()
        spec_engine.prefill(vslot, prompt)
        chunk = spec_engine.verify_chunk(vslot, feed)
        assert chunk.shape == (len(feed), ref.config.vocab_size)
        for i, row in enumerate(expected):
            np.testing.assert_allclose(chunk[i], row, rtol=1e-6, atol=1e-6)

    def test_draft_step_needs_an_alpha(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        engine.prefill(slot, [1, 2, 3])
        with pytest.raises(ValueError, match="draft_alpha"):
            engine.draft_step([slot], [4])

    def test_draft_executors_are_memoized_views(self, micro_weights):
        engine = build_batched_engine(
            micro_weights, max_batch_size=1, speculation=SPEC,
        )
        a = engine._draft_mlp(0.8)
        b = engine._draft_mlp(0.8)
        assert a is b
        # Same packed predictor bits, no re-packing, no weight copy.
        assert a.weights is engine.weights
        assert a.predictor._packed[0] is engine.sparse.predictor._packed[0]

    def test_draft_stats_stay_out_of_serving_telemetry(self, micro_weights):
        engine = build_batched_engine(
            micro_weights, max_batch_size=1, speculation=SPEC,
        )
        slot = engine.cache.allocate()
        engine.prefill(slot, [1, 2, 3])
        before = engine.sparse.stats.rows_total
        engine.draft_step([slot], [4])
        assert engine.sparse.stats.rows_total == before


class TestTokenIdentityMatrix:
    """The acceptance contract: speculation changes how many model
    passes produce the tokens, never the tokens."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    @pytest.mark.parametrize("knobs", MATRIX,
                             ids=lambda k: "+".join(k) or "plain")
    def test_greedy_identical_to_plain(self, micro_weights, batch, knobs):
        requests = make_requests()
        plain, _ = run_scheduler(micro_weights, requests, batch, **knobs)
        spec, report = run_scheduler(
            micro_weights, requests, batch, speculation=SPEC, **knobs,
        )
        assert spec == plain, (batch, knobs)
        assert report.drafted_tokens > 0

    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    @pytest.mark.parametrize("knobs", MATRIX,
                             ids=lambda k: "+".join(k) or "plain")
    def test_sampled_identical_to_plain(self, micro_weights, batch, knobs):
        requests = make_requests(max_new=5, sampling=CFG)
        plain, _ = run_scheduler(micro_weights, requests, batch, **knobs)
        spec, report = run_scheduler(
            micro_weights, requests, batch, speculation=SPEC, **knobs,
        )
        assert spec == plain, (batch, knobs)
        assert report.sampled_tokens == report.tokens_generated

    def test_greedy_matches_single_sequence_reference(self, micro_weights):
        # Transitively: speculation == plain == build_engine.generate.
        requests = make_requests()
        spec, _ = run_scheduler(
            micro_weights, requests, 4, speculation=SPEC,
        )
        reference = build_engine(micro_weights)
        for i, prompt in enumerate(PROMPTS):
            expected = reference.generate(prompt, max_new_tokens=6)
            assert spec[i] == list(expected.generated_ids), i

    def test_mixed_greedy_and_sampled_batch(self, micro_weights):
        requests = [
            Request(request_id=0, prompt_ids=tuple(PROMPTS[0]),
                    max_new_tokens=6, sampling=CFG),
            Request(request_id=1, prompt_ids=tuple(PROMPTS[2]),
                    max_new_tokens=6),
        ]
        plain, _ = run_scheduler(micro_weights, requests, 2)
        spec, _ = run_scheduler(
            micro_weights, requests, 2, speculation=SPEC,
        )
        assert spec == plain

    def test_stop_ids_respected_mid_chunk(self, micro_weights):
        # A stop token inside an accepted run must end the request at
        # exactly the same emission as plain decode.
        reference = build_engine(micro_weights)
        full = reference.generate(PROMPTS[0], max_new_tokens=6).generated_ids
        stop = frozenset({int(full[2])})
        requests = [Request(request_id=0, prompt_ids=tuple(PROMPTS[0]),
                            max_new_tokens=6, stop_ids=stop)]
        plain, _ = run_scheduler(micro_weights, requests, 1)
        spec, _ = run_scheduler(
            micro_weights, requests, 1, speculation=SPEC,
        )
        assert spec == plain == {0: list(full[:2])}

    def test_speculation_none_is_the_default(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        assert engine.speculation is None
        scheduler = ContinuousBatchingScheduler(engine)
        assert scheduler.speculation is None

    def test_scheduler_side_knob_enables_drafting(self, micro_weights):
        # The engine was built without the knob; the scheduler turns it
        # on -- the draft executors are built lazily.
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        scheduler = ContinuousBatchingScheduler(engine, speculation=SPEC)
        for request in make_requests(n=2):
            scheduler.submit(request)
        report = scheduler.run()
        assert report.drafted_tokens > 0
        plain, _ = run_scheduler(micro_weights, make_requests(n=2), 2)
        got = {c.request_id: list(c.generated_ids)
               for c in report.completions}
        assert got == plain


class TestTelemetryAndAdaptivity:
    def test_report_accounting_adds_up(self, micro_weights):
        _, report = run_scheduler(
            micro_weights, make_requests(), 4, speculation=SPEC,
        )
        assert 0 < report.accepted_tokens <= report.drafted_tokens
        assert report.acceptance_rate == pytest.approx(
            report.accepted_tokens / report.drafted_tokens
        )
        assert report.draft_seconds > 0.0
        assert report.verify_seconds > 0.0
        assert report.wall_seconds >= (
            report.draft_seconds + report.verify_seconds
        )
        # Speculation emits >= 1 token per drafter tick, so it can only
        # shrink the tick count relative to one-token-per-tick decode.
        _, plain = run_scheduler(micro_weights, make_requests(), 4)
        assert report.decode_steps < plain.decode_steps
        assert report.tokens_generated == plain.tokens_generated

    def test_no_speculation_means_zero_telemetry(self, micro_weights):
        _, report = run_scheduler(micro_weights, make_requests(n=2), 2)
        assert report.drafted_tokens == 0
        assert report.accepted_tokens == 0
        assert report.acceptance_rate == 0.0
        assert report.draft_seconds == 0.0 and report.verify_seconds == 0.0

    def test_adaptive_depth_tracks_acceptance(self, micro_weights):
        # draft_alpha == serving alpha -> drafts are the serving
        # engine's own argmax -> greedy acceptance is perfect and every
        # sequence's depth climbs to k.  A floor-low EMA start plus
        # adaptive=False must instead stay pinned.
        perfect = SpecConfig(k=4, draft_alpha=1.0, adaptive=True,
                             raise_threshold=0.75)
        engine = build_batched_engine(
            micro_weights, max_batch_size=1, speculation=perfect,
        )
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 4, 2),
                                 max_new_tokens=12))
        depths = []
        while not scheduler.idle:
            scheduler.step()
            depths.extend(s.spec_k for s in scheduler.active)
        report = scheduler.report
        assert report.accepted_tokens == report.drafted_tokens > 0
        assert max(depths) == perfect.k

    def test_fixed_depth_when_adaptive_off(self, micro_weights):
        spec = SpecConfig(k=2, draft_alpha=0.5, adaptive=False)
        engine = build_batched_engine(
            micro_weights, max_batch_size=1, speculation=spec,
        )
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0, prompt_ids=(6, 7, 8, 9),
                                 max_new_tokens=10))
        while not scheduler.idle:
            scheduler.step()
            assert all(s.spec_k == 2 for s in scheduler.active)
        assert scheduler.report.drafted_tokens > 0

    def test_preemption_preserves_spec_state(self, micro_weights):
        # A victim's adaptive depth and EMA survive eviction: the
        # resume restores spec_k/spec_ema along with its tokens.
        spec = SpecConfig(k=3, draft_alpha=0.8)
        low = Request(request_id=0, prompt_ids=(1, 2, 3, 4, 5, 6, 7, 8),
                      max_new_tokens=8, priority=0, sampling=CFG)
        vip = Request(request_id=1, prompt_ids=(9, 10, 11, 12, 13, 14, 15, 16),
                      max_new_tokens=8, priority=5, sampling=CFG)
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
            n_pages=6, prefix_sharing=True, cache_pages=4, speculation=spec,
        )
        scheduler = ContinuousBatchingScheduler(engine, preemption=True)
        scheduler.submit(low)
        ticks = 0
        parked = None
        resumed = False
        while not scheduler.idle:
            scheduler.step()
            ticks += 1
            assert ticks < 300
            if ticks == 3:
                scheduler.submit(vip)
            if parked is None:
                parked = scheduler._resume_state.get(0)
                if parked is not None:
                    # The parked value is the sequence itself, slot-less.
                    assert parked.slot is None and parked.preemptions == 1
                    assert parked.spec_k >= 1
                    emitted = list(parked.emit_steps)
            elif not resumed and any(s is parked for s in scheduler.active):
                # ...and the very same object resumes, so spec_k /
                # spec_ema / emit_steps ride along by identity.
                resumed = True
                assert parked.slot is not None
                assert parked.emit_steps[:len(emitted)] == emitted
        assert scheduler.report.preemptions > 0 and resumed
        report = scheduler.report
        interrupted = {c.request_id: list(c.generated_ids)
                       for c in report.completions}
        smooth, _ = run_scheduler(micro_weights, [low], 1, speculation=spec)
        assert interrupted[0] == smooth[0]

    def test_measurement_knob_and_label(self, micro_weights):
        requests = make_requests(n=4, max_new=5)
        point = measure_batched_serving(
            ContinuousBatchingScheduler(build_batched_engine(
                micro_weights, max_batch_size=2, speculation=SPEC,
            )),
            requests,
        )
        report = point.report
        assert "+spec(a=0.8,k=3)" in point.label
        assert 0 < report.accepted_tokens <= report.drafted_tokens
        assert report.acceptance_rate == pytest.approx(
            report.accepted_tokens / report.drafted_tokens
        )
        assert report.draft_seconds > 0.0 and report.verify_seconds > 0.0
        assert report.wall_seconds >= \
            report.draft_seconds + report.verify_seconds
        table = format_speculation([point])
        assert str(report.drafted_tokens) in table
        plain = measure_batched_serving(
            ContinuousBatchingScheduler(build_batched_engine(
                micro_weights, max_batch_size=2,
            )),
            requests,
        )
        assert "+spec" not in plain.label
        assert plain.report.drafted_tokens == 0
        assert report.tokens_generated == plain.report.tokens_generated
