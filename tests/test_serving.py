"""Tests for the batched sparse-decode serving subsystem."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.alpha import AlphaSchedule
from repro.core.engine import (
    SparseInferSettings,
    build_batched_engine,
    build_engine,
)
from repro.core.predictor import SparseInferPredictor
from repro.core.signpack import pack_signs, xor_popcount
from repro.gpu.batching import batch_skip_fraction
from repro.model.mlp import DenseMLP
from repro.model.paged_kvcache import PrefixIndex
from repro.model.weights import random_weights
from repro.serving import (
    BatchedEngine,
    BatchedSparseInferMLP,
    ContinuousBatchingScheduler,
    EmptyQueueError,
    Request,
    RequestQueue,
    SLOSpec,
)
from repro.train.lm import TrainableLM

from helpers import (
    assert_batch1_decode_bit_identical,
    assert_prefill_logits_match,
    oracle_tokens,
)

PROMPTS = [[1, 4, 2], [3, 5], [6, 7, 8, 9], [2, 2, 1], [10, 3], [4, 4, 4]]


def make_requests(max_new_tokens=6, prompts=PROMPTS):
    return [
        Request(request_id=i, prompt_ids=tuple(p), max_new_tokens=max_new_tokens)
        for i, p in enumerate(prompts)
    ]


def reference_generations(weights, prompts, n_tokens, settings=None):
    engine = build_engine(weights, settings)
    return [
        engine.generate(p, max_new_tokens=n_tokens).generated_ids
        for p in prompts
    ]


class TestBatchPrediction:
    def test_intersection_is_per_sequence_and(self, micro_weights, rng):
        predictor = SparseInferPredictor.from_gate_weights(
            micro_weights.gate_matrices()
        )
        xs = rng.standard_normal((5, micro_weights.config.d_model)).astype(
            np.float32
        )
        pred = predictor.predict_intersection(0, xs)
        per_seq = np.stack(
            [predictor.predict(0, xs[i]).skip for i in range(5)]
        )
        np.testing.assert_array_equal(pred.skip, per_seq)
        np.testing.assert_array_equal(
            pred.intersection_skip, np.logical_and.reduce(per_seq, axis=0)
        )

    def test_batched_xor_popcount_matches_loop(self, rng):
        rows = rng.standard_normal((17, 70)).astype(np.float32)
        xs = rng.standard_normal((4, 70)).astype(np.float32)
        packed_rows = pack_signs(rows)
        packed_xs = pack_signs(xs)
        batched = xor_popcount(packed_rows, packed_xs)
        assert batched.shape == (4, 17)
        for i in range(4):
            np.testing.assert_array_equal(
                batched[i], xor_popcount(packed_rows, packed_xs[i])
            )

    def test_batch_of_one_matches_single(self, micro_weights, rng):
        predictor = SparseInferPredictor.from_gate_weights(
            micro_weights.gate_matrices()
        )
        x = rng.standard_normal(micro_weights.config.d_model).astype(np.float32)
        single = predictor.predict(1, x)
        batched = predictor.predict_intersection(1, x[None, :])
        np.testing.assert_array_equal(batched.skip[0], single.skip)
        np.testing.assert_array_equal(batched.n_neg[0], single.n_neg)
        np.testing.assert_array_equal(batched.intersection_skip, single.skip)


class TestBatchedEngineEquivalence:
    def test_batch1_logits_match_oracle(self, micro_weights):
        """Prefill agrees to rounding; a batch-1 decode step is
        bit-identical to ``forward_token`` on identical KV."""
        sequential = build_engine(micro_weights)
        sequential.reset()
        ref_logits = sequential.prefill(PROMPTS[0])

        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        logits = engine.prefill(slot, PROMPTS[0])
        assert_prefill_logits_match(logits, ref_logits)

        assert_batch1_decode_bit_identical(
            engine, slot, sequential, int(np.argmax(ref_logits))
        )

    def test_packed_prefill_matches_training_forward(self, micro_config):
        """An independent reference for the one layer loop: the oracle
        and batch-1 serving share ``forward_rows``, so their identity no
        longer checks it.  A packed two-piece prefill's last rows must
        reproduce the autograd training forward, as
        ``test_decode_matches_training_forward`` checks the oracle."""
        lm = TrainableLM(micro_config, seed=3)
        pieces = [[1, 4, 7, 2, 9], [3, 8, 0, 5]]
        engine = build_batched_engine(lm.export_weights(), max_batch_size=2)
        slots = [engine.cache.allocate() for _ in pieces]
        logits = engine.prefill(
            slots, [tok for piece in pieces for tok in piece],
            [len(piece) for piece in pieces],
        )
        for row, piece in zip(logits, pieces):
            train_logits = lm.forward(np.array([piece])).logits.data[0]
            np.testing.assert_allclose(row, train_logits[-1], atol=2e-3)

    def test_every_forward_path_stays_float32(self, micro_weights):
        """One float64 scalar in the layer loop silently doubles every
        downstream GEMM (PR 9); all four callers share that loop."""
        engine = build_batched_engine(micro_weights, max_batch_size=4)
        slots = [engine.cache.allocate() for _ in range(4)]
        outputs = {
            f"prefill[{i}]": engine.prefill(slot, PROMPTS[i])
            for i, slot in enumerate(slots)
        }
        tokens = [int(np.argmax(outputs[f"prefill[{i}]"])) for i in range(4)]
        outputs["decode_step B=1"] = engine.decode_step(slots[:1], tokens[:1])
        outputs["decode_step B=4"] = engine.decode_step(slots, tokens)
        outputs["draft_step B=1"] = engine.draft_step(
            slots[:1], tokens[:1], draft_alpha=0.8
        )
        outputs["draft_step B=4"] = engine.draft_step(
            slots, tokens, draft_alpha=0.8
        )
        outputs["verify_chunk"] = engine.verify_chunk(slots[0], tokens[:3])
        for name, logits in outputs.items():
            assert logits.dtype == np.float32, name
        pool = engine.cache.pool
        assert pool.keys.dtype == pool.values.dtype == np.float32

        # A float64 caller of the batch MLP is cast once at entry, not
        # after three float64 GEMMs: the gate GEMM already sees float32.
        mlp, gate_dtypes = engine.sparse, []
        act = mlp._act
        mlp._act = lambda z: gate_dtypes.append(z.dtype) or act(z)
        xs = np.linspace(-1.0, 1.0, 4 * 32).reshape(4, 32)
        assert xs.dtype == np.float64
        out = mlp.run_batch(0, xs)
        assert out.dtype == np.float32 and gate_dtypes == [np.float32]
        np.testing.assert_array_equal(
            out, mlp.run_batch(0, xs.astype(np.float32))
        )

    def test_batch1_serving_token_identical(self, micro_weights):
        ref = reference_generations(micro_weights, PROMPTS, 6)
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in make_requests():
            scheduler.submit(request)
        report = scheduler.run()
        got = {c.request_id: c.generated_ids for c in report.completions}
        assert got == {i: ref[i] for i in range(len(PROMPTS))}

    @pytest.mark.parametrize("batch_size", [2, 3, 4])
    def test_batched_serving_token_identical(self, micro_weights, batch_size):
        ref = reference_generations(micro_weights, PROMPTS, 6)
        engine = build_batched_engine(
            micro_weights, max_batch_size=batch_size
        )
        scheduler = ContinuousBatchingScheduler(engine)
        for request in make_requests():
            scheduler.submit(request)
        report = scheduler.run()
        got = {c.request_id: c.generated_ids for c in report.completions}
        assert got == {i: ref[i] for i in range(len(PROMPTS))}

    def test_settings_flow_through(self, micro_weights):
        settings = SparseInferSettings(alpha=1.02, alpha_early=1.03,
                                       n_early_layers=1)
        ref = reference_generations(micro_weights, PROMPTS[:3], 5, settings)
        engine = build_batched_engine(
            micro_weights, settings, max_batch_size=2
        )
        scheduler = ContinuousBatchingScheduler(engine)
        for request in make_requests(5, PROMPTS[:3]):
            scheduler.submit(request)
        got = {c.request_id: c.generated_ids
               for c in scheduler.run().completions}
        assert got == {i: ref[i] for i in range(3)}

    def test_engine_is_the_forward_pass_only(self):
        """Seating lives in ``engine.cache`` (plan / seat / register /
        release); the 12-member passthrough layer must not grow back."""
        import repro.model.paged_kvcache as paged_kvcache
        import repro.serving as serving
        import repro.serving.engine as engine_module

        removed = (
            "n_free_slots", "can_admit", "allocate_slot", "release_slot",
            "find_prefix_donor", "can_fork", "fork_slot", "register_prefix",
            "prefix_cache", "find_cached_prefix", "can_revive",
            "revive_slot", "_resident", "_prefix_index",
        )
        assert [name for name in removed if hasattr(BatchedEngine, name)] == []
        assert not hasattr(engine_module, "PrefixIndex")
        assert not hasattr(engine_module, "_SingleView")
        assert serving.PrefixIndex is paged_kvcache.PrefixIndex


class TestEngineFrontDoor:
    """Malformed calls raise instead of corrupting a slot."""

    @pytest.mark.parametrize("step", ["decode_step", "draft_step"])
    def test_repeated_slot_in_one_step_raises(self, micro_weights, step):
        """Measured before the check: ``decode_step([s, s], ...)`` wrote
        both rows to position L and advanced the slot twice (3 -> 5),
        leaving position L + 1 unwritten."""
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        slot, other = engine.cache.allocate(), engine.cache.allocate()
        engine.prefill(slot, PROMPTS[0])
        engine.prefill(other, PROMPTS[1])
        kwargs = {"draft_alpha": 0.8} if step == "draft_step" else {}
        with pytest.raises(ValueError, match="at most once"):
            getattr(engine, step)([slot, other, slot], [1, 2, 3], **kwargs)
        assert (slot.length, other.length) == (3, 2)

    def test_non_integral_cache_pages_rejected(self, micro_weights):
        """``cache_pages=4.5`` was once silently accepted."""
        with pytest.raises(ValueError, match="cache_pages must be an integer"):
            build_batched_engine(micro_weights, max_batch_size=1,
                                 cache_pages=4.5)
        engine = build_batched_engine(micro_weights, max_batch_size=1,
                                      cache_pages=np.int64(4))
        assert type(engine.cache_pages) is int

    def test_packed_prefill_repeated_slot_raises(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        slot = engine.cache.allocate()
        with pytest.raises(ValueError, match="at most once"):
            engine.prefill([slot, slot], [1, 2, 3], [2, 1])
        assert slot.length == 0

    @pytest.mark.parametrize("bad", [-1, 19])
    @pytest.mark.parametrize(
        "entry", ["prefill", "decode_step", "draft_step", "verify_chunk"],
    )
    def test_out_of_vocab_token_id_raises(self, micro_weights, entry, bad):
        """Measured before the check: a negative id silently embedded a
        row from the end of the table, and ``vocab_size`` raised a raw
        ``IndexError`` from inside the forward pass."""
        assert micro_weights.config.vocab_size == 19
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        engine.prefill(slot, PROMPTS[0])
        calls = {
            "prefill": lambda: engine.prefill(slot, [3, bad, 5]),
            "decode_step": lambda: engine.decode_step([slot], [bad]),
            "draft_step": lambda: engine.draft_step([slot], [bad],
                                                    draft_alpha=0.8),
            "verify_chunk": lambda: engine.verify_chunk(slot, [2, bad]),
        }
        with pytest.raises(ValueError, match=r"token ids must lie in \[0, 19\)"):
            calls[entry]()
        assert slot.length == 3

    def test_empty_verify_chunk_raises(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        engine.prefill(slot, PROMPTS[0])
        with pytest.raises(ValueError, match="at least one token"):
            engine.verify_chunk(slot, [])
        assert slot.length == 3


def _correlated_batch(rng, batch, d):
    """Rows near one direction, so the skip intersection is non-trivial."""
    base = rng.standard_normal(d)
    return (base + 0.5 * rng.standard_normal((batch, d))).astype(np.float32)


class TestOneBatchPath:
    """``run_batch`` at batch > 1 is one dense-masked path: three GEMMs,
    each sequence's own predicted-sparse rows re-zeroed."""

    @pytest.mark.parametrize("batch", [2, 3, 8])
    def test_rows_match_single_sequence_execution(
        self, micro_weights, rng, batch
    ):
        mlp = BatchedSparseInferMLP(weights=micro_weights)
        xs = _correlated_batch(rng, batch, micro_weights.config.d_model)
        for layer in range(micro_weights.config.n_layers):
            skip = mlp.predictor.predict_intersection(layer, xs).skip
            out = mlp.run_batch(layer, xs)
            assert out.shape == xs.shape and out.dtype == np.float32
            for i in range(batch):
                np.testing.assert_allclose(
                    out[i], mlp.single.run_with_skip(layer, xs[i], skip[i]),
                    atol=1e-5,
                )

    def test_own_skipped_rows_contribute_exactly_zero(
        self, micro_weights, rng
    ):
        xs = _correlated_batch(rng, 3, micro_weights.config.d_model)
        mlp = BatchedSparseInferMLP(weights=micro_weights)
        skip = mlp.predictor.predict_intersection(0, xs).skip
        # Rows only sequence 0 skips: garbage there must not reach it.
        own = np.flatnonzero(skip[0] & ~skip[1])
        assert own.size
        before = mlp.run_batch(0, xs)
        perturbed = copy.deepcopy(micro_weights)
        perturbed.layers[0].w_up_rows[own] += 7.0
        perturbed.layers[0].w_down_rows[own] -= 3.0
        after = BatchedSparseInferMLP(
            weights=perturbed, predictor=mlp.predictor
        ).run_batch(0, xs)
        np.testing.assert_array_equal(after[0], before[0])
        assert not np.array_equal(after[1], before[1])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_gate_on_a_skipped_row_stays_out(
        self, micro_weights, rng
    ):
        """Batch 1 never computes a predicted-sparse row, so a gate
        pre-activation that overflows to inf there must not reach the
        sequence at batch 2 either (re-zeroing by multiply made it NaN)."""
        xs = _correlated_batch(rng, 2, micro_weights.config.d_model)
        mlp = BatchedSparseInferMLP(weights=micro_weights)
        row = np.flatnonzero(mlp.predictor.predict_intersection(0, xs).skip[0])[0]
        poisoned = copy.deepcopy(micro_weights)
        gate = poisoned.layers[0].w_gate_rows
        gate[row] = np.sign(xs[0]) * np.finfo(np.float32).max
        assert np.isposinf(gate[row] @ xs[0])
        executor = BatchedSparseInferMLP(
            weights=poisoned, predictor=mlp.predictor
        )
        out = executor.run_batch(0, xs)[0]
        assert np.isfinite(out).all()
        np.testing.assert_allclose(
            out, executor.run_batch(0, xs[:1])[0], atol=1e-5
        )

    def test_all_skip_and_no_skip_batches(self, micro_weights, rng):
        cfg = micro_weights.config
        xs = _correlated_batch(rng, 4, cfg.d_model)

        def executor(alpha):
            return BatchedSparseInferMLP(
                weights=micro_weights,
                predictor=SparseInferPredictor.from_gate_weights(
                    micro_weights.gate_matrices(),
                    AlphaSchedule.uniform(alpha, cfg.n_layers),
                ),
            )

        all_skip = executor(1e-3)
        assert not all_skip.run_batch(0, xs).any()
        assert all_skip.stats.rows_read_gate == 0
        no_skip = executor(1e3)
        dense = DenseMLP(micro_weights)
        np.testing.assert_allclose(
            no_skip.run_batch(0, xs),
            np.stack([dense.run(0, x) for x in xs]),
            atol=1e-5,
        )
        assert no_skip.stats.rows_read_gate == cfg.d_ff
        assert no_skip.stats.predicted_skip_seq == 0.0

    def test_stats_equal_what_the_row_gather_executor_recorded(
        self, micro_weights, rng
    ):
        """Accounting is execution-independent: the integers below were
        recorded by the parent commit's row-gather executor (PR 20) for
        this seeded batch."""
        cfg = micro_weights.config
        mlp = BatchedSparseInferMLP(weights=micro_weights)
        xs = _correlated_batch(rng, 8, cfg.d_model)
        for layer in range(cfg.n_layers):
            mlp.run_batch(layer, xs)
        stats = mlp.stats
        assert (
            stats.calls, stats.sequences, stats.rows_total,
            stats.rows_read_gate, round(stats.predicted_skip_seq * cfg.d_ff),
        ) == (2, 16, 128, 108, 406)

    @pytest.mark.parametrize("batch", [2, 3, 8])
    def test_skip_stats_equal_the_mask_reference(self, micro_weights, rng,
                                                 batch):
        """Both skip shares come from counts of the skip mask; they equal
        the per-row means and the AND-reduce of the masks.  The
        intersection share is integer-exact; the mean per-sequence share
        sums fractions in another order, so it may differ by float64
        rounding: rtol 1e-12."""
        cfg = micro_weights.config
        mlp = BatchedSparseInferMLP(weights=micro_weights)
        seq_skip, rows_read = 0.0, 0
        for step in range(6):
            xs = _correlated_batch(rng, batch, cfg.d_model)
            layer = step % cfg.n_layers
            skip = mlp.predictor.predict_intersection(layer, xs).skip
            seq_skip += skip.mean(axis=1).sum()
            rows_read += cfg.d_ff - skip.all(axis=0).sum()
            mlp.run_batch(layer, xs)
        stats = mlp.stats
        assert stats.rows_read_gate == rows_read
        assert stats.intersection_skip_fraction == \
            1.0 - rows_read / (6 * cfg.d_ff)
        np.testing.assert_allclose(stats.mean_sequence_skip_fraction,
                                   seq_skip / (6 * batch), rtol=1e-12)

    def test_batch1_stats_equal_the_batch_formulas(self, micro_weights, rng):
        """Batch 1 accounts from one count of its skip mask; the totals
        must equal the batch path's ``per_sequence_sparsity`` /
        ``intersection_skip`` formulas exactly."""
        cfg = micro_weights.config
        mlp = BatchedSparseInferMLP(weights=micro_weights)
        predicted_skip_seq, rows_read_gate = 0.0, 0
        for step in range(5):
            x = rng.standard_normal((1, cfg.d_model)).astype(np.float32)
            layer = step % cfg.n_layers
            prediction = mlp.predictor.predict_intersection(layer, x)
            predicted_skip_seq += float(prediction.per_sequence_sparsity.sum())
            rows_read_gate += cfg.d_ff - int(prediction.intersection_skip.sum())
            mlp.run_batch(layer, x)
        stats = mlp.stats
        assert (stats.calls, stats.sequences, stats.rows_total) == (
            5, 5, 5 * cfg.d_ff)
        assert stats.rows_read_gate == rows_read_gate
        assert stats.predicted_skip_seq == predicted_skip_seq
        assert mlp.single.stats.calls == 5

    def test_no_execution_strategy_knob(self):
        fields = {f.name for f in dataclasses.fields(BatchedSparseInferMLP)}
        assert fields == {
            "weights", "predictor", "use_actual_sparsity", "stats",
        }


class TestScheduler:
    def test_drains_mixed_length_queue_without_starvation(self, micro_weights):
        prompts = PROMPTS * 2                          # 12 requests, 2 slots
        lengths = [2 + (i % 5) for i in range(len(prompts))]
        requests = [
            Request(request_id=i, prompt_ids=tuple(p), max_new_tokens=n)
            for i, (p, n) in enumerate(zip(prompts, lengths))
        ]
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        assert scheduler.idle
        assert len(report.completions) == len(requests)
        by_id = {c.request_id: c for c in report.completions}
        for i, n in enumerate(lengths):
            assert by_id[i].n_generated == n
        # FIFO admission: request i never admitted after request j > i.
        admitted = [by_id[i].admitted_step for i in range(len(requests))]
        assert admitted == sorted(admitted)
        # All slots returned to the pool.
        assert engine.cache.n_free == engine.max_batch_size

    def test_requests_join_leaving_batch_mid_flight(self, micro_weights):
        requests = [
            Request(request_id=0, prompt_ids=(1, 2), max_new_tokens=10),
            Request(request_id=1, prompt_ids=(3, 4), max_new_tokens=2),
            Request(request_id=2, prompt_ids=(5, 6), max_new_tokens=2),
        ]
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        by_id = {c.request_id: c for c in report.completions}
        # Request 2 was admitted as soon as request 1 retired, while
        # request 0 was still decoding (continuous batching).
        assert by_id[2].admitted_step <= by_id[0].finished_step
        assert by_id[2].admitted_step > by_id[1].admitted_step

    def test_numpy_array_prompt_prefills(self, micro_weights):
        """Regression: ``if not prompt_ids:`` choked on numpy arrays."""
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        logits = engine.prefill(slot, np.array(PROMPTS[0]))
        ref = build_engine(micro_weights)
        ref.reset()
        assert_prefill_logits_match(logits, ref.prefill(PROMPTS[0]))
        engine.cache.release(slot)
        with pytest.raises(ValueError, match="at least one token"):
            slot2 = engine.cache.allocate()
            engine.prefill(slot2, np.array([], dtype=np.int64))

    def test_numpy_array_prompt_single_engine(self, micro_weights):
        """Same regression on :meth:`InferenceModel.prefill`."""
        engine = build_engine(micro_weights)
        engine.reset()
        got = engine.prefill(np.array(PROMPTS[0]))
        engine.reset()
        np.testing.assert_array_equal(got, engine.prefill(PROMPTS[0]))
        with pytest.raises(ValueError, match="at least one token"):
            engine.prefill(np.array([], dtype=np.int64))

    def test_zero_token_request_skips_slot_and_prefill(self, micro_weights):
        """max_new_tokens=0 must not burn a prefill or a KV slot."""
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        for i in range(3):
            scheduler.submit(Request(request_id=i, prompt_ids=(1, 2, 3),
                                     max_new_tokens=0))
        report = scheduler.run()
        assert report.prefill_tokens == 0
        assert report.prefill_seconds == 0.0
        assert report.decode_steps == 0
        assert engine.cache.n_free == 1
        assert all(c.ok and c.generated_ids == [] for c in report.completions)
        # All three complete on the first tick: none waits for the one slot.
        assert all(c.finished_step == c.admitted_step
                   for c in report.completions)

    def test_zero_token_completes_even_when_batch_is_full(
        self, micro_weights
    ):
        """A zero-token request needs no decode seat, so a full batch
        must not delay it."""
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2),
                                 max_new_tokens=20))
        scheduler.submit(Request(request_id=1, prompt_ids=(3, 4),
                                 max_new_tokens=0))
        report = scheduler.run()
        by_id = {c.request_id: c for c in report.completions}
        assert by_id[1].ok and by_id[1].generated_ids == []
        # It finished on the first tick it was considered, long before
        # the decoding request released the only slot.
        assert by_id[1].finished_step < by_id[0].finished_step

    def test_zero_token_with_oversize_prompt_succeeds(self, micro_weights):
        """No prefill means no KV demand: size limits don't apply."""
        engine = build_batched_engine(micro_weights, max_batch_size=1,
                                      max_seq_len=4)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0,
                                 prompt_ids=tuple(range(1, 11)),
                                 max_new_tokens=0))
        report = scheduler.run()
        assert report.completions[0].ok
        assert report.completions[0].generated_ids == []
        assert report.prefill_tokens == 0

    def test_zero_token_requests_dont_block_real_ones(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2),
                                 max_new_tokens=0))
        scheduler.submit(Request(request_id=1, prompt_ids=(1, 2),
                                 max_new_tokens=3))
        report = scheduler.run()
        by_id = {c.request_id: c for c in report.completions}
        assert by_id[0].generated_ids == []
        assert by_id[1].n_generated == 3
        assert report.prefill_tokens == 2      # only request 1 prefilled

    def test_stop_ids_and_zero_budget(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        scheduler = ContinuousBatchingScheduler(engine)
        ref = build_engine(micro_weights)
        first = ref.generate([1, 2], 1).generated_ids[0]
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2),
                                 max_new_tokens=0))
        scheduler.submit(Request(request_id=1, prompt_ids=(1, 2),
                                 max_new_tokens=5,
                                 stop_ids=frozenset({first})))
        report = scheduler.run()
        by_id = {c.request_id: c for c in report.completions}
        assert by_id[0].generated_ids == []
        assert by_id[1].generated_ids == []     # first token hits stop set

    def test_oversized_request_rejected_at_submit(self, micro_weights):
        """A request that can never fit a slot must not crash a batch."""
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, max_seq_len=8
        )
        scheduler = ContinuousBatchingScheduler(engine)
        with pytest.raises(ValueError, match="KV positions"):
            scheduler.submit(
                Request(request_id=0, prompt_ids=(1, 2, 3),
                        max_new_tokens=20)
            )
        # The largest request that does fit drains cleanly: it feeds
        # prompt (3) + max_new_tokens - 1 (5) = 8 positions.
        scheduler.submit(
            Request(request_id=1, prompt_ids=(1, 2, 3), max_new_tokens=6)
        )
        report = scheduler.run()
        assert report.completions[0].n_generated == 6
        assert report.completions[0].ok

    def test_duplicate_live_request_id_rejected_at_submit(self, micro_weights):
        """Submit stamps, resume state and RNG streams are keyed by
        request_id: a second live one must not silently collide."""
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        first = Request(request_id=7, prompt_ids=(1, 2, 3), max_new_tokens=3)
        queued = Request(request_id=8, prompt_ids=(4, 5), max_new_tokens=2)
        scheduler.submit(first)
        scheduler.submit(queued)
        scheduler.step()                  # 7 resident, 8 still queued
        for live_id in (7, 8):
            with pytest.raises(ValueError, match="already queued or resident"):
                scheduler.submit(Request(request_id=live_id,
                                         prompt_ids=(6,), max_new_tokens=1))
        report = scheduler.run()
        assert [c.request_id for c in report.completions] == [7, 8]
        # A completed id may be reused, and serves the same tokens.
        scheduler.submit(first)
        rerun = scheduler.run().completions[-1]
        assert rerun.request_id == 7
        assert rerun.generated_ids == report.completions[0].generated_ids

    def test_out_of_vocab_prompt_rejected_at_submit(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        scheduler = ContinuousBatchingScheduler(engine)
        vocab = micro_weights.config.vocab_size
        for bad in ((1, vocab), (-1, 2)):
            with pytest.raises(ValueError, match="outside"):
                scheduler.submit(Request(request_id=0, prompt_ids=bad,
                                         max_new_tokens=2))
        scheduler.submit(Request(request_id=0, prompt_ids=(vocab - 1, 0),
                                 max_new_tokens=2))
        assert scheduler.run().completions[0].ok

    def test_numpy_prompt_served_like_a_tuple(self, micro_weights):
        """Regression: ``not prompt_ids`` raised numpy's ambiguous-truth
        error on an array prompt."""
        array = Request(request_id=0, prompt_ids=np.array([4, 5, 6]),
                        max_new_tokens=3,
                        stop_ids=np.array([9], dtype=np.int32))
        assert array.prompt_ids == (4, 5, 6)
        assert all(type(t) is int for t in array.prompt_ids)
        assert array.stop_ids == frozenset({9})
        with pytest.raises(ValueError, match="non-empty"):
            Request(request_id=0, prompt_ids=np.array([], dtype=np.int64),
                    max_new_tokens=1)

        scheduler = ContinuousBatchingScheduler(
            build_batched_engine(micro_weights, max_batch_size=1))
        scheduler.submit(array)
        scheduler.submit(Request(request_id=1, prompt_ids=(4, 5, 6),
                                 max_new_tokens=3, stop_ids=(9,)))
        first, second = scheduler.run().completions
        assert first.generated_ids == second.generated_ids

    @pytest.mark.parametrize("field,ids", [
        ("prompt_ids", (1.5, 2)),
        ("prompt_ids", np.array([1.0, 2.0])),
        ("stop_ids", (3.7,)),
    ])
    def test_non_integral_token_ids_rejected(self, field, ids):
        """Floats were once truncated and served: (1.5, 2) decoded (1, 2)."""
        kwargs = dict(request_id=0, prompt_ids=(1, 2), max_new_tokens=1)
        kwargs[field] = ids
        with pytest.raises(ValueError, match=field):
            Request(**kwargs)

    @pytest.mark.parametrize("field,ticks", [
        ("ttft_steps", 2.9),
        ("itl_steps", np.float64(3.0)),
    ])
    def test_non_integral_slo_ticks_rejected(self, field, ticks):
        """Floats were once truncated: ``ttft_steps=2.9`` became 2."""
        with pytest.raises(ValueError, match=field):
            SLOSpec(**{field: ticks})
        assert SLOSpec(**{field: np.int64(3)}) == SLOSpec(**{field: 3})

    @pytest.mark.parametrize("field,value", [
        ("max_new_tokens", 2.5),
        ("priority", 0.5),
    ])
    def test_non_integral_request_fields_rejected(self, field, value):
        """Measured before the check: ``max_new_tokens=2.5`` generated 3
        tokens, and ``priority=0.5`` was truncated to 0, so the request
        could no longer preempt a priority-0 resident."""
        kwargs = dict(request_id=0, prompt_ids=(1, 2), max_new_tokens=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Request(**kwargs)
        kwargs[field] = np.int64(2)
        assert type(getattr(Request(**kwargs), field)) is int

    def test_oversized_request_via_raw_queue_is_rejected_not_fatal(
        self, micro_weights
    ):
        """Admission re-checks capacity when the queue bypasses submit()."""
        queue = RequestQueue()
        queue.submit(Request(request_id=0, prompt_ids=(1, 2, 3),
                             max_new_tokens=50))
        queue.submit(Request(request_id=1, prompt_ids=(4, 5),
                             max_new_tokens=3))
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, max_seq_len=8
        )
        scheduler = ContinuousBatchingScheduler(engine, queue=queue)
        report = scheduler.run()
        by_id = {c.request_id: c for c in report.completions}
        assert not by_id[0].ok and "KV positions" in by_id[0].error
        assert by_id[0].generated_ids == []
        assert by_id[1].ok and by_id[1].n_generated == 3
        assert engine.cache.n_free == engine.max_batch_size

    def test_run_succeeds_when_draining_on_the_last_allowed_step(
        self, micro_weights
    ):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2),
                                 max_new_tokens=4))
        # Four tokens need exactly 3 ticks: the admission tick yields two
        # (one sampled from prefill logits, one decoded), then one per tick.
        report = scheduler.run(max_steps=3)
        assert report.completions[0].n_generated == 4
        scheduler2 = ContinuousBatchingScheduler(
            build_batched_engine(micro_weights, max_batch_size=1)
        )
        scheduler2.submit(Request(request_id=0, prompt_ids=(1, 2),
                                  max_new_tokens=5))
        with pytest.raises(RuntimeError, match="did not drain"):
            scheduler2.run(max_steps=3)

    def test_queue_is_fifo(self):
        queue = RequestQueue()
        for request in make_requests():
            queue.submit(request)
        assert len(queue) == len(PROMPTS)
        assert [queue.pop().request_id for _ in range(len(PROMPTS))] == \
            list(range(len(PROMPTS)))
        with pytest.raises(IndexError):
            queue.pop()


class TestEmptyQueueError:
    def test_typed_error_on_empty_access(self):
        queue = RequestQueue()
        with pytest.raises(EmptyQueueError):
            queue.pop()
        with pytest.raises(EmptyQueueError):
            queue.peek()
        with pytest.raises(EmptyQueueError):
            queue.pop_at(0)
        # Subclass: existing except-IndexError callers keep working.
        assert issubclass(EmptyQueueError, IndexError)

    def test_window_and_pop_at(self):
        queue = RequestQueue()
        for request in make_requests():
            queue.submit(request)
        assert [r.request_id for r in queue.window(3)] == [0, 1, 2]
        assert [r.request_id for r in queue.window(100)] == \
            list(range(len(PROMPTS)))
        with pytest.raises(ValueError):
            queue.window(0)
        assert queue.pop_at(2).request_id == 2
        assert queue.pop_at(0).request_id == 0
        assert [r.request_id for r in queue.window(10)] == [1, 3, 4, 5]
        # Out-of-range / negative indices on a non-empty queue are caller
        # bugs: plain IndexError, never the EmptyQueueError drain loops
        # treat as benign.
        with pytest.raises(IndexError) as exc:
            queue.pop_at(4)
        assert not isinstance(exc.value, EmptyQueueError)
        with pytest.raises(IndexError) as exc:
            queue.pop_at(-1)
        assert not isinstance(exc.value, EmptyQueueError)
        assert len(queue) == 4                 # nothing silently popped

    def test_bookkeeping_bug_is_not_swallowed_as_empty(self, micro_weights):
        """The drain loop catches EmptyQueueError only: a bare
        IndexError from a buggy queue must crash, not read as idle."""
        class BuggyQueue(RequestQueue):
            def peek(self):
                raise IndexError("admission bookkeeping bug")

            def __bool__(self):
                return True

        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine, queue=BuggyQueue())
        with pytest.raises(IndexError, match="bookkeeping bug"):
            scheduler.step()

    def test_empty_queue_reads_as_idle(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        assert scheduler.step() == []          # no crash, nothing admitted
        assert scheduler.idle


class TestPrefixIndex:
    def test_insert_lookup_longest_and_cap(self):
        index = PrefixIndex(page_size=4)
        index.insert(0, (1, 2, 3, 4, 5, 6, 7, 8))
        index.insert(1, (1, 2, 3, 4, 9, 9, 9, 9))
        # Longest sharer wins; extension runs past the aligned boundary.
        slot, shared = index.lookup((1, 2, 3, 4, 5, 6, 7, 8, 7))
        assert (slot, shared) == (0, 8)
        # The last prompt token is never shared (logits must come from
        # a real prefill).
        slot, shared = index.lookup((1, 2, 3, 4, 5, 6, 7, 8))
        assert (slot, shared) == (0, 7)
        slot, shared = index.lookup((1, 2, 3, 4, 9, 9, 2))
        assert (slot, shared) == (1, 6)

    def test_sub_page_prompts_never_match(self):
        index = PrefixIndex(page_size=8)
        index.insert(0, (1, 2, 3, 4, 5, 6, 7, 8))
        assert index.lookup((1, 2, 3, 4)) == (None, 0)
        index_small = PrefixIndex(page_size=8)
        index_small.insert(1, (1, 2, 3))       # prompt shorter than a page
        assert index_small.lookup((1, 2, 3, 4, 5, 6, 7, 8, 9)) == (None, 0)

    def test_remove_unregisters_all_buckets(self):
        index = PrefixIndex(page_size=2)
        index.insert(0, (1, 2, 3, 4, 5, 6))
        index.remove(0)
        assert index.lookup((1, 2, 3, 4, 5, 6, 7)) == (None, 0)
        assert len(index) == 0
        assert index._buckets == {}
        index.remove(0)                        # idempotent
        index.insert(0, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="already indexed"):
            index.insert(0, (9, 9))


def shared_prefix_requests(base, n, prefix_len, suffix_len=1,
                           max_new_tokens=4, start_id=0):
    """Requests whose prompts all share ``base[:prefix_len]``."""
    out = []
    for i in range(n):
        suffix = tuple(2 + ((i + j) % 7) for j in range(suffix_len))
        out.append(Request(request_id=start_id + i,
                           prompt_ids=tuple(base[:prefix_len]) + suffix,
                           max_new_tokens=max_new_tokens))
    return out


class TestCorrelationAwareScheduler:
    BASE = (1, 4, 2, 7, 3, 5, 6, 2, 9, 1, 3, 8)

    def test_sharing_keeps_tokens_identical(self, micro_weights):
        requests = shared_prefix_requests(self.BASE, 5, 8, suffix_len=2,
                                          max_new_tokens=5)
        engine = build_batched_engine(
            micro_weights, max_batch_size=3, page_size=4,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, admission="prefix", admission_window=4,
        )
        # The first prompt is prefilled and registered in tick 1; the
        # rest arrive after it, so they find a resident donor.
        scheduler.submit(requests[0])
        scheduler.step()
        for request in requests[1:]:
            scheduler.submit(request)
        report = scheduler.run()
        shared = [c.generated_ids for c in sorted(
            report.completions, key=lambda c: c.request_id)]
        assert shared == reference_generations(
            micro_weights, [r.prompt_ids for r in requests], 5
        )
        assert report.forked_admissions > 0
        assert report.prefill_tokens_saved > 0
        # Saved + run prefill covers exactly the prompt positions.
        assert report.prefill_tokens + report.prefill_tokens_saved == \
            sum(r.prompt_len for r in requests)
        assert report.peak_shared_pages > 0
        assert report.intersection_skip >= 0.0
        assert report.expected_uncorrelated_skip <= \
            report.mean_sequence_skip + 1e-9

    def test_prefix_window_never_starves_head(self, micro_weights):
        """The FIFO head is bypassed at most ``window - 1`` times."""
        window = 3
        donor = Request(request_id=0, prompt_ids=self.BASE[:8],
                        max_new_tokens=9)                 # 4 pages of 4
        head = Request(request_id=1,
                       prompt_ids=(9,) * 12, max_new_tokens=13)  # 6 pages
        sharers = shared_prefix_requests(self.BASE, 5, 8, max_new_tokens=8,
                                         start_id=2)      # forks: 2 pages
        engine = build_batched_engine(
            micro_weights, max_batch_size=8, max_seq_len=32,
            page_size=4, n_pages=8,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, admission="prefix", admission_window=window,
        )
        for request in [donor, head] + sharers:
            scheduler.submit(request)
        report = scheduler.run()
        by_id = {c.request_id: c for c in report.completions}
        assert all(by_id[i].ok for i in range(len(by_id)))
        # The head (request 1) never fits while the donor runs, so
        # sharers may jump it -- but at most window - 1 = 2 of them.
        jumped = [i for i in range(2, 7)
                  if by_id[i].admitted_step < by_id[1].admitted_step]
        assert 1 <= len(jumped) <= window - 1
        assert report.forked_admissions >= 2
        # Every sharer admitted after the bound waited behind the head.
        assert max(by_id[i].admitted_step for i in range(2, 7)) > \
            by_id[1].admitted_step

    def test_strict_fifo_when_window_is_one(self, micro_weights):
        """A one-request window leaves prefix admission nothing to
        jump to: it admits exactly as FIFO does."""
        requests = shared_prefix_requests(self.BASE, 6, 8, max_new_tokens=6)
        runs = {}
        for admission in ("fifo", "prefix"):
            engine = build_batched_engine(
                micro_weights, max_batch_size=2, page_size=4,
            )
            scheduler = ContinuousBatchingScheduler(
                engine, admission=admission, admission_window=1,
            )
            scheduler.submit(requests[0])
            scheduler.step()             # prefilled and registered
            for request in requests[1:]:
                scheduler.submit(request)
            report = scheduler.run()
            by_id = {c.request_id: c for c in report.completions}
            admitted = [by_id[i].admitted_step for i in range(len(requests))]
            assert admitted == sorted(admitted)
            # FIFO still forks off resident donors when the head shares.
            assert report.forked_admissions > 0
            runs[admission] = [
                (i, by_id[i].admitted_step, by_id[i].finished_step,
                 by_id[i].generated_ids)
                for i in range(len(requests))
            ]
        assert runs["prefix"] == runs["fifo"]

    def test_reservations_never_overcommit_with_forks(self, micro_weights):
        """After every tick: reserved <= free pages, nothing negative."""
        requests = shared_prefix_requests(self.BASE, 8, 8, suffix_len=3,
                                          max_new_tokens=7)
        engine = build_batched_engine(
            micro_weights, max_batch_size=4, max_seq_len=32,
            page_size=4, n_pages=10,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, admission="prefix", admission_window=4,
        )
        for request in requests:
            scheduler.submit(request)
        pool = engine.cache.pool
        steps = 0
        while not scheduler.idle:
            scheduler.step()
            steps += 1
            assert steps < 500
            assert 0 <= pool._reserved <= pool.n_free_pages
            assert pool.n_available_pages >= 0
            assert pool.n_pages_in_use <= pool.n_pages
        report = scheduler.report
        assert len(report.completions) == len(requests)
        assert pool._reserved == 0 and pool.n_pages_in_use == 0
        assert engine.cache.n_free == 4

    def test_released_donor_is_no_longer_matched(self, micro_weights):
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
        )
        slot = engine.cache.allocate()
        engine.prefill(slot, self.BASE[:8])
        engine.cache.register(slot, self.BASE[:8])
        plan = engine.cache.fork_plan(self.BASE[:8] + (5,))
        assert plan.donor is slot and plan.shared == 8 and plan.fits
        engine.cache.release(slot)
        assert engine.cache.fork_plan(self.BASE[:8] + (5,)).donor is None

    def test_admission_window_validation(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        for window in (0, -1, 2.5):
            with pytest.raises(ValueError, match="admission_window must be"):
                ContinuousBatchingScheduler(engine, admission_window=window)

    def test_common_prefix_len(self):
        request = Request(request_id=0, prompt_ids=(1, 2, 3, 4),
                          max_new_tokens=1)
        assert request.common_prefix_len((1, 2, 3, 4, 5)) == 4
        assert request.common_prefix_len((1, 2, 9)) == 2
        assert request.common_prefix_len(np.array([1, 2, 3, 4])) == 4
        assert request.common_prefix_len(()) == 0


class TestServingMetrics:
    def test_intersection_skip_decays_with_batch_size(self, micro_weights):
        """Batch 1 realises the full per-sequence skip; wider batches
        intersect it away along the analytical ``skip^B`` curve."""
        requests = make_requests(12)
        reports = {}
        for batch_size in (1, 2, 4):
            scheduler = ContinuousBatchingScheduler(build_batched_engine(
                micro_weights, max_batch_size=batch_size,
            ))
            for request in requests:
                scheduler.submit(request)
            reports[batch_size] = scheduler.run()
        sequence_skip = reports[1].mean_sequence_skip
        assert reports[1].mean_batch_occupancy == 1.0
        assert reports[1].intersection_skip == \
            pytest.approx(sequence_skip, abs=0.02)
        skips = [report.intersection_skip for report in reports.values()]
        assert skips == sorted(skips, reverse=True)
        for batch_size, report in reports.items():
            assert report.tokens_generated == reports[1].tokens_generated
            assert report.intersection_skip <= \
                report.mean_sequence_skip + 1e-9
            occupancy = report.mean_batch_occupancy
            if batch_size > 1:
                assert occupancy > 1.0
                assert report.intersection_skip < sequence_skip
            expected = batch_skip_fraction(
                sequence_skip, max(1, round(occupancy)),
            )
            assert abs(report.intersection_skip - expected) < 0.15


class TestServeReportTelemetryContract:
    """Every wall-clock and per-tick ``*_sum`` counter in ServeReport is
    exercised here, so the telemetry stays load-bearing (the
    ``telemetry-docs`` rule in ``repro.analysis`` requires each field to
    be referenced by reporting code or a test)."""

    def test_sum_counters_and_wall_clock_split(self, micro_weights):
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
            n_pages=12, cache_pages=4,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, step_budget=2, preemption=True,
        )
        # Request 1 arrives once request 0's chunked prefill has
        # finished, so it admits as a prefix fork and the shared pages
        # are counted on the decode ticks both are resident.  It
        # retires quickly, parking its prefix in the cache while
        # request 0 keeps decoding.  The late VIP arrives page-starved
        # and outranks the resident, forcing a preemption and a
        # resume-with-replay.
        shared = (1, 2, 3, 4, 5)
        scheduler.submit(Request(request_id=0, prompt_ids=shared,
                                 max_new_tokens=20, priority=0))
        ticks = 0
        while not scheduler.idle:
            scheduler.step()
            ticks += 1
            assert ticks < 500
            if ticks == 4:
                scheduler.submit(Request(
                    request_id=1, prompt_ids=shared + (6,),
                    max_new_tokens=3, priority=0,
                ))
            if ticks == 12:
                scheduler.submit(Request(
                    request_id=2,
                    prompt_ids=(6, 7, 8, 9, 10, 11, 12, 13),
                    max_new_tokens=20, priority=5,
                ))
        report = scheduler.report
        assert len(report.completions) == 3
        # Wall-clock split: every phase accumulated real time and the
        # derived rates agree with the parts.
        assert report.decode_seconds > 0.0
        assert report.preemptions >= 1 and report.replayed_tokens >= 1
        assert report.replay_seconds > 0.0
        assert report.wall_seconds == pytest.approx(
            report.prefill_seconds + report.decode_seconds
            + report.replay_seconds + report.sampler_seconds
        )
        # Sampling split: a greedy workload emits only greedy tokens,
        # but the sampler still runs (and is timed) every tick.
        assert report.greedy_tokens == report.tokens_generated
        assert report.sampled_tokens == 0
        assert report.sampler_seconds > 0.0
        assert report.decode_tokens_per_second == pytest.approx(
            report.tokens_generated / report.decode_seconds
        )
        # Per-tick page sums feed the documented means.
        assert report.shared_pages_sum > 0
        assert report.mean_shared_pages == pytest.approx(
            report.shared_pages_sum / report.decode_steps
        )
        assert report.cached_pages_sum > 0
        assert report.mean_cached_pages == pytest.approx(
            report.cached_pages_sum / report.decode_steps
        )
        # Batch > 1 decode ran.
        assert report.peak_occupancy > 1


    def test_skip_telemetry_is_per_run_on_a_reused_engine(self, micro_weights):
        """``engine.sparse.stats`` is engine-lifetime; a second scheduler
        must report only its own run.  At batch 1 the intersection *is*
        the sequence's own skip set, so the two fractions coincide."""
        def drain(engine, requests):
            scheduler = ContinuousBatchingScheduler(engine)
            for request in requests:
                scheduler.submit(request)
            return scheduler.run()

        solo = [Request(request_id=9, prompt_ids=(1, 4, 2), max_new_tokens=6)]
        fresh = drain(build_batched_engine(micro_weights, max_batch_size=1),
                      solo)
        reused_engine = build_batched_engine(micro_weights, max_batch_size=4)
        warm = drain(reused_engine, make_requests(6, PROMPTS[:4]))
        assert warm.intersection_skip < warm.mean_sequence_skip
        reused = drain(reused_engine, solo)
        assert reused.mean_batch_occupancy == 1.0
        assert reused.intersection_skip == pytest.approx(
            reused.mean_sequence_skip
        )
        assert reused.intersection_skip == pytest.approx(
            fresh.intersection_skip
        )
        assert reused.mean_sequence_skip == pytest.approx(
            fresh.mean_sequence_skip
        )


class TestBudgetedScheduling:
    """step_budget / preemption knobs and their telemetry (PR 6)."""

    def test_step_budget_validation(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        # 2.5 once built, then raised TypeError mid-tick slicing the
        # pending prompt, leaving the sequence active.
        for budget in (0, -1, 2.5):
            with pytest.raises(ValueError, match="step_budget must be"):
                ContinuousBatchingScheduler(engine, step_budget=budget)
        scheduler = ContinuousBatchingScheduler(engine,
                                                step_budget=np.int64(2))
        assert type(scheduler.step_budget) is int

    def test_default_scheduler_budgets_a_long_prompt(self, micro_config):
        """The default tick is the budgeted one: a 100-token prompt is
        prefilled over several ticks of at most 32 tokens."""
        config = dataclasses.replace(micro_config, max_seq_len=128)
        engine = build_batched_engine(random_weights(config, seed=11),
                                      max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        prompt = tuple(i % config.vocab_size for i in range(100))
        scheduler.submit(Request(request_id=0, prompt_ids=prompt,
                                 max_new_tokens=2))
        report = scheduler.run()
        assert report.completions[0].ok
        assert report.step_budget == 32
        assert report.prefill_tokens == 100
        assert report.peak_tick_prefill_tokens <= 32

    def test_skip_telemetry_fresh_on_every_return_path(self, micro_weights):
        """Regression: ticks with no decode batch returned early without
        ``_finalise_skip_telemetry``, leaving the report's skip fields
        stale.  A resumed sequence's replay runs the sparse executor on
        restoration-only ticks, so staleness is observable: after every
        single tick the report must agree with the live engine stats.
        """
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
            n_pages=10, cache_pages=4,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, step_budget=1, preemption=True,
        )
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2, 3, 4, 5),
                                 max_new_tokens=20, priority=0))
        stats = engine.sparse.stats
        ticks = 0
        submitted_vip = False
        while not scheduler.idle:
            scheduler.step()
            ticks += 1
            assert ticks < 500
            assert scheduler.report.intersection_skip == \
                stats.intersection_skip_fraction
            assert scheduler.report.mean_sequence_skip == \
                stats.mean_sequence_skip_fraction
            if ticks == 10 and not submitted_vip:
                # Arrives page-starved and outranks the resident.
                scheduler.submit(Request(
                    request_id=1, prompt_ids=(6, 7, 8, 9, 10, 11, 12, 13),
                    max_new_tokens=20, priority=5,
                ))
                submitted_vip = True
        report = scheduler.report
        assert report.preemptions >= 1
        assert report.replayed_tokens >= 1
        assert len(report.completions) == 2

    def test_run_max_steps_overflow_then_resumes(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in make_requests(6)[:3]:
            scheduler.submit(request)
        with pytest.raises(RuntimeError, match="did not drain"):
            scheduler.run(max_steps=2)
        # The overflow is a deadline, not corruption: the same scheduler
        # keeps draining and every request still completes exactly once.
        report = scheduler.run()
        assert scheduler.idle
        assert len(report.completions) == 3
        assert sorted(c.request_id for c in report.completions) == [0, 1, 2]

    def test_run_max_steps_exact_finish_does_not_raise(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        scheduler = ContinuousBatchingScheduler(engine)
        # max_new=2 drains in exactly one tick: admit + first token,
        # then the tick's decode emits the second.
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2),
                                 max_new_tokens=2))
        report = scheduler.run(max_steps=1)
        assert scheduler.idle
        assert report.completions[0].n_generated == 2

    def test_mid_run_submit_keeps_report_consistent(self, micro_weights):
        """Interleaving submit() with step() mid-run keeps every
        ServeReport/Completion cross-sum consistent."""
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
            n_pages=40,
        )
        scheduler = ContinuousBatchingScheduler(engine, step_budget=3)
        early = make_requests(4)[:2]
        for request in early:
            scheduler.submit(request)
        for _ in range(3):
            scheduler.step()
        late = [
            Request(request_id=10 + i, prompt_ids=tuple(p),
                    max_new_tokens=3)
            for i, p in enumerate(PROMPTS[2:5])
        ]
        for request in late:
            scheduler.submit(request)
        report = scheduler.run()
        assert len(report.completions) == len(early) + len(late)
        assert report.tokens_generated == sum(
            c.n_generated for c in report.completions
        )
        # Every decode participation is counted exactly once on each side.
        assert report.occupancy_sum == sum(
            c.decode_steps for c in report.completions
        )
        for c in report.completions:
            assert c.ok and c.n_generated > 0
            assert c.ttft_seconds is not None and c.ttft_seconds >= 0.0
            assert len(c.itl_seconds) == c.n_generated - 1
            assert all(gap >= 0.0 for gap in c.itl_seconds)
            assert c.admitted_step <= c.first_token_step <= c.finished_step
        assert report.ttft_seconds_percentile(50) > 0.0
        assert report.itl_seconds_percentile(50) <= \
            report.itl_seconds_percentile(99) <= report.max_itl_seconds

    def test_shared_prefix_fleet_packs_one_prefill_per_tick(
        self, micro_weights
    ):
        """Every prefill piece of a budgeted tick runs in one packed
        ``engine.prefill`` call; tokens and piece/token counters are
        what one call per piece would give."""
        requests = shared_prefix_requests(
            TestCorrelationAwareScheduler.BASE, 8, 8, suffix_len=5,
            max_new_tokens=5,
        )
        expected = reference_generations(
            micro_weights, [r.prompt_ids for r in requests], 5
        )
        runs = {}
        for budget in (2, 20):
            engine = build_batched_engine(
                micro_weights, max_batch_size=4, page_size=4,
            )
            scheduler = ContinuousBatchingScheduler(
                engine, step_budget=budget, admission="prefix",
                admission_window=4,
            )
            calls = []          # (tick, pieces, tokens) per engine.prefill
            prefill = engine.prefill

            def counted(slots, prompt_ids, lengths=None):
                calls.append((scheduler.step_count, len(slots),
                              len(prompt_ids)))
                return prefill(slots, prompt_ids, lengths)

            engine.prefill = counted
            for request in requests:
                scheduler.submit(request)
            report = scheduler.run()
            tokens = [c.generated_ids for c in sorted(
                report.completions, key=lambda c: c.request_id)]
            runs[budget] = (tokens, report, calls)
        assert runs[2][0] == runs[20][0] == expected

        _, report, calls = runs[20]
        ticks = [tick for tick, _, _ in calls]
        assert len(ticks) == len(set(ticks))          # <= 1 pass per tick
        assert max(pieces for _, pieces, _ in calls) > 1
        assert report.forked_admissions > 0
        assert report.piggybacked_chunks == sum(p for _, p, _ in calls)
        assert report.piggybacked_tokens == report.prefill_tokens == \
            sum(n for _, _, n in calls)
        assert report.peak_tick_prefill_tokens == \
            max(n for _, _, n in calls) <= 20

    def test_budget_knobs_reach_the_report(self, micro_weights):
        requests = make_requests(3)
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=4,
        )
        scheduler = ContinuousBatchingScheduler(
            engine, step_budget=4, preemption=True,
        )
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        assert report.step_budget == 4
        assert report.peak_tick_prefill_tokens <= 4
        assert report.piggybacked_tokens == sum(
            len(r.prompt_ids) for r in requests
        )
        assert report.max_itl_seconds >= \
            report.itl_seconds_percentile(99) >= 0.0


def drain_bursty(engine, requests):
    """Drain requests one at a time (non-overlapping lifetimes).

    Each request is fully decoded before the next is submitted, so no
    sequence is ever resident when its successor is admitted -- the
    resident ``PrefixIndex`` can never match, and only the cross-request
    prefix cache can save prefill.  One scheduler accumulates the report
    across bursts.
    """
    scheduler = ContinuousBatchingScheduler(engine)
    for request in requests:
        scheduler.submit(request)
        scheduler.run()
    return scheduler.report


class TestPrefixCache:
    BASE = (1, 4, 2, 7, 3, 5, 6, 2, 9, 1, 3, 8)

    def _engine(self, weights, cache_pages, max_batch_size=2, n_pages=16):
        return build_batched_engine(
            weights, max_batch_size=max_batch_size, max_seq_len=32,
            page_size=4, n_pages=n_pages, cache_pages=cache_pages,
        )

    def test_bursty_revive_matches_cold_prefill(self, micro_weights):
        """Non-overlapping same-prefix bursts: the cache (and only the
        cache) saves the shared prefill, and tokens never change."""
        requests = shared_prefix_requests(self.BASE, 5, 8, suffix_len=2,
                                          max_new_tokens=4)
        cold_engine = self._engine(micro_weights, 0)
        hot_engine = self._engine(micro_weights, 8)
        cold = drain_bursty(cold_engine, requests)
        hot = drain_bursty(hot_engine, requests)
        # Bursts decode at batch 1, so both match the scalar engine.
        expect = oracle_tokens(micro_weights, requests)
        assert {c.request_id: c.generated_ids for c in cold.completions} \
            == {c.request_id: c.generated_ids for c in hot.completions} \
            == expect
        for engine in (cold_engine, hot_engine):
            assert engine.cache.n_pages_in_use == 0
            assert engine.cache.pool._reserved == 0
        # Resident-only matching saves nothing across bursts...
        assert cold.forked_admissions == 0
        assert cold.revived_admissions == 0
        assert cold.prefill_tokens_saved == 0
        # ...the cache revives every burst after the first.
        assert hot.forked_admissions == 0
        assert hot.revived_admissions == len(requests) - 1
        assert hot.revived_tokens == (len(requests) - 1) * 8
        assert hot.prefill_tokens + hot.revived_tokens == cold.prefill_tokens
        assert hot.prefill_cache_fraction > 0.5
        assert 2 <= hot.peak_cached_pages <= hot.cache_pages == 8
        assert hot.peak_pages_in_use <= hot.n_pages
        assert cold.cache_pages == 0

    def test_revive_then_fork_chain_bit_identical(self, micro_weights):
        """A revived sequence immediately serves as a fork donor; the
        whole chain decodes exactly what cold prefill decodes."""
        seed = shared_prefix_requests(self.BASE, 1, 8, suffix_len=2,
                                      max_new_tokens=4)
        chain = shared_prefix_requests(self.BASE, 2, 8, suffix_len=2,
                                       max_new_tokens=4, start_id=1)
        engine = self._engine(micro_weights, 8)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(seed[0])
        scheduler.run()                      # retire -> prefix parked
        scheduler.submit(chain[0])
        scheduler.step()                     # revive, prefill, register
        scheduler.submit(chain[1])
        scheduler.run()                      # fork the revived sequence
        report = scheduler.report
        assert report.revived_admissions == 1
        assert report.forked_admissions == 1
        ref = build_engine(micro_weights)
        got = {c.request_id: c.generated_ids for c in report.completions}
        for request in seed + chain:
            expect = ref.generate(list(request.prompt_ids),
                                  max_new_tokens=4).generated_ids
            assert got[request.request_id] == expect

    def test_resident_donor_preferred_over_cache(self, micro_weights):
        """Lookup order: a live donor forks even when the cache holds
        the same prefix."""
        requests = shared_prefix_requests(self.BASE, 3, 8, suffix_len=2,
                                          max_new_tokens=6)
        engine = self._engine(micro_weights, 8, max_batch_size=2)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(requests[0])
        scheduler.run()                      # parked
        scheduler.submit(requests[1])        # revives the parked prefix
        scheduler.step()
        scheduler.submit(requests[2])        # donor (request 1) is resident
        scheduler.run()
        assert scheduler.report.revived_admissions == 1
        assert scheduler.report.forked_admissions == 1

    def test_eviction_under_pressure_is_counted(self, micro_weights):
        """Cold admissions of a different prefix reclaim cached pages on
        demand and the report counts the evictions."""
        same = shared_prefix_requests(self.BASE, 2, 8, suffix_len=2,
                                      max_new_tokens=4)
        other_base = tuple(9 - b for b in self.BASE)
        other = shared_prefix_requests(other_base, 2, 8, suffix_len=2,
                                       max_new_tokens=4, start_id=2)
        # 4 pages: exactly one request's worst case (10 + 4 - 1 -> 13
        # positions), so any cached pages must be evicted to admit the
        # next cold request.
        engine = self._engine(micro_weights, 8, n_pages=4)
        report = drain_bursty(engine, [same[0], other[0], same[1], other[1]])
        assert report.cache_evictions > 0
        assert report.revived_admissions == 0   # every prefix was evicted
        assert all(c.ok for c in report.completions)

    def test_cached_prefix_never_covers_whole_prompt(self, micro_weights):
        """At least one prompt token is always left to prefill."""
        prompt = self.BASE[:8]                   # exactly 2 pages
        request = Request(request_id=0, prompt_ids=prompt, max_new_tokens=3)
        engine = self._engine(micro_weights, 8)
        report = drain_bursty(engine, [request])
        plan = engine.cache.plan(prompt)
        assert plan.shared == 4                  # 1 page, not 2
        assert len(plan.pages) == 1
        ref = build_engine(micro_weights)
        engine2 = self._engine(micro_weights, 8)
        rep = drain_bursty(engine2, [
            Request(request_id=0, prompt_ids=prompt, max_new_tokens=3),
            Request(request_id=1, prompt_ids=prompt, max_new_tokens=3),
        ])
        expect = ref.generate(list(prompt), max_new_tokens=3).generated_ids
        for completion in rep.completions:
            assert completion.generated_ids == expect
        assert rep.revived_admissions == 1
        assert rep.revived_tokens == 4

