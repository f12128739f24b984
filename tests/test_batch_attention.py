"""Batched decode attention + chunked prefill: equivalence and masking.

The contract under test: the serving engine's batched attention and
chunked prefill decode exactly the tokens the scalar oracle
(``build_engine(...).generate``) does, at any batch size, page size and
prefix-sharing configuration; a batch-1 ``decode_step`` is bit-identical
to ``forward_token`` on identical KV.  Plus the supporting pieces: the
shared RoPE memo, length bucketing, the padded-gather plans, and the
padding-mask property (garbage in padded K/V cells can never reach a
logit).
"""

import numpy as np
import pytest

from repro.core.engine import (
    SparseInferSettings,
    build_batched_engine,
    build_engine,
)
from repro.eval.latency import measure_batched_serving
from repro.model.batch_attention import (
    AttentionTelemetry,
    BatchedAttention,
    length_buckets,
)
from repro.model.inference import attend_single
from repro.model.kvcache import KVCache
from repro.model.rope import rope_for_position, rope_tables
from repro.serving import ContinuousBatchingScheduler, Request

from helpers import (
    assert_batch1_decode_bit_identical,
    assert_prefill_logits_match,
    oracle_tokens,
)

# 17 tokens: spans at least one full page at every page_size <= 16 in
# the sweep, so the prefix index can match it.
SHARED_PREFIX = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2)
MIXED_PROMPTS = [
    (2, 7, 1),
    (5, 3, 8, 6, 2, 9, 4),
    SHARED_PREFIX + (8, 2),
    SHARED_PREFIX + (1, 7, 3, 2),
    (6, 2),
    (9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 2, 3),
    SHARED_PREFIX + (4,),
    (1, 2, 3, 4, 5),
]


def make_requests(max_new: int = 7):
    return [
        Request(request_id=i, prompt_ids=prompt,
                max_new_tokens=max_new - (i % 3))
        for i, prompt in enumerate(MIXED_PROMPTS)
    ]


def drain(weights, requests, **kwargs):
    reorder = kwargs.pop("reorder_window", 0)
    engine = build_batched_engine(weights, **kwargs)
    scheduler = ContinuousBatchingScheduler(engine, reorder_window=reorder)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    tokens = {c.request_id: c.generated_ids for c in report.completions}
    return tokens, report


class TestRopeMemo:
    def test_matches_rope_tables_bitwise(self):
        cos, sin = rope_for_position(7, 8)
        ref_cos, ref_sin = rope_tables(np.array([7]), 8)
        np.testing.assert_array_equal(cos, ref_cos)
        np.testing.assert_array_equal(sin, ref_sin)

    def test_same_position_shares_one_object(self):
        a = rope_for_position(13, 8)
        b = rope_for_position(13, 8)
        assert a[0] is b[0] and a[1] is b[1]
        # ...including via a numpy integer position (same cache key).
        c = rope_for_position(np.int64(13), 8)
        assert c[0] is a[0]

    def test_distinct_geometry_distinct_entries(self):
        assert rope_for_position(2, 8)[0] is not rope_for_position(3, 8)[0]
        assert rope_for_position(2, 8)[0] is not rope_for_position(2, 4)[0]
        assert (rope_for_position(2, 8, 10000.0)[0]
                is not rope_for_position(2, 8, 500.0)[0])

    def test_cached_tables_are_frozen(self):
        cos, _ = rope_for_position(21, 8)
        with pytest.raises(ValueError):
            cos[0, 0] = 0.0

    def test_attend_single_default_rope_is_memoized(self, micro_config, rng):
        """rope=None funnels through the memo, bit-identical to before."""
        d = micro_config.d_model
        q, k, v = (rng.standard_normal(d).astype(np.float32)
                   for _ in range(3))
        explicit_cache = KVCache(micro_config)
        memo_cache = KVCache(micro_config)
        explicit = attend_single(
            micro_config, q, k, v, 0, explicit_cache, 0,
            rope=rope_tables(np.array([0]), micro_config.head_dim,
                             micro_config.rope_theta),
        )
        memoized = attend_single(micro_config, q, k, v, 0, memo_cache, 0)
        np.testing.assert_array_equal(explicit, memoized)
        np.testing.assert_array_equal(explicit_cache.keys, memo_cache.keys)


class TestLengthBuckets:
    def test_equal_lengths_one_bucket(self):
        assert length_buckets([5, 5, 5, 5]) == [[0, 1, 2, 3]]

    def test_large_spread_splits(self):
        buckets = length_buckets([100, 10, 90, 9], min_fill=0.5)
        assert len(buckets) == 2
        assert sorted(buckets[0]) == [0, 2]
        assert sorted(buckets[1]) == [1, 3]

    def test_min_fill_zero_never_splits(self):
        assert len(length_buckets([500, 1, 3, 2], min_fill=0.0)) == 1

    def test_min_fill_one_groups_equal_only(self):
        buckets = length_buckets([4, 3, 4, 3], min_fill=1.0)
        assert len(buckets) == 2
        assert sorted(buckets[0]) == [0, 2]
        assert sorted(buckets[1]) == [1, 3]

    def test_partition_is_exact(self):
        lengths = [17, 3, 64, 64, 2, 9, 33]
        buckets = length_buckets(lengths, min_fill=0.7)
        flat = sorted(i for bucket in buckets for i in bucket)
        assert flat == list(range(len(lengths)))

    def test_invalid_min_fill_rejected(self):
        with pytest.raises(ValueError):
            length_buckets([1, 2], min_fill=1.5)
        with pytest.raises(ValueError):
            length_buckets([1], min_fill=-0.1)


SHARING_MODES = {
    "plain": dict(),
    "prefix_sharing": dict(prefix_sharing=True, reorder_window=4),
    "prefix_sharing+cache": dict(prefix_sharing=True, reorder_window=4,
                                 cache_pages=8),
}


class TestOracleEquivalence:
    """The serving contract in one sweep: batch x sharing mode x page
    size, mixed lengths including prefix sharers -> the tokens
    ``build_engine(...).generate`` produces.  ``page_size=64`` is the
    micro model's ``max_seq_len``: one page per slot, the geometry of a
    fixed per-slot store."""

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", sorted(SHARING_MODES))
    @pytest.mark.parametrize("page_size", [1, 3, 16, 64])
    def test_tokens_equal_oracle(self, micro_weights, batch_size, mode,
                                 page_size):
        requests = make_requests()
        served, report = drain(
            micro_weights, requests, max_batch_size=batch_size,
            page_size=page_size, **SHARING_MODES[mode],
        )
        assert served == oracle_tokens(micro_weights, requests)
        if batch_size > 1:
            assert report.attention.batched_steps > 0
        if mode != "plain" and batch_size > 1 and page_size <= 16:
            assert report.forked_admissions > 0   # sharers really fork

    @pytest.mark.parametrize("min_fill", [0.0, 1.0])
    def test_bucketing_extremes_agree_with_oracle(self, micro_weights,
                                                  min_fill):
        """One bucket (pure pad-and-stack) and equal-lengths-only."""
        requests = make_requests()
        engine = build_batched_engine(micro_weights, max_batch_size=4)
        engine.attention = BatchedAttention(engine.config,
                                            bucket_min_fill=min_fill)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        served = {c.request_id: c.generated_ids for c in report.completions}
        assert served == oracle_tokens(micro_weights, requests)
        if min_fill == 1.0:
            # equal lengths only
            assert report.attention.padding_waste_fraction == 0.0

    def test_just_forked_sharer_in_decode_batch(self, micro_weights):
        """Donor + fresh fork decode together: each row matches the
        oracle fed the same tokens."""
        prompts = [SHARED_PREFIX + (8, 2), SHARED_PREFIX + (1, 7)]
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=3,
            prefix_sharing=True,
        )
        slot_a = engine.cache.allocate()
        logits_a = engine.prefill(slot_a, prompts[0])
        slot_b = engine.cache.fork(slot_a, len(SHARED_PREFIX))
        logits_b = engine.prefill(slot_b, prompts[1][len(SHARED_PREFIX):])

        oracles = [build_engine(micro_weights) for _ in prompts]
        for oracle, prompt, logits in zip(oracles, prompts,
                                          (logits_a, logits_b)):
            oracle.reset()
            assert_prefill_logits_match(logits, oracle.prefill(prompt))

        tokens = [int(np.argmax(l)) for l in (logits_a, logits_b)]
        for _ in range(4):
            step = engine.decode_step([slot_a, slot_b], tokens)
            ref = [o.forward_token(t, o.cache.length)
                   for o, t in zip(oracles, tokens)]
            np.testing.assert_allclose(step, np.stack(ref),
                                       rtol=1e-5, atol=1e-5)
            tokens = [int(np.argmax(row)) for row in ref]
            assert [int(np.argmax(row)) for row in step] == tokens

    def test_batch1_decode_bit_identical_on_identical_kv(self,
                                                         micro_weights):
        """The contract that still holds bit for bit: a batch-1
        ``decode_step`` is the scalar op sequence, never the plan path."""
        prompt = MIXED_PROMPTS[1]
        reference = build_engine(micro_weights)
        reference.reset()
        ref_logits = reference.prefill(prompt)

        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        assert_prefill_logits_match(engine.prefill(slot, prompt), ref_logits)
        assert_batch1_decode_bit_identical(
            engine, slot, reference, int(np.argmax(ref_logits))
        )
        assert engine.attn_telemetry.batched_steps == 0


def _poison_unowned_cells(engine, slots, rng):
    """Overwrite every K/V cell no live position owns with garbage."""
    pool = engine.cache.pool
    page_size = pool.page_size
    owned = set()
    for slot in slots:
        for pos in range(slot.length):
            owned.add((slot.page_table[pos // page_size], pos % page_size))
    for page in range(pool.n_pages):
        for offset in range(page_size):
            if (page, offset) not in owned:
                garbage = rng.standard_normal(
                    (pool.config.n_layers, pool.config.d_model)
                ).astype(np.float32) * 1e3
                pool.keys[page, :, offset] = garbage
                pool.values[page, :, offset] = -garbage


class TestPaddingMaskProperty:
    """Masked positions never contribute: perturbing padded K/V entries
    leaves the decode logits bit-unchanged."""

    @pytest.mark.parametrize("page_size", [1, 3, 16])
    def test_poisoned_padding_changes_nothing(self, micro_weights,
                                              page_size, rng):
        prompts = [MIXED_PROMPTS[0], MIXED_PROMPTS[1], MIXED_PROMPTS[5]]

        def build():
            engine = build_batched_engine(
                micro_weights, max_batch_size=4, page_size=page_size,
            )
            slots, tokens = [], []
            for prompt in prompts:
                slot = engine.cache.allocate()
                logits = engine.prefill(slot, prompt)
                slots.append(slot)
                tokens.append(int(np.argmax(logits)))
            return engine, slots, tokens

        clean_engine, clean_slots, tokens = build()
        dirty_engine, dirty_slots, dirty_tokens = build()
        assert tokens == dirty_tokens
        _poison_unowned_cells(dirty_engine, dirty_slots, rng)

        for _ in range(3):
            clean = clean_engine.decode_step(clean_slots, tokens)
            dirty = dirty_engine.decode_step(dirty_slots, tokens)
            np.testing.assert_array_equal(clean, dirty)
            tokens = [int(np.argmax(row)) for row in clean]


class TestGatherPlans:
    def test_recycled_slot_gathers_its_new_pages(self, micro_config):
        from repro.model.paged_kvcache import PagedKVCache

        cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                             page_size=2)
        k = np.ones(micro_config.d_model, dtype=np.float32)
        slot = cache.allocate()
        for pos in range(4):
            for layer in range(micro_config.n_layers):
                slot.append(layer, k * pos, k * pos, pos)
            slot.advance()
        keys, _ = cache.view_batch([slot], [4]).gather(0)
        np.testing.assert_array_equal(keys[0, 3], k * 3)

        cache.release(slot)
        slot2 = cache.allocate()
        assert slot2.index == slot.index
        for pos in range(2):
            for layer in range(micro_config.n_layers):
                slot2.append(layer, k * 7, k * 7, pos)
            slot2.advance()
        keys, _ = cache.view_batch([slot2], [2]).gather(0)
        np.testing.assert_array_equal(keys[0, 0], k * 7)

    def test_page_layout_never_changes_a_value(self, micro_config, rng):
        """One view per case: a consecutive and a deliberately scattered
        page table holding the same K/V read back equal, through
        ``view`` and through ``view_batch(...).gather``."""
        from repro.model.paged_kvcache import PagedKVCache

        n_layers, d = micro_config.n_layers, micro_config.d_model
        lengths = [7, 5]
        kv = rng.standard_normal(
            (2, max(lengths), n_layers, 2, d)
        ).astype(np.float32)                  # [slot, pos, layer, k|v]

        def fill(order):
            cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                                 page_size=2)
            slots = [cache.allocate(), cache.allocate()]
            for i, pos in order:
                for layer in range(n_layers):
                    slots[i].append(layer, *kv[i, pos, layer], pos)
                slots[i].advance()
            return cache, slots

        writes = [(i, pos) for i in range(2) for pos in range(lengths[i])]
        run_cache, run_slots = fill(writes)                  # slot by slot
        mix_cache, mix_slots = fill(sorted(writes, key=lambda w: w[1]))
        assert [s.page_table for s in run_slots] == [[0, 1, 2, 3], [4, 5, 6]]
        assert [s.page_table for s in mix_slots] == [[0, 2, 4, 6], [1, 3, 5]]
        run_view = run_cache.view_batch(run_slots, lengths)
        mix_view = mix_cache.view_batch(mix_slots, lengths)
        for layer in range(n_layers):
            run_kv = run_view.gather(layer)
            mix_kv = mix_view.gather(layer)
            for i, length in enumerate(lengths):
                run_one = run_slots[i].view(layer, length)
                mix_one = mix_slots[i].view(layer, length)
                for which in range(2):                       # keys, values
                    want = kv[i, :length, layer, which]
                    np.testing.assert_array_equal(run_one[which], want)
                    np.testing.assert_array_equal(mix_one[which], want)
                    np.testing.assert_array_equal(
                        run_kv[which][i, :length], want)
                    np.testing.assert_array_equal(
                        mix_kv[which][i, :length], want)

    def test_view_batch_matches_per_slot_views(self, micro_config, rng):
        from repro.model.paged_kvcache import PagedKVCache

        cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=32,
                             page_size=3)
        lengths = [7, 3, 12]
        slots = []
        for length in lengths:
            slot = cache.allocate()
            for pos in range(length):
                for layer in range(micro_config.n_layers):
                    slot.append(
                        layer,
                        rng.standard_normal(micro_config.d_model)
                        .astype(np.float32),
                        rng.standard_normal(micro_config.d_model)
                        .astype(np.float32),
                        pos,
                    )
                slot.advance()
            slots.append(slot)
        view = cache.view_batch(slots, lengths)
        assert view.l_max == max(lengths)
        for layer in range(micro_config.n_layers):
            keys, values = view.gather(layer)
            assert keys.shape == (3, max(lengths), micro_config.d_model)
            for i, (slot, length) in enumerate(zip(slots, lengths)):
                ref_k, ref_v = slot.view(layer, length)
                np.testing.assert_array_equal(keys[i, :length], ref_k)
                np.testing.assert_array_equal(values[i, :length], ref_v)


class TestChunkedPrefill:
    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_token_identical_generation(self, micro_weights, chunk):
        requests = make_requests()
        chunked, _ = drain(micro_weights, requests, max_batch_size=4,
                           prefill_chunk=chunk)
        assert chunked == oracle_tokens(micro_weights, requests)

    def test_prefill_logits_close_and_same_argmax(self, micro_weights):
        prompt = MIXED_PROMPTS[5]
        oracle = build_engine(micro_weights)
        oracle.reset()
        engine = build_batched_engine(micro_weights, max_batch_size=1,
                                      prefill_chunk=4)
        slot = engine.cache.allocate()
        logits = engine.prefill(slot, prompt)
        assert slot.length == len(prompt)
        assert_prefill_logits_match(logits, oracle.prefill(prompt))

    @pytest.mark.parametrize("page_size", [1, 3, 16])
    def test_chunked_prefill_on_forked_slot(self, micro_weights, page_size):
        """Forked admission prefills only the suffix, in chunks that
        straddle page boundaries -- the decoded tokens match."""
        requests = [
            Request(request_id=i,
                    prompt_ids=SHARED_PREFIX + (7 + i, 2, i + 1),
                    max_new_tokens=6)
            for i in range(4)
        ]
        chunked, report = drain(
            micro_weights, requests, max_batch_size=4,
            page_size=page_size, prefix_sharing=True, reorder_window=4,
            prefill_chunk=3,
        )
        assert report.forked_admissions > 0
        assert chunked == oracle_tokens(micro_weights, requests)

    def test_sparse_prefill_executor_fallback(self, micro_weights):
        """Executors without run_tokens (sparse prefill) still work."""
        settings = SparseInferSettings(sparse_prefill=True)
        requests = make_requests(max_new=4)
        chunked, _ = drain(micro_weights, requests, max_batch_size=2,
                           settings=settings, prefill_chunk=4)
        assert chunked == oracle_tokens(micro_weights, requests, settings)

    def test_validation(self, micro_weights):
        for chunk in (0, -1):
            with pytest.raises(ValueError, match="prefill_chunk"):
                build_batched_engine(micro_weights, prefill_chunk=chunk)
        engine = build_batched_engine(micro_weights, prefill_chunk=4)
        slot = engine.cache.allocate()
        with pytest.raises(ValueError):
            engine.prefill(slot, [])


class TestTelemetry:
    def test_report_populated_by_batched_steps(self, micro_weights):
        requests = make_requests()
        _, report = drain(micro_weights, requests, max_batch_size=4)
        assert report.attention.batched_steps > 0
        assert 0.0 <= report.attention.padding_waste_fraction < 1.0
        assert report.attention.mean_buckets_per_step >= 1.0
        assert report.attention.useful_positions <= \
            report.attention.padded_positions

    def test_measurement_carries_attention_fields(self, micro_weights):
        requests = make_requests(max_new=4)
        engine = build_batched_engine(
            micro_weights, max_batch_size=4, prefill_chunk=4,
        )
        point = measure_batched_serving(
            ContinuousBatchingScheduler(engine), requests,
        )
        assert "+chunk4" in point.label
        assert 0.0 <= point.report.attention.padding_waste_fraction < 1.0
        assert point.report.attention.mean_buckets_per_step >= 1.0

    def test_reused_engine_reports_per_run_telemetry(self, micro_weights):
        """A second scheduler on the same engine must not inherit the
        first run's attention counters."""
        engine = build_batched_engine(micro_weights, max_batch_size=4)
        first = ContinuousBatchingScheduler(engine)
        for request in make_requests():
            first.submit(request)
        first_report = first.run()
        assert first_report.attention.batched_steps > 0

        second = ContinuousBatchingScheduler(engine)
        for request in make_requests(max_new=3):
            second.submit(request)
        second_report = second.run()
        assert 0 < second_report.attention.batched_steps < \
            engine.attn_telemetry.batched_steps
        assert second_report.attention.padded_positions < \
            engine.attn_telemetry.padded_positions
        assert 0.0 <= second_report.attention.padding_waste_fraction < 1.0

    def test_telemetry_dataclass_edges(self):
        t = AttentionTelemetry()
        assert t.padding_waste_fraction == 0.0
        assert t.mean_buckets_per_step == 0.0

    def test_singleton_buckets_excluded_from_padding_counts(
            self, micro_config):
        """Singletons go through attend_single -- they gather no
        padding, so they must not dilute the waste fraction."""
        attention = BatchedAttention(micro_config, bucket_min_fill=0.5)
        plan = attention.plan_step([99, 9], slots=[None, None])
        assert len(plan.buckets) == 2             # both singletons
        assert attention.telemetry.padded_positions == 0
        assert attention.telemetry.useful_positions == 0
        assert attention.telemetry.buckets_sum == 2

        attention.plan_step([7, 5], slots=[None, None])  # one real bucket
        assert attention.telemetry.padded_positions == 2 * 8
        assert attention.telemetry.useful_positions == 8 + 6

    def test_invalid_bucket_min_fill_rejected(self, micro_config):
        with pytest.raises(ValueError):
            BatchedAttention(micro_config, bucket_min_fill=2.0)
