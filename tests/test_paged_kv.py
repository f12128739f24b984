"""Tests for the page-granular KV cache and its serving integration."""

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.eval.memusage import (
    compare_kv_footprint,
    fixed_slot_kv_bytes,
    format_kv_footprint,
    paged_kv_bytes,
    pages_for_lengths,
)
from repro.model.kvcache import KVCache
from repro.model.paged_kvcache import PagedKVCache, PagePool
from repro.serving import ContinuousBatchingScheduler, Request

from helpers import (
    assert_batch1_decode_bit_identical,
    assert_prefill_logits_match,
    oracle_tokens,
)

PROMPTS = [[1, 4, 2], [3, 5], [6, 7, 8, 9], [2, 2, 1], [10, 3], [4, 4, 4]]


def make_requests(max_new_tokens=6, prompts=PROMPTS):
    return [
        Request(request_id=i, prompt_ids=tuple(p),
                max_new_tokens=max_new_tokens if isinstance(max_new_tokens, int)
                else max_new_tokens[i])
        for i, p in enumerate(prompts)
    ]


class TestPagePool:
    def test_pages_for_and_accounting(self, micro_config):
        pool = PagePool(micro_config, n_pages=4, page_size=8)
        assert pool.pages_for(0) == 0
        assert pool.pages_for(1) == 1
        assert pool.pages_for(8) == 1
        assert pool.pages_for(9) == 2
        assert pool.n_free_pages == 4
        assert pool.n_available_pages == 4
        assert pool.n_pages_in_use == 0
        assert pool.arena_bytes == 2 * 4 * micro_config.n_layers * 8 * \
            micro_config.d_model * 4

    def test_reservation_blocks_unreserved_claims(self, micro_config):
        pool = PagePool(micro_config, n_pages=3, page_size=4)
        pool._reserve(2)
        assert pool.n_available_pages == 1
        assert pool.can_reserve(4) and not pool.can_reserve(5)
        pool._claim_page(reserved=False)        # the one unreserved page
        with pytest.raises(RuntimeError, match="reserved"):
            pool._claim_page(reserved=False)
        pool._claim_page(reserved=True)         # reservations still honoured
        assert pool.n_available_pages == 0

    def test_page_double_release_raises(self, micro_config):
        pool = PagePool(micro_config, n_pages=2, page_size=4)
        page = pool._claim_page(reserved=False)
        pool._release_pages([page])
        with pytest.raises(ValueError, match="released twice"):
            pool._release_pages([page])


class TestPagedKVSlot:
    def test_lazy_growth_across_page_boundary(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                             page_size=4)
        slot = cache.allocate()
        assert slot.n_pages == 0
        d = micro_config.d_model
        for pos in range(6):                   # crosses the 4-position page
            for layer in range(micro_config.n_layers):
                slot.append(layer, np.full(d, pos + 1.0),
                            np.full(d, -(pos + 1.0)), pos)
            slot.advance()
        assert slot.n_pages == 2               # one claim per page, not per layer
        assert cache.n_pages_in_use == 2
        keys, values = slot.view(1, 6)
        np.testing.assert_array_equal(keys[:, 0], np.arange(1.0, 7.0))
        np.testing.assert_array_equal(values[:, 0], -np.arange(1.0, 7.0))

    def test_single_page_view_is_zero_copy(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                             page_size=8)
        slot = cache.allocate()
        d = micro_config.d_model
        slot.append(0, np.ones(d), np.ones(d), 0)
        keys, _ = slot.view(0, 1)
        assert np.shares_memory(keys, cache.pool.keys)

    def test_scattered_pages_gather_correctly(self, micro_config):
        """Interleaved allocation scatters page tables; view must reorder."""
        cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                             page_size=2)
        a, b = cache.allocate(), cache.allocate()
        d = micro_config.d_model
        for pos in range(6):                   # alternate claims: a,b,a,b,...
            a.append(0, np.full(d, 10.0 + pos), np.zeros(d), pos)
            b.append(0, np.full(d, 20.0 + pos), np.zeros(d), pos)
        assert a.page_table != sorted(a.page_table) or \
            b.page_table != list(range(b.page_table[0], b.page_table[0] + 3))
        keys_a, _ = a.view(0, 6)
        keys_b, _ = b.view(0, 6)
        np.testing.assert_array_equal(keys_a[:, 0], 10.0 + np.arange(6))
        np.testing.assert_array_equal(keys_b[:, 0], 20.0 + np.arange(6))

    def test_matches_plain_kvcache_contents(self, micro_config, rng):
        plain = KVCache(micro_config, max_seq_len=12)
        cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=12,
                             page_size=4)
        slot = cache.allocate()
        d = micro_config.d_model
        for pos in range(11):
            for layer in range(micro_config.n_layers):
                k = rng.standard_normal(d).astype(np.float32)
                v = rng.standard_normal(d).astype(np.float32)
                plain.append(layer, k, v, pos)
                slot.append(layer, k, v, pos)
            plain.advance()
            slot.advance()
        for layer in range(micro_config.n_layers):
            for length in (1, 4, 5, 11):
                pk, pv = plain.view(layer, length)
                sk, sv = slot.view(layer, length)
                np.testing.assert_array_equal(pk, sk)
                np.testing.assert_array_equal(pv, sv)

    @pytest.mark.parametrize("page_size", [1, 3, 4, 16])
    def test_append_rows_matches_per_position_append(self, micro_config,
                                                     rng, page_size):
        """The block write lands every row where ``append`` would, for
        chunks that start mid-page and straddle page boundaries."""
        d = micro_config.d_model
        caches = [PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                               page_size=page_size) for _ in range(2)]
        by_row, by_block = (cache.allocate() for cache in caches)
        start = 0
        for n in (2, 5, 1, 6):
            for layer in range(micro_config.n_layers):
                k = rng.standard_normal((n, d)).astype(np.float32)
                v = rng.standard_normal((n, d)).astype(np.float32)
                for i in range(n):
                    by_row.append(layer, k[i], v[i], start + i)
                by_block.append_rows(layer, k, v, start)
            for _ in range(n):
                by_row.advance()
            by_block.advance(n)
            start += n
        assert by_block.length == by_row.length == 14
        assert by_block.n_pages == by_row.n_pages
        for layer in range(micro_config.n_layers):
            for got, want in zip(by_block.view(layer, 14),
                                 by_row.view(layer, 14)):
                np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="exceeds slot capacity"):
            by_block.append_rows(0, np.zeros((3, d)), np.zeros((3, d)), 14)

    def test_append_rows_copies_a_shared_page_before_writing(
        self, micro_config
    ):
        d = micro_config.d_model
        cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                             page_size=4)
        donor = cache.allocate()
        donor.append_rows(0, np.ones((8, d)), np.ones((8, d)), 0)
        donor.advance(8)
        fork = cache.fork(donor, 8)               # both pages shared
        fork.append_rows(0, np.full((6, d), 7.0), np.full((6, d), 7.0), 2)
        assert fork.page_table[0] != donor.page_table[0]   # COW, per page
        assert fork.page_table[1] != donor.page_table[1]
        assert (donor.view(0, 8)[0] == 1.0).all()          # donor untouched
        keys, _ = fork.view(0, 8)
        assert (keys[:2] == 1.0).all() and (keys[2:] == 7.0).all()

    def test_capacity_and_exhaustion_errors(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=8,
                             page_size=4, n_pages=1)
        slot = cache.allocate()
        d = micro_config.d_model
        with pytest.raises(ValueError, match="exceeds slot capacity"):
            slot.append(0, np.zeros(d), np.zeros(d), 8)
        for pos in range(4):
            slot.append(0, np.zeros(d), np.zeros(d), pos)
        with pytest.raises(RuntimeError, match="exhausted"):
            slot.append(0, np.zeros(d), np.zeros(d), 4)

    def test_release_returns_pages_and_reservation(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                             page_size=4, n_pages=4)
        slot = cache.allocate(max_positions=10)   # reserves 3 pages
        assert cache.n_available_pages == 1
        d = micro_config.d_model
        slot.append(0, np.zeros(d), np.zeros(d), 0)   # claims 1 of the 3
        assert cache.n_pages_in_use == 1
        assert cache.n_available_pages == 1
        cache.release(slot)
        assert cache.n_pages_in_use == 0
        assert cache.n_available_pages == 4
        with pytest.raises(ValueError, match="released twice"):
            cache.release(slot)

    def test_can_admit_tracks_reservations(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=16,
                             page_size=4, n_pages=4)
        assert cache.can_admit(16)
        cache.allocate(max_positions=12)          # 3 pages reserved
        assert cache.can_admit(4) and not cache.can_admit(5)
        cache.allocate(max_positions=4)
        assert not cache.can_admit(1)


class TestSlotRecycling:
    def test_double_release_still_caught_with_set_tracking(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=8)
        a = cache.allocate()
        cache.release(a)
        with pytest.raises(ValueError, match="released twice"):
            cache.release(a)
        # Free tracking stays consistent across many recycle rounds.
        for _ in range(5):
            slots = [cache.allocate() for _ in range(3)]
            for slot in slots:
                cache.release(slot)
        assert cache.n_free == 3
        assert sorted(cache._free) == sorted(cache._free_set)


    def test_dropped_cache_frees_its_arenas_without_a_gc_pass(
        self, micro_config
    ):
        """No pool <-> prefix-cache cycle: an engine rebuilt per run must
        not strand its K/V arenas until the next full collection."""
        import gc
        import weakref

        gc.disable()
        try:
            cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=8,
                                 cache_pages=2)
            pool = weakref.ref(cache.pool)
            del cache
            assert pool() is None
        finally:
            gc.enable()


class TestPagedEngineEquivalence:
    def test_batch1_decode_bit_identical_to_build_engine(self, micro_weights):
        prompt = [1, 4, 2, 7, 3, 5, 6]      # crosses page boundaries at 4
        ref = build_engine(micro_weights)
        ref.reset()
        ref_logits = ref.prefill(prompt)
        engine = build_batched_engine(micro_weights, max_batch_size=1,
                                      page_size=4)
        slot = engine.cache.allocate()
        assert_prefill_logits_match(engine.prefill(slot, prompt), ref_logits)
        assert_batch1_decode_bit_identical(
            engine, slot, ref, int(np.argmax(ref_logits)), n_steps=6
        )

    def test_mixed_length_batch_token_identical_to_oracle(
        self, micro_weights
    ):
        lengths = [3, 9, 2, 7, 4, 11]
        requests = make_requests(lengths)
        engine = build_batched_engine(micro_weights, max_batch_size=3,
                                      page_size=4)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        served = {c.request_id: c.generated_ids for c in report.completions}
        assert served == oracle_tokens(micro_weights, requests)
        assert all(len(served[i]) == lengths[i] for i in range(len(lengths)))

    def test_default_page_budget_is_every_slots_worst_case(
        self, micro_weights
    ):
        engine = build_batched_engine(micro_weights, max_batch_size=2,
                                      max_seq_len=64,
                                      page_size=16)
        assert engine.cache.n_pages == 2 * 4
        assert engine.cache.kv_bytes == \
            fixed_slot_kv_bytes(micro_weights.config, 2, 64)


class TestPrefixSharingEquivalence:
    """Forked decode must match unshared decode and ``build_engine``,
    wherever the shared prefix lands on the page grid."""

    PROMPT_A = [1, 4, 2, 7, 3, 5, 6, 2, 9, 1, 3, 8]      # 12 tokens
    SUFFIX = [9, 2, 5]
    # page_size -> shared prefix lengths: on a page boundary, mid-page,
    # and past the donor's end (the fork shares the donor's entire
    # resident prompt and the new prompt strictly extends it).
    CASES = {1: [3, 12], 3: [6, 7, 11, 12], 16: [5, 11, 12]}

    @pytest.mark.parametrize("page_size", [1, 3, 16])
    def test_forked_prefill_and_decode_match_oracle(self, micro_weights,
                                                    page_size):
        for shared in self.CASES[page_size]:
            prompt_b = self.PROMPT_A[:shared] + self.SUFFIX
            worst = len(prompt_b) + 8

            forked = build_batched_engine(micro_weights, max_batch_size=2,
                                          page_size=page_size,
                                          prefix_sharing=True)
            slot_a = forked.cache.allocate()
            logits_a = forked.prefill(slot_a, self.PROMPT_A)
            slot_b = forked.cache.fork(slot_a, shared, worst)
            assert slot_b.length == shared
            # The shared positions are the donor's K/V, bit for bit.
            for layer in range(micro_weights.config.n_layers):
                for mine, donors in zip(slot_b.view(layer, shared),
                                        slot_a.view(layer, shared)):
                    np.testing.assert_array_equal(mine, donors)
            logits_b = forked.prefill(slot_b, self.SUFFIX)

            single_a, single_b = (build_engine(micro_weights)
                                  for _ in range(2))
            single_a.reset()
            single_b.reset()
            assert_prefill_logits_match(logits_a,
                                        single_a.prefill(self.PROMPT_A))
            assert_prefill_logits_match(logits_b, single_b.prefill(prompt_b))

            # Decode donor and fork together: each row follows its
            # oracle fed the same tokens.
            tokens = [int(np.argmax(logits_a)), int(np.argmax(logits_b))]
            for _ in range(3):
                step = forked.decode_step([slot_a, slot_b], tokens)
                ref = [o.forward_token(t, o.cache.length)
                       for o, t in zip((single_a, single_b), tokens)]
                np.testing.assert_allclose(step, np.stack(ref),
                                           rtol=1e-5, atol=1e-5)
                tokens = [int(np.argmax(row)) for row in ref]
                assert [int(np.argmax(row)) for row in step] == tokens

            # Decode the forked sequence alone: batch=1 is bit-identical
            # to the oracle once both hold the same KV.
            assert_batch1_decode_bit_identical(
                forked, slot_b, single_b, tokens[1], n_steps=3
            )

    def test_fork_shares_and_cow_isolates_through_engine(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2,
                                      page_size=4,
                                      prefix_sharing=True)
        slot_a = engine.cache.allocate()
        engine.prefill(slot_a, self.PROMPT_A)
        slot_b = engine.cache.fork(slot_a, 8)          # 2 full pages shared
        assert engine.cache.n_shared_pages == 2
        assert slot_b.page_table[:2] == slot_a.page_table[:2]
        engine.prefill(slot_b, self.SUFFIX)           # appends past prefix
        assert slot_b.page_table[:2] == slot_a.page_table[:2]
        engine.cache.release(slot_b)
        assert engine.cache.n_shared_pages == 0
        keys_a, _ = slot_a.view(0, 12)                # donor K/V intact
        assert keys_a.any()


class TestSharedPrefixFootprint:
    def test_pages_for_shared_prefix(self):
        from repro.eval.memusage import pages_for_shared_prefix
        # 3 requests of 40 positions sharing a 20-position prefix at
        # page 16: one shared full page + 3 x (3 - 1) private pages.
        assert pages_for_shared_prefix([40, 40, 40], 20, page_size=16) == 7
        # Aligned prefix: 2 shared + 3 x 1 private.
        assert pages_for_shared_prefix([40, 40, 40], 32, page_size=16) == 5
        # No sharing degenerates to pages_for_lengths.
        assert pages_for_shared_prefix([40, 40, 40], 0, page_size=16) == \
            pages_for_lengths([40, 40, 40], page_size=16)
        # No sequences -> no resident pages, shared prefix or not.
        assert pages_for_shared_prefix([], 20, page_size=16) == 0
        with pytest.raises(ValueError, match="below the shared"):
            pages_for_shared_prefix([10], 20, page_size=16)

    def test_comparison_matches_live_fork(self, micro_config):
        """The accounting must equal what forked slots actually claim."""
        from repro.eval.memusage import compare_shared_prefix_footprint
        cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=64,
                             page_size=4, n_pages=32)
        d = micro_config.d_model
        donor = cache.allocate()
        for pos in range(22):
            for layer in range(micro_config.n_layers):
                donor.append(layer, np.zeros(d), np.zeros(d), pos)
            donor.advance()
        forks = [cache.fork(donor, 10) for _ in range(2)]
        for slot in forks:
            for pos in range(10, 22):
                for layer in range(micro_config.n_layers):
                    slot.append(layer, np.zeros(d), np.zeros(d), pos)
                slot.advance()
        cmp = compare_shared_prefix_footprint(
            micro_config, [22, 22, 22], shared_prefix=10, page_size=4
        )
        assert cache.n_pages_in_use == cmp.pages_shared
        assert cmp.pages_unshared == 3 * 6
        assert cmp.reduction_factor > 1.0
        from repro.eval.memusage import format_shared_prefix_footprint
        text = format_shared_prefix_footprint(cmp)
        assert "prefix" in text and "x less" in text


class TestPagedScheduler:
    def test_admission_gated_on_pages_still_drains_fifo(self, micro_weights):
        # 6 slots but only 4 pages of 4 positions: page demand, not slot
        # count, is the binding constraint.
        engine = build_batched_engine(micro_weights, max_batch_size=6,
                                      page_size=4, n_pages=4)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in make_requests(6):
            scheduler.submit(request)
        report = scheduler.run()
        assert len(report.completions) == len(PROMPTS)
        by_id = {c.request_id: c for c in report.completions}
        assert all(by_id[i].n_generated == 6 for i in range(len(PROMPTS)))
        admitted = [by_id[i].admitted_step for i in range(len(PROMPTS))]
        assert admitted == sorted(admitted)          # FIFO preserved
        assert report.peak_pages_in_use <= report.n_pages
        assert engine.cache.n_pages_in_use == 0      # everything returned
        assert engine.cache.n_free == 6

    def test_oversized_for_page_budget_rejected_not_deadlocked(
        self, micro_weights
    ):
        # Pool holds 8 positions total; a 12-position request can never fit.
        engine = build_batched_engine(micro_weights, max_batch_size=2,
                                      max_seq_len=32,
                                      page_size=4, n_pages=2)
        scheduler = ContinuousBatchingScheduler(engine)
        with pytest.raises(ValueError, match="KV positions"):
            scheduler.submit(Request(request_id=0, prompt_ids=(1, 2, 3),
                                     max_new_tokens=10))
        scheduler.submit(Request(request_id=1, prompt_ids=(1, 2, 3),
                                 max_new_tokens=6))   # exactly 8 positions
        report = scheduler.run()
        assert report.completions[0].ok
        assert report.completions[0].n_generated == 6

    def test_peak_pages_counts_admission_completed_sequences(
        self, micro_weights
    ):
        """Prefill-claimed pages must hit the high-water mark even when
        the sequence finishes at admission (first token in stop_ids)."""
        ref = build_engine(micro_weights)
        first = ref.generate([1, 2, 3, 4, 5], 1).generated_ids[0]
        engine = build_batched_engine(micro_weights, max_batch_size=1,
                                      page_size=2)
        scheduler = ContinuousBatchingScheduler(engine)
        scheduler.submit(Request(request_id=0, prompt_ids=(1, 2, 3, 4, 5),
                                 max_new_tokens=8,
                                 stop_ids=frozenset({first})))
        report = scheduler.run()
        assert report.completions[0].generated_ids == []
        assert report.decode_steps == 0
        assert report.peak_pages_in_use >= 3     # 5 prompt positions, 2/page
        assert engine.cache.n_pages_in_use == 0  # and returned afterwards

    def test_page_telemetry_populated(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2,
                                      page_size=4)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in make_requests(4, PROMPTS[:3]):
            scheduler.submit(request)
        report = scheduler.run()
        assert report.n_pages == engine.cache.n_pages
        assert report.peak_pages_in_use > 0
        assert report.page_occupancy_sum >= report.decode_steps > 0
        assert 0.0 < report.mean_page_utilisation <= 1.0
        assert report.mean_page_occupancy <= report.peak_pages_in_use
        assert report.peak_occupancy == 2


class TestKVFootprintAccounting:
    def test_pages_for_lengths(self):
        assert pages_for_lengths([1, 16, 17], page_size=16) == 1 + 1 + 2
        with pytest.raises(ValueError):
            pages_for_lengths([1], page_size=0)

    def test_numpy_array_lengths_accepted(self, micro_config):
        """Regression: ``if not lengths:`` choked on numpy arrays."""
        got = compare_kv_footprint(micro_config, np.array([10, 60, 4]),
                                   max_seq_len=64, page_size=16)
        ref = compare_kv_footprint(micro_config, [10, 60, 4],
                                   max_seq_len=64, page_size=16)
        assert got == ref
        with pytest.raises(ValueError, match="non-empty"):
            compare_kv_footprint(micro_config, np.array([], dtype=np.int64))

    def test_comparison_math(self, micro_config):
        lengths = [10, 60, 4]
        cmp = compare_kv_footprint(micro_config, lengths, max_seq_len=64,
                                   page_size=16)
        per_pos = 2 * micro_config.n_layers * micro_config.d_model * 4
        assert cmp.fixed_bytes == 3 * 64 * per_pos
        assert cmp.n_pages == 1 + 4 + 1
        assert cmp.paged_bytes == 6 * 16 * per_pos
        assert cmp.reduction_factor == pytest.approx(cmp.fixed_bytes /
                                                     cmp.paged_bytes)
        assert fixed_slot_kv_bytes(micro_config, 3, 64) == cmp.fixed_bytes
        assert paged_kv_bytes(micro_config, 6, 16) == cmp.paged_bytes
        text = format_kv_footprint(cmp)
        assert "pages of 16" in text and "x less" in text

    def test_footprint_matches_live_arenas(self, micro_config):
        # A fixed per-slot store is the one-page-per-slot geometry.
        fixed = PagedKVCache(micro_config, n_slots=3, max_seq_len=64,
                             page_size=64, n_pages=3)
        paged = PagedKVCache(micro_config, n_slots=3, max_seq_len=64,
                             page_size=16, n_pages=6)
        assert fixed.kv_bytes == fixed_slot_kv_bytes(micro_config, 3, 64)
        assert paged.kv_bytes == paged_kv_bytes(micro_config, 6, 16)

    def test_rejects_lengths_over_capacity(self, micro_config):
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            compare_kv_footprint(micro_config, [65], max_seq_len=64)
