"""Batched decode attention + chunked and packed prefill: equivalence
and masking.

The contract under test: the serving engine's batched attention and
chunked prefill decode exactly the tokens the scalar oracle
(``build_engine(...).generate``) does, at any batch size, page size,
admission order and prefix-cache configuration; a batch-1 ``decode_step`` is bit-identical
to ``forward_token`` on identical KV.  Plus the supporting pieces: the
shared RoPE memo, the padded-gather plans, and the padding-mask
property (garbage in padded K/V cells can never reach a logit).
"""

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.model.batch_attention import AttentionTelemetry, BatchedAttention
from repro.model.inference import attend_single, forward_rows
from repro.model.kvcache import KVCache
from repro.model.paged_kvcache import PagedKVSlot
from repro.model.rope import apply_rope, rope_for_position, rope_tables
from repro.serving import ContinuousBatchingScheduler, Request
from repro.serving.engine import BatchedEngine

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
    scheduler_knobs = {key: kwargs.pop(key)
                       for key in ("admission", "admission_window",
                                   "step_budget")
                       if key in kwargs}
    engine = build_batched_engine(weights, **kwargs)
    scheduler = ContinuousBatchingScheduler(engine, **scheduler_knobs)
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


class TestAttendSingle:
    def test_bit_identical_to_einsum_reference(
        self, micro_config, rng
    ):
        """The scalar path's attention keeps the einsum arithmetic bit for
        bit at every cache length: a BLAS matmul rewrite rounds
        differently (max |diff| ~2e-7), which flips near-zero gate rows
        and moves the sparse MLP's skip counts."""
        cfg = micro_config
        h, hd = cfg.n_heads, cfg.head_dim
        cache = KVCache(cfg)
        for pos in range(6):
            q, k, v = (rng.standard_normal(cfg.d_model).astype(np.float32)
                       for _ in range(3))
            rope = rope_tables(np.array([pos]), hd, cfg.rope_theta)
            got = attend_single(cfg, q, k, v, pos, cache, 0, rope)
            assert got.dtype == np.float32
            qr = apply_rope(q.reshape(h, 1, hd), *rope).reshape(h, hd)
            keys, values = cache.view(0, pos + 1)
            kh = keys.reshape(pos + 1, h, hd).transpose(1, 0, 2)
            vh = values.reshape(pos + 1, h, hd).transpose(1, 0, 2)
            scores = np.einsum("hd,htd->ht", qr, kh) / np.float32(np.sqrt(hd))
            probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs /= probs.sum(axis=-1, keepdims=True)
            ref = np.einsum("ht,htd->hd", probs, vh).reshape(cfg.d_model)
            np.testing.assert_array_equal(got, ref)


SHARING_MODES = {
    "plain": dict(),
    "reorder": dict(admission="prefix", admission_window=4),
    "reorder+cache": dict(admission="prefix", admission_window=4,
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
        # Sharers really fork -- except at batch 8, where every prompt
        # is admitted in the first tick, before any donor has finished
        # its prefill and registered.
        if 1 < batch_size < len(requests) and page_size <= 16:
            assert report.forked_admissions > 0

    def test_just_forked_sharer_in_decode_batch(self, micro_weights):
        """Donor + fresh fork decode together: each row matches the
        oracle fed the same tokens."""
        prompts = [SHARED_PREFIX + (8, 2), SHARED_PREFIX + (1, 7)]
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=3,
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
                pool.keys[:, page, offset] = garbage
                pool.values[:, page, offset] = -garbage


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


class TestHomeRunStack:
    """A batch of slots on their home runs attends over an in-place
    arena view; forcing every step through the gather (home runs never
    recognised, page layout unchanged) gives the same bits."""

    PROMPTS = [(2, 7, 1, 4, 4, 9, 3, 5, 8, 6, 2, 9, 4, 1, 3),
               (5, 3, 8, 6, 2, 9, 4, 7),
               (9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 2, 3, 6, 6, 1, 2, 3, 4, 5, 6)]

    def _serve(self, weights, fork, n_pages=0):
        engine = BatchedEngine(weights, max_batch_size=4, page_size=4,
                               n_pages=n_pages)
        cache = engine.cache
        slots, tokens = [], []
        for prompt in self.PROMPTS:
            slot = cache.allocate()
            tokens.append(int(np.argmax(engine.prefill(slot, prompt))))
            slots.append(slot)
        if fork:
            # Shares the donor's first 9 positions: two full pages by
            # reference and a copied partial page, so not a home run.
            slot = cache.fork(slots[2], 9)
            tokens.append(int(np.argmax(engine.prefill(slot, (1, 1, 2)))))
            slots.append(slot)
        # Batch order differs from slot order: the stack's rows are
        # permuted to slot order and back.
        slots, tokens = slots[::-1], tokens[::-1]
        logits, in_place = [], []
        for _ in range(20):
            lengths = [slot.length + 1 for slot in slots]
            step = engine.decode_step(slots, tokens)
            in_place.append(cache.view_batch(slots, lengths).in_place)
            logits.append(step)
            tokens = [int(np.argmax(row)) for row in step]
        return logits, cache.pool, in_place

    @pytest.mark.parametrize("fork", [False, True])
    def test_stack_equals_forced_gather(self, micro_weights, monkeypatch,
                                        fork):
        logits, pool, in_place = self._serve(micro_weights, fork)
        assert all(in_place) != fork
        monkeypatch.setattr(PagedKVSlot, "_push",
                            lambda slot, page: slot.page_table.append(page))
        ref_logits, ref_pool, ref_in_place = self._serve(micro_weights, fork)
        assert not any(ref_in_place)
        for got, want in zip(logits, ref_logits):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(pool.keys, ref_pool.keys)
        np.testing.assert_array_equal(pool.values, ref_pool.values)

    def test_budgeted_pool_serves_identical_logits(self, micro_weights):
        """40 pages hold two 16-page home runs of four slots' worth."""
        logits, _, _ = self._serve(micro_weights, fork=True)
        budget_logits, pool, in_place = self._serve(micro_weights, True, 40)
        assert (pool.n_homes, pool.home_run) == (2, 16)
        assert not any(in_place)
        for got, want in zip(budget_logits, logits):
            np.testing.assert_array_equal(got, want)


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
        """One view per case: home-run and deliberately scattered page
        tables holding the same K/V read back equal, through ``view``
        and through ``view_batch(...).gather`` -- the in-place stack for
        the home runs, the gather for the scattered tables."""
        from repro.model.paged_kvcache import PagedKVCache

        n_layers, d = micro_config.n_layers, micro_config.d_model
        lengths = [7, 5]
        kv = rng.standard_normal(
            (2, max(lengths), n_layers, 2, d)
        ).astype(np.float32)                  # [slot, pos, layer, k|v]

        def fill(order, n_pages):
            cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                                 page_size=2, n_pages=n_pages)
            slots = [cache.allocate(), cache.allocate()]
            for i, pos in order:
                for layer in range(n_layers):
                    slots[i].append(layer, *kv[i, pos, layer], pos)
                slots[i].advance()
            return cache, slots

        writes = [(i, pos) for i in range(2) for pos in range(lengths[i])]
        # Interleaved writes into a pool too small for an 8-page home
        # run scatter both tables; the full pool keeps each on its home.
        run_cache, run_slots = fill(sorted(writes, key=lambda w: w[1]), 0)
        mix_cache, mix_slots = fill(sorted(writes, key=lambda w: w[1]), 7)
        assert [s.page_table for s in run_slots] == [[0, 1, 2, 3], [8, 9, 10]]
        assert [s.page_table for s in mix_slots] == [[0, 2, 4, 6], [1, 3, 5]]
        run_view = run_cache.view_batch(run_slots, lengths)
        mix_view = mix_cache.view_batch(mix_slots, lengths)
        assert run_view.in_place and not mix_view.in_place
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


def _matmul_forward_chunk(engine, slot, token_ids):
    """The engine's causal chunk pass with the dense prefill MLP."""
    return engine._forward_chunk([(slot, len(token_ids))], token_ids,
                                 engine.prefill_mlp.run_tokens)


def _einsum_forward_chunk(engine, slot, token_ids):
    """Reference: the chunk pass with c_einsum attention and an
    ``np.where`` causal mask."""
    cfg = engine.config
    h, hd = cfg.n_heads, cfg.head_dim
    base, n_tokens = slot.length, len(token_ids)
    total = base + n_tokens
    positions = np.arange(base, total)
    cos, sin = rope_tables(positions, hd, cfg.rope_theta)
    causal = np.arange(total)[None, :] <= positions[:, None]

    def attend(layer, q, k, v):
        qh = apply_rope(q.reshape(n_tokens, h, hd).transpose(1, 0, 2),
                        cos, sin)
        kh = apply_rope(k.reshape(n_tokens, h, hd).transpose(1, 0, 2),
                        cos, sin)
        slot.append_rows(
            layer, kh.transpose(1, 0, 2).reshape(n_tokens, cfg.d_model),
            v, base,
        )
        keys, values = slot.view(layer, total)
        ck = keys.reshape(total, h, hd).transpose(1, 0, 2)
        cv = values.reshape(total, h, hd).transpose(1, 0, 2)
        scores = np.einsum("hqd,htd->hqt", qh, ck) / np.float32(np.sqrt(hd))
        scores = np.where(causal[None, :, :], scores, -np.inf)
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = np.einsum("hqt,htd->qhd", probs, cv)
        return ctx.reshape(n_tokens, cfg.d_model)

    logits = forward_rows(engine.weights, token_ids, attend,
                          engine.prefill_mlp.run_tokens)
    slot.advance(n_tokens)
    return logits


def _assert_chunks_close(got, ref, n_layers):
    """Logits and cached K/V of two chunk passes agree to ``rtol=1e-5``."""
    (slot, logits), (ref_slot, ref_logits) = got, ref
    assert logits.dtype == np.float32
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-6)
    np.testing.assert_array_equal(logits.argmax(axis=-1),
                                  ref_logits.argmax(axis=-1))
    _assert_kv_close(slot, ref_slot, n_layers)


def _assert_kv_close(slot, ref_slot, n_layers):
    assert slot.length == ref_slot.length
    for layer in range(n_layers):
        for kv, ref_kv in zip(slot.view(layer, slot.length),
                              ref_slot.view(layer, ref_slot.length)):
            np.testing.assert_allclose(kv, ref_kv, rtol=1e-5, atol=1e-6)


class TestChunkedPrefill:
    @pytest.mark.parametrize("budget", [1, 2, 5, 64])
    def test_token_identical_generation(self, micro_weights, budget):
        requests = make_requests()
        chunked, _ = drain(micro_weights, requests, max_batch_size=4,
                           step_budget=budget)
        assert chunked == oracle_tokens(micro_weights, requests)

    def test_prefill_logits_close_and_same_argmax(self, micro_weights):
        prompt = MIXED_PROMPTS[5]
        oracle = build_engine(micro_weights)
        oracle.reset()
        engine = build_batched_engine(micro_weights, max_batch_size=1)
        slot = engine.cache.allocate()
        logits = engine.prefill(slot, prompt)
        assert slot.length == len(prompt)
        assert_prefill_logits_match(logits, oracle.prefill(prompt))

    @pytest.mark.parametrize("page_size", [1, 3, 16])
    def test_chunked_prefill_on_forked_slot(self, micro_weights, page_size):
        """Forked admission prefills only the suffix, in 3-token pieces
        that straddle page boundaries -- the decoded tokens match."""
        requests = [
            Request(request_id=i,
                    prompt_ids=SHARED_PREFIX + (7 + i, 2, i + 1),
                    max_new_tokens=6)
            for i in range(4)
        ]
        engine = build_batched_engine(micro_weights, max_batch_size=4,
                                      page_size=page_size)
        scheduler = ContinuousBatchingScheduler(engine, step_budget=3)
        # The donor registers once its prefill is done (first token).
        scheduler.submit(requests[0])
        while not scheduler.report.tokens_generated:
            scheduler.step()
        for request in requests[1:]:
            scheduler.submit(request)
        report = scheduler.run()
        assert report.forked_admissions == 3
        chunked = {c.request_id: c.generated_ids for c in report.completions}
        assert chunked == oracle_tokens(micro_weights, requests)

    @pytest.mark.parametrize("prefix", [(), SHARED_PREFIX[:7]])
    @pytest.mark.parametrize("j", [1, 6])
    def test_causality_is_exact(self, micro_weights, prefix, j):
        """-inf gives every later key an exact 0 weight: two chunks that
        differ only at position j leave bit-identical K/V and output
        rows before j."""
        chunk_a = list(MIXED_PROMPTS[5])
        chunk_b = list(chunk_a)
        chunk_b[j] = (chunk_a[j] + 1) % micro_weights.config.vocab_size
        runs = []
        for chunk in (chunk_a, chunk_b):
            engine = build_batched_engine(micro_weights, max_batch_size=1,
                                          page_size=3)
            slot = engine.cache.allocate()
            if prefix:
                engine.prefill(slot, prefix)
            runs.append((slot, _matmul_forward_chunk(engine, slot, chunk)))
        (slot_a, logits_a), (slot_b, logits_b) = runs
        assert np.isfinite(logits_a).all() and np.isfinite(logits_b).all()
        np.testing.assert_array_equal(logits_a[:j], logits_b[:j])
        assert not np.array_equal(logits_a[j], logits_b[j])
        before = len(prefix) + j
        for layer in range(micro_weights.config.n_layers):
            for kv_a, kv_b in zip(slot_a.view(layer, before),
                                  slot_b.view(layer, before)):
                np.testing.assert_array_equal(kv_a, kv_b)

    @pytest.mark.parametrize("chunk", [1, 3, 32])
    def test_matches_einsum_form(self, micro_weights, chunk):
        """Stacked matmuls + additive mask agree with the c_einsum +
        ``np.where`` formulation to the prefill contract, at base 0 and
        at every later chunk's non-zero base."""
        prompt = list(SHARED_PREFIX + MIXED_PROMPTS[5] + MIXED_PROMPTS[1])
        results = []
        for forward in (_matmul_forward_chunk, _einsum_forward_chunk):
            engine = build_batched_engine(micro_weights, max_batch_size=1,
                                          page_size=3)
            slot = engine.cache.allocate()
            logits = np.concatenate([
                forward(engine, slot, prompt[start:start + chunk])
                for start in range(0, len(prompt), chunk)
            ])
            results.append((slot, logits))
        _assert_chunks_close(*results, n_layers=micro_weights.config.n_layers)

    def test_forked_chunk_straddling_a_page_matches_einsum_form(
        self, micro_weights
    ):
        donor_prompt = list(SHARED_PREFIX + (8, 2))
        results = []
        for forward in (_matmul_forward_chunk, _einsum_forward_chunk):
            engine = build_batched_engine(micro_weights, max_batch_size=2,
                                          page_size=3)
            donor = engine.cache.allocate()
            forward(engine, donor, donor_prompt)
            slot = engine.cache.fork(donor, len(SHARED_PREFIX))
            # Positions 17..19: the copied partial page, then a new one.
            results.append((slot, forward(engine, slot, [7, 1, 4])))
        _assert_chunks_close(*results, n_layers=micro_weights.config.n_layers)

    def test_validation(self, micro_weights):
        engine = build_batched_engine(micro_weights)
        slot = engine.cache.allocate()
        with pytest.raises(ValueError):
            engine.prefill(slot, [])


def _pack_scenario(engine, scenario):
    """Slots and the next piece each prefills, for one pack scenario.

    ``bases``: slots already holding 5, 7 and 17 positions.  ``fork``: a
    donor and a slot forked from it at position 17, whose piece
    straddles a page boundary (page_size 3) and copies the shared
    partial page; the donor's own piece continues its prompt.
    """
    alloc = engine.cache.allocate
    if scenario == "bases":
        slots = [alloc() for _ in range(3)]
        for slot, prefix in zip(slots, (SHARED_PREFIX[:5], MIXED_PROMPTS[1],
                                        SHARED_PREFIX)):
            engine.prefill(slot, prefix)
        pieces = [MIXED_PROMPTS[5], MIXED_PROMPTS[0], MIXED_PROMPTS[1]]
    else:
        donor = alloc()
        engine.prefill(donor, SHARED_PREFIX + (8, 2))
        slots = [alloc(), engine.cache.fork(donor, len(SHARED_PREFIX)),
                 donor]
        pieces = [MIXED_PROMPTS[4], (7, 1, 4, 9), (6, 5, 3)]
    return slots, [list(piece) for piece in pieces]


class TestPackedPrefill:
    """Several slots' pieces as the ragged segments of one pass."""

    @pytest.mark.parametrize("scenario", ["bases", "fork"])
    def test_pack_matches_sequential_prefill(self, micro_weights, scenario):
        """Logits to ``rtol=1e-5`` with equal argmax, K/V close."""
        results = []
        for packed in (True, False):
            engine = build_batched_engine(
                micro_weights, max_batch_size=4, page_size=3,
            )
            slots, pieces = _pack_scenario(engine, scenario)
            if packed:
                logits = engine.prefill(
                    slots, sum(pieces, []), [len(p) for p in pieces]
                )
            else:
                logits = np.stack([engine.prefill(slot, piece)
                                   for slot, piece in zip(slots, pieces)])
            results.append((slots, logits))
        (slots, logits), (ref_slots, ref_logits) = results
        assert logits.shape == (3, micro_weights.config.vocab_size)
        assert logits.dtype == np.float32
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(logits.argmax(axis=-1),
                                      ref_logits.argmax(axis=-1))
        for slot, ref_slot in zip(slots, ref_slots):
            _assert_kv_close(slot, ref_slot, micro_weights.config.n_layers)

    def test_copacked_piece_cannot_leak(self, micro_weights):
        """Piece A's logits and K/V are bit-identical whatever tokens a
        co-packed piece of the same length carries."""
        piece_a = list(MIXED_PROMPTS[5])
        runs = []
        for piece_b in ([5, 3, 8, 6, 2, 9, 4], [1, 1, 7, 2, 8, 3, 3]):
            engine = build_batched_engine(micro_weights, max_batch_size=2,
                                          page_size=3)
            slot_b, slot_a = engine.cache.allocate(), engine.cache.allocate()
            engine.prefill(slot_a, SHARED_PREFIX[:4])
            logits = engine.prefill([slot_b, slot_a], piece_b + piece_a,
                                    [len(piece_b), len(piece_a)])
            runs.append((slot_a, logits))
        (slot_1, logits_1), (slot_2, logits_2) = runs
        np.testing.assert_array_equal(logits_1[1], logits_2[1])
        assert not np.array_equal(logits_1[0], logits_2[0])
        for layer in range(micro_weights.config.n_layers):
            for kv_1, kv_2 in zip(slot_1.view(layer, slot_1.length),
                                  slot_2.view(layer, slot_2.length)):
                np.testing.assert_array_equal(kv_1, kv_2)

    def test_one_piece_form_is_the_one_piece_pack(self, micro_weights):
        prompt = list(SHARED_PREFIX + MIXED_PROMPTS[5])
        runs = []
        for packed in (False, True):
            engine = build_batched_engine(micro_weights, max_batch_size=1,
                                          page_size=3)
            slot = engine.cache.allocate()
            logits = (engine.prefill([slot], prompt, [len(prompt)])[0]
                      if packed else engine.prefill(slot, prompt))
            runs.append((slot, logits))
        (slot, logits), (ref_slot, ref_logits) = runs
        assert logits.shape == (micro_weights.config.vocab_size,)
        np.testing.assert_array_equal(logits, ref_logits)
        for layer in range(micro_weights.config.n_layers):
            for kv, ref_kv in zip(slot.view(layer, slot.length),
                                  ref_slot.view(layer, ref_slot.length)):
                np.testing.assert_array_equal(kv, ref_kv)

    def test_validation(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        a, b = engine.cache.allocate(), engine.cache.allocate()
        with pytest.raises(ValueError, match="align"):
            engine.prefill([a, b], [1, 2, 3], [3])
        for lengths in ([3, 0], [1, 1], [2, 2]):
            with pytest.raises(ValueError, match="lengths"):
                engine.prefill([a, b], [1, 2, 3], lengths)
        with pytest.raises(ValueError):
            engine.prefill([], [], [])
        assert a.length == b.length == 0


class TestTelemetry:
    def test_report_populated_by_batched_steps(self, micro_weights):
        requests = make_requests()
        _, report = drain(micro_weights, requests, max_batch_size=4)
        assert report.attention.batched_steps > 0
        assert 0.0 <= report.attention.padding_waste_fraction < 1.0
        assert report.attention.mean_buckets_per_step >= 1.0
        assert report.attention.useful_positions <= \
            report.attention.padded_positions

    def test_budgeted_report_carries_attention_fields(self, micro_weights):
        _, report = drain(micro_weights, make_requests(max_new=4),
                          max_batch_size=4, step_budget=4)
        assert 0.0 <= report.attention.padding_waste_fraction < 1.0
        assert report.attention.mean_buckets_per_step >= 1.0

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

    def test_one_padded_stack_per_step(self, micro_config):
        """Every row pads to the step's longest post-append length."""
        attention = BatchedAttention(micro_config)
        attention.plan_step([99, 9, 40], slots=[None, None, None])
        assert attention.telemetry.padded_positions == 3 * 100
        assert attention.telemetry.useful_positions == 100 + 10 + 41
        assert attention.telemetry.mean_buckets_per_step == 1.0
