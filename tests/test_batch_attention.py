"""Ragged attention for decode and chunked / packed prefill:
equivalence, composition invariance and masking.

The contract under test (the three tiers of ``helpers``): a batch-1
``decode_step`` is bit-identical to ``forward_token`` on identical KV;
a decode row's attention does not depend on its partners at any batch
size, and at a fixed batch size neither do its logits; and the serving
engine decodes the tokens the scalar oracle
(``build_engine(...).generate``) does, at every batch size, page size,
admission order and prefix-cache configuration here.  Plus the
supporting pieces: the one attention kernel against an einsum
reference, per-slot views over any page layout, and that a K/V cell no
live position owns can never reach a logit.
"""

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.model import inference as inference_module
from repro.model.config import ModelConfig
from repro.model.inference import attend_rows, attend_single, forward_rows
from repro.model.kvcache import KVCache
from repro.model.paged_kvcache import PagedKVCache, PagedKVSlot
from repro.model.rope import apply_rope, rope_tables
from repro.model.weights import random_weights
from repro.serving import ContinuousBatchingScheduler, Request
from repro.serving import engine as engine_module
from repro.serving.engine import BatchedEngine

from helpers import (
    assert_batch1_decode_bit_identical,
    assert_prefill_logits_match,
    fork_from,
    oracle_tokens,
)

# 17 tokens: spans at least one full page at every page_size <= 16 in
# the sweep, so the prefix table can match it.
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


class TestAttendSingle:
    def test_kernel_matches_einsum_reference(self, micro_config, rng):
        """The oracle's attention is the shared matmul kernel, bit for bit,
        and agrees with an independent einsum spelling of the same math
        at every cache length to the prefill tolerance (the two round
        differently, by ~2e-7)."""
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
            np.testing.assert_array_equal(
                got, attend_rows(qr[None], keys, values).reshape(cfg.d_model))
            kh = keys.reshape(pos + 1, h, hd).transpose(1, 0, 2)
            vh = values.reshape(pos + 1, h, hd).transpose(1, 0, 2)
            scores = np.einsum("hd,htd->ht", qr, kh) / np.float32(np.sqrt(hd))
            probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs /= probs.sum(axis=-1, keepdims=True)
            ref = np.einsum("ht,htd->hd", probs, vh).reshape(cfg.d_model)
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)


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
            assert report.peak_occupancy > 1      # batch > 1 decode ran
        # Sharers really fork -- except at batch 8, where every prompt
        # is admitted in the first tick, before any donor has finished
        # its prefill and registered.
        if 1 < batch_size < len(requests) and page_size <= 16:
            assert report.forked_admissions > 0

    def test_sharer_seats_a_live_prompts_partial_last_page(self,
                                                          micro_weights):
        """Request 6 (``SHARED_PREFIX + (4,)``) shares all 17 positions
        of ``SHARED_PREFIX`` with a live donor even though, at page size
        16, the last of them lies in the donor's partial last page."""
        _, report = drain(micro_weights, make_requests(), max_batch_size=4,
                          page_size=16)
        assert report.forked_admissions == 1
        assert report.prefill_tokens_saved == len(SHARED_PREFIX)

    def test_just_forked_sharer_in_decode_batch(self, micro_weights):
        """Donor + fresh fork decode together: each row matches the
        oracle fed the same tokens."""
        prompts = [SHARED_PREFIX + (8, 2), SHARED_PREFIX + (1, 7)]
        engine = build_batched_engine(
            micro_weights, max_batch_size=2, page_size=3,
            )
        slot_a = engine.cache.allocate()
        logits_a = engine.prefill(slot_a, prompts[0])
        slot_b = fork_from(engine.cache, slot_a, len(SHARED_PREFIX))
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
        """The contract that holds bit for bit: a batch-1 ``decode_step``
        equals the oracle's ``forward_token`` on identical K/V."""
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


BENCH_CONFIG = ModelConfig(
    name="bench-256x4", vocab_size=2048, d_model=256, n_layers=4,
    n_heads=4, d_ff=1024, max_seq_len=256, dtype_bytes=4,
)


@pytest.fixture(scope="module")
def bench_weights():
    return random_weights(BENCH_CONFIG, seed=13)


class TestCompositionInvariance:
    """At a fixed batch size, a decode row's bits do not depend on its
    partners: only a partner's length changes, raising the batch's
    longest length, and slot A's logits stay bit-identical.  A padded
    ``(B, l_max)`` stack fails this (logits moved by up to 8e-7 at the
    bench geometry); ragged per-slot attention has no ``l_max``."""

    # geometry -> (page_size, slot A's length, partner lengths): a base
    # case, then the same with its longest partner raised, then with
    # its shortest partner raised past the longest.
    CASES = {
        "bench": (16, 25, ([20, 30, 35], [20, 30, 120], [100, 30, 35])),
        "micro-1": (1, 11, ([5, 9, 12], [5, 9, 40], [33, 9, 12])),
        "micro-3": (3, 11, ([5, 9, 12], [5, 9, 40], [33, 9, 12])),
        "micro-16": (16, 11, ([5, 9, 12], [5, 9, 40], [33, 9, 12])),
    }

    @staticmethod
    def _slot_a_logits(weights, page_size, a_length, partner_lengths,
                       partner_shift=0):
        rng = np.random.default_rng(0)
        vocab = weights.config.vocab_size
        engine = BatchedEngine(weights, max_batch_size=4, page_size=page_size)
        slots, tokens = [], []
        for length in [a_length, *partner_lengths]:
            # A's prompt is the same in every case; the partners' prompts
            # differ in length, or with ``partner_shift`` in tokens.
            prompt = rng.integers(0, vocab, size=length) if not slots \
                else (np.arange(length) + partner_shift) % vocab
            slot = engine.cache.allocate()
            tokens.append(int(np.argmax(engine.prefill(slot, prompt))))
            slots.append(slot)
        logits = []
        for _ in range(3):
            step = engine.decode_step(slots, tokens)
            logits.append(step[0])
            tokens = [int(np.argmax(row)) for row in step]
        return logits

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_partner_lengths_change_no_bit(self, case, micro_weights,
                                           bench_weights):
        page_size, a_length, partner_cases = self.CASES[case]
        weights = bench_weights if case == "bench" else micro_weights
        base, *raised = [
            self._slot_a_logits(weights, page_size, a_length, lengths)
            for lengths in partner_cases
        ]
        for other in raised:
            for want, got in zip(base, other):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", ["bench", "micro-3"])
    def test_partner_tokens_change_no_bit(self, case, micro_weights,
                                          bench_weights):
        page_size, a_length, (lengths, *_) = self.CASES[case]
        weights = bench_weights if case == "bench" else micro_weights
        base, other = [
            self._slot_a_logits(weights, page_size, a_length, lengths, shift)
            for shift in (0, 5)
        ]
        for want, got in zip(base, other):
            np.testing.assert_array_equal(got, want)


    @staticmethod
    def _slot_a_contexts(weights, page_size, lengths, monkeypatch,
                         fed=None):
        """Slot A's context row per (decode step, layer), spied on the
        shared kernel, over three decode steps of slot A beside
        ``lengths[1:]``, and the raw ``(q, k, v)`` rows of slot A that
        the layer loop handed attention.  With ``fed``, those rows are
        replaced by ``fed``'s (step, layer) entries first."""
        rng = np.random.default_rng(0)
        vocab = weights.config.vocab_size
        engine = BatchedEngine(weights, max_batch_size=len(lengths),
                               page_size=page_size)
        slots = []
        for i, length in enumerate(lengths):
            prompt = rng.integers(0, vocab, size=length) if i == 0 \
                else np.arange(length) % vocab
            slot = engine.cache.allocate()
            engine.prefill(slot, prompt)
            slots.append(slot)

        contexts, inputs, segments = [], [], []
        kernel, layer_loop = engine_module.attend_rows, engine_module.forward_rows

        def spy(q, keys, values, neg_mask=None):
            segments.append(kernel(q, keys, values, neg_mask))
            return segments[-1]

        def feeding_loop(weights, token_ids, attend, mlp_rows, last_rows=None):
            def fed_attend(layer, q, k, v):
                if fed is not None:
                    q, k, v = q.copy(), k.copy(), v.copy()
                    q[0], k[0], v[0] = fed[len(inputs)]
                inputs.append((q[0].copy(), k[0].copy(), v[0].copy()))
                segments.clear()
                ctx = attend(layer, q, k, v)
                assert len(segments) == len(slots)   # one call per slot
                contexts.append(segments[0][0].copy())   # slot A's row
                return ctx
            return layer_loop(weights, token_ids, fed_attend, mlp_rows,
                              last_rows)

        monkeypatch.setattr(engine_module, "attend_rows", spy)
        monkeypatch.setattr(engine_module, "forward_rows", feeding_loop)
        for step in range(3):
            engine.decode_step(slots, [7 * step + 1] * len(slots))
        monkeypatch.undo()
        return contexts, inputs

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch1_attention_equals_batch4(self, case, micro_weights,
                                            bench_weights, monkeypatch):
        """Batch 1 runs the kernel every other batch size runs: fed the
        q/k/v rows slot A had beside three partners (B 4), slot A
        decoding alone (B 1) gets bit-identical context rows at every
        layer and step.  The row GEMMs before attention differ between
        one row and four, hence the feeding; the einsum batch-1 path
        this replaced failed it by up to 1.8e-7."""
        page_size, a_length, (partners, *_) = self.CASES[case]
        weights = bench_weights if case == "bench" else micro_weights
        beside, fed = self._slot_a_contexts(
            weights, page_size, [a_length, *partners], monkeypatch)
        alone, _ = self._slot_a_contexts(
            weights, page_size, [a_length], monkeypatch, fed=fed)
        assert len(alone) == len(beside) == 3 * weights.config.n_layers
        for got, want in zip(alone, beside):
            np.testing.assert_array_equal(got, want)


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
    """Ragged views never read a K/V cell that no live position owns:
    filling every such cell with garbage leaves the decode logits
    bit-unchanged."""

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
    """Slots on their home runs attend over zero-copy arena views;
    forcing every view through the page gather (home runs never
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
            slot = fork_from(cache, slots[2], 9)
            tokens.append(int(np.argmax(engine.prefill(slot, (1, 1, 2)))))
            slots.append(slot)
        slots, tokens = slots[::-1], tokens[::-1]   # not in slot order
        logits = []
        for _ in range(20):
            step = engine.decode_step(slots, tokens)
            logits.append(step)
            tokens = [int(np.argmax(row)) for row in step]
        # Which slots' views read the arena in place (a home run).
        zero_copy = [np.shares_memory(slot.view(0, slot.length)[0],
                                      cache.pool.keys) for slot in slots]
        return logits, cache.pool, zero_copy

    @pytest.mark.parametrize("fork", [False, True])
    def test_views_equal_forced_gather(self, micro_weights, monkeypatch,
                                       fork):
        logits, pool, zero_copy = self._serve(micro_weights, fork)
        # The forked slot (first in batch order) is the one gather.
        assert zero_copy == [not fork] + [True] * (len(zero_copy) - 1)
        monkeypatch.setattr(PagedKVSlot, "_push",
                            lambda slot, page: slot.page_table.append(page))
        ref_logits, ref_pool, ref_zero_copy = self._serve(micro_weights, fork)
        assert not any(ref_zero_copy)
        for got, want in zip(logits, ref_logits):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(pool.keys, ref_pool.keys)
        np.testing.assert_array_equal(pool.values, ref_pool.values)

    def test_budgeted_pool_serves_identical_logits(self, micro_weights):
        """40 pages hold two 16-page home runs of four slots' worth."""
        logits, _, _ = self._serve(micro_weights, fork=True)
        budget_logits, pool, zero_copy = self._serve(micro_weights, True, 40)
        assert (pool.n_homes, pool.home_run) == (2, 16)
        assert any(zero_copy) and not all(zero_copy)
        for got, want in zip(budget_logits, logits):
            np.testing.assert_array_equal(got, want)


class TestGatherPlans:
    def test_recycled_slot_gathers_its_new_pages(self, micro_config):
        cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                             page_size=2)
        k = np.ones(micro_config.d_model, dtype=np.float32)
        slot = cache.allocate()
        for pos in range(4):
            for layer in range(micro_config.n_layers):
                slot.append(layer, k * pos, k * pos, pos)
            slot.advance()
        keys, _ = slot.view(0, 4)
        np.testing.assert_array_equal(keys[3], k * 3)

        cache.release(slot)
        slot2 = cache.allocate()
        assert slot2.index == slot.index
        for pos in range(2):
            for layer in range(micro_config.n_layers):
                slot2.append(layer, k * 7, k * 7, pos)
            slot2.advance()
        keys, _ = slot2.view(0, 2)
        np.testing.assert_array_equal(keys[0], k * 7)

    def test_page_layout_never_changes_a_value(self, micro_config, rng):
        """Home-run and deliberately scattered page tables holding the
        same K/V read back equal through ``view`` -- zero-copy for the
        home runs, a gather for the scattered tables."""
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
        for layer in range(n_layers):
            for i, length in enumerate(lengths):
                run_one = run_slots[i].view(layer, length)
                mix_one = mix_slots[i].view(layer, length)
                assert np.shares_memory(run_one[0], run_cache.pool.keys)
                assert not np.shares_memory(mix_one[0], mix_cache.pool.keys)
                for which in range(2):                       # keys, values
                    want = kv[i, :length, layer, which]
                    np.testing.assert_array_equal(run_one[which], want)
                    np.testing.assert_array_equal(mix_one[which], want)


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
        k_rows = kh.transpose(1, 0, 2).reshape(n_tokens, cfg.d_model)
        for i in range(n_tokens):
            slot.append(layer, k_rows[i], v[i], base + i)
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
            slot = fork_from(engine.cache, donor, len(SHARED_PREFIX))
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
        slots = [alloc(), fork_from(engine.cache, donor, len(SHARED_PREFIX)),
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

    SAMPLINGS = {"all": [True, True, True], "one": [False, True, False],
                 "none": [False, False, False]}

    @pytest.mark.parametrize("geometry", ["micro", "bench"])
    @pytest.mark.parametrize("page_size", [1, 3, 16])
    @pytest.mark.parametrize("sampling", sorted(SAMPLINGS))
    def test_pruned_pack_keeps_cache_bits_and_sampled_logits(
        self, micro_weights, bench_weights, geometry, page_size, sampling
    ):
        """A pack that samples only some pieces writes the arena an
        unpruned pass writes, bit for bit, and returns the sampled
        pieces' last rows of that pass to ``rtol=1e-5``, same argmax."""
        weights = bench_weights if geometry == "bench" else micro_weights
        sample = self.SAMPLINGS[sampling]
        runs = []
        for pruned in (True, False):
            engine = BatchedEngine(weights, max_batch_size=4,
                                   page_size=page_size)
            slots, pieces = _pack_scenario(engine, "fork")
            lengths = [len(piece) for piece in pieces]
            if pruned:
                logits = engine.prefill(slots, sum(pieces, []), lengths,
                                        sample=sample)
            else:
                every_row = engine._forward_chunk(
                    list(zip(slots, lengths)), sum(pieces, []),
                    engine.prefill_mlp.run_tokens, last_only=False,
                )
                ends = np.cumsum(lengths) - 1
                logits = every_row[[end for end, keep in zip(ends, sample)
                                    if keep]]
            runs.append((engine.cache.pool, logits))
        (pool, logits), (ref_pool, ref_logits) = runs
        assert logits.shape == (sum(sample), weights.config.vocab_size)
        assert logits.dtype == np.float32
        np.testing.assert_array_equal(pool.keys, ref_pool.keys)
        np.testing.assert_array_equal(pool.values, ref_pool.values)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(logits.argmax(axis=-1),
                                      ref_logits.argmax(axis=-1))

    @pytest.mark.parametrize("sampling", sorted(SAMPLINGS))
    def test_last_layer_runs_only_the_sampled_rows(self, micro_weights,
                                                   monkeypatch, sampling):
        """Through a 12-row, 3-piece pack the last layer's MLP sees one
        row per sampled piece (no call when none is), earlier layers see
        all 12, and the lm-head runs only if a piece is sampled."""
        sample = self.SAMPLINGS[sampling]
        engine = build_batched_engine(micro_weights, max_batch_size=3)
        slots = [engine.cache.allocate() for _ in range(3)]
        mlp_rows, heads = [], []
        run_tokens = engine.prefill_mlp.run_tokens
        head = inference_module.lm_head_logits

        def spied_mlp(layer, xs):
            mlp_rows.append((layer, len(xs)))
            return run_tokens(layer, xs)

        def spied_head(x, weights):
            heads.append(len(x))
            return head(x, weights)

        monkeypatch.setattr(engine.prefill_mlp, "run_tokens", spied_mlp)
        monkeypatch.setattr(inference_module, "lm_head_logits", spied_head)
        engine.prefill(slots, list(MIXED_PROMPTS[5]), [4, 4, 4],
                       sample=sample)
        last = micro_weights.config.n_layers - 1
        kept = sum(sample)
        assert [rows for layer, rows in mlp_rows if layer < last] == \
            [12] * last
        assert [rows for layer, rows in mlp_rows if layer == last] == \
            ([kept] if kept else [])
        assert heads == ([kept] if kept else [])
        assert [slot.length for slot in slots] == [4, 4, 4]

    def test_validation(self, micro_weights):
        engine = build_batched_engine(micro_weights, max_batch_size=2)
        a, b = engine.cache.allocate(), engine.cache.allocate()
        with pytest.raises(ValueError, match="align"):
            engine.prefill([a, b], [1, 2, 3], [3])
        with pytest.raises(ValueError, match="align"):
            engine.prefill([a, b], [1, 2, 3], [2, 1], sample=[True])
        with pytest.raises(ValueError, match="sample"):
            engine.prefill(a, [1, 2, 3], sample=[True])
        for lengths in ([3, 0], [1, 1], [2, 2]):
            with pytest.raises(ValueError, match="lengths"):
                engine.prefill([a, b], [1, 2, 3], lengths)
        with pytest.raises(ValueError):
            engine.prefill([], [], [])
        foreign = build_batched_engine(micro_weights).cache.allocate()
        with pytest.raises(ValueError, match="seated in this engine"):
            engine.prefill([a, foreign], [1, 2, 3], [2, 1])
        engine.prefill([a, b], [1, 2], [1, 1])
        with pytest.raises(ValueError, match="seated in this engine"):
            engine.decode_step([a, foreign], [3, 4])
        assert (a.length, b.length, foreign.length) == (1, 1, 0)
