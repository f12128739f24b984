"""The batched decode engine: chunked prefill + batched sparse decode.

Mirrors :class:`repro.model.inference.InferenceModel` over a pool of
paged KV slots (:class:`repro.model.paged_kvcache.PagedKVCache`, the one
serving store).  Every pass runs the one transformer layer loop,
:func:`repro.model.inference.forward_rows`, over ``(rows, d)``
activations; its callers differ only in what the rows are and which
attention strategy and row-MLP they hand it:

* :meth:`~BatchedEngine.prefill` / :meth:`~BatchedEngine.verify_chunk`
  -- rows are ragged segments of consecutive positions, one segment per
  slot, each attended causally against its own slot's cache.  Prefill
  packs one prompt piece per slot into one pass and runs the dense
  executor (sparsity is a decode-phase optimisation, paper Section
  V-C); verify is a one-segment pass through the serving-alpha sparse
  executor.
* :meth:`~BatchedEngine.decode_step` / :meth:`~BatchedEngine.draft_step`
  -- rows are the next token of *each* slot, run through the
  batch-aware sparse MLP.  At batch > 1 each row is a one-row segment
  of the same ragged pass, attended against its own slot's pages, so a
  row never sees its partners' lengths.  A batch of one attends
  through :func:`~repro.model.inference.forward_token_single`'s
  single-sequence :func:`~repro.model.inference.attend_single` instead,
  which is what makes it bit-identical to the single-sequence engine.

The engine is the forward pass only.  Which slot a sequence gets, and
where its prompt-prefix K/V comes from (a fork of a resident sequence,
or a revive from the ``cache_pages`` prefix cache), is the KV store's
business -- callers seat and retire sequences through ``engine.cache``
(``plan`` / ``seat`` / ``register`` / ``release``, see
:mod:`repro.model.paged_kvcache`).  That changes *where* K/V comes from
and *how much* prefill runs, never what is decoded: causal attention
makes a shared position's K/V a pure function of the shared tokens.

Numerical contract (unchanged by every knob), in three tiers:

* a batch-1 :meth:`~BatchedEngine.decode_step` is **bit-identical** to
  :func:`repro.core.engine.build_engine`'s ``forward_token`` given the
  same KV contents -- they share the code;
* at a fixed batch size >= 2, a row's attention does not depend on its
  partners (their lengths or tokens): each row attends its own pages.
  The sparse MLP's GEMM kernel still changes between 2-3 and >= 4 rows,
  so across batch sizes a row's bits may differ;
* served tokens equal ``build_engine(...).generate``'s, except at near
  ties, where batched GEMM rounding can flip an argmax.  Prefill logits
  agree with the oracle to ``rtol=1e-5`` (chunked-GEMM rounding).

See ``docs/serving.md`` for the architecture walkthrough, the full knob
table, and the ``ServeReport`` telemetry glossary.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from ..core.alpha import AlphaSchedule
from ..core.engine import SparseInferSettings
from ..core.predictor import SparseInferPredictor
from ..model.inference import (
    forward_rows, forward_token_single, token_ids_in_vocab,
)
from ..model.paged_kvcache import (
    DEFAULT_PAGE_SIZE,
    PagedKVCache,
    PagedKVSlot,
)
from ..model.mlp import DenseMLP
from ..model.rope import apply_rope, rope_tables
from ..model.sampler import BatchedSampler, SamplerConfig
from ..model.weights import ModelWeights
from .batch_mlp import BatchedSparseInferMLP
from .request import as_integer


def masked_softmax(scores: np.ndarray, neg_mask: Optional[np.ndarray],
                   head_dim: int) -> np.ndarray:
    """Scaled softmax of float32 ``scores`` over the last axis, in place.

    ``neg_mask`` is additive, 0 where a key is visible and -inf where
    not: exp(-inf) == 0, so a masked key's weight is exactly 0.  ``None``
    means every key is visible (a one-row segment sees its whole cache).
    """
    scores /= np.float32(np.sqrt(head_dim))   # float32 scale, see inference.py
    if neg_mask is not None:
        scores += neg_mask
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _require_distinct(slots: Sequence[PagedKVSlot]) -> None:
    """One row block per slot per pass: a repeated slot would write two
    rows to the same position and advance the slot twice."""
    if len({id(slot) for slot in slots}) != len(slots):
        raise ValueError("a slot may appear at most once per call")


class BatchedEngine:
    """Multi-sequence SparseInfer decoder over pooled KV slots.

    Parameters
    ----------
    weights:
        Model parameters in inference layout.
    settings:
        The same knobs as :func:`repro.core.engine.build_engine`; the
        alpha schedule is applied through the shared predictor.
    predictor:
        Reuse an already-packed predictor (packing is the only expensive
        offline step); otherwise packed from ``weights``.
    max_batch_size:
        Number of KV slots, i.e. the concurrent-sequence ceiling.
    max_seq_len:
        Per-slot capacity; defaults to the model's ``max_seq_len``.
    page_size / n_pages:
        KV-arena geometry: positions per page, and the total page
        budget shared by all slots (default
        ``max_batch_size * ceil(max_seq_len / page_size)``, every slot's
        worst case at once).  Short requests hold only the pages they
        touch, so a smaller budget still co-schedules many of them.
    cache_pages:
        Forwarded to the KV store: when > 0, keep up to this many
        retired prompt-prefix pages alive in an LRU
        :class:`~repro.model.paged_kvcache.PrefixCache` (carved out of
        ``n_pages``, reclaimable on demand) so same-prefix requests
        whose lifetimes never overlap can still share; 0 (the default)
        is bit-identical to no cache.  Resident prompts are always
        indexed, so an admission can fork a resident sequence's KV
        pages (copy-on-write) instead of re-prefilling a shared prefix.
    sampling:
        Default :class:`~repro.model.sampler.SamplerConfig` for
        requests that do not carry their own ``Request.sampling``.
        ``None`` (the default) means greedy argmax -- exactly the
        pre-sampling scheduler behaviour.  The engine owns one
        :class:`~repro.model.sampler.BatchedSampler` either way; it
        consumes the stacked decode logits in one vectorised pass and
        draws stochastic rows from per-request RNG streams.
    """

    def __init__(
        self,
        weights: ModelWeights,
        settings: Optional[SparseInferSettings] = None,
        predictor: Optional[SparseInferPredictor] = None,
        max_batch_size: int = 8,
        max_seq_len: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
        n_pages: int = 0,
        cache_pages: int = 0,
        sampling: Optional[SamplerConfig] = None,
    ):
        weights.validate()
        cache_pages = as_integer(cache_pages, "cache_pages")
        self.weights = weights
        self.config = weights.config
        self.settings = settings or SparseInferSettings()
        schedule = self.settings.schedule(self.config.n_layers)
        if predictor is None:
            predictor = SparseInferPredictor.from_gate_weights(
                weights.gate_matrices(), schedule
            )
        else:
            predictor = predictor.with_schedule(schedule)
        self.sparse = BatchedSparseInferMLP(
            weights=weights,
            predictor=predictor,
            use_actual_sparsity=self.settings.use_actual_sparsity,
        )
        self.prefill_mlp = DenseMLP(weights)
        self.max_batch_size = max_batch_size
        self.cache_pages = cache_pages
        self.cache = PagedKVCache(
            self.config, max_batch_size, max_seq_len,
            page_size=page_size, n_pages=n_pages, cache_pages=cache_pages,
        )
        self.sampling = sampling if sampling is not None else SamplerConfig()
        self.sampler = BatchedSampler(self.sampling)
        # Speculation executors, built on demand: one sparse draft
        # executor per aggressive alpha, one verify executor at the
        # serving alpha.  Separate instances keep ``self.sparse.stats``
        # (the skip-intersection telemetry the scheduler reports)
        # strictly about committed decode steps.
        self._draft_mlps: dict = {}
        self._verify_mlp = None

    # -- forward passes ----------------------------------------------------

    def _forward_chunk(self, segments: Sequence, token_ids: list, mlp_rows,
                       last_only: bool = False) -> np.ndarray:
        """One causal pass over ragged segments of slots' next positions.

        Every pass but a batch-1 decode step: :meth:`prefill` and
        :meth:`verify_chunk` segments are prompt pieces and draft
        chunks, :meth:`decode_step` and :meth:`draft_step` segments at
        batch > 1 are one row per slot.  ``segments`` lists ``(slot,
        n_rows)``, each slot at most once, and ``token_ids`` holds their
        rows concatenated in that order.  Embed, norms, projections,
        ``Wo``, ``mlp_rows`` and the lm-head run as one GEMM over all
        rows; each segment's queries attend, causally masked, against
        its own slot's cache -- prior positions plus the segment itself,
        whose K/V each layer writes first.  A one-row segment sees its
        whole cache, so it builds and adds no mask.  Returns every row's
        logits, or with ``last_only`` the last row of each segment.
        """
        # The pass writes every row into this engine's arena.
        if not all(self.cache.holds(slot) for slot, _ in segments):
            raise ValueError("a slot must be seated in this engine's cache")
        cfg = self.config
        n_heads, head_dim = cfg.n_heads, cfg.head_dim
        n_tokens = len(token_ids)
        bases = [slot.length for slot, _ in segments]
        ends = list(itertools.accumulate(n_rows for _, n_rows in segments))
        spans = [np.arange(base, base + n_rows)
                 for base, (_, n_rows) in zip(bases, segments)]
        cos, sin = rope_tables(np.concatenate(spans), head_dim, cfg.rope_theta)
        cos, sin = cos[:, None, :], sin[:, None, :]      # (T, 1, hd/2)
        # Every row's arena cell, its pages claimed once for all layers.
        cells = np.array([cell for (slot, n_rows), base in zip(segments, bases)
                          for cell in slot.cells(base, n_rows)])
        pool = self.cache.pool
        # One causal block per segment: rows end - n_rows .. end hold
        # positions base .. base + n_rows of the segment's slot.
        blocks = [
            (slot, end - n_rows, end, base + n_rows,
             None if n_rows == 1 else np.where(
                 np.arange(base + n_rows)[None, :] <= span[:, None],
                 np.float32(0.0), np.float32(-np.inf),
             ))
            for (slot, n_rows), base, end, span
            in zip(segments, bases, ends, spans)
        ]

        def attend(layer, q, k, v):
            # RoPE and the K/V write once over every row, then one
            # matmul pair per segment.
            qr = apply_rope(q.reshape(n_tokens, n_heads, head_dim), cos, sin)
            kr = apply_rope(k.reshape(n_tokens, n_heads, head_dim), cos, sin)
            pool.write(layer, cells, kr.reshape(n_tokens, cfg.d_model), v)
            ctx = np.empty((n_tokens, n_heads, head_dim), dtype=np.float32)
            # Ragged causal blocks: each segment attends against its own
            # slot's cache, of its own length.
            # repro: ignore[scalar-loop] -- one matmul pair per segment
            for slot, lo, hi, total, neg_mask in blocks:
                keys, values = slot.view(layer, total)   # (L, d)
                ck = keys.reshape(total, n_heads, head_dim).transpose(1, 2, 0)
                cv = values.reshape(total, n_heads, head_dim).transpose(1, 0, 2)
                scores = np.matmul(qr[lo:hi].transpose(1, 0, 2), ck)
                ctx[lo:hi] = np.matmul(
                    masked_softmax(scores, neg_mask, head_dim), cv
                ).transpose(1, 0, 2)                      # (h, T, hd)
            return ctx.reshape(n_tokens, cfg.d_model)

        logits = forward_rows(
            self.weights, token_ids, attend, mlp_rows,
            [end - 1 for end in ends] if last_only else None,
        )
        for slot, n_rows in segments:
            slot.advance(n_rows)
        return logits

    def _forward_batch(
        self, slots: Sequence[PagedKVSlot], token_ids: Sequence[int],
        sparse: BatchedSparseInferMLP,
    ) -> np.ndarray:
        """One token per slot through ``sparse``; ``(B, vocab)`` logits.

        The forward pass of :meth:`decode_step` (serving-alpha
        executor) and :meth:`draft_step` (aggressive-alpha executor).
        """
        if len(slots) != len(token_ids):
            raise ValueError("slots and token_ids must align")
        if not slots:
            raise ValueError("decode_step needs at least one sequence")
        _require_distinct(slots)
        ids = token_ids_in_vocab(self.config, token_ids)
        if len(slots) > 1:
            return self._forward_chunk([(slot, 1) for slot in slots], ids,
                                       sparse.run_batch)
        # Batch 1 attends through the oracle's own attend_single, which
        # keeps the step bit-identical to build_engine; a one-segment
        # pass measured no faster at that size.
        logits = forward_token_single(self.weights, ids[0], slots[0].length,
                                      slots[0], sparse.run_batch)
        slots[0].advance()
        return logits

    def prefill(
        self, slots, prompt_ids: Sequence[int],
        lengths: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Run one prompt piece per slot as one packed causal pass.

        ``prompt_ids`` is the flat concatenation of the pieces: piece
        ``i`` is the next ``lengths[i]`` tokens of ``slots[i]``, fed at
        its current length; each slot appears at most once.  Returns
        ``(len(slots), vocab)`` logits, row ``i`` from piece ``i``'s
        last position.  ``prefill(slot, ids)``, without ``lengths``, is
        the one-piece pack and returns that piece's ``(vocab,)`` row.

        The pack runs through the dense prefill executor as one
        :meth:`_forward_chunk` pass: its rows share every GEMM and
        attend per piece.  The caller sizes the pack (the scheduler's
        ``step_budget``).
        """
        one_piece = lengths is None
        if one_piece:
            slots, lengths = [slots], [len(prompt_ids)]
        # len(), not truthiness: a numpy-array prompt satisfies the
        # Sequence[int] annotation but raises on bool().
        if len(prompt_ids) == 0:
            raise ValueError("prefill needs at least one token")
        if len(slots) != len(lengths):
            raise ValueError("slots and lengths must align")
        if min(lengths) < 1 or sum(lengths) != len(prompt_ids):
            raise ValueError(
                "lengths must be >= 1 and sum to len(prompt_ids)"
            )
        _require_distinct(slots)
        # Plain ints: numpy scalars would leak into the slots' lengths.
        segments = [(slot, int(n)) for slot, n in zip(slots, lengths)]
        logits = self._forward_chunk(
            segments, token_ids_in_vocab(self.config, prompt_ids),
            self.prefill_mlp.run_tokens, last_only=True,
        )
        return logits[0] if one_piece else logits

    def decode_step(
        self, slots: Sequence[PagedKVSlot], token_ids: Sequence[int]
    ) -> np.ndarray:
        """One batched decode step; returns ``(B, vocab)`` logits.

        ``token_ids[i]`` is fed to ``slots[i]`` at its current length.
        """
        return self._forward_batch(slots, token_ids, self.sparse)

    # -- speculative self-drafting -----------------------------------------

    def _draft_mlp(self, alpha: float) -> BatchedSparseInferMLP:
        """The (memoized) aggressive-alpha sparse draft executor.

        A second view over the *same* weights and packed predictor --
        only the per-layer skip threshold changes, so building one costs
        no model memory and no re-packing.
        """
        mlp = self._draft_mlps.get(alpha)
        if mlp is None:
            schedule = AlphaSchedule.uniform(alpha, self.config.n_layers)
            mlp = BatchedSparseInferMLP(
                weights=self.weights,
                predictor=self.sparse.predictor.with_schedule(schedule),
                use_actual_sparsity=self.settings.use_actual_sparsity,
            )
            self._draft_mlps[alpha] = mlp
        return mlp

    def draft_step(
        self, slots: Sequence[PagedKVSlot], token_ids: Sequence[int],
        draft_alpha: float,
    ) -> np.ndarray:
        """One *draft* decode step; returns ``(B, vocab)`` logits.

        Identical to :meth:`decode_step` except the MLP runs through
        the sparse executor at ``draft_alpha`` (the scheduler's
        ``SpecConfig.draft_alpha``), so the logits are cheap
        approximations.  The K/V it appends is draft-quality: callers
        must :meth:`~repro.model.paged_kvcache.PagedKVSlot.truncate`
        back before committing anything (the verify pass re-appends
        exact K/V).
        """
        return self._forward_batch(
            slots, token_ids, self._draft_mlp(draft_alpha)
        )

    def verify_chunk(
        self, slot: PagedKVSlot, token_ids: Sequence[int]
    ) -> np.ndarray:
        """Verify a committed token plus drafts in one causal GEMM pass.

        ``token_ids`` is ``[committed_token, draft_1, ..., draft_k]``;
        the slot must be rewound to the committed length first.  Runs
        the chunked-prefill machinery with the **serving-alpha** sparse
        executor, on the same dense-masked ``run_batch`` path as a
        decode step: gate/up/down run as one GEMM each over the chunk and
        every row is re-zeroed by its own predicted skip mask, so it
        stays decode-faithful -- accepted positions leave behind exactly
        the K/V a decode step would have appended, up to GEMM rounding.
        Returns all ``(k + 1, vocab)`` logit rows: row ``i`` is the
        serving engine's prediction *after* chunk token ``i``.
        """
        if len(token_ids) == 0:
            raise ValueError("verify_chunk needs at least one token")
        ids = token_ids_in_vocab(self.config, token_ids)
        if self._verify_mlp is None:
            self._verify_mlp = BatchedSparseInferMLP(
                weights=self.weights,
                predictor=self.sparse.predictor,
                use_actual_sparsity=self.settings.use_actual_sparsity,
            )
        return self._forward_chunk(
            [(slot, len(ids))], ids, self._verify_mlp.run_batch,
        )
