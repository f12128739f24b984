"""The batched decode engine: chunked prefill + batched sparse decode.

Mirrors :class:`repro.model.inference.InferenceModel` over a pool of
paged KV slots (:class:`repro.model.paged_kvcache.PagedKVCache`, the one
serving store).  There is **one** transformer layer loop,
:meth:`BatchedEngine._forward_rows`, over ``(rows, d)`` activations; its
callers differ only in what the rows are and which attention strategy
and row-MLP they hand it:

* :meth:`~BatchedEngine.prefill` / :meth:`~BatchedEngine.verify_chunk`
  -- rows are consecutive positions of *one* slot, attended causally
  against that slot's cache.  Prefill runs the dense executor (sparsity
  is a decode-phase optimisation, paper Section V-C); verify runs the
  serving-alpha sparse executor.
* :meth:`~BatchedEngine.decode_step` / :meth:`~BatchedEngine.draft_step`
  -- rows are the next token of *each* slot, attended through the
  length-bucketed :class:`~repro.model.batch_attention.BatchedAttention`
  and the batch-aware sparse MLP.  A batch of one is dispatched to the
  scalar :func:`~repro.model.inference.forward_token_single` instead
  (measurably faster at that size, and what makes it bit-identical to
  the single-sequence engine).

The engine is the forward pass only.  Which slot a sequence gets, and
where its prompt-prefix K/V comes from (``prefix_sharing`` forks,
``cache_pages`` revives), is the KV store's business -- callers seat and
retire sequences through ``engine.cache`` (``plan`` / ``seat`` /
``register`` / ``release``, see :mod:`repro.model.paged_kvcache`).  Those
knobs change *where* K/V comes from and *how much* prefill runs, never
what is decoded: causal attention makes a shared position's K/V a pure
function of the shared tokens.

Equivalence guarantees (unchanged by every knob above): served tokens
are identical to :func:`repro.core.engine.build_engine` ``.generate`` at
any batch size; a batch-1 :meth:`~BatchedEngine.decode_step` is
**bit-identical** to ``forward_token`` given the same KV contents;
prefill logits agree to ``rtol=1e-5`` (chunked-GEMM rounding).  See
``docs/serving.md`` for the architecture walkthrough, the full knob
table, and the ``ServeReport`` telemetry glossary.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.alpha import AlphaSchedule
from ..core.engine import SparseInferSettings
from ..core.predictor import SparseInferPredictor
from ..model.batch_attention import AttentionTelemetry, BatchedAttention
from ..model.inference import forward_token_single
from ..model.paged_kvcache import (
    DEFAULT_PAGE_SIZE,
    PagedKVCache,
    PagedKVSlot,
)
from ..model.mlp import DenseMLP, MLPExecutor
from ..model.norm import rmsnorm
from ..model.rope import apply_rope, rope_for_position, rope_tables
from ..model.sampler import BatchedSampler, SamplerConfig
from ..model.weights import ModelWeights
from .batch_mlp import BatchedSparseInferMLP
from .speculative import SpecConfig

DEFAULT_PREFILL_CHUNK = 32


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
    prefix_sharing:
        Forwarded to the KV store: index resident prompts so an
        admission can fork a resident sequence's KV pages
        (copy-on-write) instead of re-prefilling a shared prefix.
    cache_pages:
        Forwarded to the KV store: when > 0, keep up to this many
        retired prompt-prefix pages alive in an LRU
        :class:`~repro.model.paged_kvcache.PrefixCache` (carved out of
        ``n_pages``, reclaimable on demand) so same-prefix requests
        whose lifetimes never overlap can still share.  Requires
        ``prefix_sharing=True``; 0 (the default) is bit-identical to no
        cache.
    prefill_chunk:
        Prompt positions per prefill pass: a ``T``-token prompt runs
        through the layer loop as ``ceil(T / prefill_chunk)`` causal
        ``(chunk, d)`` passes (one GEMM per projection).  Must be >= 1.
    sampling:
        Default :class:`~repro.model.sampler.SamplerConfig` for
        requests that do not carry their own ``Request.sampling``.
        ``None`` (the default) means greedy argmax -- exactly the
        pre-sampling scheduler behaviour.  The engine owns one
        :class:`~repro.model.sampler.BatchedSampler` either way; it
        consumes the stacked decode logits in one vectorised pass and
        draws stochastic rows from per-request RNG streams.
    speculation:
        Default :class:`~repro.serving.speculative.SpecConfig` for
        speculative self-drafting.  The engine itself only stores it
        (and sizes nothing differently); the scheduler reads it as the
        default when its own ``speculation`` argument is None.  Draft
        and verify executors are built lazily per draft alpha
        (:meth:`draft_step` / :meth:`verify_chunk`), so an engine built
        without this knob still serves a scheduler-side ``SpecConfig``.
        ``None`` (the default) keeps the engine bit-identical to
        pre-speculation builds.
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
        prefix_sharing: bool = False,
        cache_pages: int = 0,
        prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
        sampling: Optional[SamplerConfig] = None,
        speculation: Optional[SpecConfig] = None,
    ):
        weights.validate()
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
        self.prefill_mlp: MLPExecutor = (
            self.sparse.single if self.settings.sparse_prefill
            else DenseMLP(weights)
        )
        self.max_batch_size = max_batch_size
        if cache_pages and not prefix_sharing:
            raise ValueError("cache_pages requires prefix_sharing=True")
        if prefill_chunk < 1:
            raise ValueError(
                f"prefill_chunk must be >= 1, got {prefill_chunk}"
            )
        self.prefix_sharing = prefix_sharing
        self.cache_pages = cache_pages
        self.prefill_chunk = prefill_chunk
        self.cache = PagedKVCache(
            self.config, max_batch_size, max_seq_len,
            page_size=page_size, n_pages=n_pages, cache_pages=cache_pages,
            prefix_sharing=prefix_sharing,
        )
        self.sampling = sampling if sampling is not None else SamplerConfig()
        self.sampler = BatchedSampler(self.sampling)
        self.speculation = speculation
        # Speculation executors, built on demand: one sparse draft
        # executor per aggressive alpha, one verify executor at the
        # serving alpha.  Separate instances keep ``self.sparse.stats``
        # (the skip-intersection telemetry the scheduler reports)
        # strictly about committed decode steps.
        self._draft_mlps: dict = {}
        self._verify_mlp = None
        self.attention = BatchedAttention(self.config)

    @property
    def attn_telemetry(self) -> AttentionTelemetry:
        """Padding-waste / bucketing counters of batched decode attention."""
        return self.attention.telemetry

    # -- forward passes ----------------------------------------------------

    def _forward_rows(self, token_ids, attend, mlp_rows,
                      last_only: bool = False) -> np.ndarray:
        """The transformer layer loop over ``(rows, d)`` activations.

        ``attend(layer, q, k, v)`` takes the raw ``(rows, d)``
        projections, applies RoPE, appends K/V to the cache and returns
        the pre-``Wo`` context rows; ``mlp_rows(layer, x)`` runs one
        layer's MLP over the normed rows.  Returns ``(rows, vocab)``
        logits, or only the last row's with ``last_only``.
        """
        cfg = self.config
        x = self.weights.tok_embed[token_ids].astype(np.float32)
        for layer in range(cfg.n_layers):
            lw = self.weights.layers[layer]
            attn_in = rmsnorm(x, lw.attn_norm, cfg.norm_eps)
            ctx = attend(
                layer, attn_in @ lw.wq, attn_in @ lw.wk, attn_in @ lw.wv
            )
            x = x + ctx @ lw.wo
            x = x + mlp_rows(layer, rmsnorm(x, lw.mlp_norm, cfg.norm_eps))
        if last_only:
            x = x[-1]
        final = rmsnorm(x, self.weights.final_norm, cfg.norm_eps)
        return final @ self.weights.lm_head

    def _forward_chunk(self, slot: PagedKVSlot, token_ids: list, mlp_rows,
                       last_only: bool = False) -> np.ndarray:
        """One causal pass of consecutive positions of one slot.

        The attention strategy of :meth:`prefill` and
        :meth:`verify_chunk`: the chunk's ``(T, d)`` queries attend,
        causally masked, against the slot's cache -- prior positions
        plus the chunk itself, block-written per layer.
        """
        cfg = self.config
        n_heads, head_dim = cfg.n_heads, cfg.head_dim
        base = slot.length
        n_tokens = len(token_ids)
        total = base + n_tokens
        positions = np.arange(base, total)
        cos, sin = rope_tables(positions, head_dim, cfg.rope_theta)
        causal = np.arange(total)[None, :] <= positions[:, None]

        def attend(layer, q, k, v):
            qh = apply_rope(
                q.reshape(n_tokens, n_heads, head_dim).transpose(1, 0, 2),
                cos, sin,
            )                                            # (h, T, hd)
            kh = apply_rope(
                k.reshape(n_tokens, n_heads, head_dim).transpose(1, 0, 2),
                cos, sin,
            )
            slot.append_rows(
                layer, kh.transpose(1, 0, 2).reshape(n_tokens, cfg.d_model),
                v, base,
            )
            keys, values = slot.view(layer, total)       # (L, d)
            ck = keys.reshape(total, n_heads, head_dim).transpose(1, 0, 2)
            cv = values.reshape(total, n_heads, head_dim).transpose(1, 0, 2)
            scores = np.einsum("hqd,htd->hqt", qh, ck) / np.float32(
                np.sqrt(head_dim))           # float32 scale, see inference.py
            scores = np.where(causal[None, :, :], scores, -np.inf)
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            ctx = np.einsum("hqt,htd->qhd", probs, cv)
            return ctx.reshape(n_tokens, cfg.d_model)

        logits = self._forward_rows(token_ids, attend, mlp_rows, last_only)
        slot.advance(n_tokens)
        return logits

    def _forward_batch(
        self, slots: Sequence[PagedKVSlot], token_ids: Sequence[int],
        sparse: BatchedSparseInferMLP,
    ) -> np.ndarray:
        """One token per slot through ``sparse``; ``(B, vocab)`` logits.

        The attention strategy of :meth:`decode_step` (serving-alpha
        executor) and :meth:`draft_step` (aggressive-alpha executor).
        """
        if len(slots) != len(token_ids):
            raise ValueError("slots and token_ids must align")
        if not slots:
            raise ValueError("decode_step needs at least one sequence")
        cfg = self.config
        if len(slots) == 1:
            # Size dispatch, measured: at batch 1 the scalar op sequence
            # beats the plan path (benchmark workload decode_b1 vs
            # decode_b8), and it is what keeps a batch-1 step
            # bit-identical to InferenceModel.forward_token.
            slot = slots[0]
            logits = forward_token_single(
                self.weights, int(token_ids[0]), slot.length, slot,
                sparse,
                rope=rope_for_position(
                    slot.length, cfg.head_dim, cfg.rope_theta
                ),
            )[None, :]
        else:
            plan = self.attention.plan_step(
                [slot.length for slot in slots], slots
            )
            logits = self._forward_rows(
                list(token_ids),
                lambda layer, q, k, v: plan.attend_layer(
                    layer, q, k, v, self.cache
                ),
                sparse.run_batch,
            )
        for slot in slots:
            slot.advance()
        return logits

    def prefill(
        self, slot: PagedKVSlot, prompt_ids: Sequence[int]
    ) -> np.ndarray:
        """Run a prompt into a slot; returns last-position logits.

        The prompt advances in causal chunks of ``prefill_chunk``
        positions through the prefill executor (dense unless
        ``settings.sparse_prefill``).
        """
        # len(), not truthiness: a numpy-array prompt satisfies the
        # Sequence[int] annotation but raises on bool().
        if len(prompt_ids) == 0:
            raise ValueError("prefill needs at least one token")
        mlp = self.prefill_mlp
        # Executors without a chunk entry point (sparse prefill) run
        # the chunk row by row; the projections and attention are still
        # whole-chunk GEMMs.
        mlp_rows = getattr(mlp, "run_tokens", None) or (
            lambda layer, xs: np.stack([mlp.run(layer, row) for row in xs])
        )
        ids = [int(tok) for tok in prompt_ids]
        logits = None
        for start in range(0, len(ids), self.prefill_chunk):
            logits = self._forward_chunk(
                slot, ids[start:start + self.prefill_chunk], mlp_rows,
                last_only=True,
            )
        return logits

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
        draft_alpha: Optional[float] = None,
    ) -> np.ndarray:
        """One *draft* decode step; returns ``(B, vocab)`` logits.

        Identical to :meth:`decode_step` except the MLP runs through
        the aggressive-alpha sparse executor, so the logits are cheap
        approximations.  The K/V it appends is draft-quality: callers
        must :meth:`~repro.model.paged_kvcache.PagedKVSlot.truncate`
        back before committing anything (the verify pass re-appends
        exact K/V).  ``draft_alpha`` defaults to the engine's
        ``speculation.draft_alpha``.
        """
        if draft_alpha is None:
            if self.speculation is None:
                raise ValueError(
                    "draft_step needs draft_alpha (engine built without "
                    "a speculation config)"
                )
            draft_alpha = self.speculation.draft_alpha
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
        if self._verify_mlp is None:
            self._verify_mlp = BatchedSparseInferMLP(
                weights=self.weights,
                predictor=self.sparse.predictor,
                use_actual_sparsity=self.settings.use_actual_sparsity,
            )
        return self._forward_chunk(
            slot, [int(tok) for tok in token_ids], self._verify_mlp.run_batch,
        )
