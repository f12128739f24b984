"""Batched decode attention: one padded K/V stack with length masking.

:func:`~repro.model.inference.attend_single` is exact but scalar; this
module computes the same attention for a whole decode batch at once:

1. RoPE is applied to the step's ``(B, d)`` Q/K projections in one shot,
   with per-position ``(cos, sin)`` tables drawn from the shared memo
   (:func:`repro.model.rope.rope_for_position`) -- co-scheduled
   sequences at the same length share one table instead of B copies.
2. Each sequence's K/V pages are gathered into **one** padded
   ``(B, l_max, n_heads, head_dim)`` stack via the cache's
   ``view_batch`` path (one arena index per layer), and a length mask
   zeroes the padded positions **exactly** -- masked scores are
   ``-inf`` before the softmax, so padded K/V can hold arbitrary
   garbage without perturbing a single output bit.  The ``l_max - l_i``
   padding per row is counted in :class:`AttentionTelemetry`, not
   avoided: splitting the batch into length buckets measured no faster
   end to end.
3. Scores and context reduce as one stacked matmul per layer, not B.

Numerics: the batched matmuls may round differently from the scalar
GEMVs, so batch > 1 output is *token-identical*, not bit-identical, to
:func:`repro.core.engine.build_engine` -- same contract as the batched
MLP.  The engine dispatches batch = 1 to the scalar path, which stays
bit-identical.  These guarantees hold with and without prefix sharing
and the prefix cache -- see ``docs/serving.md`` for the architecture
walkthrough and the full knob / telemetry reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .rope import apply_rope, rope_for_position


@dataclass
class AttentionTelemetry:
    """Padding accounting across batched decode steps.

    ``useful_positions`` counts K/V cells inside some sequence's length;
    ``padded_positions`` counts every cell the padded gathers touched,
    so their gap is the work the length mask threw away.  One *step*
    here is one decode step of batch > 1 (all layers share its stack).
    """

    batched_steps: int = 0
    useful_positions: int = 0
    padded_positions: int = 0

    @property
    def padding_waste_fraction(self) -> float:
        """Fraction of gathered K/V cells that were padding."""
        if not self.padded_positions:
            return 0.0
        return 1.0 - self.useful_positions / self.padded_positions

    @property
    def mean_buckets_per_step(self) -> float:
        """1.0 once a batched step ran: every step is one padded stack.
        Kept only because the serving benchmark still reads it."""
        return 1.0 if self.batched_steps else 0.0

    def since(self, baseline: "AttentionTelemetry") -> "AttentionTelemetry":
        """The counters accumulated after ``baseline`` was snapshotted."""
        return AttentionTelemetry(
            batched_steps=self.batched_steps - baseline.batched_steps,
            useful_positions=self.useful_positions - baseline.useful_positions,
            padded_positions=self.padded_positions - baseline.padded_positions,
        )


class StepPlan:
    """One decode step's padded attention, shared by all layers.

    RoPE stacks, the length mask and the matmul output buffers depend
    only on the step's positions, so every layer reuses them; the K/V
    view is built at the first gather and reused likewise.
    """

    def __init__(self, config: ModelConfig, positions: Sequence[int],
                 slots: Sequence):
        self.config = config
        self.slots = slots
        self.positions = positions
        self.lengths = np.asarray(positions) + 1
        self.view = None
        batch, l_max = len(positions), int(self.lengths.max())
        # One (cos, sin) build per *distinct* position: equal-length
        # sequences (co-scheduled prefix sharers) share one memo entry
        # instead of B identical rebuilds.
        tables = {p: rope_for_position(p, config.head_dim, config.rope_theta)
                  for p in set(positions)}
        cos, sin = zip(*(tables[p] for p in positions))
        self.cos = np.concatenate(cos)[:, None, :]
        self.sin = np.concatenate(sin)[:, None, :]
        # Additive mask: 0 inside a row's length, -inf past it.
        # finite + -inf == -inf exactly, so adding it in place is as
        # exact as np.where without allocating a fresh scores array.
        self.neg_mask = np.where(
            np.arange(l_max)[None, None, :] < self.lengths[:, None, None],
            np.float32(0.0), np.float32(-np.inf),
        )                                                  # (B, 1, l_max)
        # matmul out= buffers: per-layer allocation costs more than the
        # attention math (allocator churn evicts the MLP weights).
        h, hd = config.n_heads, config.head_dim
        self.scores = np.empty((batch, h, l_max, 1), dtype=np.float32)
        self.ctx = np.empty((batch, h, 1, hd), dtype=np.float32)

    def attend_layer(
        self, layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray,
        cache,
    ) -> np.ndarray:
        """RoPE + cache append + masked attention; ``(B, d)`` ctx.

        ``q``/``k``/``v`` are the step's raw ``(B, d_model)``
        projections; returns the ``(B, d_model)`` pre-``Wo`` context.
        Appends each row's K/V to its slot exactly like
        :func:`~repro.model.inference.attend_single` before gathering,
        so the cache contents are identical to the scalar path's.
        """
        cfg = self.config
        n_heads, head_dim = cfg.n_heads, cfg.head_dim
        batch = q.shape[0]
        qr = apply_rope(q.reshape(batch, n_heads, head_dim), self.cos, self.sin)
        kr = apply_rope(k.reshape(batch, n_heads, head_dim), self.cos, self.sin)
        k_flat = kr.reshape(batch, cfg.d_model)
        for i, slot in enumerate(self.slots):
            slot.append(layer, k_flat[i], v[i], self.positions[i])

        if self.view is None:
            # Safe to freeze now: the step's first appends (above) have
            # claimed any new page, and later layers only rewrite the
            # same position.
            self.view = cache.view_batch(self.slots, self.lengths)
        l_max = self.view.l_max
        keys, values = self.view.gather(layer)            # (B, l_max, d)
        kh = keys.reshape(batch, l_max, n_heads, head_dim).transpose(0, 2, 1, 3)
        vh = values.reshape(batch, l_max, n_heads, head_dim).transpose(0, 2, 1, 3)

        # matmul on the strided head views, not einsum: the stacked
        # (B, h) BLAS dispatch (strides become lda/ldb, no materialised
        # transpose) is 2-3x faster than c_einsum's loops at decode
        # shapes, and out= into the per-step buffers keeps the step free
        # of large per-layer temporaries.
        np.matmul(kh, qr[..., None], out=self.scores)
        scores = self.scores[..., 0]                      # (B, h, l_max)
        scores /= np.float32(np.sqrt(head_dim))  # float32 scale, see inference.py
        scores += self.neg_mask         # -inf past each row's length
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)      # exp(-inf) == 0: padded rows exact
        scores /= scores.sum(axis=-1, keepdims=True)
        probs = self.scores.transpose(0, 1, 3, 2)         # (B, h, 1, l_max)
        np.matmul(probs, vh, out=self.ctx)
        return self.ctx.reshape(batch, cfg.d_model)


class BatchedAttention:
    """One decode step's attention for many sequences at once.

    The engine calls :meth:`plan_step` once per decode step and the
    returned :class:`StepPlan`'s ``attend_layer(..., cache)`` once per
    layer, ``cache`` being the slots' :class:`~repro.model.paged_kvcache.
    PagedKVCache`.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.telemetry = AttentionTelemetry()

    def plan_step(self, positions: Sequence[int], slots: Sequence) -> StepPlan:
        """Plan one padded stack at post-append lengths; account telemetry."""
        plan = StepPlan(self.config, positions, slots)
        t = self.telemetry
        t.batched_steps += 1
        t.padded_positions += len(positions) * int(plan.lengths.max())
        t.useful_positions += int(plan.lengths.sum())
        return plan
