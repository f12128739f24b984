"""Batched decode attention: pad-and-stack K/V with length masking.

:func:`~repro.model.inference.attend_single` is exact but scalar; this
module computes the same attention for a whole decode batch at once:

1. RoPE is applied to the step's ``(B, d)`` Q/K projections in one shot,
   with per-position ``(cos, sin)`` tables drawn from the shared memo
   (:func:`repro.model.rope.rope_for_position`) -- co-scheduled
   sequences at the same length share one table instead of B copies.
2. Each sequence's K/V pages are gathered into a padded
   ``(B, l_max, n_heads, head_dim)`` stack via the cache's
   ``view_batch`` path (one arena index per layer), and a length mask
   zeroes the padded positions **exactly** -- masked scores are
   ``-inf`` before the softmax, so padded K/V can hold arbitrary
   garbage without perturbing a single output bit.
3. Scores and context reduce as one einsum per layer instead of B.

**Length bucketing.**  Padding waste is ``l_max - l_i`` per row; a batch
mixing a 500-token sequence with 10-token ones would gather mostly
padding.  :func:`length_buckets` splits the batch into groups whose
lengths are within ``bucket_min_fill`` of the group maximum (prefix
sharing makes equal-length groups common, so bucketing is usually
free).  Singleton buckets fall back to :func:`attend_single`, whose
single-page ``view`` is zero-copy.

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
from .inference import attend_single
from .rope import apply_rope, rope_for_position

DEFAULT_BUCKET_MIN_FILL = 0.5


@dataclass
class AttentionTelemetry:
    """Padding/bucketing accounting across batched decode steps.

    ``useful_positions`` counts K/V cells inside some sequence's length;
    ``padded_positions`` counts every cell the padded gathers touched,
    so their gap is the work the length mask threw away.  Singleton
    buckets are excluded from both -- they take the scalar
    ``attend_single`` path and never gather padding -- so the waste
    fraction describes only the gathers that actually ran.  One *step*
    here is one decode step (all layers share the step's bucketing).
    """

    batched_steps: int = 0
    buckets_sum: int = 0
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
        return self.buckets_sum / self.batched_steps if self.batched_steps else 0.0

    def since(self, baseline: "AttentionTelemetry") -> "AttentionTelemetry":
        """The counters accumulated after ``baseline`` was snapshotted."""
        return AttentionTelemetry(
            batched_steps=self.batched_steps - baseline.batched_steps,
            buckets_sum=self.buckets_sum - baseline.buckets_sum,
            useful_positions=self.useful_positions - baseline.useful_positions,
            padded_positions=self.padded_positions - baseline.padded_positions,
        )


def length_buckets(
    lengths: Sequence[int], min_fill: float = DEFAULT_BUCKET_MIN_FILL
) -> list:
    """Group batch indices so padding waste stays bounded.

    Indices are sorted by length (descending) and greedily grouped: an
    index joins the current bucket while its length is at least
    ``min_fill`` of the bucket maximum, so no row in a bucket wastes
    more than ``1 - min_fill`` of its padded width.  ``min_fill = 0``
    disables bucketing (one bucket, pure pad-and-stack);
    ``min_fill = 1`` buckets only exactly-equal lengths.
    """
    if not 0.0 <= min_fill <= 1.0:
        raise ValueError(f"min_fill must be in [0, 1], got {min_fill}")
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    buckets = [[order[0]]]
    bucket_max = lengths[order[0]]
    for i in order[1:]:
        if lengths[i] >= min_fill * bucket_max:
            buckets[-1].append(i)
        else:
            buckets.append([i])
            bucket_max = lengths[i]
    return buckets


class _BucketAttend:
    """Per-step state of one length bucket: everything layer-invariant.

    RoPE stacks, the length mask and the bucket's index array depend
    only on the step's positions, so they are built once here and
    reused by every layer; the batch K/V view is built lazily at the
    first gather (after layer 0's appends have claimed any new page)
    and likewise reused -- a decode step's page tables cannot change
    after its first append.
    """

    __slots__ = ("indices", "slots", "positions", "lengths", "l_max",
                 "cos", "sin", "neg_mask", "view", "whole_batch",
                 "scores", "ctx")

    def __init__(self, config: ModelConfig, indices, slots, positions,
                 whole_batch: bool):
        self.indices = indices
        self.slots = slots
        self.positions = positions
        self.whole_batch = whole_batch
        self.lengths = np.asarray(positions) + 1
        self.l_max = int(self.lengths.max())
        self.view = None
        if len(slots) > 1:
            # One (cos, sin) build per *distinct* position: equal-length
            # sequences (co-scheduled prefix sharers) share one memo
            # entry instead of B identical rebuilds.
            tables = {
                p: rope_for_position(p, config.head_dim, config.rope_theta)
                for p in set(positions)
            }
            self.cos = np.concatenate(
                [tables[p][0] for p in positions]
            )[:, None, :]
            self.sin = np.concatenate(
                [tables[p][1] for p in positions]
            )[:, None, :]
            # Additive mask: 0 inside a row's length, -inf past it.
            # finite + -inf == -inf exactly, so adding it in place is as
            # exact as np.where without allocating a fresh scores array.
            batch, l_max = len(slots), self.l_max
            self.neg_mask = np.where(
                np.arange(l_max)[None, None, :] < self.lengths[:, None, None],
                np.float32(0.0), np.float32(-np.inf),
            )                                              # (B, 1, l_max)
            # Per-step matmul output buffers, reused by every layer:
            # re-allocating them per layer costs more than the attention
            # math itself (allocator + page-fault churn that also evicts
            # the MLP weights' cache lines).
            h, hd = config.n_heads, config.head_dim
            self.scores = np.empty((batch, h, l_max, 1), dtype=np.float32)
            self.ctx = np.empty((batch, h, 1, hd), dtype=np.float32)


class StepPlan:
    """One decode step's bucketed attention, shared by all layers."""

    def __init__(self, config: ModelConfig, buckets):
        self.config = config
        self.buckets = buckets

    def attend_layer(
        self, layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray,
        cache,
    ) -> np.ndarray:
        """Masked batched attention over every bucket; ``(B, d)`` ctx."""
        if len(self.buckets) == 1 and self.buckets[0].whole_batch:
            return self._attend_bucket(self.buckets[0], layer, q, k, v,
                                       cache)
        ctx = np.empty_like(q)
        for bucket in self.buckets:
            idx = bucket.indices
            ctx[idx] = self._attend_bucket(bucket, layer, q[idx], k[idx],
                                           v[idx], cache)
        return ctx

    def _attend_bucket(self, bucket, layer, q, k, v, cache) -> np.ndarray:
        """RoPE + cache append + masked attention for one bucket.

        ``q``/``k``/``v`` are the bucket's raw ``(B, d_model)``
        projections; returns the ``(B, d_model)`` pre-``Wo`` context.
        Appends each row's K/V to its slot exactly like
        :func:`attend_single` before gathering, so the cache contents
        are identical to the scalar path's.
        """
        cfg = self.config
        n_heads, head_dim = cfg.n_heads, cfg.head_dim
        batch = q.shape[0]
        if batch == 1:
            # Scalar fallback keeps the zero-copy single-page view;
            # singleton buckets are common under heavy bucketing.
            position = bucket.positions[0]
            rope = rope_for_position(position, head_dim, cfg.rope_theta)
            ctx = attend_single(cfg, q[0], k[0], v[0], position,
                                bucket.slots[0], layer, rope=rope)
            return ctx[None, :]

        qr = apply_rope(q.reshape(batch, n_heads, head_dim),
                        bucket.cos, bucket.sin)
        kr = apply_rope(k.reshape(batch, n_heads, head_dim),
                        bucket.cos, bucket.sin)
        k_flat = kr.reshape(batch, cfg.d_model)
        for i, slot in enumerate(bucket.slots):
            slot.append(layer, k_flat[i], v[i], bucket.positions[i])

        if bucket.view is None:
            # Safe to freeze now: the step's first appends (above) have
            # claimed any new page, and later layers only rewrite the
            # same position.
            bucket.view = cache.view_batch(bucket.slots, bucket.lengths)
        l_max = bucket.view.l_max
        keys, values = bucket.view.gather(layer)          # (B, l_max, d)
        kh = keys.reshape(batch, l_max, n_heads, head_dim).transpose(0, 2, 1, 3)
        vh = values.reshape(batch, l_max, n_heads, head_dim).transpose(0, 2, 1, 3)

        # matmul on the strided head views, not einsum: the stacked
        # (B, h) BLAS dispatch (strides become lda/ldb, no materialised
        # transpose) is 2-3x faster than c_einsum's loops at decode
        # shapes, and out= into the per-step buffers keeps the step free
        # of large per-layer temporaries.
        np.matmul(kh, qr[..., None], out=bucket.scores)
        scores = bucket.scores[..., 0]                    # (B, h, l_max)
        scores /= np.float32(np.sqrt(head_dim))  # float32 scale, see inference.py
        scores += bucket.neg_mask       # -inf past each row's length
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)      # exp(-inf) == 0: padded rows exact
        scores /= scores.sum(axis=-1, keepdims=True)
        probs = bucket.scores.transpose(0, 1, 3, 2)       # (B, h, 1, l_max)
        np.matmul(probs, vh, out=bucket.ctx)
        return bucket.ctx.reshape(batch, cfg.d_model)


class BatchedAttention:
    """One decode step's attention for many sequences at once.

    The engine calls :meth:`plan_step` once per decode step (bucketing,
    RoPE/mask precompute, telemetry) and the returned
    :class:`StepPlan`'s ``attend_layer`` once per layer.  ``cache`` is
    the :class:`~repro.model.paged_kvcache.PagedKVCache` the slots
    belong to (its ``view_batch(slots, lengths)`` builds the gather).
    """

    def __init__(self, config: ModelConfig,
                 bucket_min_fill: float = DEFAULT_BUCKET_MIN_FILL):
        if not 0.0 <= bucket_min_fill <= 1.0:
            raise ValueError(
                f"bucket_min_fill must be in [0, 1], got {bucket_min_fill}"
            )
        self.config = config
        self.bucket_min_fill = bucket_min_fill
        self.telemetry = AttentionTelemetry()

    def reset_telemetry(self) -> None:
        self.telemetry = AttentionTelemetry()

    def plan_step(self, positions: Sequence[int], slots: Sequence) -> StepPlan:
        """Bucket a decode step by post-append length; account telemetry."""
        lengths = [p + 1 for p in positions]
        groups = length_buckets(lengths, self.bucket_min_fill)
        t = self.telemetry
        t.batched_steps += 1
        t.buckets_sum += len(groups)
        buckets = []
        for group in groups:
            if len(group) > 1:       # singletons never gather padding
                l_max = max(lengths[i] for i in group)
                t.padded_positions += len(group) * l_max
                t.useful_positions += sum(lengths[i] for i in group)
            buckets.append(_BucketAttend(
                self.config,
                indices=group,
                slots=[slots[i] for i in group],
                positions=[positions[i] for i in group],
                # Direct (un-sliced) q/k/v are only valid when the
                # bucket is the identity permutation of the batch --
                # bucketing sorts by length, so check order, not size.
                whole_batch=group == list(range(len(positions))),
            ))
        return StepPlan(self.config, buckets)
