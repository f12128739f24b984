"""Token sampling for the decode engine: scalar and batched.

The paper's evaluation decodes greedily (exact-match scoring); sampling
strategies are provided for completeness of the inference substrate, the
examples, and -- since the serving stack grew continuous batching -- for
per-request decode diversity under batching (ROADMAP item 5).

Both the scalar :class:`Sampler` and the serving-side
:class:`BatchedSampler` route through the same ``(B, vocab)`` kernel
(:func:`filtered_probs` + :func:`sample_rows`), so a request sampled in a
batch draws the **bit-identical** token it would have drawn alone, given
the same logits row, config, and RNG stream.  Streams are per-request
(:func:`derive_stream`), keyed by ``(config.seed, request_id)``: a
request's tokens never depend on which other requests share its batch,
the order they were admitted, or how often it was preempted (replay
re-feeds already-sampled tokens and never draws).

Filter semantics (all applied to temperature-scaled logits):

* ``top_k``: keep exactly the ``k`` highest logits.  Ties at the kth
  value are broken deterministically by **lowest token id**, so exactly
  ``k`` survive (the pre-PR-8 implementation kept every tied token).
  ``k == 0`` or ``k >= vocab`` disables the filter.
* ``top_p``: keep the smallest prefix of the probability-sorted vocab
  whose mass reaches ``top_p``.  The sort is **stable** on descending
  probability, so tied probabilities keep the lowest token ids (the
  pre-PR-8 unstable argsort made the kept set tie-order-dependent).
  ``p == 0`` disables; ``p == 1`` keeps the full support.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling hyper-parameters.

    ``temperature == 0`` means greedy argmax.  ``top_k``/``top_p`` filter
    the distribution before sampling (0 disables each filter).  ``seed``
    feeds :func:`derive_stream`, which mixes it with the request id so
    every request gets an independent, reproducible RNG stream.
    """

    temperature: float = 0.0
    top_k: int = 0
    top_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )
        # ``top_k`` feeds an int64 array and ``seed`` an RNG key, so a
        # fractional value would be truncated there instead of rejected.
        for name in ("top_k", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {value!r}"
                ) from None
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not 0.0 <= self.top_p <= 1.0:
            raise ValueError(f"top_p must be in [0, 1], got {self.top_p}")

    @property
    def is_greedy(self) -> bool:
        return self.temperature == 0.0


def derive_stream(seed: int, request_id: int) -> np.random.Generator:
    """Independent per-request RNG stream from ``(seed, request_id)``.

    The pair seeds ``np.random.default_rng`` as an entropy sequence, so
    distinct requests under one config seed get decorrelated streams and
    the same pair always reproduces the same stream -- regardless of
    batch composition, admission order, or preemption/resume.
    """
    return np.random.default_rng([int(seed) & _SEED_MASK, int(request_id) & _SEED_MASK])


def filtered_probs(
    logits: np.ndarray,
    temperatures: np.ndarray,
    top_ks: np.ndarray,
    top_ps: np.ndarray,
) -> np.ndarray:
    """Per-row filtered sampling distributions for ``(B, vocab)`` logits.

    One vectorised pass: temperature scale, top-k mask (``np.partition``
    threshold + lowest-token-id tie-break), row softmax, top-p mask
    (stable descending sort + cumulative mass), renormalise.  Every row
    must have ``temperature > 0`` (greedy rows are argmax'd by the
    callers and never reach here).
    """
    logits = np.asarray(logits, dtype=np.float64)
    scaled = logits / temperatures[:, None]
    scaled = np.where(_topk_keep(scaled, top_ks), scaled, -np.inf)
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    probs = np.where(_topp_keep(probs, top_ps), probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def sample_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: one token id per row from one uniform per row.

    Equivalent to ``np.searchsorted(cdf, u, side="right")`` per row.  A
    zero-probability token never wins: its CDF entry equals its
    predecessor's, so ``u`` cannot land strictly inside its bucket.
    """
    cumulative = np.cumsum(probs, axis=-1)
    cumulative = cumulative / cumulative[:, -1:]
    return (cumulative <= uniforms[:, None]).sum(axis=-1)


def _topk_keep(scaled: np.ndarray, top_ks: np.ndarray) -> np.ndarray:
    """Boolean keep-mask retaining exactly ``top_ks[i]`` entries per row.

    The kth order statistic comes from ``np.partition`` on the batch;
    entries strictly above it always survive, and just enough entries
    *equal* to it (lowest token id first, via a cumulative count over the
    tie mask) top the kept set up to exactly ``k``.
    """
    n, vocab = scaled.shape
    ks = np.where((top_ks > 0) & (top_ks < vocab), top_ks, vocab)
    keep = np.ones(scaled.shape, dtype=bool)
    active = ks < vocab
    if not active.any():
        return keep
    kth_positions = np.unique(vocab - ks[active])
    part = np.partition(scaled, kth_positions, axis=-1)
    kth = part[np.arange(n), np.clip(vocab - ks, 0, vocab - 1)][:, None]
    above = scaled > kth
    tied = scaled == kth
    budget = ks[:, None] - above.sum(axis=-1, keepdims=True)
    keep_active = above | (tied & (np.cumsum(tied, axis=-1) <= budget))
    keep[active] = keep_active[active]
    return keep


def _topp_keep(probs: np.ndarray, top_ps: np.ndarray) -> np.ndarray:
    """Boolean keep-mask for the smallest prefix with mass >= ``top_ps[i]``.

    Stable sort on descending probability: position ``j`` (sorted order)
    is kept iff the mass *before* it is still short of ``top_p``, which
    keeps the first token unconditionally and matches the scalar
    ``searchsorted(cumulative, top_p) + 1`` cut for every boundary
    (``top_p == 1.0`` keeps all; all-mass-in-one-token keeps one).
    """
    n, vocab = probs.shape
    keep = np.ones(probs.shape, dtype=bool)
    active = top_ps > 0.0
    if not active.any():
        return keep
    order = np.argsort(-probs, axis=-1, kind="stable")
    cumulative = np.cumsum(np.take_along_axis(probs, order, axis=-1), axis=-1)
    keep_sorted = np.empty((n, vocab), dtype=bool)
    keep_sorted[:, 0] = True
    keep_sorted[:, 1:] = cumulative[:, :-1] < top_ps[:, None]
    scattered = np.empty_like(keep_sorted)
    np.put_along_axis(scattered, order, keep_sorted, axis=-1)
    keep[active] = scattered[active]
    return keep


class Sampler:
    """Stateful scalar sampler (owns its RNG so generations reproduce).

    Routes through the shared batch kernel with ``B == 1``, so it is the
    single-sequence reference for :class:`BatchedSampler`: build one via
    :meth:`for_request` to replay exactly what a request drew in a batch.
    """

    def __init__(
        self,
        config: Optional[SamplerConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config or SamplerConfig()
        self._rng = rng if rng is not None else np.random.default_rng(self.config.seed)

    @classmethod
    def for_request(cls, config: SamplerConfig, request_id: int) -> "Sampler":
        """Scalar sampler on the same stream a batched request uses."""
        return cls(config, rng=derive_stream(config.seed, request_id))

    def sample(self, logits: np.ndarray) -> int:
        """Pick the next token id from unnormalised logits."""
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 1:
            raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
        cfg = self.config
        if cfg.temperature == 0.0:
            return int(np.argmax(logits))
        probs = filtered_probs(
            logits[None, :],
            np.array([cfg.temperature], dtype=np.float64),
            np.array([cfg.top_k], dtype=np.int64),
            np.array([cfg.top_p], dtype=np.float64),
        )
        uniform = self._rng.random()
        return int(sample_rows(probs, np.array([uniform]))[0])


class BatchedSampler:
    """Per-request sampling over the scheduler's stacked ``(B, vocab)`` logits.

    One vectorised kernel call per decode step replaces the scheduler's
    per-sequence argmax loop (the last scalar hot loop, carried in
    ``analysis_baseline.txt`` until this PR).  Greedy rows
    (``temperature == 0``) are argmax'd in one batch reduction and never
    touch an RNG; stochastic rows share one kernel pass and draw from
    per-request streams (:func:`derive_stream`), created lazily and
    dropped on completion via :meth:`drop_stream`.  Preempted requests
    keep their stream: resume replays recorded tokens through the KV
    cache without sampling, so the stream position stays exactly one
    draw per emitted token.
    """

    def __init__(self, default: Optional[SamplerConfig] = None):
        self.default = default or SamplerConfig()
        self._streams: Dict[int, np.random.Generator] = {}

    @property
    def n_streams(self) -> int:
        return len(self._streams)

    def stream_for(self, request_id: int, config: SamplerConfig) -> np.random.Generator:
        """The request's RNG stream, created on first use."""
        stream = self._streams.get(request_id)
        if stream is None:
            stream = derive_stream(config.seed, request_id)
            self._streams[request_id] = stream
        return stream

    def drop_stream(self, request_id: int) -> None:
        """Forget a completed request's stream (re-submission restarts it)."""
        self._streams.pop(request_id, None)

    def sample(
        self,
        logits: np.ndarray,
        configs: Sequence[SamplerConfig],
        request_ids: Sequence[int],
    ) -> np.ndarray:
        """One token id per row of ``(B, vocab)`` logits.

        ``configs[i]``/``request_ids[i]`` govern row ``i``.  Bit-identical
        to :class:`Sampler` row by row: numpy's row-wise reductions,
        sorts, and partitions are independent across rows, and both paths
        draw via one ``Generator.random()`` uniform through
        :func:`sample_rows`.
        """
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        if len(configs) != logits.shape[0] or len(request_ids) != logits.shape[0]:
            raise ValueError(
                f"got {logits.shape[0]} logit rows, {len(configs)} configs, "
                f"{len(request_ids)} request ids"
            )
        choices = np.argmax(logits, axis=-1)
        temperatures = np.array([c.temperature for c in configs], dtype=np.float64)
        rows = np.flatnonzero(temperatures > 0.0)
        if rows.size:
            probs = filtered_probs(
                logits[rows],
                temperatures[rows],
                np.array([configs[i].top_k for i in rows], dtype=np.int64),
                np.array([configs[i].top_p for i in rows], dtype=np.float64),
            )
            uniforms = np.array(
                [self.stream_for(request_ids[i], configs[i]).random() for i in rows]
            )
            choices[rows] = sample_rows(probs, uniforms)
        return choices


def greedy(logits: np.ndarray) -> int:
    """Module-level greedy pick (what the paper's evaluation uses)."""
    return int(np.argmax(np.asarray(logits)))
