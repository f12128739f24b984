"""Batch-aware SparseInfer MLP executor.

Per decode step and layer this executor runs the predictor **once** for
the whole batch (one sign-pack of the ``(B, d)`` inputs, one broadcast
XOR+popcount against the packed gate signs), then:

1. takes the intersection of the per-sequence skip masks -- only rows
   every sequence predicts sparse can skip their weight read;
2. runs gate/up/down as batched GEMMs over the surviving rows, reading
   each surviving row's weights once for the whole batch;
3. re-zeroes, per sequence, the rows that sequence predicted sparse, so
   each sequence's output equals what single-sequence decode produces;
4. (+AS) drops rows whose gated activation came out zero for *every*
   sequence from the up/down reads -- the batch-level version of the
   paper's actual-sparsity tightening.

A batch of one bypasses the GEMM path and executes the exact
single-sequence op sequence (:meth:`SparseInferMLP.run_with_skip`), which
keeps batch=1 serving bit-identical to :func:`repro.core.engine.build_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.predictor import SparseInferPredictor
from ..core.sparse_mlp import SparseInferMLP
from ..model.weights import ModelWeights


@dataclass
class BatchedMLPStats:
    """Weight-read accounting across batched executor calls.

    ``rows_total`` counts gate rows per (layer, step) call -- weight-read
    granularity, not per-sequence granularity -- so
    ``1 - rows_read_gate / rows_total`` is the realised intersection skip
    fraction, directly comparable to the analytical ``skip^B`` curve of
    :func:`repro.gpu.batching.batch_skip_fraction`.
    """

    calls: int = 0
    sequences: int = 0           # sum of batch sizes over calls
    rows_total: int = 0          # k per call
    rows_read_gate: int = 0      # rows outside the batch intersection
    predicted_skip_seq: float = 0.0   # sum of per-sequence skip fractions

    @property
    def intersection_skip_fraction(self) -> float:
        """Fraction of weight rows the whole batch skipped reading."""
        if not self.rows_total:
            return 0.0
        return 1.0 - self.rows_read_gate / self.rows_total

    @property
    def mean_sequence_skip_fraction(self) -> float:
        """Mean single-sequence predicted skip (the batch=1 ceiling)."""
        return self.predicted_skip_seq / self.sequences if self.sequences else 0.0

    def since(self, baseline: "BatchedMLPStats") -> "BatchedMLPStats":
        """The counters accumulated after ``baseline`` was snapshotted."""
        return BatchedMLPStats(
            calls=self.calls - baseline.calls,
            sequences=self.sequences - baseline.sequences,
            rows_total=self.rows_total - baseline.rows_total,
            rows_read_gate=self.rows_read_gate - baseline.rows_read_gate,
            predicted_skip_seq=(
                self.predicted_skip_seq - baseline.predicted_skip_seq
            ),
        )


@dataclass
class BatchedSparseInferMLP:
    """SparseInfer MLP over a batch of sequences' inputs.

    Wraps a :class:`SparseInferMLP` so predictor construction, alpha
    scheduling and the degenerate single-sequence path are shared with the
    batch=1 engine.
    """

    weights: ModelWeights
    predictor: Optional[SparseInferPredictor] = None
    use_actual_sparsity: bool = True
    # Below this intersection-skip fraction, row gathering costs more than
    # the rows it avoids (a numpy fancy-index copies the submatrix), so
    # the executor computes dense and relies on the per-sequence masks
    # alone.  Purely an execution strategy: predicted-skip accounting and
    # outputs are identical either way.
    gather_threshold: float = 0.125
    stats: BatchedMLPStats = field(default_factory=BatchedMLPStats)

    def __post_init__(self):
        self.single = SparseInferMLP(
            weights=self.weights,
            predictor=self.predictor,
            use_actual_sparsity=self.use_actual_sparsity,
        )
        self.predictor = self.single.predictor
        self._act = self.single._act

    def run(self, layer: int, x: np.ndarray) -> np.ndarray:
        """One layer's MLP for one ``(d,)`` input (``MLPExecutor``)."""
        return self.run_batch(layer, x[None, :])[0]

    def run_batch(self, layer: int, xs: np.ndarray) -> np.ndarray:
        """One layer's MLP for ``(B, d)`` inputs; returns ``(B, d)``."""
        xs = np.asarray(xs)
        if xs.ndim != 2:
            raise ValueError(f"expected (B, d) inputs, got shape {xs.shape}")
        batch = xs.shape[0]
        lw = self.weights.layers[layer]
        k = lw.w_gate_rows.shape[0]
        prediction = self.predictor.predict_intersection(layer, xs)

        self.stats.calls += 1
        self.stats.sequences += batch
        self.stats.rows_total += k
        self.stats.predicted_skip_seq += float(
            prediction.per_sequence_sparsity.sum()
        )

        if batch == 1:
            out = self.single.run_with_skip(layer, xs[0], prediction.skip[0])
            self.stats.rows_read_gate += k - int(prediction.skip[0].sum())
            return out[None, :]

        intersection = prediction.intersection_skip
        n_skippable = int(intersection.sum())
        self.stats.rows_read_gate += k - n_skippable
        if n_skippable == k:
            return np.zeros((batch, lw.w_down_rows.shape[1]), dtype=np.float32)

        if n_skippable < self.gather_threshold * k:
            # Thin intersection: compute every row once for the batch and
            # re-zero per sequence.  ``rows_read_gate`` keeps counting the
            # intersection's complement, so the measured-vs-``skip^B``
            # comparison is execution-independent.
            keep = ~prediction.skip                          # (B, k)
            h1 = self._act(xs @ lw.w_gate_rows.T)            # (B, k)
            h1 = np.where(keep, h1, np.float32(0.0))
            h3 = h1 * (xs @ lw.w_up_rows.T)
            out = h3 @ lw.w_down_rows                        # (B, d)
            return out.astype(np.float32)

        rows = np.flatnonzero(~intersection)
        # Per-sequence keep masks restricted to the computed rows.
        keep = ~prediction.skip[:, rows]                     # (B, m)

        # Gate GEMM over the intersection's complement, one weight read
        # for the whole batch; rows a sequence predicted sparse are
        # re-zeroed so its values match single-sequence execution.
        h1 = self._act(xs @ lw.w_gate_rows[rows].T)          # (B, m)
        h1 = np.where(keep, h1, np.float32(0.0))

        if self.use_actual_sparsity:
            # Batch-level +AS: a row only stays in the up/down reads if
            # some sequence still has it live after ReLU + prediction.
            live = np.flatnonzero((h1 != 0.0).any(axis=0))
            rows = rows[live]
            h1 = h1[:, live]
        if rows.size == 0:
            return np.zeros((batch, lw.w_down_rows.shape[1]), dtype=np.float32)

        h3 = h1 * (xs @ lw.w_up_rows[rows].T)                # (B, m')
        out = h3 @ lw.w_down_rows[rows]                      # (B, d)
        return out.astype(np.float32)

    def reset_stats(self) -> None:
        self.stats = BatchedMLPStats()
        self.single.reset_stats()
