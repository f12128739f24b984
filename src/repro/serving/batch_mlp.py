"""Batch-aware SparseInfer MLP executor.

Per decode step and layer this executor runs the predictor **once** for
the whole batch (one sign-pack of the ``(B, d)`` inputs, one XOR+popcount
pass against the word-major packed gate signs), then:

1. runs gate/up/down as three dense batched GEMMs in the
   ``W @ xs.T`` orientation, reading every weight row once for the whole
   batch -- on the numpy host a row gather (fancy-index copy of the
   sub-matrix) loses to dense at every batch size >= 2, so no host path
   gathers rows;
2. re-zeroes, per sequence, the rows that sequence predicted sparse, so
   each sequence's output equals what single-sequence decode produces;
3. accounts the intersection of the per-sequence skip masks -- the only
   rows whose weight read a row-skipping batched kernel could avoid
   (:func:`repro.gpu.batching.batched_decode_latency` prices it).

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
from ..model.gemm import as_columns
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
        """One layer's MLP for ``(B, d)`` inputs; returns ``(B, d)``.

        At batch > 1 the three GEMMs run over the batch columns
        zero-padded to the BLAS kernel width (:mod:`repro.model.gemm`,
        bit-identical); batch 1 runs the single-sequence GEMVs.
        """
        xs = np.asarray(xs, dtype=np.float32)
        if xs.ndim != 2:
            raise ValueError(f"expected (B, d) inputs, got shape {xs.shape}")
        batch = xs.shape[0]
        lw = self.weights.layers[layer]
        k = lw.w_gate_rows.shape[0]
        prediction = self.predictor.predict_intersection(layer, xs)

        self.stats.calls += 1
        self.stats.sequences += batch
        self.stats.rows_total += k
        if batch == 1:
            skip = prediction.skip[0]
            n_skip = np.count_nonzero(skip)
            self.stats.predicted_skip_seq += n_skip / k
            self.stats.rows_read_gate += k - n_skip
            return self.single.run_with_skip(layer, xs[0], skip)[None, :]

        self.stats.predicted_skip_seq += float(
            prediction.per_sequence_sparsity.sum()
        )
        # Rows outside the batch intersection: what a row-skipping kernel
        # would still have to read, however the host executes the GEMMs.
        self.stats.rows_read_gate += k - int(
            prediction.intersection_skip.sum()
        )

        xs_t = as_columns(xs, lw.w_gate_rows)                # (d, B')
        h = self._act(lw.w_gate_rows @ xs_t)                 # (k, B')
        # Re-zero each sequence's own predicted-sparse rows: AND with
        # all-ones / all-zero words laid out like ``h`` (a strided operand
        # is 4x slower) leaves +0.0 whatever the row held, where a
        # multiply turns inf into NaN; ``np.copyto(where=)`` is 3x slower.
        keep = as_columns(~prediction.skip, lw.w_gate_rows)
        bits = h.view(np.int32)
        bits &= np.negative(keep, dtype=np.int32)
        h *= lw.w_up_rows @ xs_t
        return (lw.w_down_rows.T @ h)[:, :batch].T           # (B, d)

    def reset_stats(self) -> None:
        self.stats = BatchedMLPStats()
        self.single.reset_stats()
