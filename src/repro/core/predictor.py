"""The SparseInfer training-free activation-sparsity predictor.

Implements the decision rule of paper Eq. (2): a gate row ``i`` is
predicted *sparse* (``ReLU(X . Wgate[i]) == 0``, so the row can be skipped)
iff

    alpha * Npos < Nneg

where ``Nneg`` is the XOR+popcount estimate of how many of the ``d``
element-wise products are negative and ``Npos = total_bits - Nneg``.

Fixed-point form (matching the CUDA kernel's integer arithmetic with
``alpha`` scaled by 100):

    100 * Nneg > alpha_pct * Npos

Note on the paper's Listing 1: line 12 of the listing sets ``skip[row]=0``
when ``count*100 - (ncols*32 - count)*alpha > 0``, i.e. it *keeps* the row
exactly when the negative count dominates -- the opposite of Eq. (2) and of
the prose.  We treat the listing's flag polarity as a typo and implement
Eq. (2); see DESIGN.md section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .alpha import ALPHA_SCALE, AlphaSchedule, alpha_to_fixed_point
from .signpack import PackedSigns, pack_signs


def predict_skip_from_counts(
    n_neg: np.ndarray,
    total_bits: int,
    alpha: float = 1.0,
) -> np.ndarray:
    """Vectorised Eq. (2) decision from per-row negative counts.

    Parameters
    ----------
    n_neg:
        ``Nneg`` per row (int array, shape ``(k,)``).
    total_bits:
        Number of bit positions compared per row.  The CUDA kernel uses the
        padded ``ncols * 32``; real LLM dims are multiples of 32 so the two
        coincide.  Padding bits are packed as positive, inflating ``Npos``
        and therefore erring on the conservative (keep) side.
    alpha:
        Conservativeness knob; quantised to the kernel's x100 fixed point.

    Returns
    -------
    Boolean array, ``True`` where the row is predicted sparse (skippable).
    """
    n_neg = np.asarray(n_neg, dtype=np.int64)
    if total_bits <= 0:
        raise ValueError(f"total_bits must be positive, got {total_bits}")
    alpha_pct = alpha_to_fixed_point(alpha)
    n_pos = total_bits - n_neg
    return ALPHA_SCALE * n_neg > alpha_pct * n_pos


@dataclass(frozen=True)
class LayerPrediction:
    """Result of one layer's sparsity prediction."""

    skip: np.ndarray          # bool (k,) - True = predicted sparse
    n_neg: np.ndarray         # uint (k,) - XOR+popcount negative estimates
    alpha: float

    @property
    def predicted_sparsity(self) -> float:
        """Fraction of rows predicted skippable."""
        return float(self.skip.mean()) if self.skip.size else 0.0


@dataclass(frozen=True)
class BatchPrediction:
    """One layer's sparsity prediction for a batch of sequences.

    In batched decode a gate row's weights can only go unread when *every*
    co-scheduled sequence predicts it sparse, so the exploitable skip set
    is the AND across the batch (see :mod:`repro.gpu.batching` for the
    analytical ``skip^B`` decay this implies).  Per-sequence masks are kept
    alongside the intersection: rows outside the intersection are computed
    for everyone, then re-zeroed for the sequences that predicted them
    sparse so batched outputs match single-sequence decoding exactly.
    """

    skip: np.ndarray          # bool (B, k) - per-sequence predictions
    n_neg: np.ndarray         # uint (B, k)
    alpha: float

    @property
    def batch_size(self) -> int:
        return self.skip.shape[0]

    @property
    def intersection_skip(self) -> np.ndarray:
        """Rows every sequence predicts sparse -- the exploitable set (k,)."""
        return self.skip.all(axis=0)

    @property
    def intersection_sparsity(self) -> float:
        """Fraction of gate rows whose weights the whole batch can skip."""
        inter = self.intersection_skip
        return float(inter.mean()) if inter.size else 0.0

    @property
    def per_sequence_sparsity(self) -> np.ndarray:
        """Predicted skip fraction of each sequence, shape (B,)."""
        return self.skip.mean(axis=1)


class SparseInferPredictor:
    """Training-free sparsity predictor over the gate matrices of a model.

    Holds the packed sign bits of every layer's ``Wgate`` (built once, the
    paper's offline step 1) and an :class:`AlphaSchedule`.  At decode time,
    :meth:`predict` packs the sign bits of the incoming activation vector
    and applies the XOR+popcount majority test.

    Parameters
    ----------
    packed_gates:
        One :class:`PackedSigns` per decoder layer.
    schedule:
        Per-layer alpha values; defaults to uniform 1.0.
    """

    def __init__(
        self,
        packed_gates: Sequence[PackedSigns],
        schedule: Optional[AlphaSchedule] = None,
    ):
        self._packed = list(packed_gates)
        if not self._packed:
            raise ValueError("need at least one layer")
        widths = {p.n_elements for p in self._packed}
        if len(widths) != 1:
            raise ValueError(f"all layers must share the model width, got {widths}")
        if schedule is None:
            schedule = AlphaSchedule.uniform(1.0, len(self._packed))
        if schedule.n_layers != len(self._packed):
            raise ValueError(
                f"schedule has {schedule.n_layers} layers, model has {len(self._packed)}"
            )
        self.schedule = schedule

    @classmethod
    def from_gate_weights(
        cls,
        gate_weights: Sequence[np.ndarray],
        schedule: Optional[AlphaSchedule] = None,
    ) -> "SparseInferPredictor":
        """Build from per-layer ``(k, d)`` gate matrices (offline packing)."""
        return cls([PackedSigns.from_matrix(w) for w in gate_weights], schedule)

    @property
    def n_layers(self) -> int:
        return len(self._packed)

    @property
    def d_model(self) -> int:
        return self._packed[0].n_elements

    def packed_gate(self, layer: int) -> PackedSigns:
        return self._packed[layer]

    @property
    def nbytes(self) -> int:
        """Total predictor memory footprint (Section V-A.2)."""
        return sum(p.nbytes for p in self._packed)

    def with_schedule(self, schedule: AlphaSchedule) -> "SparseInferPredictor":
        """Same packed weights under a different alpha schedule (cheap)."""
        return SparseInferPredictor(self._packed, schedule)

    def _count_and_threshold(self, layer: int, x: np.ndarray, alpha):
        """``(skip, n_neg, alpha)`` for ``(d,)`` or ``(B, d)`` inputs.

        Eq. (2) as one integer compare: for integer ``n_neg``,
        ``100 * n_neg > alpha_pct * (T - n_neg)`` holds exactly when
        ``n_neg > (alpha_pct * T) // (100 + alpha_pct)``
        (:func:`predict_skip_from_counts` is the reference form).
        """
        packed = self._packed[layer]
        if alpha is None:
            alpha = self.schedule[layer]
        pct = alpha_to_fixed_point(alpha)
        n_neg = packed.negative_counts_packed(pack_signs(x))
        threshold = (pct * packed.padded_bits) // (ALPHA_SCALE + pct)
        return n_neg > threshold, n_neg, float(alpha)

    def predict(
        self,
        layer: int,
        x: np.ndarray,
        alpha: Optional[float] = None,
    ) -> LayerPrediction:
        """Predict the skip mask for layer ``layer`` given input ``x``.

        ``x`` is the unpacked ``(d,)`` activation vector entering the MLP
        block; its sign bits are packed on the fly (the online half of the
        paper's Section IV-B.1).  ``alpha`` overrides the schedule when
        given (used by DSE sweeps).
        """
        x = np.asarray(x)
        if x.shape != (self.d_model,):
            raise ValueError(
                f"expected x of shape ({self.d_model},), got {x.shape}"
            )
        return LayerPrediction(*self._count_and_threshold(layer, x, alpha))

    def predict_batch(
        self,
        layer: int,
        xs: np.ndarray,
        alpha: Optional[float] = None,
    ) -> np.ndarray:
        """Skip masks for a batch of inputs, shape ``(n, d)`` -> ``(n, k)``.

        Sign-packing and XOR+popcount run once for the whole batch (a
        single broadcast over the packed words), not once per sequence;
        this is the predictor step the batched serving engine calls every
        decode step.
        """
        return self.predict_intersection(layer, xs, alpha).skip

    def predict_intersection(
        self,
        layer: int,
        xs: np.ndarray,
        alpha: Optional[float] = None,
    ) -> BatchPrediction:
        """Batched prediction with the cross-sequence intersection.

        ``xs`` holds the ``(B, d)`` MLP inputs of the active sequences.
        Returns per-sequence skip masks plus (via the result object) the
        AND across the batch -- the only rows whose weight reads a batched
        GEMV can actually avoid.
        """
        xs = np.atleast_2d(np.asarray(xs))
        if xs.shape[-1] != self.d_model:
            raise ValueError(
                f"expected inputs of width {self.d_model}, got {xs.shape}"
            )
        return BatchPrediction(*self._count_and_threshold(layer, xs, alpha))


def true_skip_mask(gate_preact: np.ndarray) -> np.ndarray:
    """Ground-truth sparsity: rows whose ReLU input is non-positive.

    ``ReLU(z) == 0`` iff ``z <= 0``; FATReLU variants use a positive
    threshold instead (see :mod:`repro.train.prosparse`).
    """
    return np.asarray(gate_preact) <= 0.0
