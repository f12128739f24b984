"""Gated MLP execution: activations and the dense reference executor.

The MLP block follows paper Section III (gate-based MLP of Llama):

    h1 = act(x @ Wgate)        step 1, gate computation
    h2 = x @ Wup               step 2, input processing
    h3 = h1 * h2               step 3, gate application
    out = h3 @ Wdown^T         step 4, output generation

Executors implement :class:`MLPExecutor`; the inference model calls
``run(layer, x)`` with the RMS-normed activation vector.  Sparse executors
(SparseInfer, DejaVu, random, threshold) live in :mod:`repro.core` and
:mod:`repro.baselines` and share this interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .gemm import as_columns
from .weights import ModelWeights


def activation_fn(kind: str, threshold: float = 0.0):
    """The gate nonlinearity: relu (ReLU-fied), silu (original), fatrelu."""
    if kind == "relu":
        return lambda z: np.maximum(z, 0.0)
    if kind == "silu":
        return lambda z: z / (1.0 + np.exp(-z))
    if kind == "fatrelu":
        return lambda z: np.where(z >= threshold, z, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


class MLPExecutor(Protocol):
    """Anything that can run one layer's MLP block on a single vector."""

    def run(self, layer: int, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


@dataclass
class MLPStats:
    """Work accounting accumulated across executor calls.

    ``rows_total`` counts gate rows across all (layer, token) invocations;
    ``rows_skipped_*`` count the rows each GEMV avoided.  These feed the
    measured-sparsity side of the latency experiments.
    """

    calls: int = 0
    rows_total: int = 0
    rows_skipped_gate: int = 0
    rows_skipped_up: int = 0
    rows_skipped_down: int = 0

    @property
    def gate_skip_fraction(self) -> float:
        return self.rows_skipped_gate / self.rows_total if self.rows_total else 0.0

    @property
    def up_skip_fraction(self) -> float:
        return self.rows_skipped_up / self.rows_total if self.rows_total else 0.0

    @property
    def down_skip_fraction(self) -> float:
        return self.rows_skipped_down / self.rows_total if self.rows_total else 0.0


@dataclass
class DenseMLP:
    """The llama.cpp-role executor: every row computed, every token."""

    weights: ModelWeights
    stats: MLPStats = field(default_factory=MLPStats)

    def __post_init__(self):
        cfg = self.weights.config
        self._act = activation_fn(cfg.activation, cfg.fatrelu_threshold)

    def run(self, layer: int, x: np.ndarray) -> np.ndarray:
        lw = self.weights.layers[layer]
        h1 = self._act(lw.w_gate_rows @ x)
        h2 = lw.w_up_rows @ x
        h3 = h1 * h2
        self.stats.calls += 1
        self.stats.rows_total += lw.w_gate_rows.shape[0]
        return h3 @ lw.w_down_rows

    def run_tokens(self, layer: int, xs: np.ndarray) -> np.ndarray:
        """One layer's MLP for ``(T, d)`` token inputs as three GEMMs.

        The chunked-prefill path: same math as ``run`` row by row, one
        weight read for the whole chunk, in ``run_batch``'s faster
        ``W @ xs.T`` orientation, the token columns zero-padded to the
        BLAS kernel width (:mod:`repro.model.gemm`; bit-identical).
        Stats account per token, so chunked and token-by-token prefill
        report identical work.
        """
        lw = self.weights.layers[layer]
        n = xs.shape[0]
        xs_t = as_columns(xs, lw.w_gate_rows)                # (d, T')
        h = self._act(lw.w_gate_rows @ xs_t)                 # (k, T')
        h *= lw.w_up_rows @ xs_t
        self.stats.calls += n
        self.stats.rows_total += n * lw.w_gate_rows.shape[0]
        return (lw.w_down_rows.T @ h)[:, :n].T               # (T, d)
