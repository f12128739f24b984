"""PowerInfer-role engine: DejaVu predictor + sparse GEMVs.

PowerInfer executes the MLP with the rows its trained predictor marks
live; unlike SparseInfer it has no actual-sparsity recovery pass (the
prediction is made once, before the gate GEMV, and reused for up/down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..model.inference import InferenceModel
from ..model.mlp import DenseMLP, MLPStats, activation_fn
from ..model.weights import ModelWeights
from .dejavu import DejaVuPredictor


@dataclass
class PowerInferMLP:
    """MLP executor gated by the trained DejaVu predictor."""

    weights: ModelWeights
    predictor: DejaVuPredictor
    stats: MLPStats = field(default_factory=MLPStats)

    def __post_init__(self):
        cfg = self.weights.config
        if self.predictor.n_layers != cfg.n_layers:
            raise ValueError(
                f"predictor covers {self.predictor.n_layers} layers, "
                f"model has {cfg.n_layers}"
            )
        self._act = activation_fn(cfg.activation, cfg.fatrelu_threshold)

    def run(self, layer: int, x: np.ndarray) -> np.ndarray:
        lw = self.weights.layers[layer]
        k = lw.w_gate_rows.shape[0]
        skip = self.predictor.predict(layer, x)
        live = np.flatnonzero(~skip)
        h1 = self._act(lw.w_gate_rows[live] @ x)
        h3 = h1 * (lw.w_up_rows[live] @ x)
        out = h3 @ lw.w_down_rows[live]
        self.stats.calls += 1
        self.stats.rows_total += k
        skipped = k - len(live)
        self.stats.rows_skipped_gate += skipped
        self.stats.rows_skipped_up += skipped
        self.stats.rows_skipped_down += skipped
        return out.astype(np.float32)

    def reset_stats(self) -> None:
        self.stats = MLPStats()


def build_powerinfer_engine(
    weights: ModelWeights,
    predictor: DejaVuPredictor,
    trace_mlp_inputs: bool = False,
) -> InferenceModel:
    """A PowerInfer-role engine (dense prefill, sparse decode)."""
    return InferenceModel(
        weights, mlp=PowerInferMLP(weights=weights, predictor=predictor),
        prefill_mlp=DenseMLP(weights),
        trace_mlp_inputs=trace_mlp_inputs,
    )
