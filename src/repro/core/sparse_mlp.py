"""SparseInfer's sparse MLP executor (paper Section IV).

Functionally reproduces what the CUDA kernels do, on numpy:

1. predict the gate-row skip mask from packed sign bits (step 2 of
   Fig. 1) and turn it into one index vector of the kept rows,
2. run the gate GEMV only over the kept rows and apply ReLU,
3. **actual sparsity (+AS)**: kept rows that ReLU zeroed are dropped
   from the index vector used by the up-projection and down-projection
   (the union of predicted and actual sparsity, Section IV),
4. run the up GEMV over the union's survivors, gate element-wise,
5. run the down GEMV (transposed layout) over the same survivors.

Kernel fusion changes memory traffic, not values, so the executor models
it only in the work statistics; the GPU cost model (:mod:`repro.gpu`)
prices it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..model.mlp import MLPStats, activation_fn
from ..model.weights import ModelWeights
from .alpha import AlphaSchedule
from .predictor import SparseInferPredictor


@dataclass
class SparseInferMLP:
    """MLP executor driven by the training-free sign-bit predictor.

    Parameters
    ----------
    weights:
        Model weights in inference layout.
    predictor:
        A :class:`SparseInferPredictor` built over this model's gate
        matrices.  Built automatically when omitted.
    schedule:
        Per-layer alpha; overrides the predictor's schedule when given.
    use_actual_sparsity:
        The paper's +AS measure (on by default, as in the best Fig. 4
        configuration).  Measured per layer-token on one CPU thread at a
        0.48 skip it is neutral at d 256 / d_ff 1024 (138 vs 136 us
        without) and 19 % faster at d 1024 / d_ff 4096 (2.98 vs 3.69 ms).
    """

    weights: ModelWeights
    predictor: Optional[SparseInferPredictor] = None
    schedule: Optional[AlphaSchedule] = None
    use_actual_sparsity: bool = True
    stats: MLPStats = field(default_factory=MLPStats)

    def __post_init__(self):
        cfg = self.weights.config
        if self.predictor is None:
            self.predictor = SparseInferPredictor.from_gate_weights(
                self.weights.gate_matrices(),
                self.schedule,
            )
        elif self.schedule is not None:
            self.predictor = self.predictor.with_schedule(self.schedule)
        if self.predictor.n_layers != cfg.n_layers:
            raise ValueError(
                f"predictor covers {self.predictor.n_layers} layers, "
                f"model has {cfg.n_layers}"
            )
        self._act = activation_fn(cfg.activation, cfg.fatrelu_threshold)

    def run(self, layer: int, x: np.ndarray) -> np.ndarray:
        return self.run_with_skip(layer, x, self.predictor.predict(layer, x).skip)

    def run_with_skip(
        self, layer: int, x: np.ndarray, skip: np.ndarray
    ) -> np.ndarray:
        """The sparse MLP given an already-computed skip mask.

        Split out from :meth:`run` so the batched serving engine, which
        predicts all sequences in one packed popcount pass, can execute a
        degenerate batch through the exact single-sequence op sequence.
        """
        lw = self.weights.layers[layer]
        k = lw.w_gate_rows.shape[0]
        # One index vector drives all three row gathers (no mask rescans).
        kept = np.flatnonzero(~skip)
        h1 = self._act(lw.w_gate_rows.take(kept, axis=0) @ x)
        if self.use_actual_sparsity:
            nonzero = h1 != 0.0
            live, h1 = kept[nonzero], h1[nonzero]
        else:
            live = kept
        h3 = h1 * (lw.w_up_rows.take(live, axis=0) @ x)
        out = h3 @ lw.w_down_rows.take(live, axis=0)

        self.stats.calls += 1
        self.stats.rows_total += k
        self.stats.rows_skipped_gate += k - len(kept)
        self.stats.rows_skipped_up += k - len(live)
        self.stats.rows_skipped_down += k - len(live)
        return out.astype(np.float32, copy=False)

    def reset_stats(self) -> None:
        self.stats = MLPStats()
