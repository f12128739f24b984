"""SparseInfer inference engine: model + predictor + sparse execution.

``build_engine`` wires the pieces the way the paper's system does: dense
prefill (sparsity is exploited only while decoding, Section V-C), sparse
decode through :class:`SparseInferMLP`, and an alpha schedule applied to
the early layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..model.inference import InferenceModel
from ..model.mlp import DenseMLP
from ..model.weights import ModelWeights
from .alpha import AlphaSchedule, check_alpha
from .predictor import SparseInferPredictor
from .sparse_mlp import SparseInferMLP


@dataclass(frozen=True)
class SparseInferSettings:
    """User-facing knobs of the engine."""

    alpha: float = 1.0
    alpha_early: Optional[float] = None   # alpha for the first n_early layers
    n_early_layers: int = 20              # the paper's choice for 7B and 13B
    use_actual_sparsity: bool = True

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.alpha_early is not None:
            check_alpha(self.alpha_early, "alpha_early")

    def schedule(self, n_layers: int) -> AlphaSchedule:
        if self.alpha_early is None:
            return AlphaSchedule.uniform(self.alpha, n_layers)
        return AlphaSchedule.early_layers(
            n_layers,
            alpha_early=self.alpha_early,
            n_early=self.n_early_layers,
            alpha_rest=self.alpha,
        )


def build_predictor(
    weights: ModelWeights, settings: SparseInferSettings
) -> SparseInferPredictor:
    """Offline step: pack sign bits and fix the alpha schedule."""
    return SparseInferPredictor.from_gate_weights(
        weights.gate_matrices(),
        settings.schedule(weights.config.n_layers),
    )


def build_engine(
    weights: ModelWeights,
    settings: Optional[SparseInferSettings] = None,
    predictor: Optional[SparseInferPredictor] = None,
    trace_mlp_inputs: bool = False,
) -> InferenceModel:
    """A ready-to-decode SparseInfer engine.

    Reuses a prebuilt ``predictor`` when given (packing is the only
    expensive offline step); otherwise packs from ``weights``.
    """
    settings = settings or SparseInferSettings()
    if predictor is None:
        predictor = build_predictor(weights, settings)
    else:
        predictor = predictor.with_schedule(
            settings.schedule(weights.config.n_layers)
        )
    sparse = SparseInferMLP(
        weights=weights,
        predictor=predictor,
        use_actual_sparsity=settings.use_actual_sparsity,
    )
    return InferenceModel(
        weights,
        mlp=sparse,
        prefill_mlp=DenseMLP(weights),
        trace_mlp_inputs=trace_mlp_inputs,
    )


def dense_engine(weights: ModelWeights,
                 trace_mlp_inputs: bool = False) -> InferenceModel:
    """The llama.cpp-role dense reference engine."""
    return InferenceModel(weights, mlp=DenseMLP(weights),
                          trace_mlp_inputs=trace_mlp_inputs)


def build_batched_engine(
    weights: ModelWeights,
    settings: Optional[SparseInferSettings] = None,
    predictor: Optional[SparseInferPredictor] = None,
    **engine_knobs,
):
    """A serving-grade batched SparseInfer engine.

    Returns a :class:`repro.serving.engine.BatchedEngine` (imported
    lazily -- :mod:`repro.serving` builds on this module): paged
    per-sequence KV slots, chunked dense prefill, batched sparse decode
    exploiting the cross-sequence intersection of predicted skip sets.
    ``engine_knobs`` are passed through to its constructor, which
    documents them (and raises ``TypeError`` for an unknown one); the
    knob table is in ``docs/serving.md``.
    """
    from ..serving.engine import BatchedEngine

    return BatchedEngine(
        weights, settings=settings, predictor=predictor, **engine_knobs
    )
