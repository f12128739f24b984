"""End-to-end token-generation latency (paper Fig. 4).

Pipeline:

1. For every alpha in the sweep, *measure* per-layer predicted-skip and
   union-skip (predicted + actual) fractions on the full-dimension
   synthetic activation model -- so precision/recall effects of alpha
   propagate into exploited sparsity exactly as in the real system.
2. Feed those :class:`SparsityProfile` objects into the GPU roofline
   pipeline for each engine variant: llama.cpp (dense), PowerInfer, and
   the four SparseInfer variants (base, +KF, +AS, +KF+AS).

PowerInfer's exploited skip fraction is a calibration constant
(:data:`POWERINFER_REALIZED_SKIP`): its DejaVu predictors are trained
precision-biased, and its neuron-cluster format exploits less of the
nominal sparsity than row-skipping does (see DESIGN.md section 5.5).

This module models latency; it does not measure serving.  A measured
serving run is a :class:`repro.serving.ContinuousBatchingScheduler`
drain, whose :class:`~repro.serving.scheduler.ServeReport` carries every
number, and the canonical seeded measurement is ``benchmarks/e2e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.alpha import AlphaSchedule
from ..core.predictor import SparseInferPredictor
from ..gpu.device import DeviceSpec, jetson_orin_agx_64gb
from ..gpu.pipeline import (
    EngineSpec,
    LatencyReport,
    SparsityProfile,
    decode_latency,
    dense_engine,
    powerinfer_engine,
)
from ..model.config import ModelConfig
from ..model.synthetic import SyntheticActivationModel

POWERINFER_REALIZED_SKIP = 0.84
PAPER_ALPHA_GRID = (1.00, 1.01, 1.02, 1.03)
PAPER_N_EARLY_LAYERS = 20


@dataclass(frozen=True)
class MeasuredSparsity:
    """Per-layer skip fractions measured at one alpha."""

    alpha: float
    predicted_skip: np.ndarray  # (n_layers,)
    union_skip: np.ndarray      # (n_layers,)

    def profile(self) -> SparsityProfile:
        return SparsityProfile.from_arrays(
            self.predicted_skip, self.union_skip
        )


def measure_sparsity(
    model: SyntheticActivationModel,
    alpha: float,
    n_early: int = PAPER_N_EARLY_LAYERS,
    n_tokens: int = 6,
    n_rows: int = 512,
) -> MeasuredSparsity:
    """Skip fractions under the paper's alpha schedule (early layers only).

    ``union_skip`` is the fraction of rows either predicted sparse or
    actually zero after ReLU -- what +AS exploits in steps 2-4.
    """
    n_layers = model.config.n_layers
    schedule = AlphaSchedule.early_layers(
        n_layers, alpha_early=alpha, n_early=n_early, alpha_rest=1.0
    )
    predicted = np.empty(n_layers)
    union = np.empty(n_layers)
    for layer in range(n_layers):
        sample = model.sample_layer(layer, n_tokens=n_tokens, n_rows=n_rows)
        predictor = SparseInferPredictor.from_gate_weights([sample.w_gate])
        masks = predictor.predict_batch(0, sample.x, alpha=schedule[layer])
        predicted[layer] = masks.mean()
        union[layer] = (masks | sample.true_sparse).mean()
    return MeasuredSparsity(
        alpha=alpha, predicted_skip=predicted, union_skip=union
    )


@dataclass
class Figure4Result:
    """All the bars of one Fig. 4 panel (one model)."""

    model_name: str
    llamacpp: LatencyReport
    powerinfer: LatencyReport
    # {alpha: {variant_label: LatencyReport}}
    sparseinfer: dict = field(default_factory=dict)

    def speedup_over_llamacpp(self, alpha: float, variant: str) -> float:
        return self.sparseinfer[alpha][variant].speedup_over(self.llamacpp)

    def speedup_over_powerinfer(self, alpha: float, variant: str) -> float:
        return self.sparseinfer[alpha][variant].speedup_over(self.powerinfer)


SPARSEINFER_VARIANTS = {
    "base": dict(kernel_fusion=False, actual_sparsity=False),
    "+KF": dict(kernel_fusion=True, actual_sparsity=False),
    "+AS": dict(kernel_fusion=False, actual_sparsity=True),
    "+KF+AS": dict(kernel_fusion=True, actual_sparsity=True),
}


def figure4(
    config: ModelConfig,
    device: Optional[DeviceSpec] = None,
    alphas: Sequence[float] = PAPER_ALPHA_GRID,
    seed: int = 0,
    seq_len: int = 700,
    n_tokens: int = 6,
    n_rows: int = 512,
) -> Figure4Result:
    """Reproduce one panel of Fig. 4 for ``config``."""
    device = device or jetson_orin_agx_64gb()
    model = SyntheticActivationModel(config, seed=seed)
    base = decode_latency(config, dense_engine(), device, seq_len=seq_len)
    pi_profile = SparsityProfile.uniform(
        config.n_layers, POWERINFER_REALIZED_SKIP
    )
    powerinfer = decode_latency(
        config, powerinfer_engine(), device, pi_profile, seq_len=seq_len
    )
    result = Figure4Result(
        model_name=config.name, llamacpp=base, powerinfer=powerinfer
    )
    for alpha in alphas:
        measured = measure_sparsity(
            model, alpha, n_tokens=n_tokens, n_rows=n_rows
        )
        profile = measured.profile()
        variants = {}
        for label, flags in SPARSEINFER_VARIANTS.items():
            spec = EngineSpec(kind="sparseinfer", **flags)
            variants[label] = decode_latency(
                config, spec, device, profile, seq_len=seq_len
            )
        result.sparseinfer[float(alpha)] = variants
    return result


def format_figure4(result: Figure4Result) -> str:
    """Text rendering of one Fig. 4 panel (ms per token)."""
    lines = [
        f"== {result.model_name} ==",
        f"{'llama.cpp':<22}{result.llamacpp.seconds_per_token * 1e3:8.1f} ms",
        f"{'PowerInfer':<22}{result.powerinfer.seconds_per_token * 1e3:8.1f} ms",
    ]
    for alpha, variants in sorted(result.sparseinfer.items()):
        for label, report in variants.items():
            name = f"SI {label} a={alpha:.2f}"
            lines.append(
                f"{name:<22}{report.seconds_per_token * 1e3:8.1f} ms"
                f"  ({report.speedup_over(result.llamacpp):.2f}x vs llama.cpp)"
            )
    return "\n".join(lines)
