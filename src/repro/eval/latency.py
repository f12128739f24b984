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

The *measured* serving helpers live here too:
:func:`measure_batched_serving` drains requests through a scheduler the
caller built, :func:`measure_sequential_serving` through the classic
one-request engine; both return a :class:`ServingMeasurement` -- a label
plus the run's :class:`~repro.serving.scheduler.ServeReport`.
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
from ..serving.request import Completion
from ..serving.scheduler import DEFAULT_STEP_BUDGET, ServeReport

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


@dataclass(frozen=True)
class ServingMeasurement:
    """One serving configuration's label and the report of draining it.

    Every number lives on :attr:`report` -- the scheduler's own
    :class:`repro.serving.scheduler.ServeReport` (glossary:
    ``docs/serving.md``) -- so the ``format_*`` helpers in
    :mod:`repro.eval.reporting` read ``point.report.<field>``.
    """

    label: str
    report: ServeReport

    def speedup_over(self, other: "ServingMeasurement") -> float:
        return (self.report.tokens_per_second
                / other.report.tokens_per_second)


def measure_batched_serving(scheduler, requests) -> ServingMeasurement:
    """Drain ``requests`` through ``scheduler`` and label the run.

    The caller builds the engine and the
    :class:`repro.serving.ContinuousBatchingScheduler` (use a fresh pair
    per call for independent measurements), so every knob is declared
    once, on those two constructors.  The label names the knobs that
    differ from their defaults, read back from the scheduler and its
    engine.
    """
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    engine = scheduler.engine
    label = f"batched(B<={engine.max_batch_size})"
    if engine.cache_pages:
        label += f"+cache{engine.cache_pages}"
    if scheduler.step_budget != DEFAULT_STEP_BUDGET:
        label += f"+budget{scheduler.step_budget}"
    if scheduler.preemption:
        label += "+preempt"
    if engine.sampling.temperature > 0:
        label += f"+sampled(T={engine.sampling.temperature:g})"
    speculation = scheduler.speculation
    if speculation is not None:
        label += f"+spec(a={speculation.draft_alpha:g},k={speculation.k})"
    if scheduler.admission != "fifo":
        policy = "edf" if scheduler.admission == "deadline" else "prefix"
        label += f"+{policy}{scheduler.admission_window}"
    return ServingMeasurement(label=label, report=report)


def measure_sequential_serving(
    weights,
    requests,
    settings=None,
    predictor=None,
) -> ServingMeasurement:
    """The one-request-at-a-time baseline over the classic engine.

    Greedy decoding with the same token semantics as
    :meth:`~repro.model.inference.InferenceModel.generate`, but with
    prefill and decode timed separately (mirroring the batched
    scheduler's accounting) and without ``generate``'s trailing unused
    forward, so per-phase numbers compare apples-to-apples.  The
    report's ``mean_sequence_skip`` is the batch=1 ceiling a batched
    run's ``intersection_skip`` decays from.
    """
    import time

    from ..core.engine import build_engine

    engine = build_engine(weights, settings=settings, predictor=predictor)
    report = ServeReport(peak_occupancy=1)
    for request in requests:
        engine.reset()
        t0 = time.perf_counter()
        logits = engine.prefill(list(request.prompt_ids))
        report.prefill_seconds += time.perf_counter() - t0
        report.prefill_tokens += request.prompt_len
        generated = []
        request_steps = 0
        while len(generated) < request.max_new_tokens:
            next_id = int(np.argmax(logits))
            if request.stop_ids and next_id in request.stop_ids:
                break
            generated.append(next_id)
            if len(generated) < request.max_new_tokens:
                # Clock only the model forward, mirroring the scheduler,
                # which samples outside its decode timer too.
                t0 = time.perf_counter()
                logits = engine.forward_token(next_id, engine.cache.length)
                report.decode_seconds += time.perf_counter() - t0
                request_steps += 1
        report.tokens_generated += len(generated)
        report.greedy_tokens += len(generated)
        report.decode_steps += request_steps
        report.completions.append(Completion(
            request=request, generated_ids=generated,
            decode_steps=request_steps,
        ))
    report.occupancy_sum = report.decode_steps     # batch of one throughout
    skip = engine.mlp.stats.gate_skip_fraction
    report.intersection_skip = report.mean_sequence_skip = skip
    return ServingMeasurement(label="sequential", report=report)


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
