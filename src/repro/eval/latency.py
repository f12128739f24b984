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
from ..serving.engine import DEFAULT_PREFILL_CHUNK

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
    """Measured throughput/latency of one serving configuration.

    ``intersection_skip`` is the realised cross-sequence skip fraction
    (weight-read granularity) and ``sequence_skip`` the mean per-sequence
    prediction -- the batch=1 ceiling the intersection decays from, to be
    compared against :func:`repro.gpu.batching.batch_skip_fraction`.

    ``mean_decode_steps_per_request`` counts the model forwards a request
    took part in after its prefill (its first token comes from the
    prefill logits in both engines), so the same request costs the same
    value at any batch size -- queueing delay is deliberately excluded;
    use :class:`repro.serving.Completion` tick telemetry for that.

    ``expected_uncorrelated_skip`` is the analytical ``skip^B`` the
    intersection would decay to for independent sequences at the
    realised mean occupancy; ``forked_admissions`` /
    ``prefill_tokens_saved`` are non-zero only when the engine ran with
    prefix sharing.
    """

    label: str
    max_batch_size: int
    n_requests: int
    tokens_generated: int
    prefill_seconds: float
    decode_seconds: float
    decode_steps: int
    mean_batch_occupancy: float
    mean_decode_steps_per_request: float
    intersection_skip: float
    sequence_skip: float
    expected_uncorrelated_skip: float = 0.0
    forked_admissions: int = 0
    prefill_tokens_saved: int = 0
    # Non-zero only when the engine ran cache_pages > 0: admissions
    # served by reviving retired prefix pages, the prompt positions
    # those revives skipped, and cached pages reclaimed under pressure.
    revived_admissions: int = 0
    revived_tokens: int = 0
    cache_evictions: int = 0
    peak_occupancy: int = 0
    # Non-zero once a decode step ran at batch > 1: the fraction of
    # gathered K/V cells the length masks discarded, and the mean
    # length-bucket count per batched decode step.
    attn_padding_waste: float = 0.0
    mean_attn_buckets: float = 0.0
    # Budgeted-tick / preemption telemetry (scheduler step_budget /
    # preemption knobs): tail latency comes from per-request wall-clock
    # stamps, peak_tick_prefill_tokens is the largest per-tick
    # prefill+replay feed (<= the budget when one is set).
    step_budget: int = 0
    preemptions: int = 0
    resumed_admissions: int = 0
    piggybacked_chunks: int = 0
    piggybacked_tokens: int = 0
    peak_tick_prefill_tokens: int = 0
    replayed_tokens: int = 0
    replay_seconds: float = 0.0
    # Sampling telemetry (engine/request sampling configs): the
    # greedy-vs-stream token split and the vectorised sampler's wall
    # time (ServeReport.greedy_tokens / sampled_tokens / sampler_seconds).
    greedy_tokens: int = 0
    sampled_tokens: int = 0
    sampler_seconds: float = 0.0
    # Speculation telemetry (engine/scheduler speculation knob): drafts
    # fed to verification, the subset accepted, and the wall time each
    # speculation phase spent (ServeReport.drafted_tokens /
    # accepted_tokens / draft_seconds / verify_seconds).
    drafted_tokens: int = 0
    accepted_tokens: int = 0
    draft_seconds: float = 0.0
    verify_seconds: float = 0.0
    ttft_p50_seconds: float = 0.0
    ttft_p99_seconds: float = 0.0
    itl_p50_seconds: float = 0.0
    itl_p99_seconds: float = 0.0
    max_itl_seconds: float = 0.0
    # Goodput / SLO telemetry (scheduler admission knob): the
    # ServeReport met/missed/shed split, SLO-met tokens, and the
    # per-class digest from ServeReport.class_telemetry() -- non-trivial
    # only when requests carry SLOSpec contracts.
    admission: str = "fifo"
    slo_met_requests: int = 0
    slo_missed_requests: int = 0
    shed_requests: int = 0
    goodput_tokens: int = 0
    class_stats: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return (self.prefill_seconds + self.decode_seconds
                + self.replay_seconds + self.sampler_seconds
                + self.draft_seconds + self.verify_seconds)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens the verify pass accepted."""
        return (self.accepted_tokens / self.drafted_tokens
                if self.drafted_tokens else 0.0)

    @property
    def tokens_per_second(self) -> float:
        return self.tokens_generated / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def decode_tokens_per_second(self) -> float:
        return self.tokens_generated / self.decode_seconds if self.decode_seconds else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Fraction of generated tokens that counted as goodput."""
        return (self.goodput_tokens / self.tokens_generated
                if self.tokens_generated else 0.0)

    def speedup_over(self, other: "ServingMeasurement") -> float:
        return self.tokens_per_second / other.tokens_per_second


def measure_batched_serving(
    weights,
    requests,
    max_batch_size: int,
    settings=None,
    predictor=None,
    page_size: int = 16,
    n_pages: int = 0,
    prefix_sharing: bool = False,
    cache_pages: int = 0,
    reorder_window: int = 0,
    prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
    step_budget: int = 0,
    preemption: bool = False,
    sampling=None,
    speculation=None,
    admission: str = "fifo",
    deadline_window: int = 8,
) -> ServingMeasurement:
    """Drain ``requests`` through a batched engine and measure throughput.

    ``requests`` is a sequence of :class:`repro.serving.Request`; a fresh
    engine/scheduler pair is built per call so measurements are
    independent.  The page-geometry/prefix-sharing/prefill-chunk knobs
    mirror :class:`repro.serving.engine.BatchedEngine` and the
    scheduler's ``reorder_window`` (correlation-aware
    admission), ``step_budget`` (per-tick prefill piggybacking) and
    ``preemption`` (priority eviction) knobs.  ``sampling`` sets the
    engine-default :class:`repro.model.sampler.SamplerConfig` for
    requests without their own (None = greedy argmax), and
    ``speculation`` a :class:`repro.serving.SpecConfig` enabling
    speculative self-drafting (None = plain decode).  ``admission`` /
    ``deadline_window`` select the scheduler's arbitration policy
    (``"deadline"`` = EDF + load shedding over SLO contracts).
    """
    from ..core.engine import build_batched_engine
    from ..serving.scheduler import ContinuousBatchingScheduler

    engine = build_batched_engine(
        weights, settings=settings, predictor=predictor,
        max_batch_size=max_batch_size,
        page_size=page_size, n_pages=n_pages,
        prefix_sharing=prefix_sharing, cache_pages=cache_pages,
        prefill_chunk=prefill_chunk,
        sampling=sampling,
        speculation=speculation,
    )
    scheduler = ContinuousBatchingScheduler(
        engine, reorder_window=reorder_window,
        step_budget=step_budget, preemption=preemption,
        admission=admission, deadline_window=deadline_window,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    steps = [c.decode_steps for c in report.completions]
    label = f"batched(B<={max_batch_size})"
    if prefix_sharing:
        label += "+prefix"
    if cache_pages:
        label += f"+cache{cache_pages}"
    if prefill_chunk != DEFAULT_PREFILL_CHUNK:
        label += f"+chunk{prefill_chunk}"
    if step_budget:
        label += f"+budget{step_budget}"
    if preemption:
        label += "+preempt"
    if sampling is not None and sampling.temperature > 0:
        label += f"+sampled(T={sampling.temperature:g})"
    if speculation is not None:
        label += f"+spec(a={speculation.draft_alpha:g},k={speculation.k})"
    if admission == "deadline":
        label += f"+edf{deadline_window}"
    return ServingMeasurement(
        label=label,
        max_batch_size=max_batch_size,
        n_requests=len(report.completions),
        tokens_generated=report.tokens_generated,
        prefill_seconds=report.prefill_seconds,
        decode_seconds=report.decode_seconds,
        decode_steps=report.decode_steps,
        mean_batch_occupancy=report.mean_batch_occupancy,
        mean_decode_steps_per_request=float(np.mean(steps)) if steps else 0.0,
        intersection_skip=engine.sparse.stats.intersection_skip_fraction,
        sequence_skip=engine.sparse.stats.mean_sequence_skip_fraction,
        expected_uncorrelated_skip=report.expected_uncorrelated_skip,
        forked_admissions=report.forked_admissions,
        prefill_tokens_saved=report.prefill_tokens_saved,
        revived_admissions=report.revived_admissions,
        revived_tokens=report.revived_tokens,
        cache_evictions=report.cache_evictions,
        peak_occupancy=report.peak_occupancy,
        attn_padding_waste=report.attn_padding_waste,
        mean_attn_buckets=report.mean_attn_buckets,
        step_budget=report.step_budget,
        preemptions=report.preemptions,
        resumed_admissions=report.resumed_admissions,
        piggybacked_chunks=report.piggybacked_chunks,
        piggybacked_tokens=report.piggybacked_tokens,
        peak_tick_prefill_tokens=report.peak_tick_prefill_tokens,
        replayed_tokens=report.replayed_tokens,
        replay_seconds=report.replay_seconds,
        greedy_tokens=report.greedy_tokens,
        sampled_tokens=report.sampled_tokens,
        sampler_seconds=report.sampler_seconds,
        drafted_tokens=report.drafted_tokens,
        accepted_tokens=report.accepted_tokens,
        draft_seconds=report.draft_seconds,
        verify_seconds=report.verify_seconds,
        ttft_p50_seconds=report.ttft_seconds_percentile(50),
        ttft_p99_seconds=report.ttft_seconds_percentile(99),
        itl_p50_seconds=report.itl_seconds_percentile(50),
        itl_p99_seconds=report.itl_seconds_percentile(99),
        max_itl_seconds=report.max_itl_seconds,
        admission=report.admission,
        slo_met_requests=report.slo_met_requests,
        slo_missed_requests=report.slo_missed_requests,
        shed_requests=report.shed_requests,
        goodput_tokens=report.goodput_tokens,
        class_stats=report.class_telemetry(),
    )


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
    forward, so per-phase numbers compare apples-to-apples.
    """
    import time

    from ..core.engine import build_engine

    engine = build_engine(weights, settings=settings, predictor=predictor)
    tokens = 0
    decode_steps = 0
    prefill_seconds = 0.0
    decode_seconds = 0.0
    latencies = []
    for request in requests:
        engine.reset()
        t0 = time.perf_counter()
        logits = engine.prefill(list(request.prompt_ids))
        prefill_seconds += time.perf_counter() - t0
        generated = 0
        request_steps = 0
        while generated < request.max_new_tokens:
            next_id = int(np.argmax(logits))
            if request.stop_ids and next_id in request.stop_ids:
                break
            generated += 1
            if generated < request.max_new_tokens:
                # Clock only the model forward, mirroring the scheduler,
                # which samples outside its decode timer too.
                t0 = time.perf_counter()
                logits = engine.forward_token(next_id, engine.cache.length)
                decode_seconds += time.perf_counter() - t0
                request_steps += 1
        tokens += generated
        decode_steps += request_steps
        latencies.append(request_steps)
    stats = engine.mlp.stats
    return ServingMeasurement(
        label="sequential",
        max_batch_size=1,
        n_requests=len(requests),
        tokens_generated=tokens,
        prefill_seconds=prefill_seconds,
        decode_seconds=decode_seconds,
        decode_steps=decode_steps,
        mean_batch_occupancy=1.0,
        mean_decode_steps_per_request=(
            float(np.mean(latencies)) if latencies else 0.0
        ),
        intersection_skip=stats.gate_skip_fraction,
        sequence_skip=stats.gate_skip_fraction,
    )


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
