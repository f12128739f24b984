"""The benchmark's whole view of the program: the only file importing ``repro``.

Later PRs may not edit the benchmark that judges them, so this surface
is narrow and tolerant of the refactors ROADMAP plans:

* every ``serve-all-on`` knob is passed only while the constructor's
  signature still accepts it -- a fast path that becomes the default and
  loses its knob keeps being benchmarked;
* program counters are read through one adapter that yields ``None`` for
  a counter that no longer exists (listed under ``missing_counters``)
  instead of crashing;
* functions to trace are looked up by name at run time; one that moved
  away is listed under ``missing_spans`` and reports zero calls.

Request shapes come only from ``repro.workloads.scenarios`` through
``LoadGenerator``'s seeded shape stream: the program is handed finished
``Request`` objects and never sees the seed.
"""

from __future__ import annotations

import importlib
import inspect
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import SparseInferSettings, build_engine, build_predictor
from repro.model.config import ModelConfig
from repro.model.weights import random_weights
from repro.serving import (
    BatchedEngine,
    ContinuousBatchingScheduler,
    LoadGenerator,
    PoissonProcess,
)
from repro.workloads import scenarios

from tracing import Patches, Tracer

#: The fixed model under test.  Sized so a decode step is dominated by
#: the MLP GEMMs the paper targets while a ~7 s block still serves
#: enough requests for tail percentiles.  Measured per-sequence predicted
#: skip with these weights: ~0.475.
MODEL = dict(
    name="bench-256x4", vocab_size=2048, d_model=256, n_layers=4, n_heads=4,
    d_ff=1024, max_seq_len=256, dtype_bytes=4,
)
WEIGHTS_SEED = 13

#: ``serve-all-on``: every fast path on, as a user would deploy it.  The
#: legacy defaults are 3-8x slower on prefill and are not what later PRs
#: should be judged on.  Speculation off, greedy sampling.
ENGINE_KNOBS = dict(
    max_batch_size=8, paged=True, page_size=16, n_pages=160,
    prefix_sharing=True, cache_pages=32, batched_attention=True,
    prefill_chunk=32,
)
SCHEDULER_KNOBS = dict(step_budget=32, admission="fifo")


def accepted_kwargs(target: Callable, wanted: dict) -> Tuple[dict, List[str]]:
    """Split ``wanted`` into what ``target`` still accepts and what it dropped."""
    parameters = inspect.signature(target).parameters
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return dict(wanted), []
    kept = {k: v for k, v in wanted.items() if k in parameters}
    return kept, sorted(set(wanted) - set(kept))


@dataclass
class System:
    """Weights and packed predictor: what set-up builds once per engine family."""

    weights: object
    predictor: object
    settings: object


def build_system() -> System:
    weights = random_weights(ModelConfig(**MODEL), seed=WEIGHTS_SEED)
    settings = SparseInferSettings()
    return System(weights, build_predictor(weights, settings), settings)


def engine_knobs() -> Tuple[dict, List[str]]:
    return accepted_kwargs(BatchedEngine.__init__, ENGINE_KNOBS)


def scheduler_knobs() -> Tuple[dict, List[str]]:
    return accepted_kwargs(ContinuousBatchingScheduler.__init__, SCHEDULER_KNOBS)


def new_engine(system: System):
    return BatchedEngine(
        system.weights, settings=system.settings, predictor=system.predictor,
        **engine_knobs()[0],
    )


def new_scheduler(engine, on_token=None):
    return ContinuousBatchingScheduler(
        engine, on_token=on_token, **scheduler_knobs()[0]
    )


def set_up() -> Tuple[System, object, object]:
    """Everything ``setup_s`` times: weights, sign packing, engine, scheduler."""
    system = build_system()
    engine = new_engine(system)
    return system, engine, new_scheduler(engine)


def resolved_config() -> dict:
    """What was asked for and what the program's signatures still took."""
    engine, engine_dropped = engine_knobs()
    sched, sched_dropped = scheduler_knobs()
    return {
        "model": dict(MODEL, weights_seed=WEIGHTS_SEED),
        "settings": repr(SparseInferSettings()),
        "engine_knobs": engine, "engine_knobs_dropped": engine_dropped,
        "scheduler_knobs": sched, "scheduler_knobs_dropped": sched_dropped,
    }


# -- request generation -----------------------------------------------------

def timed_requests(
    scenario: str, scenario_args: tuple, n: int, seed: int, rate: float = 1.0,
) -> List[Tuple[float, object]]:
    """``n`` seeded ``(arrival_offset_s, Request)`` pairs of one scenario.

    Closed loops ignore the offsets; shapes and arrivals are independent
    streams of the one seed, so the same seed gives the same requests at
    any rate.
    """
    shape = getattr(scenarios, scenario)(**dict(scenario_args))
    if not isinstance(shape, scenarios.ScenarioMix):
        shape = scenarios.ScenarioMix([shape])
    generator = LoadGenerator(
        PoissonProcess(rate), shape.factory(scenarios.scenario_tokenizer()),
        seed=seed,
    )
    return [(entry.time, entry.request) for entry in generator.trace(n)]


# -- correctness oracle -----------------------------------------------------

def oracle_verdicts(system: System, requests, completions: dict,
                    margin: float) -> List[str]:
    """Served tokens against the scalar single-sequence engine, per request.

    ``"exact"``: the same tokens.  ``"near_tie"``: at the first token
    that differs, the oracle's own logits put the served token within
    ``margin`` of its choice -- batched GEMMs round differently from the
    scalar path, which can flip a sign-bit prediction at its threshold
    and with it an argmax between close candidates; everything after
    that token legitimately differs.  ``"mismatch"``: anything else,
    including a request that was never served.
    """
    oracle = build_engine(
        system.weights, system.settings, predictor=system.predictor
    )
    verdicts = []
    for request in requests:
        completion = completions.get(request.request_id)
        if completion is None or completion.error is not None:
            verdicts.append("mismatch")
            continue
        served = list(completion.generated_ids)
        truth = oracle.generate(
            list(request.prompt_ids), request.max_new_tokens,
            stop_ids=request.stop_ids, keep_logits=True,
        )
        expected = list(truth.generated_ids)
        if served == expected:
            verdicts.append("exact")
            continue
        at = next(
            (i for i, (a, b) in enumerate(zip(expected, served)) if a != b),
            None,
        )
        if at is None:                   # one is a strict prefix of the other
            verdicts.append("mismatch")
            continue
        logits = truth.logits_history[at]
        gap = float(logits[expected[at]] - logits[served[at]])
        verdicts.append("near_tie" if gap <= margin else "mismatch")
    return verdicts


# -- counters ---------------------------------------------------------------

#: Counter name -> attribute path from ``scheduler`` or ``engine``.
COUNTER_PATHS = {
    "peak_tick_prefill_tokens": "scheduler.report.peak_tick_prefill_tokens",
    "intersection_skip": "scheduler.report.intersection_skip",
    "mean_sequence_skip": "scheduler.report.mean_sequence_skip",
    "peak_pages_in_use": "scheduler.report.peak_pages_in_use",
    "page_utilisation_mean": "scheduler.report.mean_page_utilisation",
    "peak_shared_pages": "scheduler.report.peak_shared_pages",
    "peak_cached_pages": "scheduler.report.peak_cached_pages",
    "cache_evictions": "scheduler.report.cache_evictions",
    "gate_rows_read": "engine.sparse.stats.rows_read_gate",
    "gate_skip_share": "engine.sparse.single.stats.gate_skip_fraction",
    "up_skip_share": "engine.sparse.single.stats.up_skip_fraction",
    "down_skip_share": "engine.sparse.single.stats.down_skip_fraction",
    "padding_waste_share": "engine.attn_telemetry.padding_waste_fraction",
    "mean_buckets_per_step": "engine.attn_telemetry.mean_buckets_per_step",
    "padded_positions": "engine.attn_telemetry.padded_positions",
}

_MISSING = object()


def read_counters(scheduler, engine) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Every counter of :data:`COUNTER_PATHS`, ``None`` where it is gone."""
    roots = {"scheduler": scheduler, "engine": engine}
    values: Dict[str, Optional[float]] = {}
    for name, path in COUNTER_PATHS.items():
        root, *attrs = path.split(".")
        value = roots[root]
        for attr in attrs:
            value = getattr(value, attr, _MISSING)
            if value is _MISSING:
                break
        values[name] = None if value is _MISSING else float(value)
    return values, sorted(k for k, v in values.items() if v is None)


# -- tracing ----------------------------------------------------------------

def _positional(index: int, reader: Callable):
    """Read a work count / ids from positional argument ``index``, or nothing."""
    def read(args: tuple, kwargs: dict):
        return reader(args[index]) if len(args) > index else 0
    return read


#: ``(span name, "module[:Class]", attribute, wrap options)``.  A module
#: owner patches the name where the *caller* looks it up (``from x import
#: f`` binds ``f`` in the importing module).
TRACE_TARGETS = (
    ("serving.scheduler.step",
     "repro.serving.scheduler:ContinuousBatchingScheduler", "step",
     dict(new_tick=True)),
    ("serving.scheduler.submit",
     "repro.serving.scheduler:ContinuousBatchingScheduler", "submit",
     dict(requests=_positional(1, lambda r: [r.request_id]))),
    ("serving.engine.prefill",
     "repro.serving.engine:BatchedEngine", "prefill",
     dict(work=_positional(2, len))),
    ("serving.engine.decode_step",
     "repro.serving.engine:BatchedEngine", "decode_step",
     dict(work=_positional(1, len))),
    ("model.inference.forward_token_single",
     "repro.serving.engine", "forward_token_single", {}),
    ("serving.batch_mlp.run_batch",
     "repro.serving.batch_mlp:BatchedSparseInferMLP", "run_batch", {}),
    ("core.predictor.predict_intersection",
     "repro.core.predictor:SparseInferPredictor", "predict_intersection", {}),
    ("core.sparse_mlp.run_with_skip",
     "repro.core.sparse_mlp:SparseInferMLP", "run_with_skip", {}),
    ("model.mlp.dense_run_tokens",
     "repro.model.mlp:DenseMLP", "run_tokens",
     dict(work=_positional(2, len))),
    ("model.batch_attention.plan_step",
     "repro.model.batch_attention:BatchedAttention", "plan_step", {}),
    ("model.batch_attention.attend_layer",
     "repro.model.batch_attention:StepPlan", "attend_layer", {}),
    ("model.paged_kvcache.append",
     "repro.model.paged_kvcache:PagedKVSlot", "append", {}),
    ("model.paged_kvcache.view",
     "repro.model.paged_kvcache:PagedKVSlot", "view", {}),
    ("model.paged_kvcache.gather",
     "repro.model.paged_kvcache:PagedBatchView", "gather", {}),
    ("model.paged_kvcache.allocate",
     "repro.model.paged_kvcache:PagedKVCache", "allocate", {}),
    ("model.paged_kvcache.fork",
     "repro.model.paged_kvcache:PagedKVCache", "fork", {}),
    ("model.paged_kvcache.revive",
     "repro.model.paged_kvcache:PagedKVCache", "revive", {}),
    ("model.paged_kvcache.release",
     "repro.model.paged_kvcache:PagedKVCache", "release", {}),
    ("model.sampler.sample",
     "repro.model.sampler:BatchedSampler", "sample",
     dict(requests=_positional(3, list))),
)

SPAN_NAMES = tuple(target[0] for target in TRACE_TARGETS)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install_tracing(tracer: Tracer) -> Tuple[Patches, List[str]]:
    """Wrap every resolvable trace target; names the ones that are gone."""
    patches = Patches()
    missing: List[str] = []
    for name, owner_path, attr, options in TRACE_TARGETS:
        try:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.name_id(name)        # still a row, with zero calls
            missing.append(name)
            continue
        patches.install(owner, attr, tracer.wrap(name, original, **options))
    return patches, missing


# -- environment ------------------------------------------------------------

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """Machine and numeric-library facts recorded in every result file."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):       # older numpy: no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
