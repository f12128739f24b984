"""Metric catalogue: every name, unit, direction and bound the benchmark emits.

``BENCHMARK.json`` at the repo root carries the same lists (a self-test
keeps them equal); this module also turns one traced block's span table
and counters into the per-layer values.  Layers are named after the
``src/repro`` modules whose public functions the spans wrap.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: ``(name, unit, better, bound)``; the bound is the share of the
#: parent's median by which the metric may worsen before it counts as a
#: regression.  Every metric is reported on every workload.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("tokens_per_s", "tok/s", "higher", 0.25),
    ("ttft_p50_ms", "ms", "lower", 0.25),
    ("ttft_p95_ms", "ms", "lower", 0.25),
    ("itl_p50_ms", "ms", "lower", 0.25),
    ("itl_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Spans reported with calls, inclusive time and self time ...
_SPANS_WITH_SELF = (
    "serving.scheduler.step",
    "serving.engine.prefill",
    "serving.engine.decode_step",
    "model.inference.forward_token_single",
    "serving.batch_mlp.run_batch",
)
#: ... with calls and inclusive time (leaves: self == inclusive) ...
_SPANS_LEAF = (
    "core.predictor.predict_intersection",
    "core.sparse_mlp.run_with_skip",
    "model.mlp.dense_run_tokens",
    "model.batch_attention.plan_step",
    "model.batch_attention.attend_layer",
    "model.paged_kvcache.append",
    "model.paged_kvcache.view",
    "model.paged_kvcache.gather",
    "model.paged_kvcache.fork",
    "model.paged_kvcache.revive",
    "model.paged_kvcache.release",
    "model.sampler.sample",
)
#: ... and with calls only (too short to time meaningfully).
_SPANS_COUNT_ONLY = ("model.paged_kvcache.allocate",)


_SPAN_FIELDS = (
    (_SPANS_WITH_SELF, ("calls", "busy_s", "self_s")),
    (_SPANS_LEAF, ("calls", "busy_s")),
    (_SPANS_COUNT_ONLY, ("calls",)),
)


def _span_metrics():
    for names, fields in _SPAN_FIELDS:
        for name in names:
            for field in fields:
                yield (f"{name}.{field}", "count" if field == "calls" else "s", "lower")


#: ``(name, unit, better)`` of every per-layer metric, traced run only.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *_span_metrics(),
    ("serving.scheduler.batch_occupancy_mean", "seqs", "higher"),
    ("serving.scheduler.peak_tick_prefill_tokens", "tokens", "lower"),
    ("serving.scheduler.queue_wait_p50_ms", "ms", "lower"),
    ("serving.scheduler.queue_wait_p95_ms", "ms", "lower"),
    ("serving.scheduler.preemptions", "count", "lower"),
    ("serving.scheduler.shed_requests", "count", "lower"),
    ("serving.engine.prompt_tokens", "tokens", "higher"),
    ("serving.engine.prefill_tokens", "tokens", "lower"),
    ("serving.engine.prefix_reuse_share", "share", "higher"),
    ("serving.engine.forked_admissions", "count", "higher"),
    ("serving.engine.revived_admissions", "count", "higher"),
    ("serving.batch_mlp.intersection_skip", "share", "higher"),
    ("serving.batch_mlp.mean_sequence_skip", "share", "higher"),
    ("serving.batch_mlp.weight_bytes_read", "B", "lower"),
    ("core.predictor.overhead_share", "share", "lower"),
    ("core.sparse_mlp.gate_skip_share", "share", "higher"),
    ("core.sparse_mlp.up_skip_share", "share", "higher"),
    ("core.sparse_mlp.down_skip_share", "share", "higher"),
    ("model.batch_attention.padding_waste_share", "share", "lower"),
    ("model.batch_attention.mean_buckets_per_step", "count", "lower"),
    ("model.batch_attention.kv_bytes_gathered", "B", "lower"),
    ("model.paged_kvcache.peak_pages_in_use", "pages", "lower"),
    ("model.paged_kvcache.page_utilisation_mean", "share", "higher"),
    ("model.paged_kvcache.peak_shared_pages", "pages", "higher"),
    ("model.paged_kvcache.peak_cached_pages", "pages", "higher"),
    ("model.paged_kvcache.cache_evictions", "count", "lower"),
    ("serving.loadgen.submit_lag_p95_ms", "ms", "lower"),
    ("serving.loadgen.queue_at_last_arrival", "count", "lower"),
    ("serving.loadgen.backlog_at_end", "count", "lower"),
    ("serving.loadgen.slo_attainment", "share", "higher"),
    ("bench.tracing_overhead_share", "share", "lower"),
    ("bench.driver_share", "share", "lower"),
    ("bench.unaccounted_share", "share", "lower"),
    ("bench.ttft_p99_ms", "ms", "lower"),
    ("bench.itl_p99_ms", "ms", "lower"),
    ("bench.oracle_s", "s", "lower"),
    ("bench.oracle_exact_share", "share", "higher"),
    ("bench.calib.gemm_gflops", "GFLOP/s", "higher"),
    ("bench.calib.stream_gbps", "GB/s", "higher"),
)


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or denominator is None or denominator == 0:
        return None
    return numerator / denominator


def layer_values(
    spans: Dict[str, Dict[str, float]], counters: Dict[str, Optional[float]],
    block: dict, prompt_tokens: int, model: dict,
) -> Dict[str, Optional[float]]:
    """Per-layer values of one traced block (``None`` = counter missing).

    ``spans`` is :func:`tracing.aggregate`'s table, ``counters`` the
    adapter's reading, ``block`` the block's :func:`drivers.block_metrics`.
    Byte counts are *computed* from tensor shapes, not measured: gate, up
    and down rows are ``d_model`` float32 each, and every padded K/V
    position is gathered as a key and a value row in every layer.
    """
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0}
    values: Dict[str, Optional[float]] = {}
    for names, fields in _SPAN_FIELDS:
        for name in names:
            for field in fields:
                values[f"{name}.{field}"] = spans.get(name, zero)[field]

    def span(name: str, field: str) -> float:
        return spans.get(name, zero)[field]

    busy_s = block["busy_s"]
    row_bytes = model["d_model"] * model["dtype_bytes"]
    prefill_tokens = span("serving.engine.prefill", "work")
    failures = block["failures"]
    values.update({
        "serving.scheduler.batch_occupancy_mean": _ratio(
            span("serving.engine.decode_step", "work"),
            span("serving.engine.decode_step", "calls"),
        ) or 0.0,
        "serving.scheduler.peak_tick_prefill_tokens":
            counters["peak_tick_prefill_tokens"],
        "serving.scheduler.queue_wait_p50_ms": block["queue_wait_p50_ms"],
        "serving.scheduler.queue_wait_p95_ms": block["queue_wait_p95_ms"],
        "serving.scheduler.preemptions": block["preemptions"],
        "serving.scheduler.shed_requests": failures.get("shed", 0),
        "serving.engine.prompt_tokens": prompt_tokens,
        "serving.engine.prefill_tokens": prefill_tokens,
        "serving.engine.prefix_reuse_share":
            1.0 - prefill_tokens / prompt_tokens if prompt_tokens else 0.0,
        "serving.engine.forked_admissions":
            span("model.paged_kvcache.fork", "calls"),
        "serving.engine.revived_admissions":
            span("model.paged_kvcache.revive", "calls"),
        "serving.batch_mlp.intersection_skip": counters["intersection_skip"],
        "serving.batch_mlp.mean_sequence_skip": counters["mean_sequence_skip"],
        "serving.batch_mlp.weight_bytes_read": (
            None if counters["gate_rows_read"] is None
            else counters["gate_rows_read"] * 3 * row_bytes
        ),
        "core.predictor.overhead_share": _ratio(
            span("core.predictor.predict_intersection", "busy_s"),
            span("serving.batch_mlp.run_batch", "busy_s"),
        ) or 0.0,
        "core.sparse_mlp.gate_skip_share": counters["gate_skip_share"],
        "core.sparse_mlp.up_skip_share": counters["up_skip_share"],
        "core.sparse_mlp.down_skip_share": counters["down_skip_share"],
        "model.batch_attention.padding_waste_share":
            counters["padding_waste_share"],
        "model.batch_attention.mean_buckets_per_step":
            counters["mean_buckets_per_step"],
        "model.batch_attention.kv_bytes_gathered": (
            None if counters["padded_positions"] is None
            else counters["padded_positions"] * 2 * row_bytes * model["n_layers"]
        ),
        "model.paged_kvcache.peak_pages_in_use": counters["peak_pages_in_use"],
        "model.paged_kvcache.page_utilisation_mean":
            counters["page_utilisation_mean"],
        "model.paged_kvcache.peak_shared_pages": counters["peak_shared_pages"],
        "model.paged_kvcache.peak_cached_pages": counters["peak_cached_pages"],
        "model.paged_kvcache.cache_evictions": counters["cache_evictions"],
        "serving.loadgen.submit_lag_p95_ms": block["submit_lag_p95_ms"],
        "serving.loadgen.queue_at_last_arrival": block["queue_at_last_arrival"],
        "serving.loadgen.backlog_at_end": block["backlog_at_end"],
        "serving.loadgen.slo_attainment": block["slo_attainment"],
        "bench.driver_share": _ratio(span("bench.on_token", "self_s"), busy_s),
        "bench.unaccounted_share": 1.0 - sum(
            row["self_s"] for row in spans.values()
        ) / busy_s,
    })
    return values
