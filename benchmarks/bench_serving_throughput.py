"""Serving throughput: batched sparse decode vs the sequential engine.

Sweeps the decode batch size over a synthetic-weight model and reports
measured tokens/sec alongside the realised cross-sequence skip
intersection, compared against the analytical ``skip^B`` decay curve of
:func:`repro.gpu.batching.batch_skip_fraction` (correlation = 0, i.e.
independent sequences -- the worst case for batched sparsity).

Run:  python benchmarks/bench_serving_throughput.py
or:   pytest benchmarks/bench_serving_throughput.py -q -p no:cacheprovider

Expected shape of the result: batch=1 serving matches the sequential
engine (same tokens, slight scheduler overhead), larger batches trade
per-sequence sparsity (the intersection decays toward zero) for
weight-read amortisation, with batch 8 about 2.5x sequential throughput
(batch 4 about 1.75x) against the all-float32 sequential baseline.
"""

import json
import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from repro.core.engine import (
    SparseInferSettings,
    build_batched_engine,
    build_predictor,
)
from repro.eval.latency import (
    measure_batched_serving,
    measure_sequential_serving,
)
from repro.eval.reporting import format_serving_sweep
from repro.gpu.batching import batch_skip_fraction
from repro.model.config import ModelConfig
from repro.model.weights import random_weights
from repro.serving import ContinuousBatchingScheduler, Request

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BATCH_SIZES = (1, 2, 4, 8)
N_REQUESTS = 8
MAX_NEW_TOKENS = 64


def bench_config() -> ModelConfig:
    """Large enough that decode GEMMs dominate, small enough to be quick."""
    return ModelConfig(
        name="serve-bench",
        vocab_size=2048,
        d_model=256,
        n_layers=4,
        n_heads=4,
        d_ff=1024,
        max_seq_len=128,
        dtype_bytes=4,
    )


def build_requests(vocab_size: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(N_REQUESTS):
        prompt_len = 3 + (i % 3)
        prompt = tuple(int(t) for t in
                       rng.integers(1, vocab_size - 1, size=prompt_len))
        requests.append(
            Request(request_id=i, prompt_ids=prompt,
                    max_new_tokens=MAX_NEW_TOKENS)
        )
    return requests


def run_sweep(repeats: int = 2):
    """Measure the full sweep; returns (baseline, points, analytic skips).

    Each configuration is measured ``repeats`` times and the fastest run
    kept (min-latency benchmarking -- transient machine load only ever
    slows a run down).
    """
    config = bench_config()
    weights = random_weights(config, seed=5)
    requests = build_requests(config.vocab_size)
    # Sign-bit packing is the one expensive offline step; share it across
    # every measurement instead of re-packing per engine build.
    predictor = build_predictor(weights, SparseInferSettings())
    best = lambda measurements: max(  # noqa: E731
        measurements, key=lambda m: m.report.tokens_per_second
    )
    baseline = best([
        measure_sequential_serving(weights, requests, predictor=predictor)
        for _ in range(repeats)
    ])

    def fresh_scheduler(batch_size):
        return ContinuousBatchingScheduler(build_batched_engine(
            weights, predictor=predictor, max_batch_size=batch_size,
        ))

    points = [
        best([
            measure_batched_serving(fresh_scheduler(batch_size), requests)
            for _ in range(repeats)
        ])
        for batch_size in BATCH_SIZES
    ]
    analytic = [
        batch_skip_fraction(
            baseline.report.mean_sequence_skip,
            max(1, round(point.report.mean_batch_occupancy)),
        )
        for point in points
    ]
    return baseline, points, analytic


def check_sweep(baseline, points, analytic) -> None:
    """The acceptance properties of the sweep."""
    by_batch = dict(zip(BATCH_SIZES, points))
    sequence_skip = baseline.report.mean_sequence_skip
    # Batch 1 serving realises the full per-sequence skip...
    np.testing.assert_allclose(
        by_batch[1].report.intersection_skip, sequence_skip, atol=0.02
    )
    # ...and the intersection decays monotonically with batch size,
    # tracking the analytical skip^B curve.
    skips = [p.report.intersection_skip for p in points]
    assert skips == sorted(skips, reverse=True), skips
    for point, expected in zip(points, analytic):
        if point.report.mean_batch_occupancy >= 1.5:
            assert point.report.intersection_skip < sequence_skip
        assert abs(point.report.intersection_skip - expected) < 0.15
    # Throughput: batching beats sequential decode.  The sequential
    # baseline used to run its post-attention residual (and so every
    # MLP GEMM) in float64 -- promoted by a float64 attention scale --
    # which inflated batched speedups; against the fixed float32
    # baseline batch 4 lands ~1.75x and batch 8 ~2.5x, gated with
    # headroom for machine-load wobble (observed swings past 20%).
    assert by_batch[4].speedup_over(baseline) >= 1.2, (
        f"batch-4 speedup {by_batch[4].speedup_over(baseline):.2f}x < 1.2x"
    )
    assert by_batch[8].speedup_over(baseline) >= 1.7, (
        f"batch-8 speedup {by_batch[8].speedup_over(baseline):.2f}x < 1.7x"
    )


def _measurement_json(m) -> dict:
    """ServingMeasurement -> plain dict for the machine-readable dump."""
    report = m.report
    return {
        "label": m.label,
        "tokens_generated": report.tokens_generated,
        "prefill_seconds": report.prefill_seconds,
        "decode_seconds": report.decode_seconds,
        "tokens_per_second": report.tokens_per_second,
        "mean_batch_occupancy": report.mean_batch_occupancy,
        "intersection_skip": report.intersection_skip,
        "sequence_skip": report.mean_sequence_skip,
    }


def write_json(baseline, points, analytic) -> Path:
    """Machine-readable sweep results (perf trajectory across commits)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "serving_throughput.json"
    payload = {
        "benchmark": "serving_throughput",
        "n_requests": N_REQUESTS,
        "max_new_tokens": MAX_NEW_TOKENS,
        "baseline": _measurement_json(baseline),
        "points": [
            {**_measurement_json(p),
             "speedup_over_sequential": p.speedup_over(baseline),
             "analytic_skip": analytic[i]}
            for i, p in enumerate(points)
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main() -> int:
    baseline, points, analytic = run_sweep()
    lines = [
        f"serving throughput sweep over {bench_config().name} "
        f"({N_REQUESTS} requests x {MAX_NEW_TOKENS} tokens, greedy)",
        "",
        format_serving_sweep(baseline, points, analytic),
        "",
        f"per-sequence predicted skip: "
        f"{baseline.report.mean_sequence_skip:.1%} "
        "(the batch=1 ceiling the intersection decays from)",
    ]
    text = "\n".join(lines)
    print(text)
    check_sweep(baseline, points, analytic)
    print("\nall serving-throughput checks passed "
          "(batch-4 >= 1.2x, batch-8 >= 1.7x, intersection tracks skip^B)")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serving_throughput.txt").write_text(text + "\n")
    path = write_json(baseline, points, analytic)
    print(f"JSON -> {path}")
    return 0


def test_serving_throughput_sweep():
    """Pytest entry point mirroring the script run."""
    baseline, points, analytic = run_sweep()
    check_sweep(baseline, points, analytic)
    write_json(baseline, points, analytic)


if __name__ == "__main__":
    raise SystemExit(main())
