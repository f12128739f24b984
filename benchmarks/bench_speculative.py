"""Speculative self-drafting: the draft_alpha x k acceptance sweep.

Speculation pays when the aggressive-alpha draft path is enough cheaper
than the serving path that ``k`` draft steps plus one chunked verify
GEMM beat ``k + 1`` plain decode steps, weighted by how many drafts
survive verification.  Both levers are swept here:

* ``draft_alpha`` < 1 makes the draft predictor skip *more* MLP rows
  than the serving executor (cheaper, lossier drafts -- lower
  acceptance);
* ``k`` controls how many tokens each accepted run amortises the
  verify pass over.

The model is MLP-dominated (``d_ff >> d_model``) and the workload is
batch-1 greedy decode -- the configuration where the single-sequence
sparse executor actually skips weight rows, so draft cheapness is real
wall-clock, not bookkeeping.  The MLP down-projections are scaled by
``DOWN_SCALE`` so the residual stream and attention dominate the
logits: that is the *redundant-MLP* regime speculation targets (a
draft that mispredicts a few low-salience rows still lands the same
argmax), whereas fully random weights give near-uniform next-token
distributions where no cheap draft can agree with the target.  Cost is
unaffected -- the GEMM shapes and the predictor's sign-bit skip
decisions never see the scale.  Every sweep point is asserted
**token-identical** to ``speculation=None`` before anything is timed
(speculation changes how many model passes produce the tokens, never
the tokens); the headline is the best point's decode wall-clock
speedup, required to reach ``MIN_SPEEDUP``.

Results land as JSON in ``benchmarks/results/speculative.json``.

Run:  python benchmarks/bench_speculative.py
or:   pytest benchmarks/bench_speculative.py -q -m slow -p no:cacheprovider
"""

import json
import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from repro.core.engine import build_batched_engine
from repro.model.config import ModelConfig
from repro.model.weights import random_weights
from repro.serving import ContinuousBatchingScheduler, Request, SpecConfig

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MAX_SEQ_LEN = 96
PROMPT_TOKENS = 8
MAX_NEW = 80
N_REQUESTS = 3

ALPHAS = (0.3, 0.5, 1.0)
KS = (4, 8, 12)
DOWN_SCALE = 0.0003
MIN_SPEEDUP = 1.3
BEST_OF = 3


def bench_config() -> ModelConfig:
    # MLP-dominated on purpose: d_ff >> d_model keeps the gate/up/down
    # GEMMs the cost centre, so the draft path's extra row-skipping is
    # visible over attention and Python overhead.
    return ModelConfig(
        name="speculative-bench",
        vocab_size=64,
        d_model=128,
        n_layers=2,
        n_heads=4,
        d_ff=4096,
        max_seq_len=MAX_SEQ_LEN,
        dtype_bytes=4,
    )


def bench_weights():
    """Random weights with the down-projections scaled into redundancy."""
    weights = random_weights(bench_config(), seed=19)
    for lw in weights.layers:
        lw.w_down_rows *= DOWN_SCALE
    return weights


def build_requests() -> list:
    rng = np.random.default_rng(29)
    return [
        Request(
            request_id=i,
            prompt_ids=tuple(int(t) for t in
                             rng.integers(1, 64, size=PROMPT_TOKENS)),
            max_new_tokens=MAX_NEW,
        )
        for i in range(N_REQUESTS)
    ]


def drain(weights, requests, speculation=None):
    """Drain the workload at batch 1; return (tokens, report, seconds).

    ``seconds`` is the **decode-phase** wall-clock from the report's own
    instrumented counters (``wall_seconds - prefill_seconds``): prefill
    is identical work in both runs, so including it would only dilute
    the decode speedup the sweep is measuring.
    """
    engine = build_batched_engine(
        weights, max_batch_size=1, max_seq_len=MAX_SEQ_LEN,
    )
    scheduler = ContinuousBatchingScheduler(engine, speculation=speculation)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    seconds = report.wall_seconds - report.prefill_seconds
    tokens = {c.request_id: list(c.generated_ids) for c in report.completions}
    assert all(c.ok for c in report.completions)
    return tokens, report, seconds


def timed_drain(weights, requests, speculation=None):
    """Best-of-``BEST_OF`` wall-clock over identical drains."""
    best = None
    for _ in range(BEST_OF):
        tokens, report, seconds = drain(weights, requests, speculation)
        if best is None or seconds < best[2]:
            best = (tokens, report, seconds)
    return best


def run_sweep():
    weights = bench_weights()
    requests = build_requests()
    base_tokens, base_report, base_seconds = timed_drain(weights, requests)
    points = []
    for alpha in ALPHAS:
        for k in KS:
            spec = SpecConfig(k=k, draft_alpha=alpha)
            tokens, report, seconds = timed_drain(weights, requests, spec)
            assert tokens == base_tokens, (
                f"speculation (alpha={alpha}, k={k}) changed decoded tokens"
            )
            points.append({
                "draft_alpha": alpha,
                "k": k,
                "seconds": seconds,
                "speedup": base_seconds / seconds,
                "acceptance_rate": round(report.acceptance_rate, 4),
                "drafted_tokens": report.drafted_tokens,
                "accepted_tokens": report.accepted_tokens,
                "decode_steps": report.decode_steps,
                "tokens_per_step": round(
                    report.tokens_generated / report.decode_steps, 3),
                "draft_seconds": round(report.draft_seconds, 4),
                "verify_seconds": round(report.verify_seconds, 4),
            })
    baseline = {
        "seconds": base_seconds,
        "decode_steps": base_report.decode_steps,
        "tokens_generated": base_report.tokens_generated,
    }
    return baseline, points


def best_point(points) -> dict:
    return max(points, key=lambda p: p["speedup"])


def check_speedup(points) -> None:
    best = best_point(points)
    assert best["speedup"] >= MIN_SPEEDUP, (
        f"best sweep point (alpha={best['draft_alpha']}, k={best['k']}) "
        f"reached only {best['speedup']:.2f}x, need {MIN_SPEEDUP}x"
    )
    # The sweep must show the acceptance lever working: the least
    # aggressive draft alpha accepts at least as much as the most
    # aggressive one at the same depth.
    by_k = {}
    for p in points:
        by_k.setdefault(p["k"], []).append(p)
    for k, group in by_k.items():
        group.sort(key=lambda p: p["draft_alpha"])
        assert group[-1]["acceptance_rate"] >= group[0]["acceptance_rate"], k


def format_report(baseline, points) -> str:
    lines = [
        f"speculative self-drafting sweep: {N_REQUESTS} requests x "
        f"{MAX_NEW} tokens, batch 1, greedy "
        f"(baseline {baseline['seconds'] * 1e3:.1f} ms, "
        f"{baseline['decode_steps']} ticks)",
        "",
        f"{'alpha':>7}{'k':>4}{'speedup':>10}{'accept':>9}"
        f"{'tok/step':>10}{'draft ms':>10}{'verify ms':>11}",
    ]
    for p in points:
        lines.append(
            f"{p['draft_alpha']:>7.2f}{p['k']:>4}{p['speedup']:>9.2f}x"
            f"{p['acceptance_rate']:>9.1%}{p['tokens_per_step']:>10.2f}"
            f"{p['draft_seconds'] * 1e3:>10.1f}"
            f"{p['verify_seconds'] * 1e3:>11.1f}"
        )
    best = best_point(points)
    lines.append(
        f"\nbest: alpha={best['draft_alpha']}, k={best['k']} -> "
        f"{best['speedup']:.2f}x at {best['acceptance_rate']:.1%} acceptance"
    )
    return "\n".join(lines)


def write_json(baseline, points) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "speculative.json"
    best = best_point(points)
    payload = {
        "benchmark": "speculative",
        "config": {
            "d_model": bench_config().d_model,
            "d_ff": bench_config().d_ff,
            "n_layers": bench_config().n_layers,
            "n_requests": N_REQUESTS,
            "max_new_tokens": MAX_NEW,
            "alphas": list(ALPHAS),
            "ks": list(KS),
            "down_scale": DOWN_SCALE,
        },
        "baseline": baseline,
        "sweep": points,
        "best": best,
        "speedup": round(best["speedup"], 3),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main() -> int:
    baseline, points = run_sweep()
    print(format_report(baseline, points))
    check_speedup(points)
    best = best_point(points)
    print(f"\nall speculative checks passed (tokens identical at every "
          f"sweep point; best {best['speedup']:.2f}x >= {MIN_SPEEDUP}x)")
    path = write_json(baseline, points)
    print(f"results -> {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"results -> {path}")
    return 0


@pytest.mark.slow
def test_speculative_smoke():
    """Pytest entry point mirroring the script run (tier-2 smoke)."""
    baseline, points = run_sweep()
    check_speedup(points)


if __name__ == "__main__":
    raise SystemExit(main())
