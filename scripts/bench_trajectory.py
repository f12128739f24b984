"""Aggregate ``benchmarks/results/*.json`` into one trajectory table.

Every benchmark under ``benchmarks/`` writes a machine-readable payload
(keyed by ``"benchmark"``) into ``benchmarks/results/`` when it runs;
this script folds whatever is present into a single markdown summary --
benchmark name, its headline metric, supporting detail, and the date the
result file was last refreshed -- so the perf trajectory across commits
can be read (and diffed) in one place.

Benchmarks with a known shape get a hand-written extractor for their
headline; anything else falls back to the largest ``speedup``-named
number found anywhere in its payload, so new benchmarks appear in the
table the moment they write JSON, extractor or not.

Run:  python scripts/bench_trajectory.py
"""

import json
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.reporting import markdown_table  # noqa: E402

RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def _speculative(payload: dict) -> tuple[str, str]:
    best = payload["best"]
    return (
        f"{payload['speedup']:.2f}x decode speedup",
        f"best at draft_alpha={best['draft_alpha']}, k={best['k']} "
        f"({best['acceptance_rate']:.0%} acceptance)",
    )


def _batched_sampling(payload: dict) -> tuple[str, str]:
    best = max(payload["kernel"]["points"], key=lambda p: p["speedup"])
    return (
        f"{best['speedup']:.2f}x sampler kernel",
        f"batch={best['batch']} vs per-row scalar loop",
    )


def _interleaved_prefill(payload: dict) -> tuple[str, str]:
    inline = payload["inline"]["resident_max_itl_ms"]
    budgeted = payload["budgeted"]["resident_max_itl_ms"]
    ratio = inline / budgeted if budgeted else float("inf")
    return (
        f"{ratio:.2f}x lower max ITL",
        f"resident stall {inline:.1f} -> {budgeted:.1f} ms under "
        f"step_budget={payload['budgeted']['step_budget']}",
    )


def _prefix_cache(payload: dict) -> tuple[str, str]:
    cached = payload["prefix_cache"]
    return (
        f"{cached['prefill_cache_fraction']:.0%} prompt tokens revived",
        f"{cached['prefill_tokens_revived']} tokens from cache across "
        f"{cached['revived_admissions']} admissions",
    )


def _serving_throughput(payload: dict) -> tuple[str, str]:
    best = max(payload["points"], key=lambda p: p["speedup_over_sequential"])
    return (
        f"{best['speedup_over_sequential']:.2f}x throughput",
        f"{best.get('label', 'best point')} vs sequential baseline",
    )


def _goodput(payload: dict) -> tuple[str, str]:
    ratios = {
        name: pair["deadline"]["goodput_tokens"]
        / pair["fifo"]["goodput_tokens"]
        for name, pair in payload["traces"].items()
    }
    best_name = max(ratios, key=ratios.get)
    shed = payload["traces"][best_name]["deadline"]["shed_requests"]
    factor = payload["workload"]["overload_factor"]
    return (
        f"{ratios[best_name]:.2f}x goodput",
        f"deadline vs fifo on {best_name} trace at {factor}x overload "
        f"({shed} requests shed)",
    )


EXTRACTORS = {
    "speculative": _speculative,
    "batched_sampling": _batched_sampling,
    "interleaved_prefill": _interleaved_prefill,
    "prefix_cache": _prefix_cache,
    "serving_throughput": _serving_throughput,
    "overload_goodput": _goodput,
}


def _max_speedup(node) -> float:
    """Largest number under any ``speedup``-prefixed key, recursively."""
    best = float("-inf")
    if isinstance(node, dict):
        for key, value in node.items():
            if key.startswith("speedup") and isinstance(value, (int, float)):
                best = max(best, float(value))
            else:
                best = max(best, _max_speedup(value))
    elif isinstance(node, list):
        for value in node:
            best = max(best, _max_speedup(value))
    return best


def _generic(payload: dict) -> tuple[str, str]:
    best = _max_speedup(payload)
    if best > float("-inf"):
        return f"{best:.2f}x speedup", "best speedup found in payload"
    return "n/a", "no speedup-like metric in payload"


def summarise(results_dir: Path = RESULTS_DIR) -> list[tuple[str, str, str, str]]:
    """One ``(benchmark, headline, detail, date)`` row per results JSON."""
    rows = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            rows.append((path.stem, "unreadable", str(path), "-"))
            continue
        name = payload.get("benchmark", path.stem)
        extractor = EXTRACTORS.get(name, _generic)
        try:
            headline, detail = extractor(payload)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            headline, detail = _generic(payload)
        stamp = datetime.fromtimestamp(
            path.stat().st_mtime, tz=timezone.utc
        ).date().isoformat()
        rows.append((name, headline, detail, stamp))
    return rows


def main() -> int:
    if not RESULTS_DIR.is_dir():
        print(f"no results directory at {RESULTS_DIR}; "
              "run the benchmarks first (CHECK_SLOW=1 scripts/check.sh)")
        return 1
    rows = summarise()
    if not rows:
        print(f"no results JSON under {RESULTS_DIR}; "
              "run the benchmarks first (CHECK_SLOW=1 scripts/check.sh)")
        return 1
    print(markdown_table(["benchmark", "headline", "detail", "date"], rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
