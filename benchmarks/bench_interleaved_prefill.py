"""Budgeted-tick prefill piggybacking vs inline admission prefill.

With ``step_budget=0`` (the historical behaviour) admitting a request
runs its whole prompt prefill inside one scheduler tick, so every
resident sequence stalls for the full prefill before its next token: a
160-token prompt arriving mid-decode shows up as one giant inter-token
gap on every resident.  With ``step_budget=b`` the tick feeds at most
~``b`` tokens total -- resident decodes first, then pending prefill
chunks (Sarathi-style piggybacking through the chunked-GEMM prefill
path) -- so the same arrival is spread over several ticks and no
resident ever waits longer than a budget's worth of prefill.

This benchmark decodes three short-prompt residents, drops a 160-token
prompt into the queue mid-decode, and drains the same workload twice
(inline vs ``step_budget=32``), checking:

1. every request's generated tokens are identical between the two runs
   (the budget changes *when* prefill happens, never what is decoded);
2. the inline run's worst single tick fed the whole 160-token prompt,
   the budgeted run's worst tick stayed within the budget
   (``peak_tick_prefill_tokens``, the structural stall bound);
3. the residents' worst wall-clock inter-token gap shrinks accordingly
   (generous factor -- wall-clock, so thread noise gets headroom).

Results land as JSON in ``benchmarks/results/interleaved_prefill.json``.

Run:  python benchmarks/bench_interleaved_prefill.py
or:   pytest benchmarks/bench_interleaved_prefill.py -q -m slow -p no:cacheprovider
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
from repro.serving import ContinuousBatchingScheduler, Request

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MAX_SEQ_LEN = 208
PAGE_SIZE = 16
N_PAGES = 28
MAX_BATCH = 4
PREFILL_CHUNK = 16
STEP_BUDGET = 32

N_RESIDENTS = 3
RESIDENT_PROMPT = 12
RESIDENT_NEW = 40
LONG_PROMPT = 160
LONG_NEW = 8
ARRIVAL_TICK = 5          # residents decode this many ticks before arrival


def bench_config() -> ModelConfig:
    return ModelConfig(
        name="interleaved-prefill-bench",
        vocab_size=64,
        d_model=64,
        n_layers=2,
        n_heads=2,
        d_ff=128,
        max_seq_len=MAX_SEQ_LEN,
        dtype_bytes=4,
    )


def build_workload() -> tuple:
    """``(residents, long_request)`` with deterministic prompts."""
    rng = np.random.default_rng(31)
    residents = [
        Request(
            request_id=i,
            prompt_ids=tuple(int(t) for t in
                             rng.integers(1, 64, size=RESIDENT_PROMPT)),
            max_new_tokens=RESIDENT_NEW,
        )
        for i in range(N_RESIDENTS)
    ]
    long_request = Request(
        request_id=N_RESIDENTS,
        prompt_ids=tuple(int(t) for t in
                         rng.integers(1, 64, size=LONG_PROMPT)),
        max_new_tokens=LONG_NEW,
    )
    return residents, long_request


def drain_interleaved(weights, residents, long_request, step_budget):
    """Decode the residents, submit the long prompt mid-run, drain."""
    engine = build_batched_engine(
        weights, max_batch_size=MAX_BATCH, max_seq_len=MAX_SEQ_LEN,
        page_size=PAGE_SIZE, n_pages=N_PAGES,
        prefill_chunk=PREFILL_CHUNK,
    )
    scheduler = ContinuousBatchingScheduler(engine, step_budget=step_budget)
    for request in residents:
        scheduler.submit(request)
    for _ in range(ARRIVAL_TICK):
        scheduler.step()
    scheduler.submit(long_request)
    report = scheduler.run()
    assert engine.cache.n_pages_in_use == 0, "pages leaked"
    assert engine.cache.pool._reserved == 0, "reservations leaked"
    return report


def resident_max_itl(report) -> float:
    """Worst inter-token gap any *resident* request observed."""
    gaps = [
        gap
        for c in report.completions if c.request_id < N_RESIDENTS
        for gap in c.itl_seconds
    ]
    return max(gaps)


def run_comparison():
    weights = random_weights(bench_config(), seed=13)
    residents, long_request = build_workload()
    inline = drain_interleaved(weights, residents, long_request,
                               step_budget=0)
    budgeted = drain_interleaved(weights, residents, long_request,
                                 step_budget=STEP_BUDGET)
    return residents, long_request, inline, budgeted


def check_tokens_identical(inline, budgeted) -> None:
    inline_out = {c.request_id: c.generated_ids for c in inline.completions}
    budget_out = {c.request_id: c.generated_ids
                  for c in budgeted.completions}
    assert inline_out == budget_out, "step budget changed decoded tokens"
    assert len(inline_out) == N_RESIDENTS + 1


def check_stall_bound(inline, budgeted) -> None:
    # Structural bound: the inline run fed the whole long prompt in one
    # tick; the budgeted run never fed more than the budget per tick.
    assert inline.peak_tick_prefill_tokens >= LONG_PROMPT
    assert budgeted.peak_tick_prefill_tokens <= STEP_BUDGET, (
        f"tick fed {budgeted.peak_tick_prefill_tokens} prefill tokens, "
        f"budget is {STEP_BUDGET}"
    )
    assert budgeted.piggybacked_chunks > 0
    assert budgeted.piggybacked_tokens == \
        LONG_PROMPT + N_RESIDENTS * RESIDENT_PROMPT
    # Wall-clock: the residents' worst stall shrinks with the per-tick
    # feed.  The structural ratio is LONG_PROMPT / STEP_BUDGET = 5x;
    # demand only 30% shaved so scheduler noise cannot flake the check.
    assert resident_max_itl(budgeted) < 0.7 * resident_max_itl(inline), (
        f"budgeted worst resident stall {resident_max_itl(budgeted):.4f}s "
        f"not below 0.7x inline {resident_max_itl(inline):.4f}s"
    )


def report_dict(report, label) -> dict:
    return {
        "label": label,
        "step_budget": report.step_budget,
        "peak_tick_prefill_tokens": report.peak_tick_prefill_tokens,
        "piggybacked_chunks": report.piggybacked_chunks,
        "piggybacked_tokens": report.piggybacked_tokens,
        "resident_max_itl_ms": round(resident_max_itl(report) * 1e3, 3),
        "itl_p99_ms": round(report.itl_seconds_percentile(99) * 1e3, 3),
        "ttft_p50_ms": round(report.ttft_seconds_percentile(50) * 1e3, 3),
        "prefill_seconds": round(report.prefill_seconds, 4),
        "decode_seconds": round(report.decode_seconds, 4),
        "tokens_generated": report.tokens_generated,
    }


def format_report(inline, budgeted) -> str:
    rows = [("inline", inline), (f"budget={STEP_BUDGET}", budgeted)]
    lines = [
        f"interleaved prefill: {N_RESIDENTS} residents decoding, "
        f"{LONG_PROMPT}-token prompt arriving at tick {ARRIVAL_TICK} "
        f"(prefill_chunk={PREFILL_CHUNK})",
        "",
        f"{'':>16}{'peak tick feed':>16}{'chunks':>8}"
        f"{'resident max ITL':>18}{'ITL p99':>10}",
    ]
    for label, report in rows:
        lines.append(
            f"{label:>16}{report.peak_tick_prefill_tokens:>16}"
            f"{report.piggybacked_chunks:>8}"
            f"{resident_max_itl(report) * 1e3:>16.2f}ms"
            f"{report.itl_seconds_percentile(99) * 1e3:>8.2f}ms"
        )
    return "\n".join(lines)


def write_json(inline, budgeted) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "interleaved_prefill.json"
    payload = {
        "benchmark": "interleaved_prefill",
        "workload": {
            "n_residents": N_RESIDENTS,
            "resident_prompt_tokens": RESIDENT_PROMPT,
            "resident_max_new": RESIDENT_NEW,
            "long_prompt_tokens": LONG_PROMPT,
            "long_max_new": LONG_NEW,
            "arrival_tick": ARRIVAL_TICK,
            "prefill_chunk": PREFILL_CHUNK,
            "step_budget": STEP_BUDGET,
            "page_size": PAGE_SIZE,
            "n_pages": N_PAGES,
        },
        "inline": report_dict(inline, "inline"),
        "budgeted": report_dict(budgeted, f"budget={STEP_BUDGET}"),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main() -> int:
    residents, long_request, inline, budgeted = run_comparison()
    print(format_report(inline, budgeted))
    check_tokens_identical(inline, budgeted)
    check_stall_bound(inline, budgeted)
    print(f"\nall interleaved-prefill checks passed (tokens identical; "
          f"worst tick feed {inline.peak_tick_prefill_tokens} -> "
          f"{budgeted.peak_tick_prefill_tokens} tokens under "
          f"step_budget={STEP_BUDGET})")
    path = write_json(inline, budgeted)
    print(f"results -> {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"results -> {path}")
    return 0


@pytest.mark.slow
def test_interleaved_prefill_smoke():
    """Pytest entry point mirroring the script run (tier-2 smoke)."""
    residents, long_request, inline, budgeted = run_comparison()
    check_tokens_identical(inline, budgeted)
    check_stall_bound(inline, budgeted)


if __name__ == "__main__":
    raise SystemExit(main())
