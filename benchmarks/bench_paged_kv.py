"""Paged vs fixed-slot KV geometry at an equal memory budget.

A fixed-slot store sizes every slot for the worst case -- the paged
cache's degenerate geometry ``page_size=max_seq_len, n_pages=n_slots``,
one page per slot -- so a KV memory budget of ``N * max_seq_len``
positions admits exactly ``N`` concurrent sequences no matter how short
they are.  Small pages spend the *same* budget page-by-page, so a mixed
short/long workload packs many short sequences around each long one.

This benchmark builds one fixed-geometry engine and one paged engine
whose KV arenas are byte-identical in size, drains the same short/long
workload through both, and checks:

1. the paged engine's peak concurrent batch is >= 2x the fixed one's
   (it is bounded by pages, not worst-case slots);
2. generated tokens are identical request-by-request (paging changes
   *where* K/V lives, never *what* is decoded);
3. for the same co-resident request set, paged KV bytes are <= half the
   fixed-slot bytes (:func:`repro.eval.memusage.compare_kv_footprint`);
4. batch=1 paged serving is token-identical to
   :func:`repro.core.engine.build_engine`.

Run:  python benchmarks/bench_paged_kv.py
or:   pytest benchmarks/bench_paged_kv.py -q -m slow -p no:cacheprovider
"""

import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.eval.memusage import compare_kv_footprint, format_kv_footprint
from repro.model.config import ModelConfig
from repro.model.weights import random_weights
from repro.serving import ContinuousBatchingScheduler, Request

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MAX_SEQ_LEN = 128
PAGE_SIZE = 16
FIXED_SLOTS = 4                       # budget = 4 * 128 = 512 positions
N_PAGES = FIXED_SLOTS * MAX_SEQ_LEN // PAGE_SIZE     # same 512 positions
PAGED_MAX_BATCH = 16

N_LONG = 2
LONG_PROMPT = 8
LONG_NEW = MAX_SEQ_LEN - LONG_PROMPT + 1    # worst case fills a slot: 128
N_SHORT = 20
SHORT_PROMPT = 4
SHORT_NEW = PAGE_SIZE - SHORT_PROMPT + 1    # worst case fills one page: 16


def bench_config() -> ModelConfig:
    return ModelConfig(
        name="paged-kv-bench",
        vocab_size=128,
        d_model=64,
        n_layers=2,
        n_heads=2,
        d_ff=128,
        max_seq_len=MAX_SEQ_LEN,
        dtype_bytes=4,
    )


def build_workload(vocab_size: int, seed: int = 3) -> list:
    """Long requests first (FIFO admits them), then a tail of shorts."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(N_LONG):
        prompt = tuple(int(t) for t in
                       rng.integers(1, vocab_size - 1, size=LONG_PROMPT))
        requests.append(Request(request_id=i, prompt_ids=prompt,
                                max_new_tokens=LONG_NEW))
    for i in range(N_SHORT):
        prompt = tuple(int(t) for t in
                       rng.integers(1, vocab_size - 1, size=SHORT_PROMPT))
        requests.append(Request(request_id=N_LONG + i, prompt_ids=prompt,
                                max_new_tokens=SHORT_NEW))
    return requests


def worst_case_positions(request: Request) -> int:
    return request.prompt_len + request.max_new_tokens - 1


def drain(engine, requests):
    scheduler = ContinuousBatchingScheduler(engine)
    for request in requests:
        scheduler.submit(request)
    return scheduler.run()


def run_comparison():
    """Drain the workload through budget-matched fixed and paged engines."""
    config = bench_config()
    weights = random_weights(config, seed=9)
    requests = build_workload(config.vocab_size)

    fixed_engine = build_batched_engine(
        weights, max_batch_size=FIXED_SLOTS, max_seq_len=MAX_SEQ_LEN,
        page_size=MAX_SEQ_LEN, n_pages=FIXED_SLOTS,
    )
    paged_engine = build_batched_engine(
        weights, max_batch_size=PAGED_MAX_BATCH, max_seq_len=MAX_SEQ_LEN,
        page_size=PAGE_SIZE, n_pages=N_PAGES,
    )
    assert paged_engine.cache.kv_bytes == fixed_engine.cache.kv_bytes, \
        "engines must share one KV memory budget"

    fixed_report = drain(fixed_engine, requests)
    paged_report = drain(paged_engine, requests)
    footprint = compare_kv_footprint(
        config, [worst_case_positions(r) for r in requests],
        max_seq_len=MAX_SEQ_LEN, page_size=PAGE_SIZE,
    )
    return config, weights, requests, fixed_report, paged_report, footprint


def mean_short_admission_tick(report) -> float:
    ticks = [c.admitted_step for c in report.completions
             if c.request_id >= N_LONG]
    return float(np.mean(ticks))


def check_comparison(requests, fixed_report, paged_report, footprint) -> None:
    """The acceptance properties of the paged cache."""
    # Same tokens out of both engines, request by request.
    fixed_out = {c.request_id: c.generated_ids
                 for c in fixed_report.completions}
    paged_out = {c.request_id: c.generated_ids
                 for c in paged_report.completions}
    assert fixed_out == paged_out, "paging changed decoded tokens"
    assert len(fixed_out) == len(requests)
    # Equal budget, >= 2x the concurrent sequences.
    assert fixed_report.peak_occupancy <= FIXED_SLOTS
    assert paged_report.peak_occupancy >= 2 * fixed_report.peak_occupancy, (
        f"paged peak {paged_report.peak_occupancy} < 2x fixed peak "
        f"{fixed_report.peak_occupancy}"
    )
    # Short requests stop queueing behind the worst-case slots: paging
    # admits the short tail much earlier.  (Total ticks to drain are the
    # same -- the longest request is the critical path either way.)
    assert mean_short_admission_tick(paged_report) < \
        0.5 * mean_short_admission_tick(fixed_report), (
        "paging did not shorten short-request queueing"
    )
    # Same co-resident set costs <= half the bytes paged.
    assert footprint.reduction_factor >= 2.0, (
        f"paged bytes only {footprint.reduction_factor:.2f}x below fixed"
    )
    assert paged_report.peak_pages_in_use <= paged_report.n_pages


def check_batch1_token_identical(config, weights) -> None:
    """Paged batch=1 serving emits exactly build_engine's tokens."""
    reference = build_engine(weights)
    engine = build_batched_engine(
        weights, max_batch_size=1, max_seq_len=MAX_SEQ_LEN,
        page_size=PAGE_SIZE,
    )
    scheduler = ContinuousBatchingScheduler(engine)
    rng = np.random.default_rng(17)
    requests = [
        Request(request_id=i,
                prompt_ids=tuple(int(t) for t in
                                 rng.integers(1, config.vocab_size - 1,
                                              size=3 + i)),
                max_new_tokens=40)
        for i in range(3)
    ]
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    got = {c.request_id: c.generated_ids for c in report.completions}
    for request in requests:
        ref = reference.generate(list(request.prompt_ids),
                                 max_new_tokens=40).generated_ids
        assert got[request.request_id] == ref, (
            f"request {request.request_id}: paged batch=1 diverged"
        )


def format_report(fixed_report, paged_report, footprint) -> str:
    budget_positions = footprint.page_size * paged_report.n_pages
    lines = [
        f"paged vs fixed KV at equal budget "
        f"({FIXED_SLOTS} x {MAX_SEQ_LEN} = {budget_positions} positions; "
        f"{N_LONG} long + {N_SHORT} short requests)",
        "",
        f"{'':>24}{'fixed':>10}{'paged':>10}",
        f"{'peak concurrent seqs':>24}"
        f"{fixed_report.peak_occupancy:>10}{paged_report.peak_occupancy:>10}",
        f"{'mean batch occupancy':>24}"
        f"{fixed_report.mean_batch_occupancy:>10.2f}"
        f"{paged_report.mean_batch_occupancy:>10.2f}",
        f"{'decode steps to drain':>24}"
        f"{fixed_report.decode_steps:>10}{paged_report.decode_steps:>10}",
        f"{'mean short admit tick':>24}"
        f"{mean_short_admission_tick(fixed_report):>10.1f}"
        f"{mean_short_admission_tick(paged_report):>10.1f}",
        f"{'peak pages in use':>24}{'-':>10}"
        f"{paged_report.peak_pages_in_use:>10}",
        f"{'mean page utilisation':>24}{'-':>10}"
        f"{paged_report.mean_page_utilisation:>10.1%}",
        "",
        format_kv_footprint(footprint),
    ]
    return "\n".join(lines)


def main() -> int:
    config, weights, requests, fixed_report, paged_report, footprint = \
        run_comparison()
    text = format_report(fixed_report, paged_report, footprint)
    print(text)
    check_comparison(requests, fixed_report, paged_report, footprint)
    check_batch1_token_identical(config, weights)
    print("\nall paged-KV checks passed (>= 2x concurrency and <= 0.5x "
          "bytes at equal budget; batch=1 token-identical to build_engine)")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "paged_kv.txt").write_text(text + "\n")
    return 0


@pytest.mark.slow
def test_paged_kv_smoke():
    """Pytest entry point mirroring the script run (tier-2 smoke)."""
    config, weights, requests, fixed_report, paged_report, footprint = \
        run_comparison()
    check_comparison(requests, fixed_report, paged_report, footprint)
    check_batch1_token_identical(config, weights)


if __name__ == "__main__":
    raise SystemExit(main())
