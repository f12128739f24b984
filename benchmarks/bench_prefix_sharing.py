"""Prefix-sharing paged KV vs unshared paging on a few-shot workload.

Few-shot prompting (the paper evaluates GSM8K 8-shot) puts the same
solved exemplars in front of every request, so a serving queue is full
of prompts sharing a long prefix.  Prefix sharing
(:meth:`repro.model.paged_kvcache.PagedKVCache.fork`) maps that prefix's
full pages once -- refcounted, copy-on-write -- instead of once per
sequence, and the correlation-aware scheduler co-schedules the sharers,
which also keeps their activation sign patterns aligned.

This benchmark drains one few-shot workload (built with
:func:`repro.workloads.fewshot.fewshot_set` over the GSM8K-like task)
through budget-matched paged engines and checks:

1. at an **equal page budget**, forked admission reaches >= 1.5x the
   unshared engine's peak concurrency, and the same co-resident set
   costs >= 1.5x fewer KV bytes
   (:func:`repro.eval.memusage.compare_shared_prefix_footprint`);
2. generated tokens are identical request-by-request (sharing changes
   where K/V lives and how much prefill runs, never what is decoded),
   and shared prefill positions are actually skipped;
3. the measured skip **intersection decays slower** than the
   uncorrelated ``skip^B`` prediction
   (:func:`repro.gpu.batching.batch_skip_fraction` at ``correlation=0``)
   and than an uncorrelated random-prompt control at the same occupancy;
4. batch=1 / unshared decode stays bit-identical to
   :func:`repro.core.engine.build_engine`.

Run:  python benchmarks/bench_prefix_sharing.py
or:   pytest benchmarks/bench_prefix_sharing.py -q -m slow -p no:cacheprovider
"""

import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.eval.memusage import (
    compare_shared_prefix_footprint,
    format_shared_prefix_footprint,
)
from repro.model.config import ModelConfig
from repro.model.tokenizer import CharTokenizer
from repro.model.weights import random_weights
from repro.serving import ContinuousBatchingScheduler, Request
from repro.workloads import fewshot, gsm8k_like

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MAX_SEQ_LEN = 160
PAGE_SIZE = 16
N_REQUESTS = 12
N_SHOTS = 6
MAX_NEW = 8
MAX_BATCH = 10
# Page budget for the equal-budget comparison: three unshared worst
# cases.  FIFO paging co-holds 3 requests; forked admission spends the
# same pages on one full request plus ~7 unshared tails.
BUDGET_PAGES = 21


def bench_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(
        name="prefix-share-bench",
        vocab_size=vocab_size,
        d_model=64,
        n_layers=2,
        n_heads=2,
        d_ff=128,
        max_seq_len=MAX_SEQ_LEN,
        dtype_bytes=4,
    )


def build_workload(tokenizer: CharTokenizer) -> tuple:
    """Few-shot requests sharing the exemplar prefix, plus its length."""
    samples = fewshot.fewshot_set(
        gsm8k_like.generate, N_REQUESTS, n_shots=N_SHOTS, seed=5
    )
    prefix_text = samples[0].prompt[:len(samples[0].prompt)
                                   - len(gsm8k_like.generate(1, seed=5)[0].prompt)]
    # All samples carry the same exemplar prefix by construction.
    assert all(s.prompt.startswith(prefix_text) for s in samples)
    requests = [
        Request(request_id=i,
                prompt_ids=tuple(tokenizer.encode(s.prompt)),
                max_new_tokens=MAX_NEW)
        for i, s in enumerate(samples)
    ]
    return requests, len(tokenizer.encode(prefix_text))


def build_uncorrelated_control(requests, vocab_size: int,
                               seed: int = 23) -> list:
    """Random prompts matching the few-shot lengths (no shared prefix)."""
    rng = np.random.default_rng(seed)
    return [
        Request(request_id=r.request_id,
                prompt_ids=tuple(int(t) for t in
                                 rng.integers(3, vocab_size,
                                              size=r.prompt_len)),
                max_new_tokens=r.max_new_tokens)
        for r in requests
    ]


def drain(weights, requests, n_pages, prefix_sharing, reorder_window=0):
    engine = build_batched_engine(
        weights, max_batch_size=MAX_BATCH, max_seq_len=MAX_SEQ_LEN,
        page_size=PAGE_SIZE, n_pages=n_pages,
        prefix_sharing=prefix_sharing,
    )
    scheduler = ContinuousBatchingScheduler(
        engine, reorder_window=reorder_window
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    assert engine.cache.n_pages_in_use == 0, "pages leaked"
    assert engine.cache.pool._reserved == 0, "reservations leaked"
    return report


def worst_case_positions(request: Request) -> int:
    return request.prompt_len + request.max_new_tokens - 1


def run_comparison():
    tokenizer = CharTokenizer(gsm8k_like.ALPHABET)
    config = bench_config(tokenizer.vocab_size)
    weights = random_weights(config, seed=9)
    requests, prefix_len = build_workload(tokenizer)

    # Equal page budget: unshared FIFO paging vs forked admission.
    unshared = drain(weights, requests, BUDGET_PAGES, prefix_sharing=False)
    shared = drain(weights, requests, BUDGET_PAGES, prefix_sharing=True,
                   reorder_window=MAX_BATCH)
    footprint = compare_shared_prefix_footprint(
        config, [worst_case_positions(r) for r in requests],
        shared_prefix=prefix_len, page_size=PAGE_SIZE,
    )

    # Ample budget, same occupancy: correlated few-shot workload vs an
    # uncorrelated random-prompt control of identical lengths.
    ample = N_REQUESTS * shared.n_pages      # never page-bound
    correlated = drain(weights, requests, ample, prefix_sharing=True,
                       reorder_window=MAX_BATCH)
    control = drain(weights,
                    build_uncorrelated_control(requests,
                                               tokenizer.vocab_size),
                    ample, prefix_sharing=False)
    return (config, weights, requests, prefix_len,
            unshared, shared, footprint, correlated, control)


def check_equal_budget(requests, unshared, shared, footprint) -> None:
    unshared_out = {c.request_id: c.generated_ids
                    for c in unshared.completions}
    shared_out = {c.request_id: c.generated_ids for c in shared.completions}
    assert unshared_out == shared_out, "prefix sharing changed decoded tokens"
    assert len(shared_out) == len(requests)
    assert shared.peak_occupancy >= 1.5 * unshared.peak_occupancy, (
        f"shared peak {shared.peak_occupancy} < 1.5x unshared peak "
        f"{unshared.peak_occupancy}"
    )
    assert footprint.reduction_factor >= 1.5, (
        f"shared co-resident set only {footprint.reduction_factor:.2f}x "
        f"below unshared"
    )
    assert shared.forked_admissions >= len(requests) // 2
    assert shared.prefill_tokens_saved > 0
    assert shared.prefill_tokens + shared.prefill_tokens_saved == \
        unshared.prefill_tokens, "saved + run prefill must cover every prompt"
    assert shared.peak_shared_pages > 0
    assert shared.peak_pages_in_use <= BUDGET_PAGES


def check_correlation(correlated, control) -> None:
    """Shared-prefix co-scheduling must beat the uncorrelated decay."""
    assert correlated.intersection_skip > \
        2.0 * correlated.expected_uncorrelated_skip, (
        f"intersection {correlated.intersection_skip:.4f} does not decay "
        f"slower than skip^B {correlated.expected_uncorrelated_skip:.4f}"
    )
    # Same request lengths and occupancy, uncorrelated prompts: the
    # realised intersection must sit clearly below the correlated one.
    assert abs(correlated.mean_batch_occupancy
               - control.mean_batch_occupancy) < 1.0
    assert correlated.intersection_skip > 1.2 * control.intersection_skip, (
        f"correlated intersection {correlated.intersection_skip:.4f} not "
        f"above uncorrelated control {control.intersection_skip:.4f}"
    )


def check_batch1_bit_identical(config, weights, requests) -> None:
    """Batch=1 serving with sharing enabled emits build_engine's tokens."""
    reference = build_engine(weights)
    engine = build_batched_engine(
        weights, max_batch_size=1, max_seq_len=MAX_SEQ_LEN,
        page_size=PAGE_SIZE, prefix_sharing=True,
    )
    scheduler = ContinuousBatchingScheduler(engine, reorder_window=4)
    for request in requests[:3]:
        scheduler.submit(request)
    report = scheduler.run()
    got = {c.request_id: c.generated_ids for c in report.completions}
    for request in requests[:3]:
        ref = reference.generate(list(request.prompt_ids),
                                 max_new_tokens=MAX_NEW).generated_ids
        assert got[request.request_id] == ref, (
            f"request {request.request_id}: batch=1 sharing diverged"
        )


def format_report(prefix_len, unshared, shared, footprint,
                  correlated, control) -> str:
    lines = [
        f"prefix sharing vs unshared paging at equal budget "
        f"({BUDGET_PAGES} pages of {PAGE_SIZE}; {N_REQUESTS} few-shot "
        f"requests, {prefix_len}-token shared prefix)",
        "",
        f"{'':>26}{'unshared':>10}{'shared':>10}",
        f"{'peak concurrent seqs':>26}"
        f"{unshared.peak_occupancy:>10}{shared.peak_occupancy:>10}",
        f"{'mean batch occupancy':>26}"
        f"{unshared.mean_batch_occupancy:>10.2f}"
        f"{shared.mean_batch_occupancy:>10.2f}",
        f"{'prefill tokens run':>26}"
        f"{unshared.prefill_tokens:>10}{shared.prefill_tokens:>10}",
        f"{'prefill tokens saved':>26}{'-':>10}"
        f"{shared.prefill_tokens_saved:>10}",
        f"{'forked admissions':>26}{'-':>10}"
        f"{shared.forked_admissions:>10}",
        f"{'peak shared pages':>26}{'-':>10}"
        f"{shared.peak_shared_pages:>10}",
        "",
        format_shared_prefix_footprint(footprint),
        "",
        f"intersection decay at occupancy "
        f"{correlated.mean_batch_occupancy:.1f} (ample budget):",
        f"{'few-shot, shared':>26}{correlated.intersection_skip:>10.4f}",
        f"{'uncorrelated control':>26}{control.intersection_skip:>10.4f}",
        f"{'skip^B prediction':>26}"
        f"{correlated.expected_uncorrelated_skip:>10.4f}",
    ]
    return "\n".join(lines)


def main() -> int:
    (config, weights, requests, prefix_len,
     unshared, shared, footprint, correlated, control) = run_comparison()
    text = format_report(prefix_len, unshared, shared, footprint,
                         correlated, control)
    print(text)
    check_equal_budget(requests, unshared, shared, footprint)
    check_correlation(correlated, control)
    check_batch1_bit_identical(config, weights, requests)
    print("\nall prefix-sharing checks passed (>= 1.5x concurrency and "
          ">= 1.5x fewer KV bytes at equal budget; intersection decays "
          "slower than skip^B; batch=1 bit-identical to build_engine)")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "prefix_sharing.txt").write_text(text + "\n")
    return 0


@pytest.mark.slow
def test_prefix_sharing_smoke():
    """Pytest entry point mirroring the script run (tier-2 smoke)."""
    (config, weights, requests, prefix_len,
     unshared, shared, footprint, correlated, control) = run_comparison()
    check_equal_budget(requests, unshared, shared, footprint)
    check_correlation(correlated, control)
    check_batch1_bit_identical(config, weights, requests)


if __name__ == "__main__":
    raise SystemExit(main())
