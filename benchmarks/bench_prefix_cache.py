"""Cross-request prefix cache vs resident-only sharing on bursty traffic.

Prefix sharing (``bench_prefix_sharing.py``) forks a *resident* donor's
pages, so it only helps while same-prefix requests overlap in time.  A
bursty few-shot workload -- one request at a time, each finishing before
the next arrives -- defeats it completely: by the time a request is
admitted, its prefix twin has already retired and freed its pages, so
the resident ``PrefixIndex`` matches nothing and the shared exemplar
prefix is re-prefilled every single burst.

The cross-request prefix cache (``cache_pages > 0``,
:class:`repro.model.paged_kvcache.PrefixCache`) parks a retiring
sequence's page-aligned prompt-prefix pages in an LRU instead of freeing
them; the next burst *revives* those pages (re-pins them into its slot)
and prefills only the suffix.

This benchmark drains one bursty few-shot workload (non-overlapping
lifetimes by construction) at the **same page budget** twice and checks:

1. with ``cache_pages = 0`` (today's resident-only behaviour) ~0% of
   prompt tokens are served from reused KV;
2. with the prefix cache, >= 50% of all prompt tokens are revived from
   cache rather than re-prefilled, and prefill wall-clock drops;
3. generated tokens are identical request-by-request between the two
   runs (reviving changes where K/V comes from, never what is decoded),
   and -- since bursty decode runs at batch 1 -- both are bit-identical
   to :func:`repro.core.engine.build_engine`.

Results land as JSON in ``benchmarks/results/prefix_cache.json``.

Run:  python benchmarks/bench_prefix_cache.py
or:   pytest benchmarks/bench_prefix_cache.py -q -m slow -p no:cacheprovider
"""

import json
import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from repro.core.engine import build_batched_engine, build_engine
from repro.model.config import ModelConfig
from repro.model.tokenizer import CharTokenizer
from repro.model.weights import random_weights
from repro.serving import ContinuousBatchingScheduler, Request
from repro.workloads import fewshot, gsm8k_like

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MAX_SEQ_LEN = 160
PAGE_SIZE = 16
N_REQUESTS = 10
N_SHOTS = 6
MAX_NEW = 8
MAX_BATCH = 4
# Page budget: enough for one resident worst case (the bursts never
# overlap) plus the cached prefix -- far below N_REQUESTS worst cases.
BUDGET_PAGES = 16
CACHE_PAGES = 8


def bench_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(
        name="prefix-cache-bench",
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
    assert all(s.prompt.startswith(prefix_text) for s in samples)
    requests = [
        Request(request_id=i,
                prompt_ids=tuple(tokenizer.encode(s.prompt)),
                max_new_tokens=MAX_NEW)
        for i, s in enumerate(samples)
    ]
    return requests, len(tokenizer.encode(prefix_text))


def drain_bursty(weights, requests, cache_pages):
    """One request at a time: each drains fully before the next arrives.

    The workload the ROADMAP names: same-prefix requests whose
    lifetimes never overlap, so resident-only matching gets 0 donors.
    """
    engine = build_batched_engine(
        weights, max_batch_size=MAX_BATCH, max_seq_len=MAX_SEQ_LEN,
        page_size=PAGE_SIZE, n_pages=BUDGET_PAGES,
        prefix_sharing=True, cache_pages=cache_pages,
    )
    scheduler = ContinuousBatchingScheduler(engine)
    for request in requests:
        scheduler.submit(request)
        scheduler.run()
    report = scheduler.report
    assert engine.cache.n_pages_in_use == 0, "pages leaked"
    assert engine.cache.pool._reserved == 0, "reservations leaked"
    return report


def run_comparison():
    tokenizer = CharTokenizer(gsm8k_like.ALPHABET)
    config = bench_config(tokenizer.vocab_size)
    weights = random_weights(config, seed=9)
    requests, prefix_len = build_workload(tokenizer)
    cold = drain_bursty(weights, requests, cache_pages=0)
    cached = drain_bursty(weights, requests, cache_pages=CACHE_PAGES)
    return config, weights, requests, prefix_len, cold, cached


def check_prefill_savings(requests, cold, cached) -> None:
    # Resident-only sharing saves ~0% on non-overlapping bursts.
    assert cold.forked_admissions == 0
    assert cold.revived_admissions == 0
    assert cold.prefill_tokens_saved == 0
    assert cold.prefill_reuse_fraction == 0.0
    # The cache revives every burst after the first...
    assert cached.revived_admissions == len(requests) - 1, (
        f"only {cached.revived_admissions} of {len(requests) - 1} "
        f"post-warmup bursts revived"
    )
    # ...covering at least half of all prompt tokens (acceptance bar).
    assert cached.prefill_cache_fraction >= 0.5, (
        f"only {cached.prefill_cache_fraction:.0%} of prompt tokens "
        f"served from cache"
    )
    # Revived + run prefill covers exactly the same prompt positions.
    assert cached.prefill_tokens + cached.revived_tokens == \
        cold.prefill_tokens
    assert cached.peak_pages_in_use <= BUDGET_PAGES
    assert cached.peak_cached_pages <= CACHE_PAGES


def check_tokens_identical(config, weights, requests, cold, cached) -> None:
    """Cached tokens == cold tokens == build_engine (bursty -> batch 1)."""
    cold_out = {c.request_id: c.generated_ids for c in cold.completions}
    cached_out = {c.request_id: c.generated_ids for c in cached.completions}
    assert cold_out == cached_out, "prefix cache changed decoded tokens"
    assert len(cached_out) == len(requests)
    reference = build_engine(weights)
    for request in requests[:3]:
        ref = reference.generate(list(request.prompt_ids),
                                 max_new_tokens=MAX_NEW).generated_ids
        assert cold_out[request.request_id] == ref, (
            f"request {request.request_id}: cache_pages=0 diverged from "
            f"build_engine"
        )
        assert cached_out[request.request_id] == ref, (
            f"request {request.request_id}: revived decode diverged from "
            f"build_engine"
        )


def report_dict(report) -> dict:
    return {
        "prefill_tokens_run": report.prefill_tokens,
        "prefill_tokens_saved_fork": report.prefill_tokens_saved,
        "prefill_tokens_revived": report.revived_tokens,
        "prefill_cache_fraction": round(report.prefill_cache_fraction, 4),
        "forked_admissions": report.forked_admissions,
        "revived_admissions": report.revived_admissions,
        "cache_evictions": report.cache_evictions,
        "peak_cached_pages": report.peak_cached_pages,
        "peak_pages_in_use": report.peak_pages_in_use,
        "prefill_seconds": round(report.prefill_seconds, 4),
        "tokens_generated": report.tokens_generated,
    }


def format_report(prefix_len, cold, cached) -> str:
    speedup = (cold.prefill_seconds / cached.prefill_seconds
               if cached.prefill_seconds else float("inf"))
    lines = [
        f"cross-request prefix cache on bursty few-shot traffic "
        f"({N_REQUESTS} non-overlapping requests, {prefix_len}-token "
        f"shared prefix, {BUDGET_PAGES}-page budget, cache_pages="
        f"{CACHE_PAGES})",
        "",
        f"{'':>28}{'cache_pages=0':>14}{'cached':>10}",
        f"{'prefill tokens run':>28}"
        f"{cold.prefill_tokens:>14}{cached.prefill_tokens:>10}",
        f"{'prompt tokens revived':>28}"
        f"{cold.revived_tokens:>14}{cached.revived_tokens:>10}",
        f"{'served-from-cache fraction':>28}"
        f"{cold.prefill_cache_fraction:>14.0%}"
        f"{cached.prefill_cache_fraction:>10.0%}",
        f"{'revived admissions':>28}"
        f"{cold.revived_admissions:>14}{cached.revived_admissions:>10}",
        f"{'cache evictions':>28}"
        f"{cold.cache_evictions:>14}{cached.cache_evictions:>10}",
        f"{'peak cached pages':>28}"
        f"{cold.peak_cached_pages:>14}{cached.peak_cached_pages:>10}",
        f"{'prefill seconds':>28}"
        f"{cold.prefill_seconds:>14.3f}{cached.prefill_seconds:>10.3f}"
        f"   ({speedup:.1f}x)",
    ]
    return "\n".join(lines)


def write_json(prefix_len, cold, cached) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "prefix_cache.json"
    payload = {
        "benchmark": "prefix_cache",
        "workload": {
            "n_requests": N_REQUESTS,
            "n_shots": N_SHOTS,
            "shared_prefix_tokens": prefix_len,
            "max_new_tokens": MAX_NEW,
            "page_size": PAGE_SIZE,
            "budget_pages": BUDGET_PAGES,
            "cache_pages": CACHE_PAGES,
            "bursty": "each request drains before the next is submitted",
        },
        "resident_only": report_dict(cold),
        "prefix_cache": report_dict(cached),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main() -> int:
    config, weights, requests, prefix_len, cold, cached = run_comparison()
    text = format_report(prefix_len, cold, cached)
    print(text)
    check_prefill_savings(requests, cold, cached)
    check_tokens_identical(config, weights, requests, cold, cached)
    print(f"\nall prefix-cache checks passed (>= 50% of prompt tokens "
          f"served from cache on non-overlapping bursts vs 0% resident-"
          f"only; tokens identical to cold prefill and build_engine)")
    path = write_json(prefix_len, cold, cached)
    print(f"results -> {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"results -> {path}")
    return 0


@pytest.mark.slow
def test_prefix_cache_smoke():
    """Pytest entry point mirroring the script run (tier-2 smoke)."""
    config, weights, requests, prefix_len, cold, cached = run_comparison()
    check_prefill_savings(requests, cold, cached)
    check_tokens_identical(config, weights, requests, cold, cached)


if __name__ == "__main__":
    raise SystemExit(main())
