#!/bin/sh
# Tier-1 gate: the exact verify command from ROADMAP.md.
# Usage: scripts/check.sh [extra pytest args]
#   scripts/check.sh                 # fast tier-1 suite
#   scripts/check.sh -m slow         # long-running tests only
#   scripts/check.sh -m ""           # everything
#   CHECK_SLOW=1 scripts/check.sh    # tier-1 + slow benchmark smokes
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q "$@"
# Serving + paged-KV suites (including the fork/COW/prefix-cache
# property suite) run explicitly on the default (tier-1) invocation:
# collection filters or testpath drift must never silently drop the
# serving layer's coverage.  Skipped when the caller passed their own
# pytest args (-m slow etc.) to keep those selections exact.
if [ "$#" -eq 0 ]; then
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q \
        tests/test_serving.py tests/test_paged_kv.py \
        tests/test_paged_properties.py tests/test_scheduler_properties.py \
        tests/test_batched_sampling.py tests/test_speculative.py \
        tests/test_loadgen.py tests/test_slo_scheduling.py \
        tests/test_bench_trajectory.py tests/test_analysis.py
    # Invariant linter (rule catalog: docs/analysis.md).  Subsumes the
    # old docs-freshness heredoc: the docs-knobs rule fails the gate if
    # an engine/scheduler knob is missing from docs/serving.md, and the
    # telemetry-docs rule if a ServeReport field goes undocumented or
    # unexercised.  Also enforces RNG/clock purity, slot/page release
    # pairing, and hot-path vectorisation.
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.analysis
fi
# Slow smokes of the paged-KV benchmark (equal-budget >= 2x concurrency
# and batch=1 token-identity), the prefix-sharing benchmark (>= 1.5x
# concurrency from forked admission, intersection decays slower than
# skip^B), the prefix-cache benchmark (>= 50% of prompt tokens revived
# on bursty non-overlapping traffic, tokens identical to cold prefill),
# the interleaved-prefill benchmark (budgeted ticks bound the worst tick
# feed to step_budget and shave the residents' max inter-token stall,
# tokens identical to inline prefill), and the batched-sampling
# benchmark (one vectorised sampler call beats the per-row scalar loop
# at batch >= 4, draws identical, serving tokens invariant to batch
# composition), and the speculative-decoding benchmark (draft_alpha x k
# sweep, tokens identical to speculation=None at every point, best
# point >= 1.3x decode wall-clock; JSON into benchmarks/results/), and
# the overload-goodput benchmark (seeded Poisson + bursty traces at
# 1.5x measured capacity: deadline admission strictly out-goodputs
# fifo on the identical trace, and fifo stays bit-identical with the
# SLOs stripped); opt in because they decode real workloads.
if [ "${CHECK_SLOW:-0}" = "1" ]; then
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q \
        -m slow -p no:cacheprovider benchmarks/bench_paged_kv.py \
        benchmarks/bench_prefix_sharing.py \
        benchmarks/bench_prefix_cache.py \
        benchmarks/bench_interleaved_prefill.py \
        benchmarks/bench_batched_sampling.py \
        benchmarks/bench_speculative.py \
        benchmarks/bench_overload_goodput.py
fi
