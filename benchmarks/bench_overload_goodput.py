"""Goodput under overload: FIFO vs deadline admission on seeded traffic.

Every serving number before PR 10 assumed a drained queue; this
benchmark measures what the scheduler does when traffic *exceeds*
capacity.  It calibrates the engine's service rate (requests/tick) by
draining a calibration batch, then replays seeded arrival traces at
``OVERLOAD_FACTOR`` times that rate -- a Poisson trace and a bursty
on/off trace, both from :mod:`repro.serving.loadgen`, shaped by the
:mod:`repro.workloads.scenarios` mix (chat / few-shot fleet /
summarise, each carrying its class SLO) -- through the same engine
geometry under ``admission="fifo"`` and ``admission="deadline"``.

Two strict (non-statistical -- the traces are seeded and the clock is
the tick counter) gates:

1. **Deadline wins under overload**: on the identical trace, deadline
   admission yields *strictly more* ``goodput_tokens`` than FIFO, for
   both arrival processes.  FIFO burns decode capacity on requests
   whose TTFT deadlines passed while queued; deadline admission sheds
   them and spends the freed capacity on still-feasible arrivals.
2. **SLO machinery is pay-for-use**: under ``admission="fifo"`` the
   per-request generated tokens are bit-identical to the same trace
   with every SLO stripped -- attaching SLO contracts without turning
   on deadline admission changes telemetry only, never decoding.

Results land as JSON in ``benchmarks/results/goodput.json``.

Run:  python benchmarks/bench_overload_goodput.py
or:   pytest benchmarks/bench_overload_goodput.py -q -m slow -p no:cacheprovider
"""

import json
import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from repro.core.predictor import SparseInferPredictor
from repro.model.config import ModelConfig
from repro.model.weights import random_weights
from repro.serving import (
    ContinuousBatchingScheduler,
    LoadGenerator,
    OnOffProcess,
    PoissonProcess,
    Request,
    run_trace,
)
from repro.serving.engine import BatchedEngine
from repro.workloads.scenarios import default_mix, scenario_tokenizer

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MAX_SEQ_LEN = 192
PAGE_SIZE = 16
N_PAGES = 96
MAX_BATCH = 4

N_CALIBRATION = 40        # drained all-at-once to measure service rate
N_REQUESTS = 60           # per overload trace
OVERLOAD_FACTOR = 1.5     # arrival rate / measured service rate
TRACE_SEED = 7
# On/off shape: same mean rate as the Poisson trace, but delivered in
# bursts at 6x the mean with long idle gaps (duty cycle 1/6).
BURST_MULTIPLIER = 6.0
MEAN_ON_SECONDS = 8.0


def bench_config() -> ModelConfig:
    return ModelConfig(
        name="overload-goodput-bench",
        vocab_size=scenario_tokenizer().vocab_size,
        d_model=32,
        n_layers=2,
        n_heads=2,
        d_ff=64,
        max_seq_len=MAX_SEQ_LEN,
        dtype_bytes=4,
    )


def make_scheduler(weights, predictor, admission):
    engine = BatchedEngine(
        weights, predictor=predictor,
        max_batch_size=MAX_BATCH, page_size=PAGE_SIZE, n_pages=N_PAGES,
    )
    return ContinuousBatchingScheduler(engine, admission=admission)


def calibrate_capacity(weights, predictor) -> float:
    """Service rate in requests/tick: drain a batch submitted at once."""
    factory = default_mix().factory()
    rng = np.random.default_rng(0)
    scheduler = make_scheduler(weights, predictor, "fifo")
    for i in range(N_CALIBRATION):
        scheduler.submit(factory(rng, i))
    scheduler.run()
    return N_CALIBRATION / scheduler.step_count


def build_traces(capacity: float) -> dict:
    """Seeded Poisson + bursty traces at OVERLOAD_FACTOR x capacity."""
    rate = OVERLOAD_FACTOR * capacity
    duty = 1.0 / BURST_MULTIPLIER
    processes = {
        "poisson": PoissonProcess(rate=rate),
        "onoff": OnOffProcess(
            burst_rate=BURST_MULTIPLIER * rate,
            mean_on=MEAN_ON_SECONDS,
            mean_off=MEAN_ON_SECONDS * (1.0 - duty) / duty,
        ),
    }
    return {
        name: LoadGenerator(
            process, default_mix().factory(), seed=TRACE_SEED
        ).trace(N_REQUESTS)
        for name, process in processes.items()
    }


def replay(weights, predictor, trace, admission):
    scheduler = make_scheduler(weights, predictor, admission)
    report = run_trace(scheduler, trace, ticks_per_second=1.0)
    assert scheduler.engine.cache.n_pages_in_use == 0, "pages leaked"
    return report


def strip_slos(trace) -> list:
    return [
        type(entry)(time=entry.time, request=Request(
            request_id=entry.request.request_id,
            prompt_ids=entry.request.prompt_ids,
            max_new_tokens=entry.request.max_new_tokens,
            stop_ids=entry.request.stop_ids,
            priority=entry.request.priority,
            sampling=entry.request.sampling,
            slo=None,
        ))
        for entry in trace
    ]


def check_deadline_wins(name, fifo, deadline) -> None:
    assert deadline.goodput_tokens > fifo.goodput_tokens, (
        f"{name}: deadline admission goodput {deadline.goodput_tokens} "
        f"not strictly above fifo {fifo.goodput_tokens} at "
        f"{OVERLOAD_FACTOR}x overload"
    )
    assert deadline.shed_requests > 0, f"{name}: overload never shed"
    for report in (fifo, deadline):
        assert report.slo_met_requests + report.slo_missed_requests \
            + report.shed_requests == len(report.completions)


def check_fifo_bit_identical(name, fifo, plain) -> None:
    with_slo = {c.request_id: tuple(c.generated_ids)
                for c in fifo.completions}
    stripped = {c.request_id: tuple(c.generated_ids)
                for c in plain.completions}
    assert with_slo == stripped, (
        f"{name}: attaching SLOs changed fifo-served tokens"
    )
    assert fifo.shed_requests == 0, f"{name}: fifo admission shed"


def report_dict(report) -> dict:
    return {
        "admission": report.admission,
        "goodput_tokens": report.goodput_tokens,
        "tokens_generated": report.tokens_generated,
        "goodput_fraction": round(report.goodput_fraction, 4),
        "slo_met_requests": report.slo_met_requests,
        "slo_missed_requests": report.slo_missed_requests,
        "shed_requests": report.shed_requests,
        "ttft_p99_steps": report.ttft_steps_percentile(99),
        "class_stats": report.class_telemetry(),
    }


def run_comparison():
    weights = random_weights(bench_config(), seed=13)
    predictor = SparseInferPredictor.from_gate_weights(
        weights.gate_matrices()
    )
    capacity = calibrate_capacity(weights, predictor)
    results = {}
    for name, trace in build_traces(capacity).items():
        fifo = replay(weights, predictor, trace, "fifo")
        deadline = replay(weights, predictor, trace, "deadline")
        plain = replay(weights, predictor, strip_slos(trace), "fifo")
        check_deadline_wins(name, fifo, deadline)
        check_fifo_bit_identical(name, fifo, plain)
        results[name] = {"fifo": fifo, "deadline": deadline}
    return capacity, results


def format_report(capacity, results) -> str:
    lines = [
        f"overload goodput: {N_REQUESTS} scenario-mix requests at "
        f"{OVERLOAD_FACTOR}x capacity ({capacity:.3f} req/tick), "
        f"fifo vs deadline admission",
        "",
        f"{'trace':>10}{'admission':>11}{'goodput tok':>13}"
        f"{'total tok':>11}{'met':>5}{'miss':>6}{'shed':>6}",
    ]
    for name, pair in results.items():
        for mode in ("fifo", "deadline"):
            report = pair[mode]
            lines.append(
                f"{name:>10}{mode:>11}{report.goodput_tokens:>13}"
                f"{report.tokens_generated:>11}{report.slo_met_requests:>5}"
                f"{report.slo_missed_requests:>6}{report.shed_requests:>6}"
            )
    return "\n".join(lines)


def write_json(capacity, results) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "goodput.json"
    payload = {
        "benchmark": "overload_goodput",
        "workload": {
            "n_requests": N_REQUESTS,
            "overload_factor": OVERLOAD_FACTOR,
            "capacity_requests_per_tick": round(capacity, 4),
            "trace_seed": TRACE_SEED,
            "scenario_mix": "default_mix",
            "page_size": PAGE_SIZE,
            "n_pages": N_PAGES,
            "max_batch_size": MAX_BATCH,
        },
        "traces": {
            name: {mode: report_dict(report)
                   for mode, report in pair.items()}
            for name, pair in results.items()
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main() -> int:
    capacity, results = run_comparison()
    print(format_report(capacity, results))
    gains = {
        name: pair["deadline"].goodput_tokens
        / max(pair["fifo"].goodput_tokens, 1)
        for name, pair in results.items()
    }
    print(f"\nall overload-goodput checks passed (deadline/fifo goodput: "
          + ", ".join(f"{name} {gain:.2f}x" for name, gain in gains.items())
          + "; fifo stays bit-identical with SLOs stripped)")
    path = write_json(capacity, results)
    print(f"results -> {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"results -> {path}")
    return 0


@pytest.mark.slow
def test_overload_goodput_smoke():
    """Pytest entry point mirroring the script run (tier-2 smoke)."""
    capacity, results = run_comparison()
    assert set(results) == {"poisson", "onoff"}


if __name__ == "__main__":
    raise SystemExit(main())
