"""Property tests for deadline admission, load shedding and goodput.

Mirrors :mod:`test_scheduler_properties` for the PR 10 surface: draws
random SLO-carrying workloads (tight/loose/absent deadlines, priority
ties, overload arrival bursts) crossed with engine geometries, drains
each tick-by-tick under both ``admission`` modes, and asserts:

* **FIFO unchanged**: with ``admission="fifo"`` (the default), SLO
  specs are *telemetry only* -- every request's tokens and error status
  are identical to the same workload with the SLOs stripped, and
  nothing is ever shed.
* **Accounting identities**: ``slo_met_requests + slo_missed_requests
  + shed_requests == len(completions)`` exactly, ``goodput_tokens <=
  tokens_generated``, and the per-class ``class_stats`` counters sum to
  the report totals -- no completion is ever dropped from or
  double-counted in the goodput books.
* **Pool invariants under overload**: the page-conservation and
  refcount cross-checks of the preemption suite hold after every tick
  while deadline admission is reordering, shedding, and preempting.
* **Bounded bypass**: a no-deadline request at the queue head is
  admitted after at most ``admission_window - 1`` consecutive bypasses,
  even under a sustained stream of tight-deadline arrivals.
* **Shed is rejected-typed**: shed requests complete exactly once with
  ``shed=True``, a ``"shed: ..."`` error, and zero tokens -- never
  silently dropped.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.predictor import SparseInferPredictor
from repro.eval.latency import ServingMeasurement
from repro.eval.reporting import format_goodput
from repro.serving.engine import BatchedEngine
from repro.serving.request import Request, SLOSpec
from repro.serving.scheduler import ContinuousBatchingScheduler

from test_scheduler_properties import check_pool_invariants, outcomes

N_DRAWS = 40
MAX_TICKS = 3000
VOCAB = 19             # micro_config vocabulary


@pytest.fixture(scope="module")
def packed_predictor(micro_weights):
    return SparseInferPredictor.from_gate_weights(
        micro_weights.gate_matrices()
    )


def draw_slo(rng):
    """None / TTFT-only / ITL-only / both, spanning tight to loose."""
    roll = rng.random()
    if roll < 0.3:
        return None
    ttft = int(rng.integers(1, 40)) if rng.random() < 0.8 else None
    itl = int(rng.integers(1, 12)) if rng.random() < 0.5 else None
    tag = rng.choice(["interactive", "fleet", "batch"])
    return SLOSpec(slo_class=str(tag), ttft_steps=ttft, itl_steps=itl)


def draw_workload(rng) -> list:
    """``(arrival_tick, Request)`` pairs with mixed SLO contracts."""
    n_requests = int(rng.integers(4, 10))
    schedule = []
    for i in range(n_requests):
        prompt = tuple(int(t) for t in
                       rng.integers(1, VOCAB,
                                    size=int(rng.integers(2, 14))))
        max_new = int(rng.integers(0, 8)) if rng.random() < 0.1 \
            else int(rng.integers(1, 8))
        request = Request(
            request_id=i, prompt_ids=prompt, max_new_tokens=max_new,
            priority=int(rng.integers(0, 3)), slo=draw_slo(rng),
        )
        # Half the requests land in one tick-0 burst (overload), the
        # rest trickle in -- both shapes must hold the invariants.
        arrival = 0 if rng.random() < 0.5 else int(rng.integers(1, 10))
        schedule.append((arrival, request))
    return schedule


def draw_geometry(rng, schedule) -> dict:
    page_size = int(rng.choice([1, 3, 8]))
    worsts = [
        -(-(r.prompt_len + r.max_new_tokens - 1) // page_size)
        for _, r in schedule if r.max_new_tokens > 0
    ]
    max_w = max(worsts) if worsts else 1
    n_pages = max_w + int(rng.integers(0, max_w + 1))
    return dict(
        max_batch_size=int(rng.integers(1, 4)),
        page_size=page_size,
        n_pages=n_pages,
        cache_pages=0,
    )


def drive(weights, predictor, schedule, geometry, admission="fifo",
          admission_window=4, step_budget=32, preemption=False,
          check_pool=True):
    engine = BatchedEngine(
        weights, predictor=predictor, **geometry
    )
    scheduler = ContinuousBatchingScheduler(
        engine, step_budget=step_budget, preemption=preemption,
        admission=admission, admission_window=admission_window,
    )
    pending = sorted(schedule, key=lambda pair: pair[0])
    tick = 0
    while pending or not scheduler.idle:
        while pending and pending[0][0] <= tick:
            scheduler.submit(pending.pop(0)[1])
        scheduler.step()
        tick += 1
        assert tick < MAX_TICKS, "schedule did not drain"
        if check_pool:
            check_pool_invariants(engine, scheduler)
    assert not scheduler.active and not scheduler.queue
    assert not scheduler._resume_state
    assert engine.cache.n_pages_in_use == 0
    return scheduler.report


def strip_slos(schedule) -> list:
    return [
        (arrival, Request(
            request_id=r.request_id, prompt_ids=r.prompt_ids,
            max_new_tokens=r.max_new_tokens, stop_ids=r.stop_ids,
            priority=r.priority, sampling=r.sampling, slo=None,
        ))
        for arrival, r in schedule
    ]


def check_accounting(report, schedule) -> None:
    """The goodput books balance exactly -- totals and per-class."""
    completions = report.completions
    assert len(completions) == len(schedule)
    assert report.slo_met_requests + report.slo_missed_requests \
        + report.shed_requests == len(completions)
    assert report.shed_requests == sum(1 for c in completions if c.shed)
    assert 0 <= report.goodput_tokens <= report.tokens_generated
    # goodput == the SLO-met completions' tokens, reconstructed
    # independently from the raw completion records.
    expected_goodput = sum(
        c.n_generated for c in completions
        if not c.shed and c.error is None
        and (c.request.slo is None
             or c.request.slo.met(c.submitted_step, c.emit_steps))
    )
    assert report.goodput_tokens == expected_goodput
    # Per-class counters sum to the report totals, key by key.
    stats = report.class_stats
    assert sum(s["requests"] for s in stats.values()) == len(completions)
    assert sum(s["slo_met"] for s in stats.values()) \
        == report.slo_met_requests
    assert sum(s["slo_missed"] for s in stats.values()) \
        == report.slo_missed_requests
    assert sum(s["shed"] for s in stats.values()) == report.shed_requests
    assert sum(s["goodput_tokens"] for s in stats.values()) \
        == report.goodput_tokens
    assert sum(s["tokens"] for s in stats.values()) \
        == report.tokens_generated
    if report.tokens_generated:
        assert report.goodput_fraction == pytest.approx(
            report.goodput_tokens / report.tokens_generated
        )


def test_fifo_with_slos_token_identical_and_never_sheds(
    micro_weights, packed_predictor
):
    """Under fifo admission an SLOSpec is pure telemetry."""
    rng = np.random.default_rng(101)
    saw_slo = False
    for _ in range(N_DRAWS):
        schedule = draw_workload(rng)
        saw_slo |= any(r.slo is not None for _, r in schedule)
        geometry = draw_geometry(rng, schedule)
        with_slo = drive(micro_weights, packed_predictor, schedule,
                         geometry, admission="fifo", check_pool=False)
        stripped = drive(micro_weights, packed_predictor,
                         strip_slos(schedule), geometry,
                         admission="fifo", check_pool=False)
        assert outcomes(with_slo) == outcomes(stripped)
        assert with_slo.shed_requests == 0
        assert not any(c.shed for c in with_slo.completions)
        assert with_slo.admission == "fifo"
        check_accounting(with_slo, schedule)
    assert saw_slo


def test_deadline_admission_invariants(micro_weights, packed_predictor):
    """Pool conservation + exactly-once completion + balanced books
    hold under deadline admission across random overloaded draws."""
    rng = np.random.default_rng(202)
    totals = Counter()
    for _ in range(N_DRAWS):
        schedule = draw_workload(rng)
        geometry = draw_geometry(rng, schedule)
        preemption = bool(rng.random() < 0.5)
        report = drive(
            micro_weights, packed_predictor, schedule, geometry,
            admission="deadline",
            admission_window=int(rng.integers(1, 6)),
            step_budget=int(rng.choice([2, 6, 32])),
            preemption=preemption,
        )
        assert report.admission == "deadline"
        # Every submitted request completed exactly once -- shed
        # requests included, never silently dropped.
        assert sorted(c.request_id for c in report.completions) \
            == sorted(r.request_id for _, r in schedule)
        check_accounting(report, schedule)
        for completion in report.completions:
            if completion.shed:
                assert completion.error is not None
                assert completion.error.startswith("shed:")
                assert completion.generated_ids == []
                assert completion.slo_met is False
                # Only TTFT-bearing requests can ever be shed.
                assert completion.request.slo is not None
                assert completion.request.slo.ttft_steps is not None
        totals["shed"] += report.shed_requests
        totals["missed"] += report.slo_missed_requests
        totals["met"] += report.slo_met_requests
        totals["preemptions"] += report.preemptions
    # The draws must actually exercise the machinery under test.
    assert totals["met"] > 0, "no draw ever met an SLO"
    assert totals["missed"] > 0, "no draw ever missed an SLO"
    assert totals["shed"] > 0, "no draw ever shed a request"


def test_slo_verdicts_match_completion_records(
    micro_weights, packed_predictor
):
    """``slo_met`` on each completion agrees with ``SLOSpec.met`` applied
    to its own (submitted_step, emit_steps) record."""
    rng = np.random.default_rng(303)
    schedule = draw_workload(rng)
    geometry = draw_geometry(rng, schedule)
    report = drive(micro_weights, packed_predictor, schedule, geometry,
                   admission="deadline", check_pool=False)
    for c in report.completions:
        if c.shed:
            continue
        if c.request.slo is None:
            assert c.slo_met is None
        else:
            assert c.slo_met == (
                c.error is None
                and c.request.slo.met(c.submitted_step, c.emit_steps)
            )
        # emit_steps is the full emission record.  Gaps are >= 0, not
        # strictly positive: the admission tick's prefill piece and its
        # decode pass can emit two tokens under the same tick stamp.
        assert len(c.emit_steps) == c.n_generated
        assert all(a <= b for a, b in zip(c.emit_steps, c.emit_steps[1:]))


def test_bounded_bypass_prevents_starvation(
    micro_weights, packed_predictor
):
    """A no-deadline head request cannot be bypassed forever.

    One no-SLO request lands first; a sustained stream of tight-TTFT
    requests lands behind it, one per tick, always sorting ahead of it
    under EDF.  With ``admission_window=W`` the head must be forced
    through after at most ``W - 1`` consecutive bypasses: its admission
    tick is bounded regardless of how long the stream continues.
    """
    window = 4
    starved = Request(request_id=0, prompt_ids=(1, 2, 3),
                      max_new_tokens=3, slo=None)
    schedule = [(0, starved)]
    for i in range(1, 25):
        schedule.append((i // 2, Request(
            request_id=i, prompt_ids=(2, 3, 4), max_new_tokens=2,
            slo=SLOSpec("interactive", ttft_steps=2),
        )))
    geometry = dict(max_batch_size=1, page_size=4, n_pages=2,
                    cache_pages=0)
    report = drive(micro_weights, packed_predictor, schedule, geometry,
                   admission="deadline", admission_window=window,
                   check_pool=False)
    starved_done = next(
        c for c in report.completions if c.request_id == 0
    )
    assert starved_done.error is None
    assert starved_done.n_generated == 3
    # max_batch_size=1 with 2-token stream requests opens one admission
    # slot every 2 ticks, so at most W-1 bypasses bounds the head's
    # admission by tick 2*(W-1) -- far before the stream ends (~tick 12).
    assert starved_done.admitted_step <= 2 * window
    check_accounting(report, schedule)


def test_priority_breaks_deadline_ties(micro_weights, packed_predictor):
    """Equal TTFT deadlines: higher priority admits first; equal
    priority falls back to FIFO submission order."""
    slo = SLOSpec("fleet", ttft_steps=30)
    low = Request(request_id=0, prompt_ids=(1, 2, 3), max_new_tokens=2,
                  priority=0, slo=slo)
    high = Request(request_id=1, prompt_ids=(4, 5, 6), max_new_tokens=2,
                   priority=5, slo=slo)
    geometry = dict(max_batch_size=1, page_size=4, n_pages=2,
                    cache_pages=0)
    report = drive(micro_weights, packed_predictor,
                   [(0, low), (0, high)], geometry,
                   admission="deadline", check_pool=False)
    by_id = {c.request_id: c for c in report.completions}
    assert by_id[1].admitted_step < by_id[0].admitted_step

    # Same deadline, same priority: FIFO order wins -- request 0 was
    # submitted first and must be admitted first.
    peer = Request(request_id=1, prompt_ids=(4, 5, 6), max_new_tokens=2,
                   priority=0, slo=slo)
    report = drive(micro_weights, packed_predictor,
                   [(0, low), (0, peer)], geometry,
                   admission="deadline", check_pool=False)
    by_id = {c.request_id: c for c in report.completions}
    assert by_id[0].admitted_step < by_id[1].admitted_step


def test_deadline_beats_fifo_goodput_under_overload(
    micro_weights, packed_predictor
):
    """The bench gate in miniature: a stale tick-0 burst plus a fresh
    trickle.  FIFO burns its decode slot on burst requests whose TTFT
    deadlines have already passed, arriving at the trickle too late;
    deadline admission sheds the hopeless burst tail and serves every
    trickle request inside its deadline -- strictly more goodput."""
    slo = SLOSpec("interactive", ttft_steps=3, itl_steps=6)
    # Capacity is one request per tick (max_batch_size=1; the prompt's
    # prefill piece + same-tick decode finish a 2-token request in its
    # admission tick).  The tick-0 burst of 6 exceeds what ttft=3 can
    # absorb; the trickle at ticks 3-5 is individually feasible but
    # FIFO reaches it only after burning ticks 4-6 on the stale burst.
    schedule = [
        (0, Request(request_id=i, prompt_ids=(1 + i % 8, 2, 3),
                    max_new_tokens=2, slo=slo))
        for i in range(6)
    ] + [
        (i - 3, Request(request_id=i, prompt_ids=(1 + i % 8, 3, 2),
                        max_new_tokens=2, slo=slo))
        for i in range(6, 9)
    ]
    geometry = dict(max_batch_size=1, page_size=4, n_pages=2,
                    cache_pages=0)
    fifo = drive(micro_weights, packed_predictor, schedule, geometry,
                 admission="fifo", check_pool=False)
    edf = drive(micro_weights, packed_predictor, schedule, geometry,
                admission="deadline", check_pool=False)
    assert edf.shed_requests > 0
    assert edf.goodput_tokens > fifo.goodput_tokens
    check_accounting(fifo, schedule)
    check_accounting(edf, schedule)


def test_class_telemetry_merges_percentiles(
    micro_weights, packed_predictor
):
    rng = np.random.default_rng(404)
    schedule = draw_workload(rng)
    geometry = draw_geometry(rng, schedule)
    report = drive(micro_weights, packed_predictor, schedule, geometry,
                   admission="deadline", check_pool=False)
    telemetry = report.class_telemetry()
    assert list(telemetry) == sorted(report.class_stats)
    for tag, stats in telemetry.items():
        for key in ("requests", "slo_met", "slo_missed", "shed",
                    "goodput_tokens", "tokens",
                    "ttft_p99_steps", "itl_p99_steps"):
            assert key in stats, (tag, key)
    # Percentile helpers filter by class and tolerate empty classes.
    assert report.ttft_steps_percentile(50, slo_class="no-such-class") \
        == 0.0
    # The goodput table renders one row per class of that digest.
    table = format_goodput([ServingMeasurement("edf", report)])
    assert len(table.splitlines()) == 2 + len(telemetry)
    assert all(f"| edf | {tag} |" in table for tag in telemetry)


def test_validation():
    with pytest.raises(ValueError):
        ContinuousBatchingScheduler(None, admission="lifo")
    with pytest.raises(ValueError):
        ContinuousBatchingScheduler(None, admission="deadline",
                                    admission_window=0)
