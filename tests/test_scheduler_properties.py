"""Randomized property tests for the budgeted / preemptive scheduler.

Draws hundreds of random serving schedules -- request mixes (prompt
lengths, token budgets, priorities, zero-token requests, mid-run
arrivals) crossed with scheduler/engine knobs (page size, tight page
budgets, step budgets, preemption, prefix sharing, prefix cache,
chunked prefill) -- and asserts, for every drawn schedule:

* **Token identity**: every request's generated tokens (and error
  status) are identical to an unconstrained reference run
  (``step_budget=0``, ``preemption=False``) of the same workload on the
  same engine geometry.  Budgets and preemption change *when* work
  happens, never what is decoded.
* **Page conservation**: after every tick -- so across every
  preemption, park, revive and resume -- ``free + in_use + cached ==
  n_pages``, reservations stay backable, and no page is both free and
  cached.
* **No page freed under a sharer**: every page referenced by a live
  sequence's page table has a matching refcount and is in neither the
  free nor the cached set; preempting one sharer of a forked prefix
  can therefore never free (or park) pages its donor still maps.
* **No lost sequences**: every submitted request completes exactly once
  (preempted ones are always eventually resumed and finished), the
  queue/batch/resume-state all drain empty, and the report's token
  count matches the completions.

The driver steps the scheduler tick-by-tick (checking invariants after
every tick) rather than using ``run()``, and a draw-level accumulator
asserts the random schedules actually exercised preemption, resume,
replay and piggybacked prefill -- a suite that never preempts proves
nothing.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.predictor import SparseInferPredictor
from repro.serving.engine import BatchedEngine
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchingScheduler

N_DRAWS = 70           # workloads drawn ...
RUNS_PER_DRAW = 3      # ... each drained as reference + 2 constrained runs
MAX_TICKS = 1500
VOCAB = 19             # micro_config vocabulary


@pytest.fixture(scope="module")
def packed_predictor(micro_weights):
    """Pack the predictor once; packing dominates engine construction."""
    return SparseInferPredictor.from_gate_weights(
        micro_weights.gate_matrices()
    )


def check_pool_invariants(engine, scheduler) -> None:
    """Conservation + refcount cross-check against the live batch."""
    cache = engine.cache
    pool = cache.pool
    assert pool.n_free_pages + pool.n_pages_in_use + pool.n_cached_pages \
        == pool.n_pages
    assert 0 <= pool._reserved <= pool.n_free_pages + pool.n_cached_pages
    assert not (pool._free_set & pool._cached_set)
    refs = Counter()
    for seq in scheduler.active:
        refs.update(seq.slot.page_table)
    for page in range(pool.n_pages):
        assert pool.refcount(page) == refs.get(page, 0), (
            f"page {page}: refcount {pool.refcount(page)} != "
            f"{refs.get(page, 0)} live table references"
        )
        unmapped = page in pool._free_set or page in pool._cached_set
        # A page a live sequence still maps must never be freed or
        # parked -- the preemption-vs-sharer property.
        assert unmapped == (refs.get(page, 0) == 0)


def draw_workload(rng) -> list:
    """``(arrival_tick, Request)`` pairs, shared prefixes included."""
    n_requests = int(rng.integers(3, 8))
    base_prefix = tuple(int(t) for t in
                        rng.integers(1, VOCAB, size=int(rng.integers(4, 9))))
    schedule = []
    for i in range(n_requests):
        if rng.random() < 0.4:
            suffix = tuple(int(t) for t in
                           rng.integers(1, VOCAB,
                                        size=int(rng.integers(1, 6))))
            prompt = base_prefix + suffix
        else:
            prompt = tuple(int(t) for t in
                           rng.integers(1, VOCAB,
                                        size=int(rng.integers(2, 17))))
        max_new = int(rng.integers(0, 8)) if rng.random() < 0.15 \
            else int(rng.integers(1, 8))
        request = Request(
            request_id=i, prompt_ids=prompt, max_new_tokens=max_new,
            priority=int(rng.integers(0, 3)),
        )
        arrival = 0 if rng.random() < 0.5 else int(rng.integers(1, 7))
        schedule.append((arrival, request))
    return schedule


def draw_geometry(rng, schedule) -> dict:
    """Engine knobs, with a page budget tight enough to starve."""
    page_size = int(rng.choice([1, 3, 8]))
    worsts = [
        -(-(r.prompt_len + r.max_new_tokens - 1) // page_size)
        for _, r in schedule if r.max_new_tokens > 0
    ]
    max_w = max(worsts) if worsts else 1
    n_pages = max_w + int(rng.integers(0, max_w + 1))
    prefix_sharing = bool(rng.random() < 0.6)
    cache_pages = int(min(4, n_pages // 2)) \
        if prefix_sharing and rng.random() < 0.6 else 0
    return dict(
        max_batch_size=int(rng.integers(2, 5)),
        page_size=page_size,
        n_pages=n_pages,
        prefix_sharing=prefix_sharing,
        cache_pages=cache_pages,
        prefill_chunk=int(rng.choice([3, 32])),
    )


def drive(weights, predictor, schedule, geometry,
          step_budget, preemption, check_pool=True):
    """Drain one schedule tick-by-tick, checking pool state each tick."""
    engine = BatchedEngine(
        weights, predictor=predictor, **geometry
    )
    scheduler = ContinuousBatchingScheduler(
        engine, step_budget=step_budget, preemption=preemption,
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
    # Fully drained: nothing resident, nothing queued, nothing evicted
    # awaiting resume, and no page still pinned or reserved.
    assert not scheduler.active and not scheduler.queue
    assert not scheduler._resume_state
    assert engine.cache.n_pages_in_use == 0
    assert engine.cache.pool._reserved == 0
    return scheduler.report


def outcomes(report) -> dict:
    return {
        c.request_id: (tuple(c.generated_ids), c.error is None)
        for c in report.completions
    }


def test_random_schedules_hold_invariants(micro_weights, packed_predictor):
    rng = np.random.default_rng(2026)
    totals = Counter()
    for draw in range(N_DRAWS):
        schedule = draw_workload(rng)
        geometry = draw_geometry(rng, schedule)
        reference = drive(
            micro_weights, packed_predictor, schedule, geometry,
            step_budget=0, preemption=False,
        )
        expected = outcomes(reference)
        assert len(expected) == len(schedule)
        for _ in range(RUNS_PER_DRAW - 1):
            budget = int(rng.choice([1, 2, 4, 9]))
            report = drive(
                micro_weights, packed_predictor, schedule, geometry,
                step_budget=budget, preemption=True,
            )
            # (a) identical tokens and error statuses per request.
            assert outcomes(report) == expected
            # (c) every submitted request completed exactly once.
            assert len(report.completions) == len(schedule)
            assert report.tokens_generated == sum(
                len(c.generated_ids) for c in report.completions
            )
            assert report.preemptions == sum(
                c.preemptions for c in report.completions
            )
            totals["preemptions"] += report.preemptions
            totals["resumed"] += report.resumed_admissions
            totals["replayed"] += report.replayed_tokens
            totals["piggybacked"] += report.piggybacked_chunks
            totals["revived"] += report.revived_admissions
            totals["forked"] += report.forked_admissions
    # The draws must actually exercise the machinery under test.
    assert totals["preemptions"] > 0, "no schedule ever preempted"
    assert totals["resumed"] == totals["preemptions"]
    assert totals["replayed"] > 0, "no resumed sequence replayed decode"
    assert totals["piggybacked"] > 0, "no prefill was piggybacked"
    assert totals["forked"] > 0, "no schedule exercised prefix forks"
    assert totals["revived"] > 0, "no schedule exercised cache revival"


def test_budget_matches_inline_on_shared_geometry(
    micro_weights, packed_predictor
):
    """An effectively unbounded budget stays token-identical to inline."""
    rng = np.random.default_rng(7)
    schedule = draw_workload(rng)
    geometry = draw_geometry(rng, schedule)
    inline = drive(micro_weights, packed_predictor, schedule, geometry,
                   step_budget=0, preemption=False)
    unbounded = drive(micro_weights, packed_predictor, schedule, geometry,
                      step_budget=10**9, preemption=False)
    assert outcomes(unbounded) == outcomes(inline)
    # One admission piece per prompt: nothing was ever split.
    assert unbounded.peak_tick_prefill_tokens >= \
        max(r.prompt_len for _, r in schedule if r.max_new_tokens > 0)


def test_preemption_spares_shared_donor_pages(
    micro_weights, packed_predictor
):
    """Evicting one sharer of a forked prefix never corrupts the donor.

    Two same-prefix requests are admitted together (the second forks the
    first's pages); a late high-priority arrival preempts one sharer.
    The survivor must keep decoding to exactly its reference tokens and
    every page it maps must stay pinned throughout -- checked tick by
    tick by the pool cross-check in :func:`drive`.
    """
    prefix = tuple(range(1, 9))
    sharer_a = Request(request_id=0, prompt_ids=prefix + (9,),
                       max_new_tokens=10, priority=0)
    sharer_b = Request(request_id=1, prompt_ids=prefix + (10,),
                       max_new_tokens=10, priority=1)
    vip = Request(request_id=2, prompt_ids=tuple(range(3, 15)),
                  max_new_tokens=10, priority=5)
    schedule = [(0, sharer_a), (0, sharer_b), (4, vip)]
    geometry = dict(max_batch_size=3, page_size=4, n_pages=9,
                    prefix_sharing=True, cache_pages=4)
    reference = drive(micro_weights, packed_predictor, schedule, geometry,
                      step_budget=0, preemption=False)
    report = drive(micro_weights, packed_predictor, schedule, geometry,
                   step_budget=2, preemption=True)
    assert report.preemptions >= 1
    assert report.forked_admissions >= 1
    assert outcomes(report) == outcomes(reference)


def test_blocked_head_keeps_queue_priority(micro_weights, packed_predictor):
    """A head that preempts but still cannot fit is not queue-jumped.

    The eviction frees too little for the head, so the victim is
    re-enqueued *behind* the still-blocked head -- were it pushed in
    front, the lower-priority victim would re-admit, be preempted
    again, and the pair would livelock.  The drain itself (bounded
    ticks, every request completing once) is the regression check.
    """
    holder = Request(request_id=0, prompt_ids=tuple(range(1, 7)),
                     max_new_tokens=12, priority=2)
    victim = Request(request_id=1, prompt_ids=tuple(range(2, 8)),
                     max_new_tokens=12, priority=0)
    # Needs more pages than evicting `victim` alone can free while
    # `holder` (equal-or-higher priority than nobody -- it outranks the
    # head's victims but not the head) is still resident.
    big = Request(request_id=2, prompt_ids=tuple(range(1, 13)),
                  max_new_tokens=12, priority=3)
    schedule = [(0, holder), (0, victim), (3, big)]
    geometry = dict(max_batch_size=3, page_size=4, n_pages=11,
                    prefix_sharing=False, cache_pages=0)
    reference = drive(micro_weights, packed_predictor, schedule, geometry,
                      step_budget=0, preemption=False)
    report = drive(micro_weights, packed_predictor, schedule, geometry,
                   step_budget=0, preemption=True)
    assert outcomes(report) == outcomes(reference)
    assert len(report.completions) == 3


def test_equal_priorities_never_preempt(micro_weights, packed_predictor):
    """Default priorities keep ``preemption=True`` a strict no-op."""
    rng = np.random.default_rng(11)
    schedule = [
        (arrival, Request(request_id=r.request_id,
                          prompt_ids=r.prompt_ids,
                          max_new_tokens=r.max_new_tokens))
        for arrival, r in draw_workload(rng)
    ]
    geometry = draw_geometry(rng, schedule)
    off = drive(micro_weights, packed_predictor, schedule, geometry,
                step_budget=0, preemption=False)
    on = drive(micro_weights, packed_predictor, schedule, geometry,
               step_budget=0, preemption=True)
    assert on.preemptions == 0
    assert outcomes(on) == outcomes(off)
