"""The load drivers against a fake scheduler on a fake clock."""

from dataclasses import dataclass, field

import pytest

from drivers import (
    SkipClock, block_metrics, run_closed_loop, run_open_loop, token_checksum,
)


class FakeTime:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


@dataclass
class FakeRequest:
    request_id: int
    n_tokens: int = 2


@dataclass
class FakeCompletion:
    request: FakeRequest
    generated_ids: list
    admitted_step: int
    error: str = None
    shed: bool = False
    preemptions: int = 0

    @property
    def request_id(self):
        return self.request.request_id


@dataclass
class FakeScheduler:
    """One token per resident per tick; a tick costs ``tick_s`` of fake time."""

    time: FakeTime
    on_token: object
    tick_s: float = 0.010
    seats: int = 2
    refuse: frozenset = frozenset()
    queue: list = field(default_factory=list)
    active: dict = field(default_factory=dict)
    step_count: int = 0
    submit_order: list = field(default_factory=list)

    def submit(self, request):
        if request.request_id in self.refuse:
            raise ValueError("too big")
        self.submit_order.append((request.request_id, self.step_count))
        self.queue.append(request)

    @property
    def idle(self):
        return not self.queue and not self.active

    @property
    def n_pending(self):
        return len(self.queue)

    def step(self):
        self.step_count += 1
        while self.queue and len(self.active) < self.seats:
            request = self.queue.pop(0)
            self.active[request.request_id] = FakeCompletion(
                request, [], admitted_step=self.step_count
            )
        self.time.t += self.tick_s
        finished = []
        for rid, completion in list(self.active.items()):
            token = 1000 * rid + len(completion.generated_ids)
            completion.generated_ids.append(token)
            self.on_token(rid, token, self.step_count)
            if len(completion.generated_ids) == completion.request.n_tokens:
                finished.append(self.active.pop(rid))
        return finished


def harness(**scheduler_kwargs):
    fake_time = FakeTime()
    built = []

    def make_scheduler(on_token):
        built.append(FakeScheduler(fake_time, on_token, **scheduler_kwargs))
        return built[0]

    return fake_time, SkipClock(fake_time), make_scheduler, built


def test_open_loop_skips_idle_time_instead_of_sleeping():
    fake_time, clock, make_scheduler, built = harness()
    arrivals = [(0.0, FakeRequest(0)), (5.0, FakeRequest(1)), (9.0, FakeRequest(2))]
    record = run_open_loop(make_scheduler, arrivals, clock)
    # 3 requests x 2 tokens, never overlapping: 6 ticks of real time.
    assert fake_time.t == pytest.approx(100.0 + 6 * 0.010)
    assert record.busy_s == pytest.approx(0.060)
    assert record.virtual_s == pytest.approx(9.0 + 0.020)
    assert record.skipped_s == pytest.approx(record.virtual_s - 0.060)
    metrics = block_metrics(record, slo_ttft_ms=150.0, slo_itl_ms=50.0)
    assert metrics["attempted"] == 3 and metrics["failed"] == 0
    assert metrics["ticks"] == 6 and metrics["tokens"] == 6
    # Arrivals into an idle system are submitted exactly when due.
    assert metrics["submit_lag_p95_ms"] == pytest.approx(0.0, abs=1e-6)
    assert metrics["ttft_ms"] == pytest.approx([10.0, 10.0, 10.0])
    assert metrics["itl_ms"] == pytest.approx([10.0, 10.0, 10.0])
    assert metrics["tokens_per_s"] == pytest.approx(6 / 0.060)


def test_open_loop_times_ttft_from_due_time_and_reports_submit_lag():
    # One long tick is running when request 1 falls due at 4 ms: it can
    # only be submitted when that tick returns (at 50 ms), gets its first
    # token one tick later (100 ms) -- and all of it counts.
    fake_time, clock, make_scheduler, built = harness(tick_s=0.050)
    arrivals = [(0.0, FakeRequest(0)), (0.004, FakeRequest(1))]
    record = run_open_loop(make_scheduler, arrivals, clock)
    start = record.started
    assert record.due[1] == pytest.approx(start + 0.004)
    assert record.submitted[1] == pytest.approx(start + 0.050)
    assert record.stamps[1][0] == pytest.approx(start + 0.100)
    metrics = block_metrics(record, slo_ttft_ms=60.0, slo_itl_ms=60.0)
    ttfts = sorted(
        (record.stamps[rid][0] - record.due[rid]) * 1e3 for rid in (0, 1)
    )
    assert ttfts == pytest.approx([50.0, 96.0])
    assert metrics["submit_lag_p95_ms"] == pytest.approx(46.0 * 0.95)
    # Request 1 waited in the queue from its due time to its admission tick.
    assert metrics["queue_wait_p95_ms"] == pytest.approx(46.0 * 0.95)
    # TTFT limit 60 ms: request 0 (50 ms) attains it, request 1 (96 ms) not.
    assert metrics["slo_attainment"] == 0.5
    assert record.skipped_s == 0.0


def test_open_loop_records_queue_found_by_last_arrival():
    fake_time, clock, make_scheduler, built = harness(seats=1, tick_s=0.010)
    arrivals = [(0.0, FakeRequest(i, n_tokens=3)) for i in range(4)]
    record = run_open_loop(make_scheduler, arrivals, clock)
    assert record.queue_at_last_arrival == 3
    assert record.backlog_at_end == 0
    assert len(record.completions) == 4


def test_closed_loop_sends_next_request_only_on_completion():
    fake_time, clock, make_scheduler, built = harness(seats=8)
    requests = [FakeRequest(i, n_tokens=2 + i % 2) for i in range(7)]
    record = run_closed_loop(make_scheduler, requests, clients=2, clock=clock)
    order = built[0].submit_order
    assert [rid for rid, _ in order] == list(range(7))
    # Two up front; each later one in the tick its predecessor finished.
    assert [tick for _, tick in order] == [0, 0, 2, 3, 4, 6, 6]
    metrics = block_metrics(record, 150.0, 50.0)
    assert metrics["served"] == 7 and metrics["failed"] == 0
    assert record.skipped_s == 0.0
    # Tick-driven: a second run serves the same tokens in the same ticks.
    _, clock2, make2, built2 = harness(seats=8)
    again = run_closed_loop(make2, requests, clients=2, clock=clock2)
    assert built2[0].submit_order == order
    assert token_checksum(again) == token_checksum(record)


def test_failures_are_counted_against_attempts():
    fake_time, clock, make_scheduler, built = harness(refuse=frozenset({1}))
    requests = [FakeRequest(i) for i in range(4)]
    record = run_closed_loop(make_scheduler, requests, clients=1, clock=clock)
    record.completions[2].error = "exploded"
    record.completions[3].shed = True
    metrics = block_metrics(record, 150.0, 50.0)
    assert metrics["attempted"] == 4
    assert metrics["failures"] == {"refused": 1, "error": 1, "shed": 1}
    assert metrics["failed"] == 3 and metrics["served"] == 1
    # A failed request misses every latency limit.
    assert metrics["slo_attainment"] == 0.25


def test_unfinished_and_stream_mismatch_are_failures():
    fake_time, clock, make_scheduler, built = harness()
    record = run_closed_loop(
        make_scheduler, [FakeRequest(0), FakeRequest(1)], clients=2, clock=clock
    )
    del record.completions[0]
    record.completions[1].generated_ids.append(42)   # never streamed
    metrics = block_metrics(record, 150.0, 50.0)
    assert metrics["failures"] == {"unfinished": 1, "stream_mismatch": 1}


def test_closed_loop_needs_a_client():
    with pytest.raises(ValueError):
        run_closed_loop(lambda on_token: None, [], clients=0)
