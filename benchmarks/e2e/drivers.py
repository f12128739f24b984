"""Closed- and open-loop load drivers with the benchmark's own stamps.

The drivers see the program only as *a scheduler*: ``submit(request)``,
``step() -> completions``, ``idle``, ``n_pending`` and an ``on_token``
callback handed over at construction.  They import nothing from
``repro`` -- the self-tests drive them with a fake scheduler -- and
every latency they report is built from stamps taken here, never from
timing fields the program fills in.

Both loops are single-threaded and tick-driven.  A closed loop submits a
client's next request the moment ``step()`` returns its completion, so
what is served, in which tick and in which batch is a pure function of
the request list.  The open loop submits on a schedule: every request
whose *due* time has passed is submitted before each tick, and when the
scheduler runs dry before the next arrival the clock jumps there
instead of sleeping.  Latencies are timed from the due time, which
charges a stalled tick's delay to every request that was due during it;
how late each submit actually ran is reported as submit lag.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import median, percentile

#: Ticks after which a block that has not drained is abandoned; its
#: outstanding requests count as unfinished (failed).
MAX_TICKS = 1_000_000


class SkipClock:
    """``perf_counter()`` plus every idle interval skipped so far."""

    def __init__(self, base: Callable[[], float] = time.perf_counter):
        self._base = base
        self.skipped = 0.0

    def now(self) -> float:
        return self._base() + self.skipped

    def skip(self, seconds: float) -> None:
        if seconds > 0.0:
            self.skipped += seconds


@dataclass
class BlockRecord:
    """Everything one block's driver observed, in clock seconds."""

    clock: SkipClock
    due: Dict[int, float] = field(default_factory=dict)
    submitted: Dict[int, float] = field(default_factory=dict)
    stamps: Dict[int, List[float]] = field(default_factory=dict)
    completions: Dict[int, object] = field(default_factory=dict)
    refused: Dict[int, str] = field(default_factory=dict)
    tick_starts: List[float] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    skipped_s: float = 0.0
    queue_at_last_arrival: int = 0
    backlog_at_end: int = 0

    def on_token(self, request_id: int, token_id: int, step: int) -> None:
        self.stamps[request_id].append(self.clock.now())

    def submit(self, scheduler, request, due: Optional[float] = None) -> bool:
        """Stamp and submit; a refusal is recorded, not raised."""
        now = self.clock.now()
        rid = request.request_id
        self.due[rid] = now if due is None else due
        self.submitted[rid] = now
        self.stamps[rid] = []
        try:
            scheduler.submit(request)
        except ValueError as exc:      # the scheduler's up-front rejection
            self.refused[rid] = str(exc)
            return False
        return True

    def tick(self, scheduler) -> list:
        self.tick_starts.append(self.clock.now())
        finished = scheduler.step()
        for completion in finished:
            self.completions[completion.request_id] = completion
        return finished

    @property
    def virtual_s(self) -> float:
        return self.ended - self.started

    @property
    def busy_s(self) -> float:
        """Seconds the process actually spent (idle jumps excluded)."""
        return self.virtual_s - self.skipped_s


def _begin(make_scheduler, clock: SkipClock) -> Tuple[BlockRecord, object]:
    record = BlockRecord(clock=clock)
    scheduler = make_scheduler(record.on_token)
    record.started = clock.now()
    record.skipped_s = -clock.skipped
    return record, scheduler


def _end(record: BlockRecord, scheduler) -> BlockRecord:
    record.ended = record.clock.now()
    record.skipped_s += record.clock.skipped
    record.backlog_at_end = scheduler.n_pending
    return record


def run_closed_loop(
    make_scheduler, requests: Sequence, clients: int,
    clock: Optional[SkipClock] = None,
) -> BlockRecord:
    """``clients`` callers, each sending its next request on completion."""
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    record, scheduler = _begin(make_scheduler, clock or SkipClock())
    pending = iter(requests)
    in_flight = 0

    def send_next() -> int:
        for request in pending:
            if record.submit(scheduler, request):
                return 1
        return 0

    for _ in range(clients):
        in_flight += send_next()
    while in_flight and not scheduler.idle:
        if len(record.tick_starts) >= MAX_TICKS:
            break
        for _ in record.tick(scheduler):
            in_flight += send_next() - 1
    return _end(record, scheduler)


def run_open_loop(
    make_scheduler, timed_requests: Sequence[Tuple[float, object]],
    clock: Optional[SkipClock] = None,
) -> BlockRecord:
    """Replay ``(offset_seconds, request)`` arrivals on the skip clock."""
    record, scheduler = _begin(make_scheduler, clock or SkipClock())
    clock = record.clock
    arrivals = sorted(timed_requests, key=lambda entry: entry[0])
    start = record.started
    sent, total = 0, len(arrivals)
    while sent < total or not scheduler.idle:
        if len(record.tick_starts) >= MAX_TICKS:
            break
        now = clock.now()
        while sent < total and start + arrivals[sent][0] <= now:
            offset, request = arrivals[sent]
            sent += 1
            if sent == total:     # the queue the last arrival finds
                record.queue_at_last_arrival = scheduler.n_pending
            record.submit(scheduler, request, due=start + offset)
        if scheduler.idle:
            if sent < total:
                clock.skip(start + arrivals[sent][0] - clock.now())
            continue
        record.tick(scheduler)
    return _end(record, scheduler)


def _failure(record: BlockRecord, rid: int) -> Optional[str]:
    """Why request ``rid`` failed, or None when it was served."""
    if rid in record.refused:
        return "refused"
    completion = record.completions.get(rid)
    if completion is None:
        return "unfinished"
    if getattr(completion, "shed", False):
        return "shed"
    if getattr(completion, "error", None) is not None:
        return "error"
    if len(completion.generated_ids) != len(record.stamps[rid]):
        return "stream_mismatch"      # streamed tokens != returned tokens
    return None


def token_checksum(record: BlockRecord) -> int:
    """CRC32 over every served ``(request_id, tokens...)`` in id order."""
    crc = 0
    for rid in sorted(record.completions):
        ids = [rid, *record.completions[rid].generated_ids]
        crc = zlib.crc32(" ".join(map(str, ids)).encode(), crc)
    return crc


def block_metrics(
    record: BlockRecord, slo_ttft_ms: float, slo_itl_ms: float,
) -> dict:
    """Latency samples, throughput, SLO and failure numbers of one block."""
    failures: Dict[str, int] = {}
    ttft_ms: List[float] = []
    itl_ms: List[float] = []
    queue_wait_ms: List[float] = []
    in_slo = 0
    tokens = 0
    served = 0
    preemptions = 0
    for rid, due in record.due.items():
        reason = _failure(record, rid)
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
            continue
        served += 1
        stamps = record.stamps[rid]
        tokens += len(stamps)
        completion = record.completions[rid]
        preemptions += getattr(completion, "preemptions", 0)
        admitted = getattr(completion, "admitted_step", None)
        if admitted is not None and 1 <= admitted <= len(record.tick_starts):
            waited = record.tick_starts[admitted - 1] - due
            queue_wait_ms.append(max(waited, 0.0) * 1e3)
        if not stamps:
            in_slo += 1            # owed no token, so it met every limit
            continue
        first = (stamps[0] - due) * 1e3
        gaps = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        ttft_ms.append(first)
        itl_ms.extend(gaps)
        if first <= slo_ttft_ms and all(g <= slo_itl_ms for g in gaps):
            in_slo += 1
    attempted = len(record.due)
    lag_ms = [
        (record.submitted[rid] - due) * 1e3 for rid, due in record.due.items()
    ]
    busy = record.busy_s
    return {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "served": served,
        "tokens": tokens,
        "ticks": len(record.tick_starts),
        "preemptions": preemptions,
        "busy_s": busy,
        "tokens_per_s": tokens / busy if busy > 0 else 0.0,
        "ttft_ms": ttft_ms,
        "itl_ms": itl_ms,
        "queue_wait_p50_ms": median(queue_wait_ms) if queue_wait_ms else None,
        "queue_wait_p95_ms": (
            percentile(queue_wait_ms, 95.0) if queue_wait_ms else None
        ),
        "slo_attainment": in_slo / attempted if attempted else 0.0,
        "submit_lag_p95_ms": percentile(lag_ms, 95.0) if lag_ms else 0.0,
        "queue_at_last_arrival": record.queue_at_last_arrival,
        "backlog_at_end": record.backlog_at_end,
        "checksum": token_checksum(record),
    }
