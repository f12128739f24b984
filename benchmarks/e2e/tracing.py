"""Outside-in span recorder: wraps calls into the program's public functions.

The program under test is not edited.  For a traced run the benchmark
replaces a function or method on its owner (a class or a module) with a
wrapper that records one span per call -- name, start, end, the span
that was open when it started, the scheduler tick, and the request ids
the call's own arguments name -- and puts the original back afterwards.
Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part its direct children
cover; the self times of all spans therefore sum to the time covered by
root spans, and whatever the traced wall clock holds beyond that is
reported as unaccounted instead of being smeared over the layers.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span record layout (a list, mutated in place while the span is open).
NAME, START, END, PARENT, TICK, REQUESTS, WORK = range(7)

_INHERITED = object()


class Tracer:
    """In-memory span store plus the open-span stack of one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.spans: List[list] = []
        self.tick = 0
        self._stack: List[int] = []
        self._name_ids: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self, name: str, fn: Callable, *, new_tick: bool = False,
        requests: Optional[Callable[[tuple, dict], object]] = None,
        work: Optional[Callable[[tuple, dict], int]] = None,
    ) -> Callable:
        """``fn`` recording one span per call, closed even on a raise.

        ``new_tick`` marks the scheduler's tick function: every call
        advances the tick stamped on it and on the spans beneath it.
        ``requests`` / ``work`` read request ids and a work count (tokens,
        rows) from the call's arguments.
        """
        name_id = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if new_tick:
                self.tick += 1
            record = [
                name_id, 0.0, 0.0, stack[-1] if stack else -1, self.tick,
                requests(args, kwargs) if requests is not None else None,
                work(args, kwargs) if work is not None else 0,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget recorded spans (the name table and wrappers stay valid)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        del self.spans[:]
        self.tick = 0


class Patches:
    """Wrappers installed on their owners, undone by :meth:`remove`."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def install(self, owner, attr: str, wrapped) -> None:
        # vars(), not getattr(): a staticmethod must go back as one, and
        # an inherited method must go back to being inherited.
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def self_times(spans: List[list]) -> List[float]:
    """Per-span duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def aggregate(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """``name -> {calls, busy_s, self_s, work}`` over recorded spans."""
    table = {
        name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0}
        for name in tracer.names
    }
    own = self_times(tracer.spans)
    for span, self_s in zip(tracer.spans, own):
        row = table[tracer.names[span[NAME]]]
        row["calls"] += 1
        row["busy_s"] += span[END] - span[START]
        row["self_s"] += self_s
        row["work"] += span[WORK]
    return table


def root_seconds(spans: List[list]) -> float:
    """Time covered by root spans == the sum of every span's self time."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def _rows(tracer: Tracer) -> Iterable[dict]:
    for index, span in enumerate(tracer.spans):
        yield {
            "id": index,
            "name": tracer.names[span[NAME]],
            "start": span[START],
            "end": span[END],
            "parent": span[PARENT] if span[PARENT] >= 0 else None,
            "tick": span[TICK],
            "request_ids": span[REQUESTS],
        }


def write_jsonl(tracer: Tracer, path) -> None:
    with open(path, "w") as out:
        for row in _rows(tracer):
            out.write(json.dumps(row) + "\n")


def write_chrome_trace(tracer: Tracer, path) -> None:
    """Complete ("X") events, microseconds; open in chrome://tracing."""
    origin = tracer.spans[0][START] if tracer.spans else 0.0
    events = [
        {
            "name": row["name"], "ph": "X", "pid": 0, "tid": 0,
            "ts": (row["start"] - origin) * 1e6,
            "dur": (row["end"] - row["start"]) * 1e6,
            "args": {"tick": row["tick"], "request_ids": row["request_ids"]},
        }
        for row in _rows(tracer)
    ]
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
