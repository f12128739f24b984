"""Span self-time arithmetic, closure under nesting and exceptions, patching."""

import pytest

from tracing import (
    END, PARENT, REQUESTS, START, TICK, WORK, Patches, Tracer, aggregate,
    root_seconds, self_times,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make(tracer, clock, name, cost, children=(), **options):
    def body(*args):
        clock.t += cost
        for child in children:
            child()
        clock.t += cost
    return tracer.wrap(name, body, **options)


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = make(tracer, clock, "leaf", 1.0)              # 2 s inclusive
    mid = make(tracer, clock, "mid", 0.5, [leaf, leaf])  # 1 + 4 = 5 s
    root = make(tracer, clock, "root", 0.25, [mid])      # 0.5 + 5 = 5.5 s
    root()
    table = aggregate(tracer)
    assert table["root"] == {"calls": 1, "busy_s": 5.5, "self_s": 0.5, "work": 0}
    assert table["mid"]["busy_s"] == 5.0 and table["mid"]["self_s"] == 1.0
    assert table["leaf"]["calls"] == 2 and table["leaf"]["self_s"] == 4.0
    # Closure: self times sum to exactly the time root spans cover.
    assert sum(self_times(tracer.spans)) == pytest.approx(root_seconds(tracer.spans))
    assert root_seconds(tracer.spans) == 5.5


def test_parent_links_and_ticks():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = make(tracer, clock, "inner", 0.1)
    step = make(tracer, clock, "step", 0.1, [inner], new_tick=True)
    step()
    step()
    parents = [span[PARENT] for span in tracer.spans]
    ticks = [span[TICK] for span in tracer.spans]
    assert parents == [-1, 0, -1, 2]
    assert ticks == [1, 1, 2, 2]


def test_exception_closes_span_and_unwinds_stack():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.t += 1.0
        raise KeyError("inside")

    failing = tracer.wrap("failing", boom)
    outer = make(tracer, clock, "outer", 0.5, [failing])
    with pytest.raises(KeyError):
        outer()
    assert [s[END] - s[START] for s in tracer.spans] == [1.5, 1.0]
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[-1][PARENT] == -1        # nothing left open
    assert sum(self_times(tracer.spans)) == pytest.approx(root_seconds(tracer.spans))


def test_requests_and_work_read_from_arguments():
    tracer = Tracer(FakeClock())
    wrapped = tracer.wrap(
        "call", lambda ids, rows: len(rows),
        requests=lambda args, kwargs: list(args[0]),
        work=lambda args, kwargs: len(args[1]),
    )
    assert wrapped((7, 9), [0, 0, 0]) == 3
    assert tracer.spans[0][REQUESTS] == [7, 9]
    assert tracer.spans[0][WORK] == 3
    assert aggregate(tracer)["call"]["work"] == 3


def test_reset_refuses_open_spans():
    tracer = Tracer(FakeClock())
    wrapped = tracer.wrap("open", lambda: tracer.reset())
    with pytest.raises(RuntimeError):
        wrapped()
    tracer.reset()
    assert tracer.spans == [] and tracer.names == ["open"]


def test_patches_put_everything_back():
    class Base:
        def inherited(self):
            return "base"

    class Target(Base):
        def method(self):
            return "method"

        @staticmethod
        def static():
            return "static"

    tracer = Tracer(FakeClock())
    with Patches() as patches:
        for attr in ("method", "static", "inherited"):
            patches.install(
                Target, attr, tracer.wrap(attr, getattr(Target, attr))
            )
        target = Target()
        assert target.method() == "method"
        assert Target.static() == "static"
        assert target.inherited() == "base"
        assert len(tracer.spans) == 3
    assert "inherited" not in vars(Target)
    assert isinstance(vars(Target)["static"], staticmethod)
    Target().method()
    assert len(tracer.spans) == 3                # wrappers are gone
