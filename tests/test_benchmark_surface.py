"""Tier-1 guard for the frozen benchmark's view of the program.

``benchmarks/e2e`` may not be edited by the PRs it judges, and its
``surface.py`` is deliberately tolerant: a knob the constructors stop
naming is silently dropped, a counter that moved reads as ``None``, a
trace target that moved records zero calls.  That tolerance keeps the
benchmark running, but it also means a refactor (a config object,
grouped counters, a moved method) would quietly change *what
``BENCHMARK.json`` measures*.  These tests import the surface read-only
and fail instead.  (``benchmarks/e2e/tests`` holds the same checks as
landing-time self-tests, but sits outside ``testpaths``.)
"""

import importlib
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"

#: Engine knobs deleted because the path the benchmark runs became the
#: only path: batched attention and the paged store always run, the
#: tick budget sizes prefill (``prefill_chunk``), and prefix sharing is
#: always on.
RETIRED_ENGINE_KNOBS = {
    "batched_attention", "paged", "prefill_chunk", "prefix_sharing",
}

#: Counters and trace targets of the padded batch > 1 decode stack,
#: deleted when decode began attending each slot as a ragged one-row
#: segment: the benchmark reads these counters as ``None`` and records
#: the spans with zero calls.  Exactly these may be missing.
RETIRED_COUNTERS = [
    "mean_buckets_per_step", "padded_positions", "padding_waste_share",
]
RETIRED_SPANS = [
    "model.batch_attention.plan_step",
    "model.batch_attention.attend_layer",
    "model.paged_kvcache.gather",
]


@pytest.fixture
def surface(monkeypatch):
    """``benchmarks/e2e/surface.py`` (its modules import by bare name)."""
    monkeypatch.syspath_prepend(str(E2E))
    yield importlib.import_module("surface")
    for name in ("surface", "tracing"):
        sys.modules.pop(name, None)


def test_constructors_still_name_every_benchmark_knob(surface):
    assert surface.scheduler_knobs()[1] == []
    assert set(surface.engine_knobs()[1]) <= RETIRED_ENGINE_KNOBS


def test_every_counter_path_resolves_on_a_live_run(surface):
    _, engine, scheduler = surface.set_up()
    (_, request), = surface.timed_requests("chat_style", (), 1, seed=7)
    scheduler.submit(request)
    report = scheduler.run()
    assert [c.ok for c in report.completions] == [True]
    values, missing = surface.read_counters(scheduler, engine)
    assert missing == RETIRED_COUNTERS
    assert set(values) == set(surface.COUNTER_PATHS)
    assert all(isinstance(v, float) for name, v in values.items()
               if name not in RETIRED_COUNTERS)


def test_every_trace_target_still_resolves(surface):
    tracing = importlib.import_module("tracing")
    patches, missing = surface.install_tracing(tracing.Tracer())
    patches.remove()
    assert missing == RETIRED_SPANS
