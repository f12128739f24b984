"""Unit tests for the bench-trajectory aggregator's extractors.

The aggregator is the one place every benchmark's JSON shape is read
back, so a silent shape drift turns the trajectory table into
``n/a`` rows without failing anything.  These tests round-trip each
extractor on fixture payloads, lock the ``_max_speedup`` recursive
fallback, and check the unreadable-file row -- the failure modes
``summarise`` is supposed to absorb rather than crash on.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" \
    / "bench_trajectory.py"


@pytest.fixture(scope="module")
def bench_trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def goodput_payload() -> dict:
    return {
        "benchmark": "overload_goodput",
        "workload": {"overload_factor": 1.5},
        "traces": {
            "poisson": {
                "fifo": {"goodput_tokens": 100, "shed_requests": 0},
                "deadline": {"goodput_tokens": 250, "shed_requests": 9},
            },
            "onoff": {
                "fifo": {"goodput_tokens": 80, "shed_requests": 0},
                "deadline": {"goodput_tokens": 160, "shed_requests": 12},
            },
        },
    }


def test_goodput_extractor(bench_trajectory):
    headline, detail = bench_trajectory._goodput(goodput_payload())
    assert headline == "2.50x goodput"
    assert "poisson" in detail and "1.5x overload" in detail
    assert "9 requests shed" in detail


def test_goodput_extractor_registered(bench_trajectory):
    assert bench_trajectory.EXTRACTORS["overload_goodput"] \
        is bench_trajectory._goodput


def test_max_speedup_recurses_nested_containers(bench_trajectory):
    node = {
        "a": [{"speedup": 1.5}, {"speedup_over_sequential": 3.25}],
        "b": {"c": {"speedup_decode": 2.0}, "speedup": "not a number"},
    }
    assert bench_trajectory._max_speedup(node) == 3.25
    assert bench_trajectory._max_speedup({}) == float("-inf")


def test_generic_fallback(bench_trajectory):
    headline, detail = bench_trajectory._generic({"nested": {"speedup": 2.0}})
    assert headline == "2.00x speedup"
    headline, detail = bench_trajectory._generic({"tokens": 4})
    assert headline == "n/a"


def test_summarise_rows_and_fallbacks(bench_trajectory, tmp_path):
    # A known payload, a malformed known payload (extractor KeyError ->
    # generic fallback), an unknown benchmark, and an unreadable file.
    (tmp_path / "goodput.json").write_text(json.dumps(goodput_payload()))
    (tmp_path / "broken.json").write_text(
        json.dumps({"benchmark": "overload_goodput", "traces": {}})
    )
    (tmp_path / "novel.json").write_text(
        json.dumps({"benchmark": "novel_bench", "speedup": 1.75})
    )
    (tmp_path / "garbage.json").write_text("{not json")
    rows = {row[0]: row for row in
            bench_trajectory.summarise(results_dir=tmp_path)}
    assert rows["overload_goodput"][1] == "2.50x goodput"
    # The malformed payload and the known one share a benchmark name;
    # both rows exist (dict keyed by name keeps one -- check by count).
    all_rows = bench_trajectory.summarise(results_dir=tmp_path)
    assert len(all_rows) == 4
    headlines = {row[1] for row in all_rows}
    assert "n/a" in headlines          # broken payload fell back
    assert "1.75x speedup" in headlines  # unknown benchmark via generic
    assert rows["garbage"][1] == "unreadable"


def test_summarise_empty_dir(bench_trajectory, tmp_path):
    assert bench_trajectory.summarise(results_dir=tmp_path) == []
