"""``BENCHMARK.json`` says what the code emits, within the driver's limits."""

import json
import re
from pathlib import Path

from layers import END_TO_END, PER_LAYER
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[3]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    # Measuring time plus ~8 s of set-up, warm-up and oracle per run.
    assert runs * (SPEC["run_seconds"] + 8) < 3420


def test_workloads_match_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert NAME.match(entry["name"])
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_code():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(END_TO_END)
    assert 1 <= len(END_TO_END) <= 16
    for name, unit, better, bound in END_TO_END:
        assert NAME.match(name) and UNIT.match(unit)
        assert better in ("higher", "lower") and 0 < bound <= 0.25
    setup = dict((m["name"], m) for m in SPEC["end_to_end"])["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_code():
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(PER_LAYER)
    assert 1 <= len(PER_LAYER) <= 128
    for name, unit, better in PER_LAYER:
        assert NAME.match(name) and UNIT.match(unit)
        assert better in ("higher", "lower")
    names = [m[0] for m in END_TO_END + PER_LAYER] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024
