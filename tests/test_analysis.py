"""Tests for ``repro.analysis``, the AST invariant linter.

Three layers of coverage:

* **per-rule fixtures** -- each rule gets a must-fire tree (a synthetic
  violation it has to flag) and a must-not-fire tree (the idioms the
  repo actually uses, which must stay clean);
* **framework round-trips** -- inline suppressions, the baseline file,
  and the CLI exit codes;
* **acceptance gates** -- the analyzer is clean on this checkout, and
  deleting a knob/field row from a *temporary copy* of
  ``docs/serving.md`` makes the docs rules fire (the property
  ``scripts/check.sh`` relies on).
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    DocsKnobsRule,
    Project,
    RngPurityRule,
    ScalarLoopRule,
    SlotPairingRule,
    TelemetryDocsRule,
    default_rules,
    run_analysis,
)
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path`` and return it."""
    for relpath, source in files.items():
        p = tmp_path / relpath
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def findings_of(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# rng-purity


class TestRngPurityRule:
    def test_must_fire_on_unseeded_rng_and_wall_clock(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/model/bad.py": """
                import random
                import time

                import numpy as np
                from numpy.random import randint

                def sample():
                    a = np.random.rand(3)
                    b = np.random.default_rng()
                    c = random.random()
                    t = time.time()
                    return a, b, c, t
            """,
        })
        report = run_analysis(root, [RngPurityRule()])
        details = {f.fingerprint.rsplit("::", 1)[1]
                   for f in findings_of(report, "rng-purity")}
        assert "np.random.rand" in details
        assert "np.random.default_rng" in details
        assert "random.random" in details
        assert "time.time" in details
        assert "import:randint" in details

    def test_must_not_fire_on_seeded_rng_and_perf_counter(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/model/good.py": """
                import time

                import numpy as np

                def sample(rng: np.random.Generator):
                    t0 = time.perf_counter()
                    rng2 = np.random.default_rng(1234)
                    x = rng.normal(size=3) + rng2.normal(size=3)
                    return x, time.perf_counter() - t0
            """,
        })
        report = run_analysis(root, [RngPurityRule()])
        assert report.clean

    def test_wall_clock_allowed_outside_engine_paths(self, tmp_path):
        # benchmarks/ may stamp wall-clock times into result JSON; only
        # unseeded RNG is forbidden there.
        root = make_tree(tmp_path, {
            "benchmarks/bench.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        report = run_analysis(root, [RngPurityRule()])
        assert report.clean

    def test_numpy_alias_is_tracked(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/model/aliased.py": """
                import numpy as xp

                def draw():
                    return xp.random.standard_normal(4)
            """,
        })
        report = run_analysis(root, [RngPurityRule()])
        assert len(findings_of(report, "rng-purity")) == 1


# ---------------------------------------------------------------------------
# slot-pairing


class TestSlotPairingRule:
    def test_must_fire_on_each_violation_shape(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/bad.py": """
                class S:
                    def leaks_on_exit(self):
                        slot = self.engine.cache.seat(plan)
                        self.counter += 1

                    def discards_handle(self):
                        self.engine.cache.seat(plan)

                    def leaks_on_exception(self, prompt):
                        slot = self.engine.cache.seat(plan)
                        logits = self.engine.prefill(slot, prompt)
                        self.engine.cache.release(slot)
                        return logits

                    def releases_twice(self):
                        slot = self.engine.cache.seat(plan)
                        self.engine.cache.release(slot)
                        self.engine.cache.release(slot)
            """,
        })
        report = run_analysis(root, [SlotPairingRule()])
        kinds = {f.fingerprint.rsplit("::", 1)[1].split(":", 1)[0]
                 for f in findings_of(report, "slot-pairing")}
        assert kinds == {"leak", "discard", "exception-path",
                         "double-release"}

    def test_must_not_fire_on_repo_idioms(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/good.py": """
                class S:
                    def admit(self, prompt):
                        slot = self.engine.cache.seat(plan)
                        try:
                            logits = self.engine.prefill(slot, prompt)
                        except BaseException:
                            self.engine.cache.release(slot)
                            raise
                        seq = _ActiveSequence(slot=slot, logits=logits)
                        self.active.append(seq)
                        return logits

                    def transfer_to_caller(self, n):
                        return self.pool.allocate(n)

                    def finally_guard(self):
                        slot = self.engine.cache.fork(donor, 4)
                        try:
                            out = self.engine.decode_step([slot], [1])
                        finally:
                            self.engine.cache.release(slot)
                        return out

                    def branchy_release(self, keep):
                        slot = self.engine.cache.revive(pages)
                        if keep:
                            self.residents.append(slot)
                        else:
                            self.engine.cache.release(slot)
            """,
        })
        report = run_analysis(root, [SlotPairingRule()])
        assert report.clean, [f.render() for f in report.findings]

    def test_out_of_scope_files_are_ignored(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/eval/not_serving.py": """
                def leak(engine):
                    slot = engine.cache.allocate()
            """,
        })
        report = run_analysis(root, [SlotPairingRule()])
        assert report.clean


# ---------------------------------------------------------------------------
# scalar-loop


HOT_REGISTRY = {
    ("src/repro/serving/hot.py", "Eng.decode"): frozenset({"slots"}),
}


class TestScalarLoopRule:
    def test_must_fire_on_batch_loop_with_real_work(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/hot.py": """
                class Eng:
                    def decode(self, slots):
                        for slot in slots:
                            self.model.forward(slot)
            """,
        })
        report = run_analysis(root, [ScalarLoopRule(registry=HOT_REGISTRY)])
        found = findings_of(report, "scalar-loop")
        assert len(found) == 1
        assert "slots" in found[0].message

    def test_must_not_fire_on_comprehensions_or_cheap_bodies(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/hot.py": """
                class Eng:
                    def decode(self, slots):
                        ids = [s.slot_id for s in slots]
                        for slot in slots:
                            slot.advance()
                        for k in range(self.n_layers):
                            self.model.forward_layer(k, ids)
                        return ids
            """,
        })
        report = run_analysis(root, [ScalarLoopRule(registry=HOT_REGISTRY)])
        assert report.clean, [f.render() for f in report.findings]

    def test_registry_staleness_is_a_finding(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/hot.py": """
                class Eng:
                    def renamed(self, slots):
                        return slots
            """,
        })
        report = run_analysis(root, [ScalarLoopRule(registry=HOT_REGISTRY)])
        found = findings_of(report, "scalar-loop")
        assert len(found) == 1
        assert "no longer exists" in found[0].message

    def test_default_registry_targets_exist_in_repo(self):
        # The real registry must never rot: every registered hot
        # function resolves on this checkout (missing ones would fire).
        project = Project(REPO_ROOT)
        rule = ScalarLoopRule()
        staleness = [
            f for f in rule.check(project)
            if "registry" in f.fingerprint.rsplit("::", 1)[1]
            or "missing" in f.fingerprint.rsplit("::", 1)[1]
        ]
        assert staleness == []


# ---------------------------------------------------------------------------
# telemetry-docs


class TestTelemetryDocsRule:
    def test_must_fire_on_undocumented_and_unused_field(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/scheduler.py": """
                from dataclasses import dataclass

                @dataclass
                class ServeReport:
                    decode_steps: int = 0
                    mystery_gauge: float = 0.0
                    _private: int = 0
            """,
            "docs/serving.md": "| `decode_steps` | ticks |\n",
            "tests/test_report.py": "KEY = 'decode_steps'\n",
            # A renderer that prints a field does not test it.
            "src/repro/eval/reporting.py": "KEY = 'mystery_gauge'\n",
        })
        report = run_analysis(root, [TelemetryDocsRule()])
        details = {f.fingerprint.rsplit("::", 1)[1]
                   for f in findings_of(report, "telemetry-docs")}
        # Both halves fire for the phantom field, neither for the
        # documented+tested one, and the private field is ignored.
        assert details == {"docs:mystery_gauge", "usage:mystery_gauge"}

    def test_word_boundary_matching(self, tmp_path):
        # ``decode_steps_total`` must not count as a use of
        # ``decode_steps``.
        root = make_tree(tmp_path, {
            "src/repro/serving/scheduler.py": """
                from dataclasses import dataclass

                @dataclass
                class ServeReport:
                    decode_steps: int = 0
            """,
            "docs/serving.md": "| `decode_steps` | ticks |\n",
            "tests/test_report.py": "KEY = 'decode_steps_total'\n",
        })
        report = run_analysis(root, [TelemetryDocsRule()])
        details = {f.fingerprint.rsplit("::", 1)[1]
                   for f in findings_of(report, "telemetry-docs")}
        assert details == {"usage:decode_steps"}

    def test_missing_report_class_is_a_finding(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/scheduler.py": "X = 1\n",
            "docs/serving.md": "",
        })
        report = run_analysis(root, [TelemetryDocsRule()])
        assert any("not found" in f.message
                   for f in findings_of(report, "telemetry-docs"))


# ---------------------------------------------------------------------------
# docs-knobs


class TestDocsKnobsRule:
    SOURCES = (("src/repro/serving/engine.py", "BatchedEngine.__init__",
                "## Engine knobs"),)
    ENGINE = """
        class BatchedEngine:
            def __init__(self, weights, page_size=16):
                pass
    """
    TABLE = """
        ## Engine knobs

        | Knob | Default | Meaning |
        | --- | --- | --- |
        | `weights` | — | Model parameters |
        | `page_size` | 16 | Positions per page, see `n_pages` |

        Prose after the table may mention `anything`.
    """

    def _details(self, root):
        report = run_analysis(root, [DocsKnobsRule(sources=self.SOURCES)])
        return {f.fingerprint.rsplit("::", 1)[1]
                for f in findings_of(report, "docs-knobs")}

    def test_matching_table_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/engine.py": self.ENGINE,
            "docs/serving.md": self.TABLE,
        })
        assert self._details(root) == set()

    def test_must_fire_on_undocumented_knob(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/engine.py": """
                class BatchedEngine:
                    def __init__(self, weights, page_size=16,
                                 new_knob=False):
                        pass
            """,
            "docs/serving.md": self.TABLE,
        })
        assert self._details(root) == {"knob:new_knob"}

    def test_must_fire_on_stale_row(self, tmp_path):
        table = textwrap.dedent(self.TABLE).replace(
            "\n\nProse", "\n| `retired_knob` | 0 | Gone |\n\nProse",
        )
        root = make_tree(tmp_path, {
            "src/repro/serving/engine.py": self.ENGINE,
            "docs/serving.md": table,
        })
        assert self._details(root) == {"stale:retired_knob"}

    def test_must_fire_without_the_table(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/engine.py": self.ENGINE,
            "docs/serving.md": "`weights` and `page_size` are documented.\n",
        })
        assert self._details(root) == {"missing-table"}

    def test_renamed_function_is_a_finding(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/serving/engine.py": "def something_else():\n    pass\n",
            "docs/serving.md": "",
        })
        report = run_analysis(root, [DocsKnobsRule(sources=self.SOURCES)])
        assert any("not found" in f.message
                   for f in findings_of(report, "docs-knobs"))


# ---------------------------------------------------------------------------
# suppressions and baseline


class TestSuppressions:
    def _report(self, tmp_path, source):
        root = make_tree(
            tmp_path, {"src/repro/model/s.py": source}
        )
        return run_analysis(root, [RngPurityRule()])

    def test_same_line_and_line_above(self, tmp_path):
        report = self._report(tmp_path, """
            import numpy as np

            a = np.random.rand(3)  # repro: ignore[rng-purity]
            # repro: ignore[rng-purity] -- seeded by the harness
            b = np.random.rand(3)
            c = np.random.rand(3)
        """)
        assert len(report.findings) == 1          # only ``c``
        assert len(report.suppressed) == 2

    def test_bare_ignore_suppresses_all_rules(self, tmp_path):
        report = self._report(tmp_path, """
            import numpy as np

            a = np.random.rand(3)  # repro: ignore
        """)
        assert report.clean and len(report.suppressed) == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = self._report(tmp_path, """
            import numpy as np

            a = np.random.rand(3)  # repro: ignore[scalar-loop]
        """)
        assert len(report.findings) == 1

    def test_comment_two_lines_above_does_not_suppress(self, tmp_path):
        report = self._report(tmp_path, """
            import numpy as np

            # repro: ignore[rng-purity]

            a = np.random.rand(3)
        """)
        assert len(report.findings) == 1


class TestBaseline:
    def test_round_trip_accepts_and_goes_stale(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/model/b.py": """
                import numpy as np

                a = np.random.rand(3)
            """,
        })
        first = run_analysis(root, [RngPurityRule()])
        assert len(first.findings) == 1
        fingerprint = first.findings[0].fingerprint

        path = root / "analysis_baseline.txt"
        path.write_text(
            Baseline(entries={fingerprint: "accepted for the test"}).render(),
            encoding="utf-8",
        )
        loaded = Baseline.load(path)
        assert loaded.entries == {fingerprint: "accepted for the test"}

        second = run_analysis(root, [RngPurityRule()], baseline=loaded)
        assert second.clean
        assert [f.fingerprint for f in second.baselined] == [fingerprint]
        assert second.stale_baseline == []

        # Fix the violation: the entry must be reported stale, not
        # silently retained.
        (root / "src/repro/model/b.py").write_text(
            "import numpy as np\n", encoding="utf-8"
        )
        third = run_analysis(root, [RngPurityRule()], baseline=loaded)
        assert third.clean
        assert third.stale_baseline == [fingerprint]

    def test_fingerprint_survives_unrelated_edits(self, tmp_path):
        src = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
        root = make_tree(tmp_path, {"src/repro/model/b.py": src})
        before = run_analysis(root, [RngPurityRule()]).findings[0]
        (root / "src/repro/model/b.py").write_text(
            "import numpy as np\n\nPAD = 1\n\n\ndef f():\n"
            "    return np.random.rand()\n",
            encoding="utf-8",
        )
        after = run_analysis(root, [RngPurityRule()]).findings[0]
        assert before.fingerprint == after.fingerprint
        assert before.line != after.line


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_exit_codes(self, tmp_path):
        # Synthetic trees lack the repo files the docs/registry rules
        # expect, so exit-code checks run the self-contained rng rule.
        clean = make_tree(tmp_path / "clean", {
            "src/repro/model/ok.py": "X = 1\n",
        })
        assert main(["--root", str(clean), "--rules", "rng-purity"]) == 0

        dirty = make_tree(tmp_path / "dirty", {
            "src/repro/model/bad.py":
                "import numpy as np\n\na = np.random.rand(3)\n",
        })
        assert main(["--root", str(dirty), "--rules", "rng-purity"]) == 1
        assert main(["--root", str(dirty), "--rules", "bogus"]) == 2
        assert main(["--root", str(tmp_path / "missing-dir")]) == 2

    def test_rule_subset_and_list(self, tmp_path, capsys):
        dirty = make_tree(tmp_path, {
            "src/repro/model/bad.py":
                "import numpy as np\n\na = np.random.rand(3)\n",
        })
        # The violation is rng-purity; running only slot-pairing is clean.
        assert main(["--root", str(dirty), "--rules", "slot-pairing"]) == 0
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.rule_id in out

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        dirty = make_tree(tmp_path, {
            "src/repro/model/bad.py":
                "import numpy as np\n\na = np.random.rand(3)\n",
        })
        assert main(["--root", str(dirty)]) == 1
        assert main(["--root", str(dirty), "--write-baseline"]) == 0
        baseline = (dirty / "analysis_baseline.txt").read_text()
        assert "TODO: justify" in baseline
        # Accepted now; --no-baseline resurfaces it.
        assert main(["--root", str(dirty)]) == 0
        assert main(["--root", str(dirty), "--no-baseline"]) == 1
        capsys.readouterr()

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        broken = make_tree(tmp_path, {
            "src/repro/model/broken.py": "def f(:\n",
        })
        assert main(["--root", str(broken)]) == 1
        assert "syntax-error" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# acceptance gates on the real checkout


class TestRepoAcceptance:
    def test_analyzer_is_clean_on_this_checkout(self, capsys):
        """The self-clean gate check.sh runs: exit 0 on the repo."""
        assert main(["--root", str(REPO_ROOT)]) == 0
        capsys.readouterr()

    def _doc_edit_tree(self, tmp_path):
        """A minimal copy of the checkout the docs rules read."""
        for rel in (
            "src/repro/serving/engine.py",
            "src/repro/serving/scheduler.py",
            "docs/serving.md",
        ):
            dst = tmp_path / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(REPO_ROOT / rel, dst)
        # A tests/ stub that mentions every ServeReport field (the real
        # scheduler source does), so only the *docs* half can fire.
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        shutil.copyfile(
            REPO_ROOT / "src/repro/serving/scheduler.py",
            tests_dir / "test_stub.py",
        )
        return tmp_path

    DOC_RULES = (TelemetryDocsRule, DocsKnobsRule)

    def _run_doc_rules(self, root):
        return run_analysis(root, [cls() for cls in self.DOC_RULES])

    def test_doc_tree_copy_is_clean_before_edits(self, tmp_path):
        root = self._doc_edit_tree(tmp_path)
        report = self._run_doc_rules(root)
        assert report.clean, [f.render() for f in report.findings]

    def test_removing_a_knob_row_fails_the_gate(self, tmp_path):
        root = self._doc_edit_tree(tmp_path)
        doc = root / "docs/serving.md"
        doc.write_text(
            doc.read_text(encoding="utf-8").replace("`page_size`",
                                                    "`page_zzz`"),
            encoding="utf-8",
        )
        report = self._run_doc_rules(root)
        details = {f.fingerprint.rsplit("::", 1)[1]
                   for f in findings_of(report, "docs-knobs")}
        assert "knob:page_size" in details

    def test_stale_knob_row_fails_the_gate(self, tmp_path):
        """A row whose knob left the signature is a finding too."""
        root = self._doc_edit_tree(tmp_path)
        doc = root / "docs/serving.md"
        text = doc.read_text(encoding="utf-8")
        row = "| `preemption` |"
        assert text.count(row) == 1
        doc.write_text(
            text.replace(row, "| `bogus_retired_knob` | 0 | Gone |\n" + row),
            encoding="utf-8",
        )
        report = self._run_doc_rules(root)
        details = {f.fingerprint.rsplit("::", 1)[1]
                   for f in findings_of(report, "docs-knobs")}
        assert details == {"stale:bogus_retired_knob"}

    def test_removing_a_telemetry_row_fails_the_gate(self, tmp_path):
        root = self._doc_edit_tree(tmp_path)
        doc = root / "docs/serving.md"
        doc.write_text(
            doc.read_text(encoding="utf-8").replace("`decode_seconds`",
                                                    "`decode_zzz`"),
            encoding="utf-8",
        )
        report = self._run_doc_rules(root)
        details = {f.fingerprint.rsplit("::", 1)[1]
                   for f in findings_of(report, "telemetry-docs")}
        assert "docs:decode_seconds" in details

    def test_check_sh_runs_the_analyzer(self):
        """check.sh replaced its docs heredoc with the linter."""
        script = (REPO_ROOT / "scripts/check.sh").read_text(encoding="utf-8")
        assert "python -m repro.analysis" in script
        assert "inspect.signature" not in script

    def test_baseline_is_empty_and_not_stale(self):
        """The last accepted finding (the per-token KV append loop of
        chunked prefill) was fixed by block K/V writes (today
        ``PagedKVSlot.cells`` and ``PagePool.write``), not
        re-fingerprinted: the baseline holds no entries."""
        baseline = Baseline.load(REPO_ROOT / "analysis_baseline.txt")
        assert baseline.entries == {}
        report = run_analysis(REPO_ROOT, default_rules(), baseline=baseline)
        assert report.stale_baseline == []
        # The two ragged causal-block loops: speculative verify, and the
        # packed prefill pass's per-segment attention.
        assert sorted(f.fingerprint.split("::")[2]
                      for f in report.suppressed) == [
            "BatchedEngine._forward_chunk.attend",
            "ContinuousBatchingScheduler._speculate",
        ]
