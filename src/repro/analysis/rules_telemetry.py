"""``telemetry-docs``: every ``ServeReport`` field is documented and used.

``ServeReport`` is the serving stack's public telemetry contract: every
benchmark assertion and capacity claim reads it.  A field that exists
in the dataclass but not in the ``docs/serving.md`` glossary is a knob
nobody can discover; a field no test ever touches is a gauge nobody
would notice breaking (a table that renders a field does not test it).
This rule machine-checks both halves for each dataclass field of
``repro.serving.scheduler.ServeReport``:

1. the backticked field name appears in ``docs/serving.md``;
2. the field name appears (word-bounded) somewhere under ``tests/``.

Pure AST + text matching -- the rule never imports the serving stack,
so it runs on any checkout (and on the temporary doc-edit copies the
acceptance tests build).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Tuple

from .core import Finding, Project, Rule

SCHEDULER_PATH = "src/repro/serving/scheduler.py"
DOCS_PATH = "docs/serving.md"
REPORT_CLASS = "ServeReport"


def _dataclass_fields(tree: ast.AST, class_name: str) -> List[Tuple[str, int]]:
    """(field, lineno) for each annotated dataclass field, public first."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                (stmt.target.id, stmt.lineno)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
            ]
    return []


class TelemetryDocsRule(Rule):
    """ServeReport fields must be documented and exercised."""

    rule_id = "telemetry-docs"
    description = (
        "every ServeReport dataclass field must appear in the "
        "docs/serving.md glossary and in a test"
    )

    def __init__(
        self,
        scheduler_path: str = SCHEDULER_PATH,
        docs_path: str = DOCS_PATH,
        report_class: str = REPORT_CLASS,
    ):
        self.scheduler_path = scheduler_path
        self.docs_path = docs_path
        self.report_class = report_class

    def check(self, project: Project) -> Iterator[Finding]:
        tree = project.tree(self.scheduler_path)
        if tree is None:
            yield self.finding(
                self.scheduler_path, 1,
                f"cannot parse {self.scheduler_path}; the telemetry "
                "contract cannot be checked",
                self.report_class, "missing-source",
            )
            return
        fields = _dataclass_fields(tree, self.report_class)
        if not fields:
            yield self.finding(
                self.scheduler_path, 1,
                f"dataclass {self.report_class} not found in "
                f"{self.scheduler_path}; update the telemetry rule",
                self.report_class, "missing-class",
            )
            return
        docs = project.text(self.docs_path)
        if docs is None:
            yield self.finding(
                self.docs_path, 1,
                f"{self.docs_path} is missing; the {self.report_class} "
                "glossary lives there",
                self.report_class, "missing-docs",
            )
            docs = ""
        usage_sources = []
        for test_path in project.iter_test_files():
            text = project.text(test_path)
            if text is not None:
                usage_sources.append(text)
        usage_blob = "\n".join(usage_sources)

        for name, lineno in fields:
            if f"`{name}`" not in docs:
                yield self.finding(
                    self.scheduler_path, lineno,
                    f"{self.report_class}.{name} is not documented in the "
                    f"{self.docs_path} telemetry glossary (add a "
                    f"backticked `{name}` row)",
                    self.report_class, f"docs:{name}",
                )
            if not re.search(rf"\b{re.escape(name)}\b", usage_blob):
                yield self.finding(
                    self.scheduler_path, lineno,
                    f"{self.report_class}.{name} is never referenced by "
                    "any test -- telemetry nobody reads is telemetry "
                    "nobody notices breaking",
                    self.report_class, f"usage:{name}",
                )
