"""``docs-knobs``: engine/scheduler knobs must be documented.

Successor to the fragile heredoc that used to live in
``scripts/check.sh``: every parameter of
``repro.serving.engine.BatchedEngine.__init__`` and of
``repro.serving.scheduler.ContinuousBatchingScheduler.__init__`` must
appear backticked in the ``docs/serving.md`` knob tables, so a knob
added (or renamed) without documentation fails the tier-1 gate.

Unlike the heredoc, this rule reads signatures from the AST instead of
importing the package, so it needs no ``PYTHONPATH`` gymnastics and can
run against the temporary doc-edit trees the acceptance tests build.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from .core import Finding, Project, Rule

DOCS_PATH = "docs/serving.md"

#: (relpath, qualname) signatures whose parameters the docs must cover.
KNOB_SOURCES: Tuple[Tuple[str, str], ...] = (
    ("src/repro/serving/engine.py", "BatchedEngine.__init__"),
    ("src/repro/serving/scheduler.py",
     "ContinuousBatchingScheduler.__init__"),
)


def _find_function(tree: ast.AST, qualname: str) -> Optional[ast.FunctionDef]:
    parts = qualname.split(".")
    node: ast.AST = tree
    for i, part in enumerate(parts):
        next_node = None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and child.name == part:
                next_node = child
                break
        if next_node is None:
            return None
        node = next_node
    return node if isinstance(node, ast.FunctionDef) else None


def _param_names(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return [n for n in names if n not in ("self", "cls")]


class DocsKnobsRule(Rule):
    """Engine/scheduler signature parameters vs docs/serving.md."""

    rule_id = "docs-knobs"
    description = (
        "every BatchedEngine and ContinuousBatchingScheduler "
        "knob must appear in the docs/serving.md knob tables"
    )

    def __init__(
        self,
        docs_path: str = DOCS_PATH,
        sources: Sequence[Tuple[str, str]] = KNOB_SOURCES,
    ):
        self.docs_path = docs_path
        self.sources = tuple(sources)

    def check(self, project: Project) -> Iterator[Finding]:
        docs = project.text(self.docs_path)
        if docs is None:
            yield self.finding(
                self.docs_path, 1,
                f"{self.docs_path} is missing; the engine/scheduler knob "
                "tables live there",
                "<docs>", "missing-docs",
            )
            docs = ""
        for relpath, qualname in self.sources:
            tree = project.tree(relpath)
            if tree is None:
                yield self.finding(
                    relpath, 1,
                    f"cannot parse {relpath}; knob freshness for "
                    f"{qualname} cannot be checked",
                    qualname, "missing-source",
                )
                continue
            func = _find_function(tree, qualname)
            if func is None:
                yield self.finding(
                    relpath, 1,
                    f"{qualname} not found in {relpath}; update the "
                    "docs-knobs rule's KNOB_SOURCES",
                    qualname, "missing-function",
                )
                continue
            for name in _param_names(func):
                if f"`{name}`" not in docs:
                    yield self.finding(
                        relpath, func.lineno,
                        f"knob {qualname}({name}=...) is not documented "
                        f"in {self.docs_path} (add a backticked `{name}` "
                        "row to the knob table)",
                        qualname, f"knob:{name}",
                    )
