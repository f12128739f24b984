"""``slot-pairing``: every acquired KV slot must reach a release.

The page-pool invariant ``free + in_use + cached == n_pages`` is
enforced at runtime by the property suites, but the *source-level* rule
that keeps it true is ownership discipline in the serving layer: every
``seat`` (and the ``allocate`` a cold seat dispatches to) hands back
an owned slot that must end in exactly one ``release`` -- on
the normal path *and* when a compute call in between raises.  This rule machine-checks that discipline with
a small flow-sensitive abstract interpreter per function:

* an **acquisition** creates an owned value; assigning it, storing it
  into a wrapper object (``seq = _ActiveSequence(slot=slot, ...)``), or
  re-binding it just grows the owner's *alias set*;
* ownership **transfers out** when an alias is returned, or passed to
  any non-compute call (``self.active.append(seq)``,
  ``self._finish_prompt(seq, ...)``) -- the callee or container is the
  owner now;
* a **release** closes the owner; a second release on a
  definitely-released owner is a *double-release* finding;
* calls in the **compute registry** (``prefill``, ``decode_step``, ...)
  are assumed to be able to raise.  Holding an owned, un-escaped slot
  across one is an *exception-path leak* unless an enclosing ``try``
  releases the slot in a handler or ``finally``;
* a function that can fall off the end (or ``return``/``raise``) while
  an owner may still be open is a *normal-path leak*.

The analysis is intraprocedural and deliberately approximate (joins are
may-unions over branch states; loops run once), which is the right
trade for a lint: it proves the shapes this repo actually uses and
flags the shapes that have bitten it -- discarded allocations, missing
exception paths, double releases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import Finding, Project, Rule

ACQUIRE_METHODS = frozenset({"allocate", "seat"})
RELEASE_METHODS = frozenset({"release"})
#: Engine/model entry points assumed to raise (shape/validation errors).
COMPUTE_METHODS = frozenset({
    "prefill", "decode_step", "generate", "_forward_chunk",
    "_forward_batch",
})
DEFAULT_SCOPE = ("src/repro/serving/",)

OWNED, RELEASED, ESCAPED = "owned", "released", "escaped"


def _terminal_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """``seq`` for ``seq.slot`` / ``seq``; None for anything else."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _arg_names(call: ast.Call) -> Set[str]:
    """Root names of every positional/keyword argument."""
    names: Set[str] = set()
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            arg = arg.value
        root = _root_name(arg)
        if root:
            names.add(root)
    for kw in call.keywords:
        root = _root_name(kw.value)
        if root:
            names.add(root)
    return names


@dataclass
class _Owner:
    aliases: Set[str]
    statuses: Set[str]
    line: int
    label: str

    def copy(self) -> "_Owner":
        return _Owner(set(self.aliases), set(self.statuses),
                      self.line, self.label)


_State = Dict[int, _Owner]


def _copy_state(state: _State) -> _State:
    return {k: v.copy() for k, v in state.items()}


def _join(*states: _State) -> _State:
    out: _State = {}
    for state in states:
        for key, owner in state.items():
            if key in out:
                out[key].statuses |= owner.statuses
                out[key].aliases |= owner.aliases
            else:
                out[key] = owner.copy()
    return out


@dataclass
class _FuncAnalysis:
    rule: "SlotPairingRule"
    relpath: str
    qualname: str
    findings: List[Finding] = field(default_factory=list)
    _next_id: int = 0
    _emitted: Set[Tuple[int, str, int]] = field(default_factory=set)

    # -- finding emission --------------------------------------------------

    def _emit(self, line: int, kind: str, message: str, label: str) -> None:
        key = (line, kind, hash(label))
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(self.rule.finding(
            self.relpath, line, message, self.qualname,
            f"{kind}:{label}",
        ))

    # -- driver ------------------------------------------------------------

    def run(self, node: ast.FunctionDef) -> None:
        state: _State = {}
        self._visit_stmts(node.body, state, guards=frozenset())
        self._check_exit(state, node.body[-1].lineno if node.body else
                         node.lineno, reason="function exit")

    def _check_exit(self, state: _State, line: int, reason: str) -> None:
        for owner in state.values():
            if OWNED in owner.statuses:
                self._emit(
                    owner.line, "leak",
                    f"slot from {owner.label}() (line {owner.line}) may "
                    f"reach {reason} without release",
                    owner.label,
                )
                owner.statuses.discard(OWNED)   # report each owner once

    # -- statement walk ----------------------------------------------------

    def _visit_stmts(self, stmts: Sequence[ast.stmt], state: _State,
                     guards: frozenset) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt, state, guards)

    def _visit_stmt(self, stmt: ast.stmt, state: _State,
                    guards: frozenset) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return                      # nested scopes analyzed separately
        if isinstance(stmt, ast.Assign):
            self._do_assign(stmt.targets, stmt.value, state, guards)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._do_assign([stmt.target], stmt.value, state, guards)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, state, guards)
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Call) and \
                    _terminal_name(value.func) in self.rule.acquire:
                self._emit(
                    value.lineno, "discard",
                    f"result of {_terminal_name(value.func)}() is "
                    "discarded -- the acquired slot/pages leak "
                    "immediately; bind and release it",
                    _terminal_name(value.func) or "?",
                )
            else:
                self._scan_expr(value, state, guards)
        elif isinstance(stmt, ast.Return):
            self._do_return(stmt, state, guards)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, state, guards)
            unguarded = {
                k: o for k, o in state.items()
                if not (o.aliases & guards)
            }
            self._check_exit(unguarded, stmt.lineno, reason="a raise")
        elif isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, state, guards)
            s_then = _copy_state(state)
            s_else = _copy_state(state)
            self._visit_stmts(stmt.body, s_then, guards)
            self._visit_stmts(stmt.orelse, s_else, guards)
            state.clear()
            state.update(_join(s_then, s_else))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, state, guards)
            body_state = _copy_state(state)
            self._visit_stmts(stmt.body, body_state, guards)
            merged = _join(state, body_state)
            state.clear()
            state.update(merged)
            self._visit_stmts(stmt.orelse, state, guards)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, state, guards)
            body_state = _copy_state(state)
            self._visit_stmts(stmt.body, body_state, guards)
            merged = _join(state, body_state)
            state.clear()
            state.update(merged)
            self._visit_stmts(stmt.orelse, state, guards)
        elif isinstance(stmt, ast.Try):
            self._do_try(stmt, state, guards)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, state, guards)
            self._visit_stmts(stmt.body, state, guards)
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            for value in ast.walk(stmt):
                if isinstance(value, ast.Call):
                    self._handle_call(value, state, guards)
        # Pass/Break/Continue/Import/Global: no ownership effect.

    def _do_try(self, stmt: ast.Try, state: _State,
                guards: frozenset) -> None:
        # Names a handler or finally releases guard compute calls in the
        # body: an exception there still reaches a release.
        released: Set[str] = set()
        for node in stmt.handlers + [ast.Module(body=stmt.finalbody,
                                                type_ignores=[])]:
            body = node.body
            for sub in body:
                for call in (n for n in ast.walk(sub)
                             if isinstance(n, ast.Call)):
                    if _terminal_name(call.func) in self.rule.release:
                        released |= _arg_names(call)
        pre = _copy_state(state)
        self._visit_stmts(stmt.body, state, guards | frozenset(released))
        self._visit_stmts(stmt.orelse, state, guards)
        handler_states = []
        for handler in stmt.handlers:
            hstate = _join(pre, state)
            self._visit_stmts(handler.body, hstate, guards)
            handler_states.append(hstate)
        merged = _join(state, *handler_states)
        state.clear()
        state.update(merged)
        self._visit_stmts(stmt.finalbody, state, guards)

    def _do_return(self, stmt: ast.Return, state: _State,
                   guards: frozenset) -> None:
        value = stmt.value
        if isinstance(value, ast.Call) and \
                _terminal_name(value.func) in self.rule.acquire:
            # ``return self.cache.allocate(...)``: ownership transfers
            # to the caller; nothing to track.
            for call in ast.walk(value):
                if isinstance(call, ast.Call) and call is not value:
                    self._handle_call(call, state, guards)
        elif value is not None:
            root = _root_name(value)
            if root:
                self._escape_alias(root, state)
            self._scan_expr(value, state, guards)
        self._check_exit(state, stmt.lineno, reason="a return")

    def _do_assign(self, targets: Sequence[ast.expr], value: ast.expr,
                   state: _State, guards: frozenset) -> None:
        target_names = {
            t.id for t in targets if isinstance(t, ast.Name)
        }
        # A name re-bound stops aliasing whatever it used to own.
        for owner in state.values():
            owner.aliases -= target_names

        if isinstance(value, ast.Call):
            name = _terminal_name(value.func)
            if name in self.rule.acquire:
                for call in ast.walk(value):
                    if isinstance(call, ast.Call) and call is not value:
                        self._handle_call(call, state, guards)
                self._next_id += 1
                state[self._next_id] = _Owner(
                    aliases=set(target_names) or {f"<anon{self._next_id}>"},
                    statuses={OWNED},
                    line=value.lineno,
                    label=name or "?",
                )
                return
            if name not in self.rule.release and \
                    name not in self.rule.compute:
                # Constructor-style transfer: ``seq =
                # _ActiveSequence(slot=slot)`` makes ``seq`` an alias of
                # the owned slot rather than an escape.
                args = _arg_names(value)
                transferred = False
                for owner in state.values():
                    if OWNED in owner.statuses and (owner.aliases & args):
                        owner.aliases |= target_names
                        transferred = True
                for call in ast.walk(value):
                    if isinstance(call, ast.Call) and (
                            call is not value or not transferred):
                        self._handle_call(call, state, guards)
                return
            self._scan_expr(value, state, guards)
            return
        root = _root_name(value) if isinstance(
            value, (ast.Name, ast.Attribute)) else None
        if root:
            for owner in state.values():
                if root in owner.aliases:
                    owner.aliases |= target_names
        self._scan_expr(value, state, guards)

    # -- expression / call handling ---------------------------------------

    def _scan_expr(self, expr: ast.expr, state: _State,
                   guards: frozenset) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node, state, guards)

    def _escape_alias(self, name: str, state: _State) -> None:
        for owner in state.values():
            if name in owner.aliases and OWNED in owner.statuses:
                owner.statuses.discard(OWNED)
                owner.statuses.add(ESCAPED)

    def _handle_call(self, call: ast.Call, state: _State,
                     guards: frozenset) -> None:
        name = _terminal_name(call.func)
        if name in self.rule.acquire:
            # Acquisition in a context that did not bind it (nested in a
            # larger expression): the handle is unreachable.
            self._emit(
                call.lineno, "discard",
                f"result of {name}() is not bound to a name -- the "
                "acquired slot/pages cannot be released",
                name or "?",
            )
            return
        args = _arg_names(call)
        if name in self.rule.release:
            for owner in state.values():
                if owner.aliases & args:
                    if owner.statuses == {RELEASED}:
                        self._emit(
                            call.lineno, "double-release",
                            f"slot from {owner.label}() (line "
                            f"{owner.line}) is already released on every "
                            "path reaching this second release",
                            owner.label,
                        )
                    owner.statuses.discard(OWNED)
                    owner.statuses.discard(ESCAPED)
                    owner.statuses.add(RELEASED)
            return
        if name in self.rule.compute:
            for owner in state.values():
                if OWNED in owner.statuses and not (owner.aliases & guards):
                    self._emit(
                        call.lineno, "exception-path",
                        f"slot from {owner.label}() (line {owner.line}) "
                        f"leaks if {name}() raises here; wrap the call in "
                        "try/except that releases the slot (and re-raises) "
                        "or a try/finally",
                        owner.label,
                    )
            return
        # Any other call an alias is passed to takes ownership.
        for arg_name in args:
            self._escape_alias(arg_name, state)


class SlotPairingRule(Rule):
    """Flow-sensitive seat/allocate vs release pairing."""

    rule_id = "slot-pairing"
    description = (
        "every cache seat/allocate in serving code must "
        "reach a release on normal and exception paths; double releases "
        "are flagged"
    )

    def __init__(
        self,
        scope: Sequence[str] = DEFAULT_SCOPE,
        acquire: frozenset = ACQUIRE_METHODS,
        release: frozenset = RELEASE_METHODS,
        compute: frozenset = COMPUTE_METHODS,
    ):
        self.scope: Tuple[str, ...] = tuple(scope)
        self.acquire = acquire
        self.release = release
        self.compute = compute

    def check(self, project: Project) -> Iterator[Finding]:
        for relpath in project.iter_python_files():
            if not relpath.startswith(self.scope):
                continue
            tree = project.tree(relpath)
            if tree is None:
                continue
            yield from self._check_file(relpath, tree)

    def _check_file(self, relpath: str, tree: ast.AST) -> Iterator[Finding]:
        for qualname, func in _iter_functions(tree):
            analysis = _FuncAnalysis(self, relpath, qualname)
            analysis.run(func)
            yield from analysis.findings


def _iter_functions(tree: ast.AST) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """(qualname, node) for every function, including methods/nested."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    for qual, node in walk(tree, ""):
        if isinstance(node, ast.FunctionDef):
            yield qual, node
