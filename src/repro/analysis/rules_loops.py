"""``scalar-loop``: Python loops over batch/sequence dims in hot paths.

The serving stack's performance story (PR 4 onwards) is that decode and
prefill hot functions are *vectorised*: one stacked GEMM per layer, not
``B`` scalar calls.  Drift back to per-sequence Python loops is easy to
introduce and hard to spot in review -- ROADMAP item 5 records exactly
one such survivor (the per-sequence greedy argmax in the scheduler
tick, seeded into ``analysis_baseline.txt``).

The rule keeps a registry of *hot functions* and, per function, the
identifiers that name its batch/sequence dimension.  Any ``for``
statement inside a registered function whose iterable mentions one of
those identifiers is flagged, unless every call in the loop body is
trivial bookkeeping (currently just ``slot.advance()``).  List/set/dict
comprehensions are not flagged: they build per-sequence *metadata*
(slot lists, rope tables), not per-sequence model compute.

Intentional scalar loops stay, visibly: they carry inline
``# repro: ignore[scalar-loop]`` markers (today the scheduler's ragged
verify loop and the ragged pass's per-segment attention), and
accepted-but-unfixed loops would live in the baseline with a
justification (today there are none).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

from .core import Finding, Project, Rule

#: (relpath, qualname) -> identifiers naming that function's batch or
#: sequence dimension.  Attribute chains are spelled dotted
#: (``self.active``).
HOT_FUNCTIONS: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("src/repro/serving/engine.py", "BatchedEngine.decode_step"):
        frozenset({"slots", "token_ids"}),
    ("src/repro/serving/engine.py", "BatchedEngine.prefill"):
        frozenset({"prompt_ids", "slots", "lengths"}),
    # The one layer loop and its one batch > 1 attention: rows are
    # ragged segments of slots' positions (`_forward_chunk`), a prompt
    # piece or verify chunk per slot, or one row per slot for decode
    # and draft, which `_forward_batch` hands over (batch 1 takes
    # `forward_token_single`).  A `for` statement over these
    # identifiers would mean per-token or per-sequence model compute
    # crept back in.  The per-segment attention loop (`attend`, over
    # `blocks`) is the one marked exception: causal blocks of different
    # cache lengths.
    ("src/repro/model/inference.py", "forward_rows"):
        frozenset({"token_ids", "x"}),
    ("src/repro/serving/engine.py", "BatchedEngine._forward_chunk"):
        frozenset({"token_ids", "n_tokens", "segments", "blocks"}),
    ("src/repro/serving/engine.py", "BatchedEngine._forward_chunk.attend"):
        frozenset({"blocks", "q", "k", "v", "qr", "kr", "ctx"}),
    ("src/repro/serving/engine.py", "BatchedEngine._forward_batch"):
        frozenset({"slots", "token_ids"}),
    # Speculative self-drafting (PR 9): the aggressive-alpha draft
    # step, the chunked verify pass, and the scheduler's draft/verify
    # driver must all stay batched.  KV rollback (`truncate`) is
    # page-table bookkeeping; looping it per position or per dropped
    # page with real work would defeat its O(pages) contract.
    ("src/repro/serving/engine.py", "BatchedEngine.draft_step"):
        frozenset({"slots", "token_ids"}),
    ("src/repro/serving/engine.py", "BatchedEngine.verify_chunk"):
        frozenset({"token_ids"}),
    ("src/repro/serving/scheduler.py",
     "ContinuousBatchingScheduler._speculate"):
        frozenset({"drafters"}),
    ("src/repro/model/paged_kvcache.py", "PagedKVSlot.truncate"):
        frozenset({"dropped", "self.page_table"}),
    ("src/repro/serving/scheduler.py",
     "ContinuousBatchingScheduler.step"):
        frozenset({"self.active", "decoding", "slots"}),
    # Batched per-request sampling (PR 8): the (B, vocab) kernel call
    # and its scheduler driver must stay one vectorised pass per tick.
    # Per-row uniforms come from a comprehension over the request
    # streams (metadata, exempt); a `for` statement over these batch
    # identifiers would mean the per-sequence argmax loop grew back.
    ("src/repro/model/sampler.py", "BatchedSampler.sample"):
        frozenset({"logits", "configs", "request_ids", "rows"}),
    ("src/repro/model/sampler.py", "filtered_probs"):
        frozenset({"logits", "temperatures", "top_ks", "top_ps"}),
    ("src/repro/serving/scheduler.py",
     "ContinuousBatchingScheduler._sample_tokens"):
        frozenset({"seqs", "logits", "configs"}),
    # Seeded load generation (PR 10): arrival traces must be drawn as
    # vectorised batches (one exponential/cumsum call, batched thinning
    # candidates), never gap-by-gap -- a `for` statement over the gap
    # or candidate arrays would mean per-arrival RNG calls crept back
    # into trace construction.
    ("src/repro/serving/loadgen.py", "PoissonProcess.arrival_times"):
        frozenset({"gaps", "n"}),
    ("src/repro/serving/loadgen.py", "DiurnalProcess.arrival_times"):
        frozenset({"gaps", "cand", "keep", "kept"}),
    # The decode MLP block's two kernels (PR 21): XOR+popcount over the
    # word-major sign lanes and the dense-masked batch executor.  A `for`
    # over batch rows or gate rows is per-element work; iterating the
    # handful of lanes (`self.lanes`, d / 64 of them) is not, so it is
    # deliberately unguarded.
    ("src/repro/core/signpack.py", "PackedSigns.negative_counts_packed"):
        frozenset({"packed_x", "px", "self.words", "self.n_rows"}),
    ("src/repro/serving/batch_mlp.py", "BatchedSparseInferMLP.run_batch"):
        frozenset({"xs", "xs_t", "batch", "prediction", "h", "k"}),
    ("src/repro/model/mlp.py", "DenseMLP.run_tokens"):     # dense prefill
        frozenset({"xs", "xs_t", "h"}),
    # The row paths' GEMM shape helper: activation rows are the batch
    # dimension; the lm-head's loop over its few column blocks
    # (`weights.lm_head_blocks`, vocab / 256 of them) is deliberately
    # unguarded, like the sign lanes above.
    ("src/repro/model/gemm.py", "as_columns"): frozenset({"xs", "out"}),
    ("src/repro/model/gemm.py", "lm_head_logits"):
        frozenset({"x", "rows", "out"}),
    # The one-row path build_engine and batch-1 serving share: gate
    # rows and cached positions.  The layer loop is not per-element work.
    ("src/repro/core/sparse_mlp.py", "SparseInferMLP.run_with_skip"):
        frozenset({"skip", "kept", "live", "h1", "h3", "x", "k"}),
    ("src/repro/model/inference.py", "forward_token_single"):
        frozenset({"token_id", "position"}),
    ("src/repro/model/inference.py", "attend_single"):
        frozenset({"position", "length", "keys", "values", "kh", "vh",
                   "scores", "probs"}),
}

#: Calls that do not count as per-element work (O(1) bookkeeping).
CHEAP_CALLS = frozenset({"advance"})


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _iter_identifiers(node: ast.AST) -> Iterator[str]:
    """Names and dotted attribute chains mentioned in an expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            dotted = _dotted(sub)
            if dotted is not None:
                yield dotted


def _body_is_cheap(node: ast.For) -> bool:
    for sub in node.body:
        for call in (n for n in ast.walk(sub) if isinstance(n, ast.Call)):
            name = call.func.attr if isinstance(call.func, ast.Attribute) \
                else getattr(call.func, "id", None)
            if name not in CHEAP_CALLS:
                return False
    return True


class ScalarLoopRule(Rule):
    """Per-sequence Python loops inside registered hot functions."""

    rule_id = "scalar-loop"
    description = (
        "Python for-loops iterating a batch/sequence dimension inside "
        "registered decode/prefill hot functions (the ROADMAP-item-5 "
        "drift class)"
    )

    def __init__(
        self,
        registry: Mapping[Tuple[str, str], FrozenSet[str]] = None,
    ):
        self.registry = dict(HOT_FUNCTIONS if registry is None else registry)

    def check(self, project: Project) -> Iterator[Finding]:
        by_path: Dict[str, Dict[str, FrozenSet[str]]] = {}
        for (relpath, qualname), names in self.registry.items():
            by_path.setdefault(relpath, {})[qualname] = names
        for relpath, funcs in sorted(by_path.items()):
            tree = project.tree(relpath)
            if tree is None:
                if project.text(relpath) is None:
                    yield self.finding(
                        relpath, 1,
                        f"registered hot-function file {relpath} is "
                        "missing; update the scalar-loop registry",
                        "<registry>", "missing-file",
                    )
                continue
            found = dict.fromkeys(funcs, False)
            for qualname, node in _walk_functions(tree):
                if qualname not in funcs:
                    continue
                found[qualname] = True
                yield from self._check_function(
                    relpath, qualname, node, funcs[qualname]
                )
            for qualname, present in found.items():
                if not present:
                    yield self.finding(
                        relpath, 1,
                        f"registered hot function {qualname} no longer "
                        "exists; update the scalar-loop registry",
                        qualname, "missing-function",
                    )

    def _check_function(
        self, relpath: str, qualname: str, node: ast.FunctionDef,
        batch_names: FrozenSet[str],
    ) -> Iterator[Finding]:
        for loop in _walk_loops(node):
            mentioned = set(_iter_identifiers(loop.iter)) & batch_names
            if not mentioned:
                continue
            if _body_is_cheap(loop):
                continue
            iter_src = ast.unparse(loop.iter)
            yield self.finding(
                relpath, loop.lineno,
                f"hot path {qualname} loops per-element over the "
                f"batch/sequence dimension ({iter_src}); vectorise over "
                "the batch (see docs/analysis.md)",
                qualname, iter_src,
            )


def _walk_functions(tree: ast.AST) -> Iterator[Tuple[str, ast.FunctionDef]]:
    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
    yield from walk(tree, "")


def _walk_loops(func: ast.FunctionDef) -> Iterator[ast.For]:
    """For statements in ``func``, not descending into nested defs."""
    stack = list(func.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.For):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.For,)):
                stack.append(child)
