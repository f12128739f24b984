"""``repro.analysis``: AST-based invariant linter for this repo.

The runtime property suites prove the serving stack's guarantees hold
*today*; this package machine-checks the **source-level rules** that
keep them true tomorrow:

========================  ==================================================
rule id                   guards
========================  ==================================================
``rng-purity``            bit-identity: no unseeded RNG anywhere, no
                          wall-clock reads in engine paths
``slot-pairing``          ``free + in_use + cached == n_pages``: every
                          seat/allocate reaches a release on normal
                          and exception paths; double releases flagged
``scalar-loop``           vectorised hot paths: no per-sequence Python
                          loops in registered decode/prefill functions
``telemetry-docs``        every ``ServeReport`` field documented in
                          ``docs/serving.md`` and exercised by reporting
                          or tests
``docs-knobs``            every engine/scheduler knob documented in
                          ``docs/serving.md``
========================  ==================================================

Run it with ``python -m repro.analysis`` (exit 0 = clean); silence a
finding inline with ``# repro: ignore[rule-id]`` or accept it in
``analysis_baseline.txt`` with a justification.  Full catalog:
``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .core import (
    AnalysisReport,
    Baseline,
    DEFAULT_BASELINE_NAME,
    Finding,
    Project,
    Rule,
    make_fingerprint,
    run_analysis,
)
from .rules_docs import DocsKnobsRule
from .rules_loops import ScalarLoopRule
from .rules_purity import RngPurityRule
from .rules_slots import SlotPairingRule
from .rules_telemetry import TelemetryDocsRule

__all__ = [
    "AnalysisReport",
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "DocsKnobsRule",
    "Finding",
    "Project",
    "RngPurityRule",
    "Rule",
    "ScalarLoopRule",
    "SlotPairingRule",
    "TelemetryDocsRule",
    "default_rules",
    "make_fingerprint",
    "run_analysis",
]


def default_rules() -> List[Rule]:
    """Fresh instances of the full project rule set, in catalog order."""
    return [
        RngPurityRule(),
        SlotPairingRule(),
        ScalarLoopRule(),
        TelemetryDocsRule(),
        DocsKnobsRule(),
    ]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in default_rules()}
