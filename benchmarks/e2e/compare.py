"""Compare two result sets of the e2e suite, metric by metric.

    python3 benchmarks/e2e/compare.py a.json b.json

``a`` is the base.  One row per (workload, end-to-end metric): both
values, both spreads (how far the run's own blocks disagree), the
bound, the ratio b/a, and a verdict:

``same``        b is within the bound of a, either way
``better``      b beats a by more than the bound
``worse``       b is worse than a by more than the bound
``unresolved``  a spread is wider than the bound (or a value is missing),
                so the run cannot tell -- not the same as unchanged

Closed loops are tick-driven, so with equal seeds their token checksums
and every per-layer count must be identical; a difference is reported
as ``differs``.  Exit code 0 only when no row is ``worse``,
``unresolved`` or ``differs``: that is the agreement check two runs of
the same code must pass.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional, Tuple

from layers import END_TO_END
from workloads import WORKLOADS


def verdict(
    a: Optional[float], b: Optional[float], spread_a: Optional[float],
    spread_b: Optional[float], better: str, bound: float,
) -> Tuple[str, Optional[float]]:
    """The row's verdict and b's worsening as a share of a."""
    if a is None or b is None or a == 0:
        return "unresolved", None
    worsening = (b - a) / a if better == "lower" else (a - b) / a
    if max(spread_a or 0.0, spread_b or 0.0) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def _counts(run: dict) -> dict:
    """What must repeat exactly: counts, not times."""
    return {
        name: entry["value"] for name, entry in run["metrics"].items()
        if entry["unit"] in ("count", "tokens", "pages", "B", "seqs")
    }


def compare(a: dict, b: dict) -> Tuple[List[str], int]:
    lines, disagreements = [], 0
    header = (
        f"{'workload':<17}{'metric':<16}{'a':>12}{'b':>12}  {'unit':<6}"
        f"{'spread a':>9}{'spread b':>9}{'bound':>7}  {'b/a':>7}  verdict"
    )
    lines += [f"a = {a['set']} (base), b = {b['set']}", header]
    for workload in WORKLOADS:
        run_a = a["workloads"][workload.name]
        run_b = b["workloads"][workload.name]
        for name, unit, better, bound in END_TO_END:
            ma = run_a["end_to_end"]["metrics"][name]
            mb = run_b["end_to_end"]["metrics"][name]
            word, _ = verdict(
                ma["value"], mb["value"], ma["spread"], mb["spread"],
                better, bound,
            )
            disagreements += word in ("worse", "unresolved")
            if ma["value"] is None or mb["value"] is None:
                lines.append(f"{workload.name:<17}{name:<16}{'missing':>12}  {word}")
                continue
            lines.append(
                f"{workload.name:<17}{name:<16}{ma['value']:>12.5g}"
                f"{mb['value']:>12.5g}  {unit:<6}{ma['spread']:>9.3f}"
                f"{mb['spread']:>9.3f}{bound:>7.2f}  "
                f"{mb['value'] / ma['value']:>7.3f}  {word}"
            )
        if workload.open_loop or a["seed"] != b["seed"]:
            continue
        sums_a = run_a["end_to_end"]["diagnostics"]["checksums"]
        sums_b = run_b["end_to_end"]["diagnostics"]["checksums"]
        counts_a, counts_b = _counts(run_a["per_layer"]), _counts(run_b["per_layer"])
        moved = sorted(k for k, v in counts_a.items() if counts_b.get(k) != v)
        same = sums_a == sums_b and not moved
        disagreements += not same
        lines.append(
            f"{workload.name:<17}token checksum and {len(counts_a)}"
            f" per-layer counts: {'identical' if same else 'differs'}"
            + ("" if same else f" (checksums {sums_a} vs {sums_b}; counts {moved})")
        )
    lines.append(
        f"max_rate_in_slo: a {a['max_rate_in_slo']:g} req/s, "
        f"b {b['max_rate_in_slo']:g} req/s"
    )
    return lines, disagreements


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines, disagreements = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print(f"{disagreements} row(s) worse, unresolved or differing")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
