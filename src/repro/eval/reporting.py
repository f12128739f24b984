"""Plain-text rendering helpers shared by benches and examples."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def ascii_histogram(
    values: np.ndarray,
    bins: int = 21,
    width: int = 40,
    limit_sigma: float = 3.0,
) -> str:
    """Render a symmetric histogram as rows of '#' bars (Fig. 2 style)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("empty sample")
    std = values.std() or 1.0
    lim = limit_sigma * std
    counts, edges = np.histogram(values, bins=bins, range=(-lim, lim))
    peak = counts.max() or 1
    lines = []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"{(lo + hi) / 2:>10.4f} |{bar}")
    return "\n".join(lines)


def ascii_curve(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 50,
    label: str = "",
    y_min: float = 0.0,
    y_max: float = 1.0,
) -> str:
    """Render a 1-D curve as one bar row per x (Fig. 3 style)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if y_max <= y_min:
        raise ValueError("y_max must exceed y_min")
    lines = [label] if label else []
    for x, y in zip(xs, ys):
        frac = (min(max(y, y_min), y_max) - y_min) / (y_max - y_min)
        bar = "#" * int(round(width * frac))
        lines.append(f"{x:>6} |{bar} {y:.4f}")
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Minimal GitHub-style markdown table."""
    if not headers:
        raise ValueError("need at least one column")
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    sep = "|" + "|".join("---" for _ in headers) + "|"
    body = [
        "| " + " | ".join(str(c) for c in row) + " |" for row in rows
    ]
    return "\n".join([head, sep, *body])


def format_serving_sweep(baseline, points, analytic_skips=None) -> str:
    """Render a serving batch-size sweep against the sequential baseline.

    ``baseline`` and ``points`` are
    :class:`repro.eval.latency.ServingMeasurement` objects; the optional
    ``analytic_skips`` aligns one
    :func:`repro.gpu.batching.batch_skip_fraction` value per point so the
    measured intersection can be read against the ``skip^B`` decay curve.
    """
    if analytic_skips is not None and len(analytic_skips) != len(points):
        raise ValueError("need one analytic skip value per sweep point")
    headers = ["engine", "tok/s", "speedup", "occupancy",
               "skip (measured)", "skip (skip^B)"]
    rows = [[
        baseline.label, f"{baseline.report.tokens_per_second:.1f}", "1.00x",
        f"{baseline.report.mean_batch_occupancy:.2f}",
        f"{baseline.report.intersection_skip:.1%}", "-",
    ]]
    for i, point in enumerate(points):
        analytic = (
            f"{analytic_skips[i]:.1%}" if analytic_skips is not None else "-"
        )
        rows.append([
            point.label,
            f"{point.report.tokens_per_second:.1f}",
            f"{point.speedup_over(baseline):.2f}x",
            f"{point.report.mean_batch_occupancy:.2f}",
            f"{point.report.intersection_skip:.1%}",
            analytic,
        ])
    return markdown_table(headers, rows)


def format_sampling(points) -> str:
    """Render the per-configuration sampling split (PR 8 telemetry).

    ``points`` are :class:`repro.eval.latency.ServingMeasurement`
    objects.  ``greedy_tokens`` / ``sampled_tokens`` split every
    emitted token by decode mode (batched argmax vs per-request RNG
    stream); ``sampler_seconds`` is the vectorised sampler's share of
    the wall-clock, so the sampler column staying a sliver of tok/s
    cost is the evidence batched sampling rides along for free.
    """
    headers = ["engine", "greedy", "sampled", "sampler (ms)",
               "sampler share", "tok/s"]
    rows = []
    for point in points:
        report = point.report
        share = (report.sampler_seconds / report.wall_seconds
                 if report.wall_seconds else 0.0)
        rows.append([
            point.label,
            str(report.greedy_tokens),
            str(report.sampled_tokens),
            f"{report.sampler_seconds * 1e3:.2f}",
            f"{share:.1%}",
            f"{report.tokens_per_second:.1f}",
        ])
    return markdown_table(headers, rows)


def format_speculation(points) -> str:
    """Render per-configuration speculation telemetry (PR 9).

    ``points`` are :class:`repro.eval.latency.ServingMeasurement`
    objects.  ``drafted_tokens`` / ``accepted_tokens`` count the
    aggressive-alpha draft proposals and the subset the chunked verify
    pass confirmed (``acceptance_rate`` is their ratio);
    ``draft_seconds`` and ``verify_seconds`` are the wall-clock the two
    speculation phases spent.  The interesting read is tokens per
    decode step against acceptance: speculation only beats plain decode
    while accepted drafts outweigh the draft+verify overhead.
    """
    headers = ["engine", "drafted", "accepted", "accept rate",
               "draft (ms)", "verify (ms)", "tok/step", "tok/s"]
    rows = []
    for point in points:
        report = point.report
        per_step = (report.tokens_generated / report.decode_steps
                    if report.decode_steps else 0.0)
        rows.append([
            point.label,
            str(report.drafted_tokens),
            str(report.accepted_tokens),
            f"{report.acceptance_rate:.1%}",
            f"{report.draft_seconds * 1e3:.2f}",
            f"{report.verify_seconds * 1e3:.2f}",
            f"{per_step:.2f}",
            f"{report.tokens_per_second:.1f}",
        ])
    return markdown_table(headers, rows)


def format_tail_latency(points) -> str:
    """Render per-configuration tail latency (budgeted-tick telemetry).

    ``points`` are :class:`repro.eval.latency.ServingMeasurement`
    objects from runs with wall-clock stamps (scheduler ``submit`` +
    drain).  The interesting read is ``max ITL`` against ``peak
    tick prefill``: the worst stall scales with the step budget, not
    with the longest prompt.
    """
    headers = ["engine", "TTFT p50 (ms)", "TTFT p99 (ms)",
               "ITL p50 (ms)", "ITL p99 (ms)", "max ITL (ms)",
               "peak tick prefill", "preempt/resume"]
    rows = []
    for point in points:
        report = point.report
        rows.append([
            point.label,
            f"{report.ttft_seconds_percentile(50) * 1e3:.2f}",
            f"{report.ttft_seconds_percentile(99) * 1e3:.2f}",
            f"{report.itl_seconds_percentile(50) * 1e3:.2f}",
            f"{report.itl_seconds_percentile(99) * 1e3:.2f}",
            f"{report.max_itl_seconds * 1e3:.2f}",
            str(report.peak_tick_prefill_tokens),
            f"{report.preemptions}/{report.resumed_admissions}",
        ])
    return markdown_table(headers, rows)


def format_goodput(points) -> str:
    """Render per-class goodput under SLO traffic (PR 10).

    ``points`` are :class:`repro.eval.latency.ServingMeasurement`
    objects whose requests carried SLO contracts: one row per
    ``(engine, slo_class)`` from ``class_telemetry()``, splitting each class's
    requests into SLO-met / missed / shed, its ``goodput_tokens`` (the
    SLO-met subset of its tokens), and its deterministic tick-based
    TTFT/ITL p99.  The interesting read is the same overloaded trace
    under ``admission="fifo"`` vs ``"deadline"``: FIFO burns decode
    capacity on requests already past their deadlines, deadline
    admission sheds them and converts the freed capacity into goodput.
    """
    headers = ["engine", "class", "requests", "met", "missed", "shed",
               "goodput tok", "goodput %", "TTFT p99 (ticks)",
               "ITL p99 (ticks)"]
    rows = []
    for point in points:
        for tag, stats in point.report.class_telemetry().items():
            fraction = (stats["goodput_tokens"] / stats["tokens"]
                        if stats["tokens"] else 0.0)
            rows.append([
                point.label,
                tag,
                str(stats["requests"]),
                str(stats["slo_met"]),
                str(stats["slo_missed"]),
                str(stats["shed"]),
                str(stats["goodput_tokens"]),
                f"{fraction:.1%}",
                f"{stats['ttft_p99_steps']:.1f}",
                f"{stats['itl_p99_steps']:.1f}",
            ])
    return markdown_table(headers, rows)
