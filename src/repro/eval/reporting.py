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

