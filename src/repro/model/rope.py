"""Rotary position embeddings for the numpy inference path.

:func:`rope_tables` builds ``(cos, sin)`` tables for a vector of
positions, once per forward pass: the serving engine's pass over every
row's position, and the oracle's per token over its one position.  The
tables are elementwise in the position, so a position's rows are the
same bits whichever vector they were built in.
"""

from __future__ import annotations

import numpy as np


def rope_tables(
    positions: np.ndarray, head_dim: int, theta: float = 10000.0
) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for arbitrary positions; shape ``(len(pos), head_dim/2)``."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
    half = head_dim // 2
    freqs = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate channel pairs; ``x`` has shape ``(..., seq, head_dim)``.

    Uses the half-split pairing (first half with second half), matching the
    training path in :mod:`repro.autograd.functional`.
    """
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate(
        [x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1
    ).astype(x.dtype)
