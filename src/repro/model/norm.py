"""RMSNorm for the numpy inference path."""

from __future__ import annotations

import numpy as np


def rmsnorm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square normalisation over the last axis (Llama-style)."""
    # np.mean's sum and divide without its Python wrappers: bit-identical.
    ms = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
    return x / np.sqrt(ms + eps) * weight
