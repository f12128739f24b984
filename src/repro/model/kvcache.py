"""Per-layer key/value cache for single-sequence decoding.

:class:`KVCache` backs :class:`~repro.model.inference.InferenceModel`,
the scalar engine the serving stack is tested against.  The serving
engine's one KV store is the page arena of
:mod:`repro.model.paged_kvcache`, whose
:class:`~repro.model.paged_kvcache.PagedKVSlot` exposes the same
``append``/``view``/``advance`` interface, so
:func:`~repro.model.inference.attend_single` runs on either.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig


class KVCache:
    """Pre-allocated K/V storage for one decode session.

    Shapes are ``(n_layers, max_seq, d_model)``; heads are split lazily by
    the attention code.  ``length`` counts positions filled so far.
    """

    def __init__(self, config: ModelConfig, max_seq_len: int = 0):
        self.config = config
        self.max_seq_len = max_seq_len or config.max_seq_len
        shape = (config.n_layers, self.max_seq_len, config.d_model)
        self.keys = np.zeros(shape, dtype=np.float32)
        self.values = np.zeros(shape, dtype=np.float32)
        self.length = 0

    def append(self, layer: int, k: np.ndarray, v: np.ndarray,
               position: int) -> None:
        """Store one position's key/value for ``layer``."""
        if position >= self.max_seq_len:
            raise ValueError(
                f"position {position} exceeds cache capacity {self.max_seq_len}"
            )
        self.keys[layer, position] = k
        self.values[layer, position] = v

    def view(self, layer: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """K/V for the first ``length`` positions of ``layer``."""
        return self.keys[layer, :length], self.values[layer, :length]

    def advance(self) -> None:
        """Mark one more position as filled (after all layers appended)."""
        self.length += 1
        if self.length > self.max_seq_len:
            raise ValueError("KV cache overflow")

    def reset(self) -> None:
        self.length = 0
