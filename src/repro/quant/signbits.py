"""Sign-bit extraction across storage formats.

The predictor only needs the MSB of each weight; this module provides a
uniform entry point for FP32 / FP16 / INT8 storage so packed predictor
state can be built straight from quantised checkpoints -- the property
that makes SparseInfer retraining-free across quantisation schemes.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..core.signpack import PackedSigns
from .int8 import Int8Matrix


def sign_bits(values: Union[np.ndarray, Int8Matrix]) -> np.ndarray:
    """Boolean negative-sign array for any supported storage format."""
    if isinstance(values, Int8Matrix):
        return values.values < 0
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return np.signbit(values)
    if values.dtype.kind == "i":
        return values < 0
    raise TypeError(f"unsupported dtype {values.dtype}")


def packed_signs_from(values: Union[np.ndarray, Int8Matrix]) -> PackedSigns:
    """Build predictor state directly from FP32/FP16/INT8 weights."""
    if isinstance(values, Int8Matrix):
        return PackedSigns.from_matrix(values.sign_source())
    return PackedSigns.from_matrix(np.asarray(values).astype(np.float32))
