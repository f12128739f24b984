"""Host GEMM shapes: keep the row paths on OpenBLAS's fast sgemm kernels.

Above ``PACKED_MNK`` multiply-adds OpenBLAS copies the weight operand
into panels on every call and runs activation rows beyond a multiple of
``KERNEL_WIDTH`` on slower edge kernels; at or below it, a small-matrix
kernel runs unpacked.  Zero padding never enters another output
element's sum, so every result is bit-identical to the plain product
(measured table: ``docs/serving.md`` §3, "Host GEMM shapes").
"""

from __future__ import annotations

import numpy as np

PACKED_MNK = 1_000_000
KERNEL_WIDTH = 8
LM_HEAD_BLOCK = 256


def as_columns(xs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``xs.T`` as C-contiguous columns for a ``weight @ columns`` product.

    When that product is already on the packed path, zero columns pad
    it to a multiple of ``KERNEL_WIDTH`` (slice the result back); one
    that fits the small-matrix kernel is never pushed over the bound.
    """
    n = xs.shape[0]
    width = n
    if n * weight.size > PACKED_MNK:
        width = -(-n // KERNEL_WIDTH) * KERNEL_WIDTH
    out = np.zeros((xs.shape[1], width), dtype=xs.dtype)
    out[:, :n] = xs.T
    return out


def lm_head_logits(x: np.ndarray, lm_head: np.ndarray) -> np.ndarray:
    """``x @ lm_head`` for ``(rows, d)`` final-normed rows.

    A multi-row product on the packed path whose ``LM_HEAD_BLOCK``
    column blocks fit the small-matrix kernel runs block by block into
    one output buffer; anything else, a single row included (a GEMV,
    which blocking only slows), is the plain product.
    """
    rows, d = x.shape
    if (rows == 1 or rows * lm_head.size <= PACKED_MNK
            or rows * d * LM_HEAD_BLOCK > PACKED_MNK):
        return x @ lm_head
    out = np.empty((rows, lm_head.shape[1]), dtype=np.result_type(x, lm_head))
    for lo in range(0, lm_head.shape[1], LM_HEAD_BLOCK):
        hi = lo + LM_HEAD_BLOCK
        np.matmul(x, lm_head[:, lo:hi], out=out[:, lo:hi])
    return out
