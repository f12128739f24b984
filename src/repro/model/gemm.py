"""Host GEMM shapes: keep the row paths on OpenBLAS's fast sgemm kernels.

Above ``PACKED_MNK`` multiply-adds OpenBLAS copies the weight operand
into panels on every call and runs activation rows beyond a multiple of
``KERNEL_WIDTH`` on slower edge kernels; at or below it, a small-matrix
kernel runs unpacked.  Zero padding never enters another output
element's sum, so padded products are bit-identical to the plain
product; the column-blocked lm-head is too, at the ``d_model`` widths
in ``LM_HEAD_BLOCKED_WIDTHS`` (measured table: ``docs/serving.md`` §3,
"Host GEMM shapes").
"""

from __future__ import annotations

import numpy as np

PACKED_MNK = 1_000_000
KERNEL_WIDTH = 8
LM_HEAD_BLOCK = 256
#: ``d_model`` widths at which the blocked lm-head product equals the
#: plain one bit for bit (``tests/test_gemm_shapes.py`` sweeps rows 1-15
#: at d 256, 512 and 1024).  At d 512 and 1024 blocking rounds rows 2-7
#: differently, so those widths take the plain product.
LM_HEAD_BLOCKED_WIDTHS = frozenset({256})


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


def column_blocks(lm_head: np.ndarray) -> list:
    """``lm_head``'s ``LM_HEAD_BLOCK``-column blocks, each C-contiguous.

    The layout :func:`lm_head_logits` reads block by block, so a block
    product streams contiguous rows instead of strided columns.  Built
    once per weights object (:attr:`~repro.model.weights.ModelWeights.
    lm_head_blocks`); ``copy`` keeps an ``ndarray`` subclass's type.
    """
    return [lm_head[:, lo:lo + LM_HEAD_BLOCK].copy()
            for lo in range(0, lm_head.shape[1], LM_HEAD_BLOCK)]


def lm_head_logits(x: np.ndarray, weights) -> np.ndarray:
    """``x @ weights.lm_head`` for ``(rows, d)`` final-normed rows.

    A multi-row product on the packed path whose ``LM_HEAD_BLOCK``
    column blocks fit the small-matrix kernel, at a width in
    ``LM_HEAD_BLOCKED_WIDTHS``, runs block by block over
    ``weights.lm_head_blocks`` into one output buffer; anything else, a
    single row included (a GEMV, which blocking only slows), is the
    plain product.  Either way the result equals ``x @ lm_head``.
    """
    lm_head = weights.lm_head
    rows, d = x.shape
    if (rows == 1 or d not in LM_HEAD_BLOCKED_WIDTHS
            or rows * lm_head.size <= PACKED_MNK
            or rows * d * LM_HEAD_BLOCK > PACKED_MNK):
        return x @ lm_head
    out = np.empty((rows, lm_head.shape[1]), dtype=np.result_type(x, lm_head))
    for lo, block in zip(range(0, lm_head.shape[1], LM_HEAD_BLOCK),
                         weights.lm_head_blocks):
        np.matmul(x, block, out=out[:, lo:lo + LM_HEAD_BLOCK])
    return out
