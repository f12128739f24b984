"""Sign-bit packing and popcount primitives.

SparseInfer's predictor (paper Section IV-A / IV-B.1) operates only on the
sign bits (MSBs) of the gate weight matrix ``Wgate`` and the input vector
``X``.  The CUDA implementation packs the sign bits of 32 consecutive
elements into one 32-bit word at model-load time and XORs the packed words
at predict time, counting set bits with ``__popc``.

This module is the numpy equivalent: vectorised packing, XOR and popcount.

Bit convention
--------------
Bit ``j`` of word ``w`` holds the sign of element ``w * 32 + j`` (little-end
bit order within a word).  A set bit means *negative* (``numpy.signbit``),
matching the MSB of an IEEE-754 float.  When the row length ``d`` is not a
multiple of 32 the trailing padding bits are left **zero** (positive), which
can only make the predictor *more conservative* (more apparent positives,
fewer skips) -- see DESIGN.md section 5.2.

Lane layout
-----------
:func:`pack_signs` output is row-major ``(k, nwords)`` ``uint32`` -- the
reference layout.  :class:`PackedSigns` stores the same bits *word-major*
for the decode-time kernel, ``(n_lanes, k)`` contiguous so one lane of
every row is one ``k``-long vector: ``lanes[l, i]`` holds, for gate row
``i``, words ``2l`` and ``2l + 1`` fused into one ``uint64`` (on a
little-endian host bit ``j`` is the sign of element ``l * 64 + j``), or
word ``l`` alone as ``uint32`` when ``nwords`` is odd.  The packed input is
viewed the same way; XOR + popcount only need both sides to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORD_BITS = 32


def words_per_row(n_elements: int) -> int:
    """Number of 32-bit words needed to hold ``n_elements`` sign bits."""
    if n_elements < 0:
        raise ValueError(f"n_elements must be non-negative, got {n_elements}")
    return (n_elements + WORD_BITS - 1) // WORD_BITS


def pack_signs(values: np.ndarray) -> np.ndarray:
    """Pack the sign bits of ``values`` along the last axis into uint32 words.

    Parameters
    ----------
    values:
        Float array of shape ``(..., d)``.  Any float dtype works; only
        ``numpy.signbit`` is consulted, so the packing is identical for
        FP32, FP16 or dequantised INT8 data (the quantisation-robustness
        property of the paper).

    Returns
    -------
    ``uint32`` array of shape ``(..., words_per_row(d))``.
    """
    values = np.asarray(values)
    if values.ndim == 0:
        raise ValueError("pack_signs expects at least a 1-D array")
    d = values.shape[-1]
    nwords = words_per_row(d)
    bits = np.signbit(values)
    pad = nwords * WORD_BITS - d
    if pad:
        pad_shape = values.shape[:-1] + (pad,)
        bits = np.concatenate([bits, np.zeros(pad_shape, dtype=bool)], axis=-1)
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    shape = values.shape[:-1] + (nwords,)
    return (
        np.ascontiguousarray(packed_bytes)
        .view(np.uint32)
        .reshape(shape)
    )


def unpack_signs(words: np.ndarray, n_elements: int) -> np.ndarray:
    """Inverse of :func:`pack_signs`: boolean sign array (True = negative)."""
    words = np.asarray(words, dtype=np.uint32)
    if words.shape[-1] != words_per_row(n_elements):
        raise ValueError(
            f"expected {words_per_row(n_elements)} words per row for "
            f"{n_elements} elements, got {words.shape[-1]}"
        )
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :n_elements].astype(bool)


def popcount(words: np.ndarray) -> np.ndarray:
    """Element-wise population count of a uint32 array (CUDA ``__popc``)."""
    words = np.asarray(words, dtype=np.uint32)
    return np.bitwise_count(words).astype(np.int64)


def xor_popcount(packed_rows: np.ndarray, packed_x: np.ndarray) -> np.ndarray:
    """Predicted count of negative products per row (``Nneg`` in the paper).

    ``packed_rows`` has shape ``(k, nwords)`` (one row per gate neuron) and
    ``packed_x`` shape ``(nwords,)`` or ``(..., nwords)`` for a batch of
    input vectors.  Returns an ``int64`` array of shape ``(k,)`` (or
    ``(..., k)``) holding, for each row ``i``, the number of element
    positions where ``sign(Wgate[i, j]) != sign(X[j])`` -- i.e. where the
    product ``X[j] * Wgate[i, j]`` is predicted negative.

    The batched form is one broadcast XOR + one table-lookup popcount for
    the whole batch; the serving engine relies on this to amortise the
    predictor over all co-scheduled sequences.
    """
    packed_rows = np.asarray(packed_rows, dtype=np.uint32)
    packed_x = np.asarray(packed_x, dtype=np.uint32)
    if packed_rows.shape[-1] != packed_x.shape[-1]:
        raise ValueError(
            f"word-count mismatch: rows have {packed_rows.shape[-1]} words, "
            f"x has {packed_x.shape[-1]}"
        )
    if packed_x.ndim == 1:
        return popcount(packed_rows ^ packed_x).sum(axis=-1)
    xor = packed_x[..., None, :] ^ packed_rows          # (..., k, nwords)
    return popcount(xor).sum(axis=-1)


def exact_negative_products(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference implementation of ``Nneg`` from unpacked floats.

    Counts positions where the element-wise product sign differs, using
    ``signbit`` semantics identical to the packed path.  Used by tests to
    verify :func:`xor_popcount`.
    """
    rows = np.asarray(rows)
    x = np.asarray(x)
    return (np.signbit(rows) ^ np.signbit(x)).sum(axis=-1, dtype=np.int64)


@dataclass(frozen=True)
class PackedSigns:
    """Packed sign bits of one weight matrix, produced at model-load time.

    Mirrors the paper's offline pre-fetch step (Section IV-B.1): the sign
    bits of ``Wgate`` are extracted once when the model is loaded so the
    decode-phase predictor never touches the full-precision weights.

    Attributes
    ----------
    lanes:
        The only stored copy, word-major: ``(n_lanes, k)`` contiguous
        ``uint64`` (``uint32`` when the word count is odd) -- see "Lane
        layout" in the module docstring.
    n_elements:
        Logical row length ``d`` before padding.
    """

    lanes: np.ndarray
    n_elements: int

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PackedSigns":
        """Pack a ``(k, d)`` weight matrix row-wise, stored word-major."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        words = pack_signs(matrix)                          # (k, nwords)
        lane = np.uint32 if words.shape[1] % 2 else np.uint64
        return cls(
            lanes=np.ascontiguousarray(words.view(lane).T),
            n_elements=matrix.shape[1],
        )

    @property
    def words(self) -> np.ndarray:
        """The ``(k, nwords)`` ``uint32`` view :func:`pack_signs` produces
        (derived on each read; the reference kernels and figure benches
        consume it, the serving path never does)."""
        return np.ascontiguousarray(self.lanes.T).view(np.uint32)

    @property
    def n_rows(self) -> int:
        return self.lanes.shape[1]

    @property
    def n_words(self) -> int:
        return words_per_row(self.n_elements)

    @property
    def padded_bits(self) -> int:
        """Total bit positions per row including padding (``ncols * 32``)."""
        return self.n_words * WORD_BITS

    @property
    def nbytes(self) -> int:
        """Memory footprint in bytes (the paper's Section V-A.2 metric)."""
        return self.lanes.nbytes

    def negative_counts(self, x: np.ndarray) -> np.ndarray:
        """``Nneg`` per row for an unpacked input vector ``x``."""
        return self.negative_counts_packed(pack_signs(x))

    def negative_counts_packed(self, packed_x: np.ndarray) -> np.ndarray:
        """``Nneg`` per row for packed inputs ``(nwords,)`` or ``(B, nwords)``.

        Equals :func:`xor_popcount` ``(self.words, packed_x)``; every ufunc
        runs over contiguous ``k``-long vectors and the lanes are summed
        in the narrowest unsigned dtype that cannot overflow.
        """
        packed_x = np.ascontiguousarray(packed_x, dtype=np.uint32)
        if packed_x.shape[-1] != self.n_words:
            raise ValueError(
                f"word-count mismatch: rows have {self.n_words} words, "
                f"x has {packed_x.shape[-1]}"
            )
        lead = packed_x.shape[:-1]
        px = packed_x.view(self.lanes.dtype).reshape(
            math.prod(lead), len(self.lanes)
        )
        counts = np.uint16 if self.padded_bits < 1 << 16 else np.uint32
        xor = px.T[:, :, None] ^ self.lanes[:, None, :]     # (n_lanes, B, k)
        return np.bitwise_count(xor).sum(axis=0, dtype=counts).reshape(
            lead + (self.n_rows,)
        )
