"""The row paths' GEMM shape helper (``repro.model.gemm``).

Padding activation columns to the BLAS kernel width and column-blocking
the lm-head change which sgemm kernel runs, never a value: every result
must be bit-identical, and float32, against the plain product at the
benchmark geometry (d 256, d_ff 1024, vocab 2048), where the helper
actually engages.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.model import gemm
from repro.model.config import ModelConfig
from repro.model.gemm import as_columns, lm_head_logits
from repro.model.weights import random_weights
from repro.serving.engine import BatchedEngine

ROWS = [*range(1, 41), 64]


@pytest.fixture(scope="module")
def bench_weights():
    return random_weights(ModelConfig(
        name="bench-256x4", vocab_size=2048, d_model=256, n_layers=4,
        n_heads=4, d_ff=1024, max_seq_len=256, dtype_bytes=4,
    ), seed=13)


def _rows(n, d, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d)).astype(
        np.float32)


class TestShapeSweep:
    def test_padding_never_crosses_onto_the_packed_path(self, bench_weights):
        w_gate = bench_weights.layers[0].w_gate_rows            # (1024, 256)

        def width(rows):
            return as_columns(_rows(rows, 256), w_gate).shape[1]

        for rows in ROWS:
            if rows * w_gate.size <= gemm.PACKED_MNK:
                assert width(rows) == rows, rows
            else:
                assert width(rows) % gemm.KERNEL_WIDTH == 0, rows
                assert rows <= width(rows) < rows + gemm.KERNEL_WIDTH, rows
        assert [width(n) for n in (3, 4, 6, 29, 31, 32)] == [
            3, 8, 8, 32, 32, 32]

    @pytest.mark.parametrize("site", ["gate", "up", "down"])
    def test_padded_mlp_gemms_equal_plain_matmul(self, bench_weights, site):
        lw = bench_weights.layers[0]
        weight = {"gate": lw.w_gate_rows, "up": lw.w_up_rows,
                  "down": lw.w_down_rows.T}[site]               # (out, in)
        mismatched = []
        for rows in ROWS:
            xs = _rows(rows, weight.shape[1], rows)
            xs_t = as_columns(xs, weight)
            assert xs_t.dtype == np.float32
            padded = (weight @ xs_t)[:, :rows]
            assert padded.dtype == np.float32
            if not np.array_equal(padded, weight @ xs.T.copy()):
                mismatched.append(rows)
        assert mismatched == []

    def test_blocked_lm_head_equals_plain_matmul(self, bench_weights):
        lm_head = bench_weights.lm_head                         # (256, 2048)
        mismatched = []
        for rows in ROWS:
            x = _rows(rows, 256, rows)
            logits = lm_head_logits(x, bench_weights)
            assert logits.dtype == np.float32
            if not np.array_equal(logits, x @ lm_head):
                mismatched.append(rows)
        assert mismatched == []

    @pytest.mark.parametrize("d, vocab", [(256, 2048), (512, 4096),
                                          (1024, 2048)])
    def test_small_batch_lm_head_equals_plain_matmul(self, d, vocab):
        """Rows 1-15, where blocking can engage: bit-identical at every
        width, because widths whose blocked product rounds differently
        (d 512 and 1024) take the plain product."""
        lm_head = _rows(d, vocab, d)
        head = SimpleNamespace(lm_head=lm_head,
                               lm_head_blocks=gemm.column_blocks(lm_head))
        mismatched = [rows for rows in range(1, 16) if not np.array_equal(
            lm_head_logits(_rows(rows, d, rows), head),
            _rows(rows, d, rows) @ lm_head)]
        assert mismatched == []


class _MatmulSpy(np.ndarray):
    """An operand that counts the matmul products it enters."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulSpy.products += 1
        inputs = [np.asarray(a) if isinstance(a, _MatmulSpy) else a
                  for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("rows, products", [(1, 1), (2, 4096 // 256)])
def test_single_row_lm_head_is_one_product(rows, products):
    """A one-row lm-head is a GEMV that column blocking only slows (410
    vs 526 us at d 1024 / vocab 2048, one BLAS thread on a 2 vCPU Xeon
    container); two rows read the contiguous column blocks, one product
    per block.  At d 256 / vocab 4096 one row (1 048 576 multiply-adds)
    is already past ``PACKED_MNK``, so only the one-row rule keeps it a
    single product.  The blocks copy the spy matrix, so the spy sees
    both layouts."""
    lm_head = _rows(256, 4096, 256)
    spy = lm_head.view(_MatmulSpy)
    head = SimpleNamespace(lm_head=spy, lm_head_blocks=gemm.column_blocks(spy))
    assert 256 * 4096 > gemm.PACKED_MNK
    x = _rows(rows, 256)
    _MatmulSpy.products = 0
    logits = lm_head_logits(x, head)
    assert _MatmulSpy.products == products
    assert type(logits) is np.ndarray
    np.testing.assert_array_equal(logits, x @ lm_head)


def test_lm_head_blocks_are_built_once(bench_weights):
    weights = dataclasses.replace(bench_weights)
    x = _rows(4, 256)
    first = lm_head_logits(x, weights)
    blocks = weights.lm_head_blocks
    assert all(block.flags.c_contiguous for block in blocks)
    np.testing.assert_array_equal(lm_head_logits(x, weights), first)
    assert weights.lm_head_blocks is blocks


class TestEngineBitIdentity:
    """Packed prefills of 29 and 31 rows and a batch-6 decode step give
    the logits and K/V of the same engine run through plain matmuls."""

    @staticmethod
    def _serve(weights):
        engine = BatchedEngine(weights, max_batch_size=6)
        slots = [engine.cache.allocate() for _ in range(6)]
        ids = np.random.default_rng(1).integers(0, 2048, 60)
        logits = [
            engine.prefill(slots[:3], ids[:29], [10, 9, 10]),
            engine.prefill(slots[3:], ids[29:], [11, 10, 10]),
        ]
        tokens = np.concatenate([np.argmax(block, axis=1) for block in logits])
        logits.append(engine.decode_step(slots, tokens))
        pool = engine.cache.pool
        return logits, pool.keys.copy(), pool.values.copy()

    def test_logits_and_kv_match_plain_matmuls(self, bench_weights,
                                               monkeypatch):
        logits, keys, values = self._serve(bench_weights)
        monkeypatch.setattr(gemm, "PACKED_MNK", float("inf"))
        plain_logits, plain_keys, plain_values = self._serve(bench_weights)
        for got, want in zip(logits, plain_logits):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(keys, plain_keys)
        np.testing.assert_array_equal(values, plain_values)
