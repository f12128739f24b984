"""Property-based regression tests for the Eq. (2) decision polarity.

The paper's Listing 1 sets its skip flag with the opposite polarity to
Eq. (2) and the prose; this repo implements Eq. (2) (see the note in
:mod:`repro.core.predictor`).  These tests pin that decision:

* against a naive float reference -- ``ReLU(x @ Wgate) == 0`` -- the
  packed predictor at alpha=1.0 must hit the paper's Fig. 3 quality on
  the synthetic activation model (precision ~99%, recall ~99% on late
  layers);
* the decision must move the right way under forced sign structure and
  under alpha (flipping the polarity inverts every one of these).

They also pin the serving kernel -- word-major ``uint64`` lanes, narrow
unsigned counts, Eq. (2) as one integer threshold -- against the
reference implementations it replaced on the hot path
(``xor_popcount`` / ``exact_negative_products`` /
``predict_skip_from_counts``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import evaluate_skip_prediction
from repro.core.predictor import (
    SparseInferPredictor,
    predict_skip_from_counts,
    true_skip_mask,
)
from repro.core.signpack import (
    PackedSigns,
    exact_negative_products,
    pack_signs,
    words_per_row,
    xor_popcount,
)
from repro.model.config import prosparse_llama2_7b
from repro.model.synthetic import SyntheticActivationModel

# Fig. 3 floor for non-early layers at alpha=1.0: the paper reports >99%
# precision with an early-layer dip, and the repo's Fig. 3 bench asserts
# 0.985/0.99 at full width/sample size; slightly relaxed for the smaller
# per-example sample here.
PAPER_PRECISION_FLOOR = 0.97
PAPER_RECALL_FLOOR = 0.99


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1_000), layer=st.integers(8, 31))
def test_property_eq2_matches_relu_reference_on_late_layers(seed, layer):
    """Packed Eq. (2) vs naive ``ReLU(x @ Wgate) == 0`` at alpha=1.0.

    Runs at the true 7B width (the predictor's quality depends on the
    majority vote over ``d`` sign bits, so narrow test models understate
    it).
    """
    model = SyntheticActivationModel(prosparse_llama2_7b(), seed=seed)
    sample = model.sample_layer(layer, n_tokens=4, n_rows=384)
    predictor = SparseInferPredictor.from_gate_weights([sample.w_gate])
    predicted = predictor.predict_batch(0, sample.x, alpha=1.0)
    reference = true_skip_mask(sample.x @ sample.w_gate.T)
    np.testing.assert_array_equal(reference, sample.true_sparse)
    quality = evaluate_skip_prediction(predicted, reference)
    assert quality.precision >= PAPER_PRECISION_FLOOR, quality
    assert quality.recall >= PAPER_RECALL_FLOOR, quality


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 64),
    total_bits=st.integers(32, 4096),
    seed=st.integers(0, 10_000),
)
def test_property_majority_negative_is_skipped(k, total_bits, seed):
    """Eq. (2) at alpha=1.0 is exactly the majority-sign test.

    ``alpha * Npos < Nneg`` with alpha=1.0 skips iff strictly more than
    half the predicted product signs are negative -- the Listing-1 typo
    would keep exactly those rows instead.
    """
    rng = np.random.default_rng(seed)
    n_neg = rng.integers(0, total_bits + 1, size=k)
    skip = predict_skip_from_counts(n_neg, total_bits, alpha=1.0)
    np.testing.assert_array_equal(skip, n_neg > total_bits - n_neg)


@settings(max_examples=40, deadline=None)
@given(d_words=st.integers(1, 8), k=st.integers(4, 64),
       seed=st.integers(0, 10_000))
def test_property_forced_polarity_rows(d_words, k, seed):
    """Rows anti-aligned with x are skipped; aligned rows are kept.

    A row equal to ``-sign(x) * |w|`` has every product negative (the
    archetypal "usually off" neuron); a row equal to ``+sign(x) * |w|``
    has every product positive.  Eq. (2) must skip all of the former and
    none of the latter at any alpha -- with the typo polarity it would do
    the exact opposite.  ``d`` is a multiple of 32, as in real LLM dims;
    otherwise the positive-packed padding bits deliberately bias the
    majority vote toward keeping (the documented conservative choice).
    """
    d = 32 * d_words
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d).astype(np.float32)
    x[x == 0.0] = 1.0
    magnitudes = np.abs(rng.standard_normal((k, d)).astype(np.float32)) + 1e-3
    sign_x = np.where(np.signbit(x), -1.0, 1.0).astype(np.float32)
    off_rows = (-sign_x * magnitudes).astype(np.float32)
    on_rows = (sign_x * magnitudes).astype(np.float32)
    gate = np.concatenate([off_rows, on_rows], axis=0)
    predictor = SparseInferPredictor.from_gate_weights([gate])
    skip = predictor.predict(0, x).skip
    assert skip[:k].all(), "fully negative rows must be predicted sparse"
    assert not skip[k:].any(), "fully positive rows must be kept"
    # And the float reference agrees -- these rows are unambiguous.
    reference = true_skip_mask(gate @ x)
    np.testing.assert_array_equal(skip, reference)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(32, 256),
    k=st.integers(8, 128),
    seed=st.integers(0, 10_000),
    alpha_lo=st.floats(0.5, 1.0),
    alpha_hi=st.floats(1.0, 2.0),
)
def test_property_alpha_moves_conservative(d, k, seed, alpha_lo, alpha_hi):
    """Raising alpha can only shrink the skip set (Eq. (2) direction)."""
    rng = np.random.default_rng(seed)
    gate = rng.standard_normal((k, d)).astype(np.float32)
    x = rng.standard_normal(d).astype(np.float32)
    predictor = SparseInferPredictor.from_gate_weights([gate])
    skip_lo = predictor.predict(0, x, alpha=alpha_lo).skip
    skip_hi = predictor.predict(0, x, alpha=alpha_hi).skip
    assert (skip_hi <= skip_lo).all(), "alpha up must not add skips"


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), d=st.integers(32, 128), seed=st.integers(0, 10_000))
def test_property_intersection_subset_of_every_sequence(n, d, seed):
    """The batched intersection never skips a row some sequence keeps."""
    rng = np.random.default_rng(seed)
    gate = rng.standard_normal((48, d)).astype(np.float32)
    xs = rng.standard_normal((n, d)).astype(np.float32)
    predictor = SparseInferPredictor.from_gate_weights([gate])
    pred = predictor.predict_intersection(0, xs)
    for i in range(n):
        assert (pred.intersection_skip <= pred.skip[i]).all()


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(1, 300),
    k=st.integers(1, 40),
    batch=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_property_lane_kernel_equals_references(d, k, batch, seed):
    """``negative_counts_packed`` == exact sign products == ``xor_popcount``.

    ``d`` in [1, 300] covers odd word counts (``uint32`` lanes), even
    ones (``uint64`` lanes) and padded tails.
    """
    rng = np.random.default_rng(seed)
    gate = rng.standard_normal((k, d)).astype(np.float32)
    xs = rng.standard_normal((batch, d)).astype(np.float32)
    packed = PackedSigns.from_matrix(gate)
    nwords = words_per_row(d)

    assert packed.lanes.dtype == (np.uint32 if nwords % 2 else np.uint64)
    assert packed.lanes.flags.c_contiguous and packed.lanes.shape[1] == k
    np.testing.assert_array_equal(packed.words, pack_signs(gate))
    assert packed.words.dtype == np.uint32
    assert packed.nbytes == k * nwords * 4

    counts = packed.negative_counts_packed(pack_signs(xs))
    assert counts.shape == (batch, k)
    np.testing.assert_array_equal(
        counts, exact_negative_products(gate, xs[:, None, :])
    )
    np.testing.assert_array_equal(
        counts, xor_popcount(pack_signs(gate), pack_signs(xs))
    )
    # 1-D and (B, nwords) inputs agree row by row.
    for i in range(batch):
        row = packed.negative_counts_packed(pack_signs(xs[i]))
        assert row.shape == (k,)
        np.testing.assert_array_equal(row, counts[i])

    # Pad bits are packed positive on both sides, so they never count as
    # negative products and only inflate Npos: padding can lower the skip
    # count, never raise it.
    predictor = SparseInferPredictor([packed])
    for alpha in (0.5, 1.0, 1.37):
        skip = predictor.predict_intersection(0, xs, alpha).skip
        np.testing.assert_array_equal(
            skip, predict_skip_from_counts(counts, packed.padded_bits, alpha)
        )
        assert (skip <= predict_skip_from_counts(counts, d, alpha)).all()


@pytest.mark.parametrize("total_bits", [32, 64, 256, 4096])
def test_integer_threshold_equals_eq2_exhaustively(total_bits):
    """Every ``n_neg`` in [0, T] x every alpha: the predictor's single
    integer compare is :func:`predict_skip_from_counts`, not sampled.

    Gate row ``i`` has exactly ``i`` negative weights and ``x`` is all
    positive, so row ``i``'s ``n_neg`` is ``i``.
    """
    gate = 1 - 2 * np.tri(total_bits + 1, total_bits, -1, dtype=np.float16)
    x = np.ones(total_bits, dtype=np.float32)
    predictor = SparseInferPredictor.from_gate_weights([gate])
    n_neg = np.arange(total_bits + 1)
    np.testing.assert_array_equal(predictor.predict(0, x).n_neg, n_neg)
    for alpha in (0.004, 0.5, 0.99, 1.0, 1.01, 1.37, 2.0, 50):
        expected = predict_skip_from_counts(n_neg, total_bits, alpha)
        np.testing.assert_array_equal(
            predictor.predict(0, x, alpha).skip, expected
        )
        np.testing.assert_array_equal(
            predictor.predict_intersection(0, x, alpha).skip[0], expected
        )


def test_counts_dtype_cannot_overflow():
    """``uint16`` sums only while ``padded_bits < 65 536``."""
    for d, dtype in ((65_504, np.uint16), (65_600, np.uint32)):
        gate = np.ones((2, d), dtype=np.float32)
        gate[0] = -1.0
        packed = PackedSigns.from_matrix(gate)
        assert packed.padded_bits == d
        counts = packed.negative_counts(np.ones(d, dtype=np.float32))
        assert counts.dtype == dtype
        assert counts.tolist() == [d, 0]
