"""Tests for the SparseInfer MLP executor (Section IV semantics)."""

import numpy as np
import pytest

from repro.core.alpha import AlphaSchedule
from repro.core.sparse_mlp import SparseInferMLP
from repro.model.config import ModelConfig
from repro.model.mlp import DenseMLP, MLPStats
from repro.model.weights import random_weights


@pytest.fixture
def x(micro_config, rng):
    return rng.standard_normal(micro_config.d_model).astype(np.float32)


class TestEquivalenceInvariants:
    def test_infinite_alpha_matches_dense(self, micro_weights, micro_config, x):
        """With alpha -> inf nothing is predicted-skipped and +AS removes
        only exact zeros, so the output equals the dense block."""
        sparse = SparseInferMLP(
            micro_weights,
            schedule=AlphaSchedule.uniform(1e6, micro_config.n_layers),
        )
        dense = DenseMLP(micro_weights)
        for layer in range(micro_config.n_layers):
            np.testing.assert_allclose(
                sparse.run(layer, x), dense.run(layer, x), atol=1e-5
            )

    def test_actual_sparsity_never_changes_values(self, micro_weights,
                                                  micro_config, x):
        """+AS skips only rows whose h1 or h3 is exactly zero; the output
        must be identical with and without it (same alpha)."""
        with_as = SparseInferMLP(micro_weights, use_actual_sparsity=True)
        without_as = SparseInferMLP(micro_weights, use_actual_sparsity=False)
        for layer in range(micro_config.n_layers):
            np.testing.assert_allclose(
                with_as.run(layer, x), without_as.run(layer, x), atol=1e-5
            )

    def test_zero_alpha_skips_everything_negative_majority(
        self, micro_weights, x
    ):
        """A tiny alpha makes any nonzero Nneg a skip."""
        sparse = SparseInferMLP(
            micro_weights,
            schedule=AlphaSchedule.uniform(1e-6, micro_weights.config.n_layers),
            use_actual_sparsity=False,
        )
        sparse.run(0, x)
        assert sparse.stats.gate_skip_fraction > 0.9


class TestStats:
    def test_up_skip_at_least_gate_skip_with_as(self, micro_weights, x):
        """The union (predicted + actual) can only add skips."""
        sparse = SparseInferMLP(micro_weights, use_actual_sparsity=True)
        for layer in range(micro_weights.config.n_layers):
            sparse.run(layer, x)
        assert sparse.stats.rows_skipped_up >= sparse.stats.rows_skipped_gate
        assert sparse.stats.rows_skipped_down >= sparse.stats.rows_skipped_up

    def test_without_as_all_stages_match_prediction(self, micro_weights, x):
        sparse = SparseInferMLP(micro_weights, use_actual_sparsity=False)
        sparse.run(0, x)
        assert sparse.stats.rows_skipped_up == sparse.stats.rows_skipped_gate
        assert sparse.stats.rows_skipped_down == sparse.stats.rows_skipped_gate

    def test_stats_accumulate_and_reset(self, micro_weights, x):
        sparse = SparseInferMLP(micro_weights)
        sparse.run(0, x)
        sparse.run(1, x)
        assert sparse.stats.calls == 2
        assert sparse.stats.rows_total == 2 * micro_weights.config.d_ff
        sparse.reset_stats()
        assert sparse.stats.calls == 0

    def test_skip_fractions_in_unit_range(self, micro_weights, x):
        sparse = SparseInferMLP(micro_weights)
        sparse.run(0, x)
        for frac in (
            sparse.stats.gate_skip_fraction,
            sparse.stats.up_skip_fraction,
            sparse.stats.down_skip_fraction,
        ):
            assert 0.0 <= frac <= 1.0


def boolean_mask_reference(mlp, layer, x, skip):
    """The boolean-mask executor ``run_with_skip`` replaced, kept as the
    reference: it masks each weight matrix with a bool vector, scatters
    h1 into a full-width buffer and re-filters on ``h3 != 0``.  Returns
    the output and the :class:`MLPStats` of this one call."""
    lw = mlp.weights.layers[layer]
    k = lw.w_gate_rows.shape[0]
    keep = ~skip
    h1_live = mlp._act(lw.w_gate_rows[keep] @ x)
    if mlp.use_actual_sparsity:
        live_mask = np.zeros(k, dtype=bool)
        live_mask[np.flatnonzero(keep)[h1_live != 0.0]] = True
    else:
        live_mask = keep
    h1 = np.zeros(k, dtype=np.float32)
    h1[keep] = h1_live
    live = np.flatnonzero(live_mask)
    h3_live = h1[live] * (lw.w_up_rows[live] @ x)
    if mlp.use_actual_sparsity:
        down_live, h3_final = live[h3_live != 0.0], h3_live[h3_live != 0.0]
    else:
        down_live, h3_final = live, h3_live
    out = h3_final @ lw.w_down_rows[down_live]
    stats = MLPStats(
        calls=1, rows_total=k, rows_skipped_gate=int(skip.sum()),
        rows_skipped_up=k - int(live_mask.sum()),
        rows_skipped_down=k - len(down_live),
    )
    return out.astype(np.float32), stats


@pytest.fixture(scope="module")
def wide_weights():
    """One layer wide enough that BLAS blocks the GEMVs as at serving
    shapes (the micro model's 64 rows fit in one kernel tile)."""
    cfg = ModelConfig(name="wide", vocab_size=8, d_model=128, n_layers=1,
                      n_heads=2, d_ff=512, dtype_bytes=4)
    return random_weights(cfg, seed=3)


class TestRunWithSkipMatchesBooleanMaskReference:
    """``run_with_skip`` gathers rows through one index vector; it must
    read the same rows in the same GEMV shapes as the boolean-mask
    formulation, so outputs are bit-identical and stats equal."""

    @staticmethod
    def masks(weights, x, rng):
        gate = weights.layers[0].w_gate_rows @ x
        k = gate.shape[0]
        yield from (rng.random(k) < p for p in (0.1, 0.5, 0.9))
        yield np.ones(k, dtype=bool)        # every row skipped
        yield np.zeros(k, dtype=bool)       # no row skipped
        yield gate > 0.0                    # every kept row ReLU-dead

    @pytest.mark.parametrize("use_as", [True, False])
    @pytest.mark.parametrize("model", ["micro_weights", "wide_weights"])
    def test_outputs_and_stats_bit_identical(self, request, rng, model,
                                             use_as):
        weights = request.getfixturevalue(model)
        mlp = SparseInferMLP(weights, use_actual_sparsity=use_as)
        for _ in range(4):
            x = rng.standard_normal(weights.config.d_model).astype(np.float32)
            for skip in self.masks(weights, x, rng):
                mlp.reset_stats()
                out = mlp.run_with_skip(0, x, skip)
                ref, ref_stats = boolean_mask_reference(mlp, 0, x, skip)
                assert out.dtype == np.float32
                np.testing.assert_array_equal(out, ref)
                assert mlp.stats == ref_stats

    def test_edge_masks_give_float32_zeros(self, wide_weights, rng):
        mlp = SparseInferMLP(wide_weights)
        x = rng.standard_normal(wide_weights.config.d_model).astype(np.float32)
        *_, all_skipped, _, relu_dead = self.masks(wide_weights, x, rng)
        for skip in (all_skipped, relu_dead):
            out = mlp.run_with_skip(0, x, skip)
            assert out.dtype == np.float32 and not out.any()
        assert mlp.stats.rows_skipped_down == 2 * wide_weights.config.d_ff

    def test_float64_input_returns_float32(self, wide_weights, rng):
        mlp = SparseInferMLP(wide_weights)
        x = rng.standard_normal(wide_weights.config.d_model)
        skip = rng.random(wide_weights.config.d_ff) < 0.5
        out = mlp.run_with_skip(0, x, skip)
        assert x.dtype == np.float64 and out.dtype == np.float32
        np.testing.assert_allclose(
            out, mlp.run_with_skip(0, x.astype(np.float32), skip),
            rtol=1e-4, atol=1e-6,
        )


class TestConstruction:
    def test_predictor_layer_mismatch_rejected(self, micro_weights, rng):
        from repro.core.predictor import SparseInferPredictor

        wrong = SparseInferPredictor.from_gate_weights(
            [rng.standard_normal(
                (micro_weights.config.d_ff, micro_weights.config.d_model)
            ).astype(np.float32)]
        )
        with pytest.raises(ValueError):
            SparseInferMLP(micro_weights, predictor=wrong)

    def test_schedule_overrides_predictor(self, micro_weights, x):
        from repro.core.predictor import SparseInferPredictor

        base = SparseInferPredictor.from_gate_weights(
            micro_weights.gate_matrices()
        )
        sched = AlphaSchedule.uniform(1e6, micro_weights.config.n_layers)
        sparse = SparseInferMLP(micro_weights, predictor=base, schedule=sched)
        sparse.run(0, x)
        assert sparse.stats.rows_skipped_gate == 0
