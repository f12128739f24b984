"""Tests for alpha schedules and calibration."""

import math

import pytest

from repro.core.alpha import (
    ALPHA_SCALE,
    AlphaSchedule,
    alpha_to_fixed_point,
    calibrate_alpha,
    sweep_grid,
)
from repro.core.engine import SparseInferSettings


class TestFixedPoint:
    def test_scale(self):
        assert alpha_to_fixed_point(1.0) == 100
        assert alpha_to_fixed_point(1.03) == 103
        assert ALPHA_SCALE == 100

    def test_rounding(self):
        assert alpha_to_fixed_point(1.014) == 101
        assert alpha_to_fixed_point(1.016) == 102

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            alpha_to_fixed_point(0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            alpha_to_fixed_point(alpha)


class TestAlphaSchedule:
    def test_uniform(self):
        s = AlphaSchedule.uniform(1.02, 4)
        assert len(s) == 4
        assert all(s[i] == 1.02 for i in range(4))

    def test_early_layers_matches_paper(self):
        # Paper: alpha > 1 on the first 20 layers, 1.0 on the rest.
        s = AlphaSchedule.early_layers(40, alpha_early=1.03, n_early=20)
        assert s[0] == 1.03
        assert s[19] == 1.03
        assert s[20] == 1.0
        assert s[39] == 1.0

    def test_early_clamped_to_model_depth(self):
        s = AlphaSchedule.early_layers(4, alpha_early=1.1, n_early=20)
        assert all(s[i] == 1.1 for i in range(4))

    def test_fixed_point_per_layer(self):
        s = AlphaSchedule.from_values([1.0, 1.03])
        assert s.fixed_point(0) == 100
        assert s.fixed_point(1) == 103

    def test_with_layer(self):
        s = AlphaSchedule.uniform(1.0, 3).with_layer(1, 1.05)
        assert s[1] == 1.05
        assert s[0] == 1.0

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            AlphaSchedule.from_values([1.0, -0.5])

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            AlphaSchedule.from_values([1.0, alpha])

    @pytest.mark.parametrize("field", ["alpha", "alpha_early"])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_settings_reject_non_finite_at_construction(self, field, alpha):
        """A NaN alpha once got through and failed mid-decode in the
        fixed-point conversion."""
        with pytest.raises(ValueError, match=field):
            SparseInferSettings(**{field: alpha})

    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            AlphaSchedule.uniform(1.0, 0)


class TestCalibration:
    def test_picks_smallest_sufficient_alpha(self):
        # Layer 0 needs 1.02 to reach 0.99, layer 1 is fine at 1.0.
        table = {
            (0, 1.0): 0.95, (0, 1.01): 0.97, (0, 1.02): 0.992, (0, 1.03): 0.995,
            (1, 1.0): 0.995, (1, 1.01): 0.996, (1, 1.02): 0.997, (1, 1.03): 0.998,
        }
        s = calibrate_alpha(
            lambda layer, alpha: table[(layer, alpha)],
            n_layers=2,
            target_precision=0.99,
            candidates=(1.0, 1.01, 1.02, 1.03),
        )
        assert s[0] == 1.02
        assert s[1] == 1.0

    def test_unreachable_target_uses_largest(self):
        s = calibrate_alpha(
            lambda layer, alpha: 0.5,
            n_layers=1,
            target_precision=0.99,
            candidates=(1.0, 1.05),
        )
        assert s[0] == 1.05

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_alpha(lambda l, a: 1.0, 1, target_precision=0.0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            calibrate_alpha(lambda l, a: 1.0, 1, candidates=())


def test_sweep_grid_sorted():
    grid = sweep_grid((1.03, 1.0, 1.01))
    assert grid.tolist() == [1.0, 1.01, 1.03]
