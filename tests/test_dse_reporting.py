"""Tests for the DSE sweep."""

import pytest

from repro.core.dse import DSEPoint, pareto_front, sweep
from repro.model.config import ModelConfig


class TestDSE:
    @pytest.fixture(scope="class")
    def points(self):
        cfg = ModelConfig(name="dse-test", vocab_size=16, d_model=768,
                          n_layers=6, n_heads=8, d_ff=1536)
        return sweep(cfg, alphas=(0.9, 1.0, 1.2), n_tokens=2, n_rows=96)

    def test_sweep_produces_one_point_per_alpha(self, points):
        assert [p.alpha for p in points] == [0.9, 1.0, 1.2]

    def test_conservative_alpha_more_precise(self, points):
        by_alpha = {p.alpha: p for p in points}
        assert by_alpha[1.2].mean_precision >= by_alpha[0.9].mean_precision
        assert by_alpha[1.2].mean_predicted_skip <= by_alpha[0.9].mean_predicted_skip

    def test_all_points_speed_up(self, points):
        assert all(p.speedup_over_dense > 1.0 for p in points)

    def test_pareto_front_not_dominated(self, points):
        front = pareto_front(points)
        assert front
        for p in front:
            assert not any(
                q.seconds_per_token < p.seconds_per_token
                and q.mean_precision > p.mean_precision
                for q in points
            )

    def test_pareto_front_handles_duplicates(self):
        p = DSEPoint(alpha=1.0, device_name="d", seconds_per_token=1.0,
                     speedup_over_dense=1.0, mean_precision=0.9,
                     mean_recall=0.9, mean_predicted_skip=0.9)
        assert pareto_front([p, p]) == [p, p]

    def test_tokens_per_second(self):
        p = DSEPoint(alpha=1.0, device_name="d", seconds_per_token=0.05,
                     speedup_over_dense=2.0, mean_precision=1.0,
                     mean_recall=1.0, mean_predicted_skip=0.9)
        assert p.tokens_per_second == pytest.approx(20.0)
