"""Tests for the sampler, trace-driven calibration, TEAL and energy model."""

import numpy as np
import pytest

from repro.core.calibration import (
    calibrate_schedule,
    collect_calibration_traces,
    measure_precision_grid,
)
from repro.model.sampler import Sampler, SamplerConfig, greedy


class TestSampler:
    def test_greedy_default(self):
        s = Sampler()
        assert s.sample(np.array([0.1, 3.0, 0.2])) == 1

    def test_greedy_helper(self):
        assert greedy(np.array([5.0, 1.0])) == 0

    def test_temperature_sampling_reproducible(self):
        logits = np.array([1.0, 1.1, 0.9, 2.0])
        a = Sampler(SamplerConfig(temperature=1.0, seed=3))
        b = Sampler(SamplerConfig(temperature=1.0, seed=3))
        assert [a.sample(logits) for _ in range(10)] == [
            b.sample(logits) for _ in range(10)
        ]

    def test_top_k_restricts_support(self):
        logits = np.array([0.0, 1.0, 2.0, 3.0])
        s = Sampler(SamplerConfig(temperature=1.0, top_k=2, seed=0))
        picks = {s.sample(logits) for _ in range(50)}
        assert picks <= {2, 3}

    def test_top_p_restricts_support(self):
        logits = np.array([10.0, 9.9, -10.0, -10.0])
        s = Sampler(SamplerConfig(temperature=1.0, top_p=0.9, seed=0))
        picks = {s.sample(logits) for _ in range(50)}
        assert picks <= {0, 1}

    def test_low_temperature_approaches_greedy(self):
        logits = np.array([1.0, 2.0, 0.5])
        s = Sampler(SamplerConfig(temperature=1e-4, seed=0))
        assert all(s.sample(logits) == 1 for _ in range(10))

    @pytest.mark.parametrize("field, value", [
        ("temperature", -1),
        # nan once served greedy tokens while is_greedy read False, and
        # inf sampled from a uniform distribution.
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("top_k", -1),
        # Once truncated to 2 by the int64 top-k array.
        ("top_k", 2.5),
        ("top_p", 1.5),
        # Once truncated to seed 1 by derive_stream.
        ("seed", 1.5),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SamplerConfig(**{field: value})

    def test_integral_numpy_values_become_ints(self):
        config = SamplerConfig(top_k=np.int64(3), seed=np.uint32(7))
        assert type(config.top_k) is int and type(config.seed) is int

    def test_sample_takes_one_row(self):
        with pytest.raises(ValueError):
            Sampler().sample(np.zeros((2, 2)))


class TestCalibration:
    @pytest.fixture(scope="class")
    def calib(self, request):
        from repro.model.config import ModelConfig
        from repro.model.tokenizer import CharTokenizer
        from repro.model.weights import random_weights
        from repro.workloads import gsm8k_like

        tok = CharTokenizer(gsm8k_like.ALPHABET)
        cfg = ModelConfig(name="calib", vocab_size=tok.vocab_size,
                          d_model=64, n_layers=3, n_heads=2, d_ff=96,
                          max_seq_len=64, dtype_bytes=4)
        weights = random_weights(cfg, seed=2)
        prompts = [s.prompt for s in gsm8k_like.generate(3, seed=0)]
        return weights, tok, prompts

    def test_collect_traces(self, calib):
        weights, tok, prompts = calib
        traces = collect_calibration_traces(weights, tok, prompts,
                                            max_new_tokens=2)
        assert len(traces) > 0
        assert {t.layer for t in traces} == {0, 1, 2}

    def test_empty_prompts_rejected(self, calib):
        weights, tok, _ = calib
        with pytest.raises(ValueError):
            collect_calibration_traces(weights, tok, [])

    def test_precision_grid_monotone_in_alpha(self, calib):
        weights, tok, prompts = calib
        traces = collect_calibration_traces(weights, tok, prompts, 2)
        grid = measure_precision_grid(
            traces, weights.gate_matrices(), alphas=(1.0, 1.5)
        )
        for layer in range(weights.config.n_layers):
            assert grid[(layer, 1.5)] >= grid[(layer, 1.0)] - 0.05

    def test_calibrate_schedule_end_to_end(self, calib):
        weights, tok, prompts = calib
        result = calibrate_schedule(
            weights, tok, prompts, target_precision=0.8,
            alphas=(1.0, 1.2, 2.0),
        )
        assert result.schedule.n_layers == weights.config.n_layers
        for layer in range(weights.config.n_layers):
            alpha = result.schedule[layer]
            # Chosen alpha meets the target unless even the largest missed.
            if alpha != 2.0:
                assert result.precision(layer, alpha) >= 0.8

    def test_no_traces_rejected(self, calib):
        weights, _, _ = calib
        with pytest.raises(ValueError):
            measure_precision_grid([], weights.gate_matrices(), (1.0,))


class TestTeal:
    @pytest.fixture
    def teal(self, micro_weights):
        import numpy as np

        from repro.baselines.teal import TealMLP

        thresholds = np.full(micro_weights.config.n_layers, 0.5)
        return TealMLP(micro_weights, thresholds)

    def test_zero_threshold_matches_dense(self, micro_weights, rng):
        import numpy as np

        from repro.baselines.teal import TealMLP
        from repro.model.mlp import DenseMLP

        teal = TealMLP(micro_weights,
                       np.zeros(micro_weights.config.n_layers))
        dense = DenseMLP(micro_weights)
        x = rng.standard_normal(micro_weights.config.d_model).astype(np.float32)
        np.testing.assert_allclose(teal.run(0, x), dense.run(0, x), atol=1e-5)

    def test_columns_skipped(self, teal, micro_weights, rng):
        x = rng.standard_normal(micro_weights.config.d_model).astype(np.float32)
        teal.run(0, x)
        assert teal.column_skip_fraction > 0.1

    def test_threshold_calibration(self, rng):
        from repro.baselines.teal import calibrate_input_thresholds

        inputs = [rng.standard_normal(1000) for _ in range(2)]
        thr = calibrate_input_thresholds(inputs, 0.6)
        for t, x in zip(thr, inputs):
            assert np.mean(np.abs(x) < t) == pytest.approx(0.6, abs=0.05)

    def test_operator_validation(self):
        from repro.baselines.teal import (
            input_threshold_for_sparsity,
            sparsify_input,
        )

        with pytest.raises(ValueError):
            sparsify_input(np.zeros(3), -1.0)
        with pytest.raises(ValueError):
            input_threshold_for_sparsity(np.zeros(3), 1.5)

    def test_threshold_count_checked(self, micro_weights):
        import numpy as np

        from repro.baselines.teal import TealMLP

        with pytest.raises(ValueError):
            TealMLP(micro_weights, np.zeros(9))


class TestEnergy:
    def test_sparse_saves_energy(self):
        from repro.gpu.device import jetson_orin_agx_64gb
        from repro.gpu.energy import decode_energy
        from repro.gpu.pipeline import (
            EngineSpec,
            SparsityProfile,
            dense_engine,
        )
        from repro.model.config import prosparse_llama2_13b

        cfg = prosparse_llama2_13b()
        dev = jetson_orin_agx_64gb()
        dense = decode_energy(cfg, dense_engine(), dev, seq_len=700)
        sparse = decode_energy(
            cfg,
            EngineSpec(kind="sparseinfer", kernel_fusion=True,
                       actual_sparsity=True),
            dev,
            SparsityProfile.uniform(cfg.n_layers, 0.9, 0.92),
            seq_len=700,
        )
        assert sparse.joules_per_token < dense.joules_per_token
        assert sparse.energy_delay_product < dense.energy_delay_product
        # Jetson-scale energy: single-digit joules per 13B token.
        assert 0.5 < dense.joules_per_token < 20.0

    def test_model_validation(self):
        from repro.gpu.energy import EnergyModel

        with pytest.raises(ValueError):
            EnergyModel(static_power=-1)
        with pytest.raises(ValueError):
            EnergyModel(op_energy=0)
