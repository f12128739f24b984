"""Tests for the SparseInfer engine assembly."""

import numpy as np
import pytest

from repro.core.engine import (
    SparseInferSettings,
    build_engine,
    build_predictor,
    dense_engine,
)
from repro.core.sparse_mlp import SparseInferMLP
from repro.model.mlp import DenseMLP


class TestSettings:
    def test_uniform_schedule(self):
        s = SparseInferSettings(alpha=1.02)
        sched = s.schedule(6)
        assert all(sched[i] == 1.02 for i in range(6))

    def test_early_layer_schedule(self):
        s = SparseInferSettings(alpha=1.0, alpha_early=1.03, n_early_layers=2)
        sched = s.schedule(4)
        assert sched.alphas == (1.03, 1.03, 1.0, 1.0)


class TestBuildEngine:
    def test_default_wiring(self, micro_weights):
        engine = build_engine(micro_weights)
        assert isinstance(engine.mlp, SparseInferMLP)
        assert isinstance(engine.prefill_mlp, DenseMLP)  # dense prefill

    def test_reuses_prebuilt_predictor(self, micro_weights):
        settings = SparseInferSettings(alpha=1.0)
        predictor = build_predictor(micro_weights, settings)
        engine = build_engine(micro_weights, settings, predictor=predictor)
        # Packing shared, not recomputed.
        assert engine.mlp.predictor.packed_gate(0) is predictor.packed_gate(0)

    def test_conservative_engine_matches_dense(self, micro_weights):
        prompt = [1, 4, 2]
        sparse = build_engine(micro_weights, SparseInferSettings(alpha=1e9))
        dense = dense_engine(micro_weights)
        assert (
            sparse.generate(prompt, 4).generated_ids
            == dense.generate(prompt, 4).generated_ids
        )

    def test_generation_runs_with_default_alpha(self, micro_weights):
        engine = build_engine(micro_weights)
        result = engine.generate([1, 2, 3], 3)
        assert len(result.generated_ids) <= 3
        assert all(
            0 <= t < micro_weights.config.vocab_size
            for t in result.generated_ids
        )

    @pytest.mark.parametrize("bad", [-1, 19])
    @pytest.mark.parametrize("entry", ["generate", "prefill", "forward_token"])
    def test_out_of_vocab_token_id_raises(self, micro_weights, entry, bad):
        """The oracle shares the serving engine's vocabulary check: a
        negative id used to embed a row from the end of the table, and
        ``vocab_size`` raised a raw ``IndexError`` mid-pass."""
        assert micro_weights.config.vocab_size == 19
        engine = build_engine(micro_weights)
        if entry != "generate":
            engine.prefill([1, 2, 3])
        length, calls = engine.cache.length, engine.mlp.stats.calls
        with pytest.raises(ValueError, match=r"token ids must lie in \[0, 19\)"):
            {
                "generate": lambda: engine.generate([bad, 5], 3),
                "prefill": lambda: engine.prefill([4, bad]),
                "forward_token": lambda: engine.forward_token(bad, length),
            }[entry]()
        assert engine.cache.length == length
        assert engine.mlp.stats.calls == calls

    def test_aggressive_alpha_skips_more_than_conservative(self, micro_weights):
        prompt = [1, 2, 3]
        aggressive = build_engine(micro_weights, SparseInferSettings(alpha=0.9))
        conservative = build_engine(micro_weights, SparseInferSettings(alpha=1.2))
        aggressive.generate(prompt, 3)
        conservative.generate(prompt, 3)
        assert (
            aggressive.mlp.stats.gate_skip_fraction
            >= conservative.mlp.stats.gate_skip_fraction
        )
