"""Tests for config, tokenizer, norm, rope, KV cache and weights."""

import tracemalloc

import numpy as np
import pytest

from repro.model.config import (
    ModelConfig,
    prosparse_llama2_7b,
    prosparse_llama2_13b,
    tiny_7b_role,
)
from repro.model.kvcache import KVCache
from repro.model.mlp import DenseMLP
from repro.model.norm import rmsnorm
from repro.model.rope import apply_rope, rope_tables
from repro.model.tokenizer import CharTokenizer
from repro.model.weights import ModelWeights, random_weights


class TestModelConfig:
    def test_paper_13b_dimensions(self):
        cfg = prosparse_llama2_13b()
        assert cfg.d_model == 5120
        assert cfg.d_ff == 13824
        assert cfg.n_layers == 40

    def test_paper_7b_dimensions(self):
        cfg = prosparse_llama2_7b()
        assert cfg.d_model == 4096
        assert cfg.d_ff == 11008
        assert cfg.n_layers == 32

    def test_param_counts(self):
        cfg = prosparse_llama2_13b()
        # MLP per layer: 3 * 5120 * 13824 = 2.123e8 params (Table I basis).
        assert cfg.mlp_params_per_layer == 3 * 5120 * 13824
        # Rough total should land near 13B.
        assert 12e9 < cfg.total_params < 14e9

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", vocab_size=10, d_model=30, n_layers=1,
                        n_heads=4, d_ff=64)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", vocab_size=10, d_model=32, n_layers=1,
                        n_heads=2, d_ff=64, activation="gelu")

    def test_relufied_transform(self):
        cfg = ModelConfig(name="m", vocab_size=10, d_model=32, n_layers=1,
                          n_heads=2, d_ff=64, activation="silu")
        r = cfg.relufied()
        assert r.activation == "relu"
        assert "relufied" in r.name

    def test_role_configs_word_aligned(self):
        # d_model should be a multiple of 32 so sign packing has no padding.
        for cfg in (tiny_7b_role(), prosparse_llama2_7b(), prosparse_llama2_13b()):
            assert cfg.d_model % 32 == 0


class TestTokenizer:
    def test_roundtrip(self):
        tok = CharTokenizer("abc123")
        assert tok.decode(tok.encode("a1c2")) == "a1c2"

    def test_specials(self):
        tok = CharTokenizer("ab")
        ids = tok.encode("ab", add_bos=True, add_eos=True)
        assert ids[0] == tok.bos_id
        assert ids[-1] == tok.eos_id
        assert tok.decode(ids) == "ab"

    def test_unknown_char_rejected(self):
        tok = CharTokenizer("ab")
        with pytest.raises(ValueError):
            tok.encode("x")

    def test_from_corpus(self):
        tok = CharTokenizer.from_corpus(["hi", "ho"])
        assert tok.decode(tok.encode("hiho")) == "hiho"

    def test_duplicate_alphabet_deduped(self):
        tok = CharTokenizer("aab")
        assert tok.vocab_size == 3 + 2  # 3 specials + a, b

    def test_multichar_alphabet_entry_impossible(self):
        # alphabet is a string, so every entry is one char by construction;
        # verify vocab ids are dense and stable.
        tok = CharTokenizer("xyz")
        assert sorted(tok.encode("zyx")) == [3, 4, 5]


class TestNorm:
    def test_unit_rms(self, rng):
        x = rng.standard_normal((4, 16)).astype(np.float32) * 7
        out = rmsnorm(x, np.ones(16, dtype=np.float32))
        np.testing.assert_allclose(
            np.sqrt(np.mean(out**2, axis=-1)), 1.0, atol=1e-3
        )

    def test_weight_scales(self, rng):
        x = rng.standard_normal(8).astype(np.float32)
        w = np.full(8, 2.0, dtype=np.float32)
        np.testing.assert_allclose(
            rmsnorm(x, w), 2 * rmsnorm(x, np.ones(8, dtype=np.float32)),
            atol=1e-6,
        )

    @pytest.mark.parametrize("shape", [(256,), (8, 256), (33, 1024), (5,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_np_mean_formulation(self, rng, shape, dtype):
        """The decode path's norm must not move a bit: any drift can
        flip a near-zero gate pre-activation and change skip counts."""
        x = (rng.standard_normal(shape) * 3).astype(dtype)
        w = rng.standard_normal(shape[-1]).astype(dtype)
        ms = np.mean(np.square(x), axis=-1, keepdims=True)
        np.testing.assert_array_equal(
            rmsnorm(x, w, 1e-5), x / np.sqrt(ms + 1e-5) * w
        )


class TestRope:
    def test_norm_preserved(self, rng):
        cos, sin = rope_tables(np.arange(5), 8)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        out = apply_rope(x, cos, sin)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-4
        )

    def test_matches_training_path(self, rng):
        """Inference rope must agree with the autograd rope."""
        from repro.autograd.functional import (
            apply_rope as train_rope,
            rope_rotation,
        )
        from repro.autograd.tensor import Tensor

        x = rng.standard_normal((1, 6, 8)).astype(np.float32)
        cos_t, sin_t = rope_rotation(6, 8)
        cos_i, sin_i = rope_tables(np.arange(6), 8)
        np.testing.assert_allclose(cos_t, cos_i, atol=1e-6)
        np.testing.assert_allclose(
            train_rope(Tensor(x), cos_t, sin_t).data,
            apply_rope(x, cos_i, sin_i),
            atol=1e-5,
        )

    def test_arbitrary_positions(self):
        cos, sin = rope_tables(np.array([7]), 4)
        cos_full, sin_full = rope_tables(np.arange(8), 4)
        np.testing.assert_allclose(cos[0], cos_full[7])

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_tables(np.arange(3), 5)


class TestKVCache:
    def test_append_and_view(self, micro_config, rng):
        cache = KVCache(micro_config, max_seq_len=8)
        k = rng.standard_normal(micro_config.d_model).astype(np.float32)
        v = rng.standard_normal(micro_config.d_model).astype(np.float32)
        cache.append(0, k, v, 0)
        cache.advance()
        keys, values = cache.view(0, 1)
        np.testing.assert_allclose(keys[0], k)
        np.testing.assert_allclose(values[0], v)

    def test_overflow_rejected(self, micro_config):
        cache = KVCache(micro_config, max_seq_len=2)
        z = np.zeros(micro_config.d_model, dtype=np.float32)
        with pytest.raises(ValueError):
            cache.append(0, z, z, 2)

    def test_reset(self, micro_config):
        cache = KVCache(micro_config, max_seq_len=4)
        cache.advance()
        cache.reset()
        assert cache.length == 0


class TestDenseMLP:
    @pytest.mark.parametrize("activation", ["relu", "silu", "fatrelu"])
    def test_run_tokens_matches_rowwise_run(self, rng, activation):
        cfg = ModelConfig(name="m", vocab_size=10, d_model=32, n_layers=2,
                          n_heads=2, d_ff=64, activation=activation,
                          fatrelu_threshold=0.1)
        mlp = DenseMLP(random_weights(cfg, seed=3))
        xs = rng.standard_normal((5, cfg.d_model)).astype(np.float32)
        for layer in range(cfg.n_layers):
            out = mlp.run_tokens(layer, xs)
            assert out.dtype == np.float32
            np.testing.assert_allclose(
                out, np.stack([mlp.run(layer, x) for x in xs]),
                rtol=1e-5, atol=1e-6,
            )

    def test_run_tokens_accounts_per_token(self, micro_weights, rng):
        mlp = DenseMLP(micro_weights)
        k = micro_weights.config.d_ff
        xs = rng.standard_normal(
            (7, micro_weights.config.d_model)).astype(np.float32)
        calls = rows = 0
        for n_tokens in (1, 3, 7):
            mlp.run_tokens(1, xs[:n_tokens])
            calls, rows = calls + n_tokens, rows + n_tokens * k
            assert (mlp.stats.calls, mlp.stats.rows_total) == (calls, rows)


BENCH_CONFIG = ModelConfig(
    name="bench-256x4", vocab_size=2048, d_model=256, n_layers=4,
    n_heads=4, d_ff=1024, max_seq_len=256, dtype_bytes=4,
)


def _full_draw_weights(config, seed, scale=0.02):
    """``random_weights``' matrices as one full-size float64 draw each,
    in its draw order (per layer wq wk wv wo gate up down, then
    tok_embed, lm_head)."""
    rng = np.random.default_rng(seed)
    d, k, v = config.d_model, config.d_ff, config.vocab_size
    shapes = [(d, d)] * 4 + [(k, d)] * 3
    mats = [(rng.standard_normal(shape) * scale).astype(np.float32)
            for _ in range(config.n_layers) for shape in shapes]
    mats.append((rng.standard_normal((v, d)) * scale).astype(np.float32))
    mats.append((rng.standard_normal((d, v)) * scale).astype(np.float32))
    return mats


def _matrices(weights):
    names = ("wq", "wk", "wv", "wo", "w_gate_rows", "w_up_rows",
             "w_down_rows")
    return [getattr(layer, name) for layer in weights.layers
            for name in names] + [weights.tok_embed, weights.lm_head]


class TestWeights:
    def test_random_weights_validate(self, micro_config):
        random_weights(micro_config).validate()

    @pytest.mark.parametrize("seed", [0, 7, 13])
    @pytest.mark.parametrize("config_name", ["micro", "bench"])
    def test_random_weights_equal_one_full_draw(self, micro_config, seed,
                                                config_name):
        config = micro_config if config_name == "micro" else BENCH_CONFIG
        got = _matrices(random_weights(config, seed=seed))
        want = _full_draw_weights(config, seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, b)

    def test_random_weights_peak_memory_is_the_weights(self):
        """No full-size float64 temporary: the traced peak stays within
        1 MB of the weights' own bytes."""
        tracemalloc.start()
        try:
            weights = random_weights(BENCH_CONFIG, seed=13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        final = sum(m.nbytes for m in _matrices(weights))
        final += sum(layer.attn_norm.nbytes + layer.mlp_norm.nbytes
                     for layer in weights.layers)
        final += weights.final_norm.nbytes
        assert peak <= final + 2 ** 20

    def test_save_load_roundtrip(self, micro_config, tmp_path):
        w = random_weights(micro_config, seed=5)
        path = tmp_path / "w.npz"
        w.save(path)
        loaded = ModelWeights.load(path, micro_config)
        np.testing.assert_allclose(loaded.tok_embed, w.tok_embed)
        np.testing.assert_allclose(
            loaded.layers[1].w_gate_rows, w.layers[1].w_gate_rows
        )

    def test_validate_catches_bad_shape(self, micro_config):
        w = random_weights(micro_config)
        w.layers[0].wq = w.layers[0].wq[:-1]
        with pytest.raises(ValueError):
            w.validate()

    def test_gate_matrices_shape(self, micro_config):
        w = random_weights(micro_config)
        gates = w.gate_matrices()
        assert len(gates) == micro_config.n_layers
        assert gates[0].shape == (micro_config.d_ff, micro_config.d_model)
