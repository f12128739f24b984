"""Plain-numpy weight containers in inference layout.

The inference layout keeps the gate/up/down projections *row-major by
output neuron* so that activation sparsity maps to skipping contiguous
rows, exactly as the paper's sparse GEMV kernels do:

* ``w_gate_rows`` / ``w_up_rows``: shape ``(k, d)``; ``h = W @ x``.
* ``w_down_rows``: shape ``(k, d)``; row ``i`` is the column of ``Wdown``
  scaled by ``h3[i]`` and accumulated into the output (the transposed /
  atomicAdd layout of Section IV-B.4).

Weights can be saved/loaded as ``.npz`` for caching trained models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .gemm import column_blocks


@dataclass
class LayerWeights:
    """All parameters of one decoder layer."""

    attn_norm: np.ndarray    # (d,)
    wq: np.ndarray           # (d, d), used as x @ wq
    wk: np.ndarray           # (d, d)
    wv: np.ndarray           # (d, d)
    wo: np.ndarray           # (d, d)
    mlp_norm: np.ndarray     # (d,)
    w_gate_rows: np.ndarray  # (k, d)
    w_up_rows: np.ndarray    # (k, d)
    w_down_rows: np.ndarray  # (k, d)

    def validate(self, config: ModelConfig) -> None:
        d, k = config.d_model, config.d_ff
        expected = {
            "attn_norm": (d,),
            "wq": (d, d),
            "wk": (d, d),
            "wv": (d, d),
            "wo": (d, d),
            "mlp_norm": (d,),
            "w_gate_rows": (k, d),
            "w_up_rows": (k, d),
            "w_down_rows": (k, d),
        }
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {actual}")


@dataclass
class ModelWeights:
    """Full parameter set of a gate-based-MLP decoder LM."""

    config: ModelConfig
    tok_embed: np.ndarray    # (vocab, d)
    layers: list             # list[LayerWeights]
    final_norm: np.ndarray   # (d,)
    lm_head: np.ndarray      # (d, vocab)

    def validate(self) -> None:
        cfg = self.config
        if self.tok_embed.shape != (cfg.vocab_size, cfg.d_model):
            raise ValueError(f"tok_embed shape {self.tok_embed.shape}")
        if self.lm_head.shape != (cfg.d_model, cfg.vocab_size):
            raise ValueError(f"lm_head shape {self.lm_head.shape}")
        if self.final_norm.shape != (cfg.d_model,):
            raise ValueError(f"final_norm shape {self.final_norm.shape}")
        if len(self.layers) != cfg.n_layers:
            raise ValueError(
                f"expected {cfg.n_layers} layers, got {len(self.layers)}"
            )
        for layer in self.layers:
            layer.validate(cfg)

    @cached_property
    def lm_head_blocks(self) -> list:
        """``lm_head`` as contiguous column blocks for small-batch logits.

        Built on the first blocked product (:func:`repro.model.gemm.
        lm_head_logits`) and kept beside ``lm_head``, whose one-row
        GEMV and wide products still read the plain matrix: a second
        copy of the lm-head (2 MB at d 256 / vocab 2048).  Weights are
        read-only once built, so the copy never goes stale.
        """
        return column_blocks(self.lm_head)

    def gate_matrices(self) -> list:
        """Per-layer ``(k, d)`` gate matrices, the predictor's input."""
        return [layer.w_gate_rows for layer in self.layers]

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Serialise to ``.npz`` (used to cache trained role models)."""
        arrays = {
            "tok_embed": self.tok_embed,
            "final_norm": self.final_norm,
            "lm_head": self.lm_head,
        }
        for i, layer in enumerate(self.layers):
            for name in (
                "attn_norm", "wq", "wk", "wv", "wo",
                "mlp_norm", "w_gate_rows", "w_up_rows", "w_down_rows",
            ):
                arrays[f"layer{i}.{name}"] = getattr(layer, name)
        np.savez_compressed(Path(path), **arrays)

    @classmethod
    def load(cls, path, config: ModelConfig) -> "ModelWeights":
        data = np.load(Path(path))
        layers = []
        for i in range(config.n_layers):
            layers.append(
                LayerWeights(
                    **{
                        name: data[f"layer{i}.{name}"]
                        for name in (
                            "attn_norm", "wq", "wk", "wv", "wo",
                            "mlp_norm", "w_gate_rows", "w_up_rows",
                            "w_down_rows",
                        )
                    }
                )
            )
        weights = cls(
            config=config,
            tok_embed=data["tok_embed"],
            layers=layers,
            final_norm=data["final_norm"],
            lm_head=data["lm_head"],
        )
        weights.validate()
        return weights


#: float64 draws per chunk of :func:`random_weights` (128 KB).
_DRAW_CHUNK = 16_384


def random_weights(config: ModelConfig, seed: int = 0,
                   scale: float = 0.02) -> ModelWeights:
    """Random (untrained) weights, mostly for tests and shape checks.

    Each matrix is ``(rng.standard_normal(shape) * scale)`` rounded to
    float32, drawn in chunks straight into the float32 result: the same
    values and RNG stream as one full-size draw, without its two
    float64 temporaries.
    """
    rng = np.random.default_rng(seed)
    d, k, v = config.d_model, config.d_ff, config.vocab_size

    def mat(*shape):
        out = np.empty(shape, dtype=np.float32)
        flat = out.reshape(-1)
        for lo in range(0, flat.size, _DRAW_CHUNK):
            block = rng.standard_normal(min(_DRAW_CHUNK, flat.size - lo))
            np.multiply(block, scale, out=flat[lo:lo + block.size],
                        casting="same_kind")
        return out

    layers = [
        LayerWeights(
            attn_norm=np.ones(d, dtype=np.float32),
            wq=mat(d, d), wk=mat(d, d), wv=mat(d, d), wo=mat(d, d),
            mlp_norm=np.ones(d, dtype=np.float32),
            w_gate_rows=mat(k, d), w_up_rows=mat(k, d), w_down_rows=mat(k, d),
        )
        for _ in range(config.n_layers)
    ]
    weights = ModelWeights(
        config=config,
        tok_embed=mat(v, d),
        layers=layers,
        final_norm=np.ones(d, dtype=np.float32),
        lm_head=mat(d, v),
    )
    weights.validate()
    return weights
