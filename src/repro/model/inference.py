"""Numpy decode engine with KV cache and pluggable MLP executors.

This is the substrate playing llama.cpp's role: a single-token
autoregressive decoder.  The MLP block is delegated to an executor
(dense, SparseInfer, DejaVu/PowerInfer, random, threshold), which is how
every engine comparison in the paper is expressed.

``trace_mlp_inputs=True`` records, per (layer, token), the RMS-normed MLP
input and the exact gate pre-activation.  Traces drive DejaVu predictor
training, alpha calibration, and the trained-model versions of Figs. 2-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import ModelConfig
from .kvcache import KVCache
from .mlp import DenseMLP, MLPExecutor
from .norm import rmsnorm
from .rope import apply_rope, rope_for_position
from .weights import ModelWeights


def attend_single(
    config: ModelConfig,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    position: int,
    cache,
    layer: int,
    rope: Optional[tuple] = None,
) -> np.ndarray:
    """RoPE + cache append + causal attention for one sequence, one token.

    ``q``/``k``/``v`` are the raw ``(d_model,)`` projections; ``cache`` is
    anything with the :class:`~repro.model.kvcache.KVCache` interface (a
    standalone cache or one
    :class:`~repro.model.paged_kvcache.PagedKVSlot` of a serving batch).  Returns the pre-``Wo`` context vector.  Both the
    single-sequence and the batched engines funnel through this function,
    which is what makes their outputs bit-identical.

    ``rope`` optionally carries the ``(cos, sin)`` tables for ``position``
    so callers stepping many layers (or many sequences) per token can
    compute them once instead of once per layer.
    """
    n_heads, head_dim = config.n_heads, config.head_dim
    if rope is None:
        rope = rope_for_position(position, head_dim, config.rope_theta)
    cos, sin = rope
    q = apply_rope(q.reshape(n_heads, 1, head_dim), cos, sin).reshape(n_heads, head_dim)
    k = apply_rope(k.reshape(n_heads, 1, head_dim), cos, sin).reshape(-1)
    cache.append(layer, k, v, position)
    length = position + 1
    keys, values = cache.view(layer, length)               # (len, d)
    kh = keys.reshape(length, n_heads, head_dim).transpose(1, 0, 2)
    vh = values.reshape(length, n_heads, head_dim).transpose(1, 0, 2)
    # float32 scale: a float64 np.sqrt scalar would promote scores --
    # and the residual stream after it -- to float64, silently doubling
    # every downstream GEMM's work (NEP 50 keeps numpy-scalar dtypes).
    scores = np.einsum("hd,htd->ht", q, kh) / np.float32(np.sqrt(head_dim))
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.einsum("ht,htd->hd", probs, vh).reshape(config.d_model)


@dataclass
class MLPTrace:
    """Recorded MLP-block inputs for offline analysis."""

    layer: int
    x: np.ndarray            # (d,) RMS-normed input to the MLP block
    gate_preact: np.ndarray  # (k,) exact x @ Wgate^T


def forward_token_single(
    weights: ModelWeights,
    token_id: int,
    position: int,
    cache,
    mlp,
    traces: Optional[list] = None,
    rope: Optional[tuple] = None,
) -> np.ndarray:
    """One token through the full decoder stack for one sequence.

    The shared op sequence behind both :meth:`InferenceModel.forward_token`
    and the serving engine's per-slot path -- ``cache`` is anything with
    the :class:`~repro.model.kvcache.KVCache` interface.  Does **not**
    advance the cache; the caller owns step accounting.  When ``traces``
    is a list, an :class:`MLPTrace` is appended per layer.
    """
    cfg = weights.config
    x = weights.tok_embed[token_id].astype(np.float32).copy()
    for layer in range(cfg.n_layers):
        lw = weights.layers[layer]
        attn_in = rmsnorm(x, lw.attn_norm, cfg.norm_eps)
        ctx = attend_single(
            cfg, attn_in @ lw.wq, attn_in @ lw.wk, attn_in @ lw.wv,
            position, cache, layer, rope=rope,
        )
        x = x + ctx @ lw.wo
        mlp_in = rmsnorm(x, lw.mlp_norm, cfg.norm_eps)
        if traces is not None:
            traces.append(
                MLPTrace(
                    layer=layer,
                    x=mlp_in.copy(),
                    gate_preact=lw.w_gate_rows @ mlp_in,
                )
            )
        x = x + mlp.run(layer, mlp_in)
    final = rmsnorm(x, weights.final_norm, cfg.norm_eps)
    return final @ weights.lm_head


@dataclass
class GenerationResult:
    """Output of :meth:`InferenceModel.generate`."""

    prompt_ids: list
    generated_ids: list
    logits_history: list = field(default_factory=list)

    @property
    def n_generated(self) -> int:
        return len(self.generated_ids)


class InferenceModel:
    """Single-sequence decoder with KV cache.

    Parameters
    ----------
    weights:
        Model parameters in inference layout.
    mlp:
        MLP executor; defaults to the dense reference.
    trace_mlp_inputs:
        Record :class:`MLPTrace` entries for every (layer, token).
    """

    def __init__(
        self,
        weights: ModelWeights,
        mlp: Optional[MLPExecutor] = None,
        trace_mlp_inputs: bool = False,
        prefill_mlp: Optional[MLPExecutor] = None,
    ):
        weights.validate()
        self.weights = weights
        self.config: ModelConfig = weights.config
        self.mlp: MLPExecutor = mlp if mlp is not None else DenseMLP(weights)
        # SparseInfer sparsifies decoding only (Section V-C); a separate
        # prefill executor (typically dense) models that split.
        self.prefill_mlp: MLPExecutor = (
            prefill_mlp if prefill_mlp is not None else self.mlp
        )
        self._active_mlp: MLPExecutor = self.mlp
        self.trace_mlp_inputs = trace_mlp_inputs
        self.traces: list = []
        self.cache = KVCache(self.config)

    # -- core forward ------------------------------------------------------

    def reset(self) -> None:
        """Clear the KV cache (traces are kept; clear explicitly)."""
        self.cache.reset()

    def clear_traces(self) -> None:
        self.traces = []

    def forward_token(self, token_id: int, position: int) -> np.ndarray:
        """One decode step: returns the next-token logits ``(vocab,)``."""
        logits = forward_token_single(
            self.weights, token_id, position, self.cache, self._active_mlp,
            traces=self.traces if self.trace_mlp_inputs else None,
        )
        self.cache.advance()
        return logits

    def prefill(self, token_ids: Sequence[int]) -> np.ndarray:
        """Run the prompt through the model; returns last-position logits.

        SparseInfer applies sparsity only in the decoding phase
        (Section V-C); callers wanting that semantics should prefill with a
        dense executor -- :func:`repro.core.engine.build_engine` arranges
        this automatically.
        """
        # len(), not truthiness: a numpy-array prompt satisfies the
        # Sequence[int] annotation but raises on bool().
        if len(token_ids) == 0:
            raise ValueError("prefill needs at least one token")
        self._active_mlp = self.prefill_mlp
        try:
            logits = None
            for tok in token_ids:
                logits = self.forward_token(int(tok), self.cache.length)
        finally:
            self._active_mlp = self.mlp
        return logits

    def generate(
        self,
        prompt_ids: Sequence[int],
        max_new_tokens: int,
        stop_ids: Optional[set] = None,
        keep_logits: bool = False,
    ) -> GenerationResult:
        """Greedy decoding from a prompt."""
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        self.reset()
        logits = self.prefill(list(prompt_ids))
        result = GenerationResult(prompt_ids=list(prompt_ids), generated_ids=[])
        for _ in range(max_new_tokens):
            next_id = int(np.argmax(logits))
            if stop_ids and next_id in stop_ids:
                break
            result.generated_ids.append(next_id)
            if keep_logits:
                result.logits_history.append(logits.copy())
            logits = self.forward_token(next_id, self.cache.length)
        return result
