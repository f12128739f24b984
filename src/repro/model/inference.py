"""Numpy decode engine with KV cache and pluggable MLP executors.

This is the substrate playing llama.cpp's role: a single-token
autoregressive decoder.  The MLP block is delegated to an executor
(dense, SparseInfer, DejaVu/PowerInfer, random, threshold), which is how
every engine comparison in the paper is expressed.  Its layer loop,
:func:`forward_rows`, is the serving engine's too.

``trace_mlp_inputs=True`` records, per (layer, token), the RMS-normed MLP
input and the exact gate pre-activation.  Traces drive DejaVu predictor
training, alpha calibration, and the trained-model versions of Figs. 2-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .config import ModelConfig
from .gemm import lm_head_logits
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
    rope: tuple,
) -> np.ndarray:
    """RoPE + cache append + causal attention for one sequence, one token.

    ``q``/``k``/``v`` are the raw ``(d_model,)`` projections; ``cache`` is
    anything with the :class:`~repro.model.kvcache.KVCache` interface (a
    standalone cache or one
    :class:`~repro.model.paged_kvcache.PagedKVSlot` of a serving batch);
    ``rope`` is the ``(cos, sin)`` pair for ``position``, built once per
    token by the caller.  Returns the pre-``Wo`` context vector.  Both the
    single-sequence and the batched engines funnel through this function,
    which is what makes their outputs bit-identical.
    """
    n_heads, head_dim = config.n_heads, config.head_dim
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
    # einsum, not the faster BLAS matmul of the serving engine's ragged
    # pass: matmul rounds differently, and that drift flips near-zero
    # gate rows.
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


def token_ids_in_vocab(config: ModelConfig, token_ids: Sequence[int]) -> list:
    """``token_ids`` as plain ints, checked before any K/V append: a
    negative id would silently embed a row from the end of the table."""
    ids = [int(tok) for tok in token_ids]
    if ids and (min(ids) < 0 or max(ids) >= config.vocab_size):
        raise ValueError(f"token ids must lie in [0, {config.vocab_size})")
    return ids


def forward_rows(weights: ModelWeights, token_ids: Sequence[int], attend,
                 mlp_rows, last_rows=None) -> np.ndarray:
    """The one transformer layer loop, over ``(rows, d)`` activations.

    ``attend(layer, q, k, v)`` takes the raw ``(rows, d)`` projections,
    applies RoPE, appends K/V to the cache and returns the pre-``Wo``
    context rows; ``mlp_rows(layer, x)`` runs one layer's MLP over the
    normed rows.  Returns ``(rows, vocab)`` logits, or only the rows
    indexed by ``last_rows``.  The caller advances the cache.
    """
    cfg = weights.config
    x = weights.tok_embed[token_ids].astype(np.float32)
    for layer in range(cfg.n_layers):
        lw = weights.layers[layer]
        attn_in = rmsnorm(x, lw.attn_norm, cfg.norm_eps)
        ctx = attend(layer, attn_in @ lw.wq, attn_in @ lw.wk, attn_in @ lw.wv)
        x = x + ctx @ lw.wo
        x = x + mlp_rows(layer, rmsnorm(x, lw.mlp_norm, cfg.norm_eps))
    if last_rows is not None:
        x = x[last_rows]
    final = rmsnorm(x, weights.final_norm, cfg.norm_eps)
    return lm_head_logits(final, weights)


def forward_token_single(weights: ModelWeights, token_id: int, position: int,
                         cache, mlp_rows) -> np.ndarray:
    """One token of one sequence: :func:`forward_rows` on one row, which
    :func:`attend_single` attends against ``cache`` at ``position``.

    Behind :meth:`InferenceModel.forward_token` and the serving engine's
    batch-1 decode step; returns ``(1, vocab)`` logits.
    """
    cfg = weights.config
    rope = rope_for_position(position, cfg.head_dim, cfg.rope_theta)
    return forward_rows(
        weights, [token_id],
        lambda layer, q, k, v: attend_single(
            cfg, q[0], k[0], v[0], position, cache, layer, rope,
        )[None],
        mlp_rows,
    )


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
        self.trace_mlp_inputs = trace_mlp_inputs
        self.traces: list = []
        self.cache = KVCache(self.config)

    # -- core forward ------------------------------------------------------

    def reset(self) -> None:
        """Clear the KV cache (traces are kept; clear explicitly)."""
        self.cache.reset()

    def clear_traces(self) -> None:
        self.traces = []

    def _mlp_rows(self, executor: MLPExecutor, layer: int, xs: np.ndarray):
        """``executor`` as a one-row ``mlp_rows``, tracing its input."""
        x = xs[0]
        if self.trace_mlp_inputs:
            gate_preact = self.weights.layers[layer].w_gate_rows @ x
            self.traces.append(MLPTrace(layer, x.copy(), gate_preact))
        return executor.run(layer, x)[None]

    def forward_token(self, token_id: int, position: int) -> np.ndarray:
        """One decode step: returns the next-token logits ``(vocab,)``."""
        return self._forward([token_id], position, self.mlp)

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
        return self._forward(token_ids, self.cache.length, self.prefill_mlp)

    def _forward(self, token_ids, position: int, executor: MLPExecutor):
        """Feed ``token_ids`` one at a time from ``position``."""
        mlp_rows = partial(self._mlp_rows, executor)
        for tok in token_ids_in_vocab(self.config, token_ids):
            logits = forward_token_single(self.weights, tok, position,
                                          self.cache, mlp_rows)
            self.cache.advance()
            position += 1
        return logits[0]

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
