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
from .rope import apply_rope, rope_tables
from .weights import ModelWeights


def attend_rows(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                neg_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """The attention kernel: one sequence's query rows against its cache.

    ``q`` is the ``(rows, n_heads, head_dim)`` RoPE-rotated queries of
    one sequence; ``keys`` / ``values`` are its ``(length, d_model)``
    cache, the rows' own positions included.  ``neg_mask`` is an
    additive ``(rows, length)`` causal mask, 0 where a key is visible and
    -inf where not: exp(-inf) == 0, so a masked key's weight is exactly
    0.  ``None`` means every key is visible (one row sees its whole
    cache).  Returns the ``(rows, n_heads, head_dim)`` context.

    Every attention in the repo runs here -- the oracle's
    :func:`attend_single` and each segment of the serving engine's
    ragged pass -- so a sequence's attention bits depend only on its
    own query and cache, at every batch size.
    """
    rows, n_heads, head_dim = q.shape
    length = keys.shape[0]
    ck = keys.reshape(length, n_heads, head_dim).transpose(1, 2, 0)
    cv = values.reshape(length, n_heads, head_dim).transpose(1, 0, 2)
    scores = np.matmul(q.transpose(1, 0, 2), ck)           # (h, rows, L)
    # float32 scale: a float64 np.sqrt scalar would promote scores --
    # and the residual stream after it -- to float64, silently doubling
    # every downstream GEMM's work (NEP 50 keeps numpy-scalar dtypes).
    scores /= np.float32(np.sqrt(head_dim))
    if neg_mask is not None:
        scores += neg_mask
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return np.matmul(scores, cv).transpose(1, 0, 2)        # (rows, h, hd)


def attend_single(
    config: ModelConfig,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    position: int,
    cache: KVCache,
    layer: int,
    rope: tuple,
) -> np.ndarray:
    """RoPE + cache append + :func:`attend_rows` for one token.

    ``q``/``k``/``v`` are the raw ``(d_model,)`` projections; ``rope``
    is the ``(cos, sin)`` pair for ``position``, built once per token by
    the caller.  Returns the pre-``Wo`` context vector.  The oracle's
    attention: it runs the serving engine's kernel on its one row.
    """
    n_heads, head_dim = config.n_heads, config.head_dim
    cos, sin = rope
    q = apply_rope(q.reshape(1, n_heads, head_dim), cos, sin)
    k = apply_rope(k.reshape(n_heads, 1, head_dim), cos, sin).reshape(-1)
    cache.append(layer, k, v, position)
    keys, values = cache.view(layer, position + 1)         # (len, d)
    return attend_rows(q, keys, values).reshape(config.d_model)


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

    ``attend(layer, q, k, v)`` takes the raw projections -- ``k`` and
    ``v`` ``(rows, d)``, ``q`` the rows whose context is wanted --
    applies RoPE, appends K/V to the cache and returns the pre-``Wo``
    context rows of ``q``; ``mlp_rows(layer, x)`` runs one layer's MLP
    over the normed rows.  Returns ``(rows, vocab)`` logits.

    ``last_rows`` indexes the only rows whose logits the caller reads.
    The last layer then still projects K and V for every row (the cache
    needs them, from GEMMs of the full row count, so the cache holds
    the bits an unpruned pass writes), but its ``attend`` gets only
    those rows' queries, and ``Wo``, the MLP, the final norm and the
    lm-head run on those rows alone: ``(len(last_rows), vocab)`` logits,
    and an empty ``last_rows`` returns ``(0, vocab)`` once the K/V is
    written.  The caller advances the cache.
    """
    cfg = weights.config
    x = weights.tok_embed[token_ids].astype(np.float32)
    for layer in range(cfg.n_layers):
        lw = weights.layers[layer]
        attn_in = rmsnorm(x, lw.attn_norm, cfg.norm_eps)
        k, v = attn_in @ lw.wk, attn_in @ lw.wv
        if last_rows is not None and layer == cfg.n_layers - 1:
            x, attn_in = x[last_rows], attn_in[last_rows]
        ctx = attend(layer, attn_in @ lw.wq, k, v)
        if not len(x):
            return np.zeros((0, cfg.vocab_size), dtype=np.float32)
        x = x + ctx @ lw.wo
        x = x + mlp_rows(layer, rmsnorm(x, lw.mlp_norm, cfg.norm_eps))
    final = rmsnorm(x, weights.final_norm, cfg.norm_eps)
    return lm_head_logits(final, weights)


def forward_token_single(weights: ModelWeights, token_id: int, position: int,
                         cache, mlp_rows) -> np.ndarray:
    """One token of one sequence: :func:`forward_rows` on one row, which
    :func:`attend_single` attends against ``cache`` at ``position``.

    Behind :meth:`InferenceModel.forward_token`; returns ``(1, vocab)``
    logits.
    """
    cfg = weights.config
    rope = rope_tables(np.array([position]), cfg.head_dim, cfg.rope_theta)
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
