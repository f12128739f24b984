"""Shared test helpers importable from any test module.

Lives next to the tests (not inside ``conftest.py``) so test modules can
import it absolutely -- ``from helpers import check_gradient`` -- without
requiring the ``tests`` directory to be a package.
"""

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.engine import build_engine


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn(x)
        x[idx] = orig - eps
        lo = fn(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(make_output, x0: np.ndarray, atol: float = 2e-2):
    """Compare autograd gradient to central differences."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = make_output(t)
    out.backward()
    auto = t.grad.astype(np.float64)

    def scalar_fn(arr):
        return float(make_output(Tensor(arr.copy())).data)

    num = numeric_grad(scalar_fn, x0.copy().astype(np.float64))
    np.testing.assert_allclose(auto, num, atol=atol, rtol=1e-2)


def oracle_tokens(weights, requests, settings=None):
    """What the scalar single-sequence engine generates per request."""
    oracle = build_engine(weights, settings)
    return {
        r.request_id: oracle.generate(
            list(r.prompt_ids), r.max_new_tokens
        ).generated_ids
        for r in requests
    }


def assert_prefill_logits_match(logits, ref_logits):
    """The serving engine's prefill contract against the scalar oracle.

    Chunked-GEMM prefill rounds differently from the token-by-token
    oracle, so logits agree to ``rtol=1e-5`` (not bit for bit) and pick
    the same token.
    """
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-5, atol=1e-6)
    assert int(np.argmax(logits)) == int(np.argmax(ref_logits))


def assert_batch1_decode_bit_identical(engine, slot, oracle, token,
                                       n_steps=4):
    """A batch-1 ``decode_step`` equals ``forward_token`` bit for bit.

    The contract holds on *identical* KV contents, so the slot's K/V
    (chunk-prefilled, rounded differently from the oracle's own) is
    first copied into the ``InferenceModel``'s cache.
    """
    oracle.reset()
    for layer in range(oracle.config.n_layers):
        keys, values = slot.view(layer, slot.length)
        oracle.cache.keys[layer, :slot.length] = keys
        oracle.cache.values[layer, :slot.length] = values
    oracle.cache.length = slot.length
    for _ in range(n_steps):
        step = engine.decode_step([slot], [token])
        ref_step = oracle.forward_token(token, oracle.cache.length)
        np.testing.assert_array_equal(step[0], ref_step)
        token = int(np.argmax(ref_step))
