"""Speculative self-drafting configuration.

The paper's sign-bit predictor gives every layer two MLP paths over the
*same* weights: the exact dense path and a sparse path whose cost is
controlled by the skip threshold ``alpha``.  Speculative self-drafting
exploits that asymmetry without a second model: a *draft* executor runs
the sparse path at an aggressive alpha (cheap, approximate), proposes
``k`` tokens per decode tick, and one chunked causal GEMM pass at the
engine's normal alpha *verifies* all ``k`` draft positions plus the
bonus token in a single shot -- the same machinery chunked prefill uses.
Accepted tokens are exactly what non-speculative decoding would have
emitted (greedy rows compare argmax; sampled rows re-draw from the
per-request stream against the verifier's logits), so output is
token-identical by construction and rejected draft K/V is rolled back
with ``truncate``.

:class:`SpecConfig` is the one knob object, accepted by
``BatchedEngine``, ``build_batched_engine`` and
``ContinuousBatchingScheduler`` (``speculation=...``).  See
``docs/serving.md`` for the draft/verify/rollback walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.alpha import check_alpha


@dataclass(frozen=True)
class SpecConfig:
    """Knobs for speculative self-drafting.

    ``k`` is the draft depth ceiling: at most ``k`` cheap draft steps
    per sequence per tick (capped further by the request's remaining
    token budget).  ``draft_alpha`` is the sparse skip threshold of the
    draft executor -- **lower** is more aggressive (a neuron is skipped
    when ``alpha * n_pos < n_neg``), so drafts get cheaper and sloppier
    as it drops below the engine's serving alpha.

    With ``adaptive=True`` each sequence tracks a rolling EMA of its
    acceptance rate and moves its personal depth between 1 and ``k``:
    above ``raise_threshold`` the depth grows (drafts are landing;
    speculate deeper), below ``lower_threshold`` it shrinks (drafts are
    being rejected; stop paying for them).
    """

    k: int = 4
    draft_alpha: float = 0.8
    adaptive: bool = True
    ema_decay: float = 0.7
    raise_threshold: float = 0.8
    lower_threshold: float = 0.4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        check_alpha(self.draft_alpha, "draft_alpha")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(
                f"ema_decay must be in [0, 1), got {self.ema_decay}"
            )
        if not 0.0 <= self.lower_threshold <= self.raise_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 <= lower_threshold <= "
                f"raise_threshold <= 1, got lower={self.lower_threshold} "
                f"raise={self.raise_threshold}"
            )
