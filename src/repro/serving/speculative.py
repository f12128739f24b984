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
``ContinuousBatchingScheduler(speculation=...)``; each sequence's draft
depth adapts between 1 and ``k`` by the constants below.  See
``docs/serving.md`` for the draft/verify/rollback walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.alpha import check_alpha
from .request import as_integer

#: Weight of a sequence's previous acceptance EMA at each verify.
EMA_DECAY = 0.7
#: Acceptance EMA at or above which a sequence drafts one deeper.
RAISE_THRESHOLD = 0.8
#: Acceptance EMA at or below which a sequence drafts one shallower.
LOWER_THRESHOLD = 0.4


@dataclass(frozen=True)
class SpecConfig:
    """Knobs for speculative self-drafting.

    ``k`` is the draft depth ceiling: at most ``k`` cheap draft steps
    per sequence per tick (capped further by the request's remaining
    token budget and by the sequence's adaptive depth).
    ``draft_alpha`` is the sparse skip threshold of the draft executor
    -- **lower** is more aggressive (a neuron is skipped when ``alpha *
    n_pos < n_neg``), so drafts get cheaper and sloppier as it drops
    below the engine's serving alpha.
    """

    k: int = 4
    draft_alpha: float = 0.8

    def __post_init__(self):
        k = as_integer(self.k, "k")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)
        check_alpha(self.draft_alpha, "draft_alpha")
