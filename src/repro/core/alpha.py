"""Per-layer conservativeness schedules for the SparseInfer predictor.

The paper's Eq. (2) refines the majority-sign test with a tunable
coefficient: predict sparse iff ``alpha * Npos < Nneg``.  ``alpha > 1``
makes the prediction more conservative (fewer rows skipped), ``alpha < 1``
more aggressive.  Section IV-A / V-B apply ``alpha`` slightly above 1.0 to
the *early* layers only (the first 20 layers of both the 7B and 13B
models), where the predictor is least precise, and 1.0 elsewhere.

The CUDA kernel receives alpha as a fixed-point integer scaled by 100
(``alpha_pct``); :class:`AlphaSchedule` stores both forms so the python
predictor and the GPU cost model agree bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ALPHA_SCALE = 100


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """Raise unless ``alpha`` is finite and positive (``<= 0`` passes NaN)."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {alpha}")


def alpha_to_fixed_point(alpha: float) -> int:
    """Convert a float alpha to the kernel's per-cent fixed point form."""
    check_alpha(alpha)
    return int(round(alpha * ALPHA_SCALE))


@dataclass(frozen=True)
class AlphaSchedule:
    """Immutable per-layer alpha assignment.

    Attributes
    ----------
    alphas:
        One float per decoder layer.
    """

    alphas: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for a in self.alphas:
            check_alpha(a, "alpha values")

    @classmethod
    def uniform(cls, alpha: float, n_layers: int) -> "AlphaSchedule":
        """Same alpha for every layer."""
        if n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {n_layers}")
        return cls(alphas=tuple([float(alpha)] * n_layers))

    @classmethod
    def early_layers(
        cls,
        n_layers: int,
        alpha_early: float,
        n_early: int = 20,
        alpha_rest: float = 1.0,
    ) -> "AlphaSchedule":
        """The paper's schedule: ``alpha_early`` on the first ``n_early``
        layers, ``alpha_rest`` (default 1.0) on the remainder.
        """
        if n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {n_layers}")
        n_early = max(0, min(n_early, n_layers))
        values = [float(alpha_early)] * n_early
        values += [float(alpha_rest)] * (n_layers - n_early)
        return cls(alphas=tuple(values))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "AlphaSchedule":
        return cls(alphas=tuple(float(v) for v in values))

    @property
    def n_layers(self) -> int:
        return len(self.alphas)

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, layer: int) -> float:
        return self.alphas[layer]

    def fixed_point(self, layer: int) -> int:
        """Alpha for ``layer`` in the CUDA kernel's x100 integer form."""
        return alpha_to_fixed_point(self.alphas[layer])

    def with_layer(self, layer: int, alpha: float) -> "AlphaSchedule":
        """Return a copy with one layer's alpha replaced."""
        values = list(self.alphas)
        values[layer] = float(alpha)
        return AlphaSchedule(alphas=tuple(values))


def calibrate_alpha(
    precision_fn: Callable[[int, float], float],
    n_layers: int,
    target_precision: float = 0.99,
    candidates: Sequence[float] = (1.0, 1.01, 1.02, 1.03, 1.05, 1.1),
) -> AlphaSchedule:
    """Pick the smallest candidate alpha per layer reaching a precision target.

    The paper notes the optimal alpha "can be easily calibrated through test
    runs as the model changes".  ``precision_fn(layer, alpha)`` must return
    the measured skip-prediction precision for that layer at that alpha
    (e.g. from :mod:`repro.eval.precision_recall` traces).  Layers that never
    reach the target get the largest candidate (most conservative).
    """
    if not 0.0 < target_precision <= 1.0:
        raise ValueError(f"target_precision must be in (0, 1], got {target_precision}")
    ordered = sorted(set(float(c) for c in candidates))
    if not ordered:
        raise ValueError("candidates must be non-empty")
    chosen = []
    for layer in range(n_layers):
        pick = ordered[-1]
        for alpha in ordered:
            if precision_fn(layer, alpha) >= target_precision:
                pick = alpha
                break
        chosen.append(pick)
    return AlphaSchedule.from_values(chosen)


def sweep_grid(
    alphas: Sequence[float] = (1.0, 1.01, 1.02, 1.03),
) -> np.ndarray:
    """The paper's Figure-4 / Table-II alpha sweep as a numpy grid."""
    return np.asarray(sorted(alphas), dtype=np.float64)
