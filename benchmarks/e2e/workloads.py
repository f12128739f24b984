"""The five canonical workloads and every frozen constant of the benchmark.

Names are stable: later issues cite them.  Nothing here is derived at
run time -- block sizes, arrival rates and latency limits were measured
once on the landing machine (2 cores, OpenBLAS pinned to 1 thread) and
are frozen as absolute numbers so a faster engine shows up as better
metrics, not as a silently heavier workload.

A *block* is the unit of measurement: a fixed request list replayed on a
fresh engine and scheduler.  A run repeats identical blocks until its
``--seconds`` are spent and reports its best block, so every count a
block produces repeats exactly while the run length stays bounded on
any machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One traffic shape: what is sent, how, and why it exists."""

    name: str
    why: str
    scenario: str                 # factory name in repro.workloads.scenarios
    scenario_args: Tuple[Tuple[str, int], ...]
    clients: int                  # closed loop: concurrent callers
    block_requests: int           # requests per block (~3.5 s on landing box)
    rate: Optional[float] = None  # open loop: Poisson arrivals per second

    @property
    def open_loop(self) -> bool:
        return self.rate is not None


_DECODE_SHAPE = (("min_turn_tokens", 64), ("max_turn_tokens", 128))

#: Open-loop phase rates in requests/s: 0.4 / 0.6 / 0.8 / 1.0 of what the
#: landing commit sustains on ``default_mix`` arrivals (~35 ms of engine
#: time per request, so ~30 req/s; eight closed-loop clients reach ~39
#: only because their batches are always full).  ``mix_open`` runs at
#: ``rate_lo``; the suite sweeps all four for ``max_rate_in_slo``.
PHASE_RATES: Dict[str, float] = {
    "rate_lo": 12.0, "rate_mid": 18.0, "rate_hi": 24.0, "rate_sat": 30.0,
}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="decode_b1",
        why="paper regime, batch 1: realised skip ~0.475, sparse MLP + "
            "predictor ~55% of wall; batched attention and prefix reuse "
            "bypassed",
        scenario="chat_style", scenario_args=_DECODE_SHAPE,
        clients=1, block_requests=14,
    ),
    Workload(
        name="decode_b8",
        why="same shape at batch 8: intersection skip collapses to ~0.03 "
            "so batch MLP runs near-dense; predictor and batched attention "
            "each ~20% of wall",
        scenario="chat_style", scenario_args=_DECODE_SHAPE,
        clients=8, block_requests=36,
    ),
    Workload(
        name="prefill_unshared",
        why="prompts of 90-100 unshared tokens, 3 new: chunked-GEMM "
            "prefill + dense MLP ~80% of wall; sparse path and prefix "
            "reuse bypassed",
        scenario="summarise_style", scenario_args=(),
        clients=8, block_requests=100,
    ),
    Workload(
        name="prefill_shared",
        why="73-token prompts over one fixed 4-shot prefix: ~85% of prompt "
            "tokens served by fork/revive; exercise pair of "
            "prefill_unshared",
        scenario="fewshot_fleet", scenario_args=(),
        clients=8, block_requests=400,
    ),
    Workload(
        name="mix_open",
        why="Poisson arrivals of the default mix at 12 req/s (0.4 of "
            "capacity): the only workload with an arrival schedule, queue "
            "wait and prefill-stalls-decode interference",
        scenario="default_mix", scenario_args=(),
        clients=0, block_requests=280, rate=PHASE_RATES["rate_lo"],
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Latency limits of the service-level objective: a request *sent*
#: attains it when its first token arrives within ``ttft_ms`` of its due
#: time and every later gap stays within ``itl_ms``; a failed request
#: misses.  Tightened from the 150 / 50 ms the issue proposed, under
#: which every phase of the landing sweep attained 1.00, until the curve
#: bends inside the ladder (the first three phases attain >= 0.98,
#: ``rate_sat`` 0.77-0.98 from run to run), then frozen.
SLO_TTFT_MS = 100.0
SLO_ITL_MS = 30.0

#: ``max_rate_in_slo``: highest phase rate with at least this share of
#: requests inside the limits and no more than this many requests still
#: queued when the last one arrives (a growing backlog disqualifies).
SLO_ATTAINMENT_FLOOR = 0.95
SLO_MAX_QUEUE_AT_LAST_ARRIVAL = 8

#: Requests replayed through the scalar oracle per run, and requests
#: served once, untimed, before the first block.
ORACLE_SAMPLE = 16
WARMUP_REQUESTS = 8

#: A served token that differs from the oracle's is a near tie, not a
#: failure, when the oracle's own logits rank it within this much of its
#: choice.  This model's logits have a standard deviation of ~0.32 and a
#: median top-2 gap of ~0.05.  Batched GEMMs round differently from the
#: scalar path, which can flip a sign-bit prediction at its threshold:
#: over ~1900 requests at batch 8 on the landing machine 0.8 % diverged,
#: by at most 0.018.  A wrong token from a broken engine sits ~1.0 away.
ORACLE_MARGIN = 0.1

#: Full set-ups (weights, sign packing, engine, scheduler) timed per run.
SETUP_REPEATS = 7

#: ``--smoke`` shrinks every block by this factor, times one set-up,
#: warms up on one request and checks one against the oracle.
SMOKE_SCALE = 0.1


def scaled(workload: Workload, smoke: bool) -> int:
    """Requests per block, shrunk for ``--smoke`` (never below two)."""
    if not smoke:
        return workload.block_requests
    return max(2, int(workload.block_requests * SMOKE_SCALE))
