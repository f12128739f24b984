"""Serving request/response records."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

from ..model.sampler import SamplerConfig


def _token_ids(name: str, ids) -> tuple:
    """``ids`` as Python ints: numpy ints pass, floats raise, not truncate."""
    try:
        return tuple(map(operator.index, ids))
    except TypeError:
        raise ValueError(f"{name} must be integer token ids, got {ids!r}") from None


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objective for one request, in scheduler *ticks*.

    Deadlines are expressed in scheduler ticks, not wall-clock seconds:
    a tick is the serving stack's deterministic unit of time (the
    virtual clock of :mod:`repro.serving.loadgen` advances one tick per
    :meth:`ContinuousBatchingScheduler.step`), so whether a run met its
    SLOs is a pure function of the request trace -- the same trace
    always produces the same goodput, on any machine.

    ``ttft_steps`` bounds time-to-first-token: the first token must be
    emitted within that many ticks of :meth:`~repro.serving.scheduler.
    ContinuousBatchingScheduler.submit` (the earliest possible TTFT is
    1 -- submission happens between ticks, emission inside one).
    ``itl_steps`` bounds the inter-token gap: each later token must
    arrive within that many ticks of the previous one.  ``None``
    disables that deadline.  ``slo_class`` tags the request's traffic
    class for per-class goodput accounting
    (:attr:`~repro.serving.scheduler.ServeReport.class_stats`).
    """

    slo_class: str = "standard"
    ttft_steps: Optional[int] = None
    itl_steps: Optional[int] = None

    def __post_init__(self):
        if not self.slo_class or not isinstance(self.slo_class, str):
            raise ValueError(
                f"slo_class must be a non-empty string, got {self.slo_class!r}"
            )
        for name in ("ttft_steps", "itl_steps"):
            value = getattr(self, name)
            if value is None:
                continue
            value = int(value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value}")
            object.__setattr__(self, name, value)

    def met(self, submitted_step: int, emit_steps) -> bool:
        """Did a completion with these emission ticks meet the SLO?

        ``emit_steps`` is the tick stamp of every emitted token in
        order.  A request that emitted nothing (``max_new_tokens == 0``
        or an immediate stop token) meets its SLO vacuously -- it never
        owed a token.  Rejected/shed requests are accounted separately
        by the scheduler and never reach this check.
        """
        if self.ttft_steps is not None and emit_steps:
            if emit_steps[0] - submitted_step > self.ttft_steps:
                return False
        if self.itl_steps is not None:
            for before, after in zip(emit_steps, emit_steps[1:]):
                if after - before > self.itl_steps:
                    return False
        return True


@dataclass(frozen=True)
class Request:
    """One generation request submitted to the serving queue.

    Semantics match :meth:`repro.model.inference.InferenceModel.generate`:
    decoding of up to ``max_new_tokens`` tokens, stopping early if the
    next token falls in ``stop_ids`` (the stop token is not emitted).

    ``sampling`` selects this request's decode mode: ``None`` inherits
    the engine's default :class:`~repro.model.sampler.SamplerConfig`
    (greedy argmax unless the engine was built with a ``sampling``
    override).  A stochastic config draws from a per-request RNG stream
    keyed by ``(sampling.seed, request_id)``, so the request's tokens
    reproduce regardless of batch composition, admission order, or
    preemption (see :class:`~repro.model.sampler.BatchedSampler`).

    ``priority`` composes with two scheduler knobs, deterministically:

    * **Preemption** (``preemption=True``): a starved admission
      candidate may evict a resident of *strictly lower* priority.
      Equal priorities never preempt each other, so the default (0
      everywhere) keeps preemption a no-op.
    * **Deadline admission** (``admission="deadline"``): admission
      order is earliest-TTFT-deadline-first, and ``priority`` breaks
      deadline *ties* -- among equal deadlines the higher priority is
      admitted first, and equal-priority equal-deadline candidates fall
      back to FIFO (queue order).  Under the default
      ``admission="fifo"`` priority never affects admission order.

    ``slo`` attaches a deadline contract (:class:`SLOSpec`): deadline
    admission orders and sheds by it, and the
    :class:`~repro.serving.scheduler.ServeReport` goodput counters
    judge every completion against it.  ``None`` means no deadline --
    the request is never shed, sorts after every deadline-bearing
    request under deadline admission (but still cannot be starved: the
    bounded-bypass rule forces the FIFO head through), and its tokens
    always count as goodput.
    """

    request_id: int
    prompt_ids: tuple
    max_new_tokens: int
    stop_ids: Optional[frozenset] = None
    priority: int = 0
    sampling: Optional[SamplerConfig] = None
    slo: Optional[SLOSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "prompt_ids", _token_ids("prompt_ids", self.prompt_ids))
        if len(self.prompt_ids) == 0:
            raise ValueError("prompt_ids must be non-empty")
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        if self.stop_ids is not None:
            object.__setattr__(self, "stop_ids", frozenset(_token_ids("stop_ids", self.stop_ids)))
        object.__setattr__(self, "priority", int(self.priority))
        if self.sampling is not None and not isinstance(self.sampling, SamplerConfig):
            raise ValueError(
                f"sampling must be a SamplerConfig or None, got {type(self.sampling).__name__}"
            )
        if self.slo is not None and not isinstance(self.slo, SLOSpec):
            raise ValueError(
                f"slo must be an SLOSpec or None, got {type(self.slo).__name__}"
            )

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_ids)

    def common_prefix_len(self, other_prompt_ids) -> int:
        """Length of the longest common prompt prefix with ``other``.

        Positions inside the common prefix attend over identical token
        context, so their cached K/V is bit-identical across the two
        requests and shareable via ``PagedKVCache.fork``.  Convenience
        for workload analysis and tests; the KV store's
        :class:`~repro.model.paged_kvcache.PrefixIndex` performs the
        equivalent matching inline over its page-aligned hash buckets.
        """
        n = 0
        for a, b in zip(self.prompt_ids, other_prompt_ids):
            if a != int(b):
                break
            n += 1
        return n


@dataclass
class Completion:
    """A finished request plus its scheduling telemetry.

    Steps are scheduler ticks: ``admitted_step`` is the tick whose
    admission phase prefetched the prompt, ``finished_step`` the tick that
    emitted (or declined, on a stop token) the final token.  Their
    difference is the queuing+decode latency in ticks.  ``decode_steps``
    counts the model forwards the request participated in after its
    prefill -- the admission tick's decode is included, so it is the
    number directly comparable with a sequential engine's per-request
    forward count.

    ``error`` is set when the scheduler rejected the request instead of
    decoding it (e.g. it could never fit a KV slot); rejected requests
    complete with no generated tokens rather than crashing the batch
    they would have joined.  ``shed`` marks the deadline-admission
    load-shedding flavour of rejection: the request's TTFT deadline
    passed while it was still queued, so the scheduler dropped it
    (``error`` carries the ``"shed: ..."`` reason) instead of burning
    decode capacity on tokens that could no longer count as goodput.

    Latency telemetry (budgeted/preemptive scheduling, PR 6):
    ``first_token_step`` is the tick that emitted the first token (-1
    when none was); ``ttft_seconds`` is wall-clock submit-to-first-token
    (None when the request bypassed :meth:`ContinuousBatchingScheduler.
    submit` or emitted nothing); ``itl_seconds`` holds the wall-clock
    gap before each token after the first, so a resident stalled behind
    a long admission shows up as one large entry; ``preemptions`` counts
    how many times this request was evicted mid-flight and later
    resumed.

    SLO telemetry (deadline scheduling, PR 10) -- all in deterministic
    scheduler ticks: ``submitted_step`` is the tick count at
    ``submit()`` time (0 when the request was enqueued directly),
    ``emit_steps`` stamps the tick of every emitted token, and
    ``slo_met`` records the verdict of ``request.slo.met(...)`` (None
    when the request carried no SLO).  TTFT in ticks is
    ``emit_steps[0] - submitted_step``; inter-token gaps are the
    consecutive differences.
    """

    request: Request
    generated_ids: list = field(default_factory=list)
    admitted_step: int = 0
    finished_step: int = 0
    decode_steps: int = 0      # batched forwards this request took part in
    error: Optional[str] = None
    first_token_step: int = -1
    preemptions: int = 0
    ttft_seconds: Optional[float] = None
    itl_seconds: list = field(default_factory=list)
    submitted_step: int = 0
    emit_steps: list = field(default_factory=list)
    shed: bool = False
    slo_met: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def ttft_steps(self) -> Optional[int]:
        """Submit-to-first-token in scheduler ticks (None if no token)."""
        if not self.emit_steps:
            return None
        return self.emit_steps[0] - self.submitted_step

    @property
    def itl_steps(self) -> list:
        """Tick gap before each token after the first."""
        return [
            after - before
            for before, after in zip(self.emit_steps, self.emit_steps[1:])
        ]

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def n_generated(self) -> int:
        return len(self.generated_ids)

    @property
    def latency_steps(self) -> int:
        return self.finished_step - self.admitted_step
