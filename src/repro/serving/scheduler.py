"""Continuous-batching scheduler over the batched decode engine.

Each scheduler tick:

1. retire sequences that finished last tick, freeing their KV slots;
2. admit queued requests (FIFO) into free slots -- candidate selection
   -> plan -> seat, repeated until the queue is empty or the candidate
   is blocked; seating prefills the prompt and samples the first token,
   exactly like the single-sequence ``generate`` loop samples from the
   prefill logits.  The plan gates on the request's *worst-case*
   page demand (``ceil((prompt + max_new - 1) / page_size)`` pages must
   be reservable), so an admitted sequence can never starve for pages
   mid-decode; zero-token requests complete immediately without a slot
   or a prefill.  Planning and seating are the KV store's
   (:meth:`~repro.model.paged_kvcache.PagedKVCache.plan` /
   :meth:`~repro.model.paged_kvcache.PagedKVCache.seat`): the plan says
   how many prompt positions the seat already holds (forked from a
   resident donor, revived from the prefix cache, or none) and the
   scheduler prefills only the rest;
3. run one batched decode step over all active sequences and sample
   every sequence's next token in **one** vectorised
   :class:`~repro.model.sampler.BatchedSampler` call over the stacked
   ``(B, vocab)`` logits -- per-request
   :class:`~repro.model.sampler.SamplerConfig` (``Request.sampling``,
   falling back to the engine default), greedy rows argmax'd as a batch
   reduction, stochastic rows drawn from per-request RNG streams keyed
   by ``(seed, request_id)``.  Stop-id handling, telemetry stamps, and
   the optional streaming ``on_token`` callback are unified in one
   emission path shared by prefill-sampled first tokens and decode
   tokens.

Sequences join and leave the batch at step granularity (continuous
batching): a finishing request never blocks on its batch-mates and a
pending request waits only until the next free slot.  FIFO admission
makes starvation impossible -- every retirement frees a slot and the
queue head is always admitted first.

**Correlation-aware admission.**  When the engine runs with
``prefix_sharing=True`` and the scheduler is given a ``reorder_window``
> 1, admission may prefer -- from the first ``reorder_window`` queued
requests -- one that shares a *live* prompt prefix with a resident
sequence over the FIFO head.  Such a request's seat is a fork (cheaper:
it is charged only its unshared worst case, and its shared prefill is
skipped) and keeps the decode batch's activation sign patterns
correlated, which slows the ``skip^B`` intersection decay
(:func:`repro.gpu.batching.batch_skip_fraction` with
``correlation > 0``).  Starvation stays bounded: the head is bypassed at
most ``reorder_window - 1`` times before it must be the next admission,
so FIFO is the steady-state order.

**Step-budgeted ticks (prefill piggybacking).**  With ``step_budget=0``
(the default) admission runs a new sequence's prefill to completion
inline, so one long prompt stalls every resident sequence for its whole
prefill.  With ``step_budget=b > 0`` the tick spends at most ~``b``
model-fed tokens: each decoding resident costs one (its decode token)
and the *leftover* budget runs pending prefill as chunks through the
engine's (chunked-GEMM-capable) prefill path, Sarathi-style -- an
admitted sequence carries its un-prefilled prompt suffix across ticks
and only joins the decode batch once the suffix is done and its first
token is sampled.  A tick with pending prefill always advances it by at
least one token, so admissions finish even when residents alone exceed
the budget.  Residents' inter-token stall per tick is therefore bounded
by the budget, not by the longest queued prompt.  Splitting prefill at
scheduler-chosen boundaries reuses the engine's chunked-prefill
guarantee (token-identical at any chunk boundaries) -- so any budget
produces the same tokens per request as ``step_budget=0``.

**Preemption.**  With ``preemption=True``, a page- or slot-starved
admission whose head outranks a resident (strictly greater
:attr:`~repro.serving.request.Request.priority`) evicts the
lowest-priority resident: the victim's KV pages are released (its
*prefilled prompt prefix* is parked in the engine's prefix cache when
one is configured, so restoration is usually a revive), its sequence
record is parked slot-less, and the request is re-enqueued **ahead of
FIFO order** via :meth:`~repro.serving.queue.RequestQueue.push_front`.
Resume re-seats that same record: it restores the prompt through the
normal plan -> seat path and then *replays* the already-generated
tokens through the decode path (the sparse executor
-- recomputing them with the dense prefill path would change their K/V
values, not just their rounding), so the resumed sequence continues
token-identically.  Already-emitted tokens are kept, never resampled.
Equal priorities never preempt each other,
which rules out eviction ping-pong; every preemption chain strictly
descends in priority, so it is finite.

**Speculative self-drafting.**  With ``speculation=SpecConfig(...)``
(scheduler knob, falling back to the engine's), each decoding sequence
with draft budget spends its tick on a draft/verify/rollback cycle
instead of one decode step: up to ``spec_k`` cheap draft steps through
the aggressive-alpha sparse executor propose tokens (argmax of the
draft logits -- per-request sampler streams never see draft logits),
the slot is rewound, and one chunked causal GEMM at the serving alpha
verifies all proposals plus a bonus token.  Targets are drawn from the
per-request stream against the *verifier's* logits in the plain decode
draw order, the longest matching draft prefix is accepted (plus the
one corrected or bonus token), and the slot is truncated to exactly
the emitted tokens -- so output is token-identical to
``speculation=None`` across every cache/batching knob, and a
high-acceptance workload emits several tokens per tick.  Drafted
positions stay strictly inside the worst case reserved at admission,
so the no-mid-decode-starvation guarantee is untouched; with
``adaptive=True`` a per-sequence acceptance-rate EMA moves ``spec_k``
between 1 and ``k``.

**Deadline admission and load shedding (PR 10).**  With
``admission="deadline"`` the FIFO arbitration is replaced by
earliest-deadline-first over a bounded queue window: each admission
picks, from the first ``deadline_window`` queued requests, the one with
the earliest TTFT deadline (``submit tick + slo.ttft_steps``; a resumed
evictee that already emitted is ranked by its next ITL deadline, and
requests without an :class:`~repro.serving.request.SLOSpec` rank last
at ``+inf``).  ``Request.priority`` breaks deadline ties -- higher
priority first -- and equal-priority equal-deadline candidates fall
back to FIFO order.  Starvation stays impossible via the same
bounded-bypass rule as ``reorder_window``: once the FIFO head has been
bypassed ``deadline_window - 1`` admissions in a row it *must* be the
next admission.  Under overload the scheduler additionally **sheds**
queued requests whose TTFT deadline has already passed (with inline
prefill the first token can still be emitted in the admission tick, so
a request is hopeless exactly when ``step_count`` exceeds its
deadline): they complete as rejected-typed
:class:`~repro.serving.request.Completion` objects with ``shed=True``
and a ``"shed: ..."`` error, never silently vanish, and free their
decode capacity for requests that can still meet their deadlines --
which is why deadline admission wins *goodput* (SLO-met tokens) over
FIFO on the same overloaded trace.  Preemption victim selection also
becomes deadline-aware: among strictly-lower-priority residents the
one with the most deadline slack is evicted.  SLO deadlines are
expressed in scheduler ticks, so admission order, shedding, and the
goodput accounting are deterministic functions of the trace.
``admission="fifo"`` (the default) keeps every legacy behaviour
bit-for-bit: SLO fields then only add accounting, never scheduling.

The admission loop drains the queue by catching the typed
:class:`~repro.serving.queue.EmptyQueueError` only -- a bare
``IndexError`` escaping from admission bookkeeping is a bug and must
propagate, not read as "queue empty".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..model.batch_attention import AttentionTelemetry
from ..model.paged_kvcache import SeatPlan
from .engine import BatchedEngine
from .queue import EmptyQueueError, RequestQueue
from .request import Completion, Request
from .speculative import SpecConfig

#: Submit stamp ``(perf_counter, tick)`` of a request that was enqueued
#: without :meth:`ContinuousBatchingScheduler.submit` (injected queue).
_UNSTAMPED = (None, 0)


@dataclass
class _ActiveSequence:
    """Scheduler-side state of one admitted, unfinished request.

    A sequence holds its slot before its prompt is fully in KV:
    ``pending_prefill`` is the un-prefilled prompt suffix still to feed
    through the prefill path, and ``pending_replay`` the
    already-emitted tokens a resumed (preempted) sequence must re-feed
    through the *decode* path before it can continue.  While either is
    non-empty the sequence is :attr:`restoring` and sits out the decode
    batch (inline admission drains both before seating it).
    ``emit_times`` records one wall-clock stamp per emitted token (TTFT
    / inter-token gaps) and ``emit_steps`` the tick count of the same
    emissions (the deterministic clock SLO deadlines are judged
    against); ``preemptions`` counts evictions survived so far.

    Speculation state: ``spec_k`` is this sequence's current draft
    depth (0 = never drafts; set to the config's ``k`` at admission
    when speculation is on), ``spec_ema`` its rolling acceptance-rate
    EMA -- an adaptive config moves ``spec_k`` between 1 and the
    config ceiling as the EMA crosses the thresholds.

    Preemption parks the object itself (``slot=None``) until the
    request is re-admitted, so everything above survives eviction.
    """

    request: Request
    slot: object                       # PagedKVSlot; None while parked
    generated_ids: list
    admitted_step: int
    decode_steps: int = 0
    pending_prefill: tuple = ()
    pending_replay: tuple = ()
    preemptions: int = 0
    emit_times: list = field(default_factory=list)
    emit_steps: list = field(default_factory=list)
    spec_k: int = 0
    spec_ema: float = 1.0

    @property
    def last_token(self) -> int:
        return self.generated_ids[-1]

    @property
    def restoring(self) -> bool:
        """Still feeding prompt/replay tokens; not in the decode batch."""
        return bool(self.pending_prefill) or bool(self.pending_replay)

    def wants_more(self) -> bool:
        return len(self.generated_ids) < self.request.max_new_tokens


@dataclass
class ServeReport:
    """Outcome and telemetry of draining a workload.

    The ``page_*`` fields describe the engine's KV page arena
    (``n_pages`` is its budget): ``page_occupancy_sum`` sums the
    arena pages in use at each decode tick, so
    :attr:`mean_page_occupancy` / :attr:`mean_page_utilisation` say how
    full the shared page budget actually ran, and
    ``peak_pages_in_use`` bounds the budget a replay would need.

    Prefix-sharing telemetry: ``forked_admissions`` counts requests
    admitted by forking a resident donor, ``prefill_tokens_saved`` sums
    the shared positions whose prefill those forks skipped, and the
    ``shared_pages`` fields track physical pages mapped by more than one
    sequence.

    Prefix-cache telemetry (engine runs ``cache_pages > 0``):
    ``revived_admissions`` counts admissions served by re-pinning
    retired prefix pages, ``revived_tokens`` sums the prompt positions
    those revives did not re-prefill, ``cache_evictions`` counts cached
    pages reclaimed (LRU budget or on-demand by the allocator), and the
    ``cached_pages`` fields track how much of the cache budget actually
    held pages per tick.  ``intersection_skip`` is the realised cross-sequence skip
    fraction at weight-read granularity; ``expected_uncorrelated_skip``
    is the analytical ``skip^B`` decay it would have suffered with
    independent sequences (``B`` = mean batch occupancy, the
    ``correlation = 0`` curve of
    :func:`repro.gpu.batching.batch_skip_fraction`), so their gap is the
    sparsity that correlation-aware batching retained.

    Budgeted-tick / preemption telemetry (PR 6): ``step_budget`` echoes
    the scheduler knob; ``piggybacked_chunks`` / ``piggybacked_tokens``
    count the prefill pieces folded into budgeted ticks alongside
    decode; ``peak_tick_prefill_tokens`` is the largest number of
    prefill+replay tokens any single tick fed (with a budget ``b`` it
    stays <= ``max(b, 1)``, which is the structural evidence that
    resident decode stalls are bounded by the budget, not by prompt
    length); ``preemptions`` / ``resumed_admissions`` count evictions
    and the admissions that restored an evicted sequence; and
    ``replayed_tokens`` / ``replay_seconds`` measure the decode-path
    token replay those restorations performed.  Wall-clock tail latency
    comes from the completions themselves: :meth:`ttft_seconds_percentile`
    and :meth:`itl_seconds_percentile` aggregate per-request
    time-to-first-token and inter-token gaps.

    Sampling telemetry (PR 8): ``greedy_tokens`` counts tokens emitted
    by batched argmax (``temperature == 0``), ``sampled_tokens`` those
    drawn from a per-request RNG stream (stochastic configs), and
    ``sampler_seconds`` the wall time the vectorised sampler spent
    turning stacked logits into token ids (part of
    :attr:`wall_seconds`).  ``greedy_tokens + sampled_tokens ==
    tokens_generated`` always holds.

    Speculation telemetry (PR 9, scheduler runs ``speculation=...``):
    ``drafted_tokens`` counts draft proposals fed through the
    aggressive-alpha executor, ``accepted_tokens`` those the verify
    pass confirmed (:attr:`acceptance_rate` is their ratio; the extra
    emitted token per verify -- the corrected or bonus one -- is
    counted in neither), and ``draft_seconds`` / ``verify_seconds``
    the wall time in the draft steps and the chunked verify passes
    (both part of :attr:`wall_seconds`).

    Goodput / SLO telemetry (PR 10): ``admission`` echoes the
    scheduler knob; every completion lands in exactly one of
    ``slo_met_requests`` (its :class:`~repro.serving.request.SLOSpec`
    was met, or it carried none), ``slo_missed_requests`` (deadline
    violated, or rejected while holding an SLO), or ``shed_requests``
    (dropped hopeless under deadline admission), so the three always
    sum to ``len(completions)``.  ``goodput_tokens`` counts only the
    tokens of SLO-met completions (``goodput_tokens <=
    tokens_generated`` by construction; :attr:`goodput_fraction` is
    the ratio).  ``class_stats`` keys each ``slo_class`` tag
    (``"none"`` for SLO-less requests) to the same counters plus a
    token total, and sums across classes reproduce the report totals
    exactly -- the accounting identity the property suite locks.
    Per-class tick-based percentiles come from
    :meth:`ttft_steps_percentile` / :meth:`itl_steps_percentile` and
    the merged view :meth:`class_telemetry`.
    """

    completions: List[Completion] = field(default_factory=list)
    decode_steps: int = 0
    tokens_generated: int = 0
    prefill_tokens: int = 0
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    occupancy_sum: int = 0             # sum of batch sizes over decode steps
    peak_occupancy: int = 0            # largest decode batch observed
    n_pages: int = 0                   # KV page-arena budget
    page_occupancy_sum: int = 0        # sum of pages in use over decode steps
    peak_pages_in_use: int = 0
    forked_admissions: int = 0         # admissions served by a KV fork
    prefill_tokens_saved: int = 0      # prompt positions reused, not re-run
    shared_pages_sum: int = 0          # sum of shared pages over decode steps
    peak_shared_pages: int = 0
    cache_pages: int = 0               # prefix-cache budget (0 = disabled)
    revived_admissions: int = 0        # admissions served from the cache
    revived_tokens: int = 0            # prompt positions revived, not re-run
    cache_evictions: int = 0           # cached pages reclaimed (LRU/demand)
    cached_pages_sum: int = 0          # sum of cached pages over decode steps
    peak_cached_pages: int = 0
    intersection_skip: float = 0.0     # realised cross-sequence skip
    mean_sequence_skip: float = 0.0    # per-sequence (batch=1) ceiling
    expected_uncorrelated_skip: float = 0.0   # skip^B at mean occupancy
    # Batched-attention counters of this run (decode steps of batch >
    # 1): length buckets and padded vs useful K/V cells gathered, so
    # the padding the length masks threw away is visible per run.
    attention: AttentionTelemetry = field(default_factory=AttentionTelemetry)
    step_budget: int = 0               # scheduler knob (0 = inline prefill)
    piggybacked_chunks: int = 0        # prefill pieces run inside ticks
    piggybacked_tokens: int = 0        # tokens those pieces fed
    peak_tick_prefill_tokens: int = 0  # largest per-tick prefill+replay feed
    preemptions: int = 0               # sequences evicted mid-flight
    resumed_admissions: int = 0        # admissions restoring an evictee
    replayed_tokens: int = 0           # decode-path tokens re-fed on resume
    replay_seconds: float = 0.0        # wall time spent in that replay
    greedy_tokens: int = 0             # tokens emitted by batched argmax
    sampled_tokens: int = 0            # tokens drawn from request RNG streams
    sampler_seconds: float = 0.0       # wall time in the vectorised sampler
    drafted_tokens: int = 0            # draft proposals fed to verification
    accepted_tokens: int = 0           # drafts the verify pass confirmed
    draft_seconds: float = 0.0         # wall time in aggressive-alpha drafting
    verify_seconds: float = 0.0        # wall time in chunked verify passes
    admission: str = "fifo"            # scheduler knob ("fifo" | "deadline")
    slo_met_requests: int = 0          # completions inside their SLO (or none)
    slo_missed_requests: int = 0       # completions that violated their SLO
    shed_requests: int = 0             # hopeless requests dropped pre-admission
    goodput_tokens: int = 0            # tokens of SLO-met completions only
    class_stats: dict = field(default_factory=dict)   # slo_class -> counters

    @property
    def wall_seconds(self) -> float:
        return (self.prefill_seconds + self.decode_seconds
                + self.replay_seconds + self.sampler_seconds
                + self.draft_seconds + self.verify_seconds)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens the verify pass accepted."""
        return (self.accepted_tokens / self.drafted_tokens
                if self.drafted_tokens else 0.0)

    @property
    def mean_batch_occupancy(self) -> float:
        return self.occupancy_sum / self.decode_steps if self.decode_steps else 0.0

    @property
    def mean_page_occupancy(self) -> float:
        """Mean arena pages in use per decode tick."""
        return self.page_occupancy_sum / self.decode_steps if self.decode_steps else 0.0

    @property
    def mean_page_utilisation(self) -> float:
        """Mean fraction of the page budget in use."""
        return self.mean_page_occupancy / self.n_pages if self.n_pages else 0.0

    @property
    def mean_shared_pages(self) -> float:
        """Mean pages mapped by >1 sequence per decode tick."""
        return self.shared_pages_sum / self.decode_steps if self.decode_steps else 0.0

    @property
    def total_prompt_tokens(self) -> int:
        """Prompt positions across all admissions, however served."""
        return (self.prefill_tokens + self.prefill_tokens_saved
                + self.revived_tokens)

    @property
    def prefill_cache_fraction(self) -> float:
        """Fraction of prompt positions revived from the prefix cache."""
        total = self.total_prompt_tokens
        return self.revived_tokens / total if total else 0.0

    @property
    def prefill_reuse_fraction(self) -> float:
        """Fraction of prompt positions not re-prefilled (fork + revive)."""
        total = self.total_prompt_tokens
        saved = self.prefill_tokens_saved + self.revived_tokens
        return saved / total if total else 0.0

    @property
    def mean_cached_pages(self) -> float:
        """Mean prefix-cache pages held per decode tick."""
        return self.cached_pages_sum / self.decode_steps if self.decode_steps else 0.0

    @property
    def ttft_values(self) -> list:
        """Per-request time-to-first-token, for requests that have one.

        Requests enqueued without :meth:`ContinuousBatchingScheduler.submit`
        (no submit timestamp) or that emitted nothing are excluded.
        """
        return [
            c.ttft_seconds for c in self.completions
            if c.ttft_seconds is not None
        ]

    @property
    def itl_values(self) -> list:
        """All inter-token gaps (seconds) across every completion.

        One entry per emitted token after each request's first, so a
        resident stalled behind a long inline prefill contributes one
        large gap -- the tail of this distribution is what the step
        budget exists to bound.
        """
        return [v for c in self.completions for v in c.itl_seconds]

    def ttft_seconds_percentile(self, q: float) -> float:
        """The ``q``-th percentile of time-to-first-token (0 if none)."""
        values = self.ttft_values
        return float(np.percentile(values, q)) if values else 0.0

    def itl_seconds_percentile(self, q: float) -> float:
        """The ``q``-th percentile of inter-token gaps (0 if none)."""
        values = self.itl_values
        return float(np.percentile(values, q)) if values else 0.0

    @property
    def max_itl_seconds(self) -> float:
        """Worst single inter-token stall any request observed."""
        values = self.itl_values
        return max(values) if values else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Fraction of generated tokens that counted as goodput."""
        return (self.goodput_tokens / self.tokens_generated
                if self.tokens_generated else 0.0)

    @staticmethod
    def _class_of(completion: Completion) -> str:
        """The completion's traffic-class tag (``"none"`` without an SLO)."""
        slo = completion.request.slo
        return slo.slo_class if slo is not None else "none"

    def _class_completions(self, slo_class: Optional[str]) -> list:
        if slo_class is None:
            return self.completions
        return [c for c in self.completions if self._class_of(c) == slo_class]

    def ttft_steps_percentile(
        self, q: float, slo_class: Optional[str] = None
    ) -> float:
        """``q``-th percentile of tick-based TTFT, optionally per class.

        The deterministic counterpart of :meth:`ttft_seconds_percentile`:
        measured in scheduler ticks against ``submitted_step``, so the
        same trace yields the same percentile on any machine.  Requests
        that emitted nothing are excluded; 0 if none qualify.
        """
        values = [
            c.ttft_steps for c in self._class_completions(slo_class)
            if c.ttft_steps is not None
        ]
        return float(np.percentile(values, q)) if values else 0.0

    def itl_steps_percentile(
        self, q: float, slo_class: Optional[str] = None
    ) -> float:
        """``q``-th percentile of tick-based inter-token gaps (0 if none)."""
        values = [
            v for c in self._class_completions(slo_class)
            for v in c.itl_steps
        ]
        return float(np.percentile(values, q)) if values else 0.0

    def class_telemetry(self) -> dict:
        """Per-class goodput counters merged with tick percentiles.

        One entry per ``slo_class`` seen (``"none"`` for SLO-less
        requests): the :attr:`class_stats` counters plus
        ``ttft_p99_steps`` / ``itl_p99_steps`` for that class -- the
        digest :func:`repro.eval.reporting.format_goodput` tabulates.
        """
        merged = {}
        for tag, stats in sorted(self.class_stats.items()):
            merged[tag] = dict(stats)
            merged[tag]["ttft_p99_steps"] = self.ttft_steps_percentile(99, tag)
            merged[tag]["itl_p99_steps"] = self.itl_steps_percentile(99, tag)
        return merged

    @property
    def decode_tokens_per_second(self) -> float:
        return self.tokens_generated / self.decode_seconds if self.decode_seconds else 0.0

    @property
    def tokens_per_second(self) -> float:
        """End-to-end throughput including prefill time."""
        return self.tokens_generated / self.wall_seconds if self.wall_seconds else 0.0


class ContinuousBatchingScheduler:
    """Drains a request queue through a :class:`BatchedEngine`.

    The tick and every policy behind a knob -- correlation-aware
    admission (``reorder_window``), budgeted ticks (``step_budget``),
    ``preemption``, ``speculation`` (``None`` falls back to the
    engine's), deadline ``admission`` over ``deadline_window`` -- are
    described once, in the module docstring; defaults and constraints
    are tabulated in ``docs/serving.md``.  ``admission="deadline"`` and
    ``reorder_window > 1`` both rearbitrate the same queue window, so
    they are mutually exclusive.

    ``on_token`` is an optional streaming callback, invoked as
    ``on_token(request_id, token_id, step)`` for every *emitted* token
    the instant the emission path records it -- stop tokens are never
    reported (they are never emitted), and a resumed sequence's replayed
    tokens are not re-reported.  The callback runs synchronously inside
    the tick; an ``Exception`` it raises is contained to the request it
    was called for, which completes error-typed (``"on_token raised
    ..."``) with the tokens emitted so far -- its batch-mates are
    untouched and nothing propagates out of :meth:`step`.
    """

    def __init__(
        self,
        engine: BatchedEngine,
        queue: Optional[RequestQueue] = None,
        max_batch_size: Optional[int] = None,
        reorder_window: int = 0,
        step_budget: int = 0,
        preemption: bool = False,
        on_token=None,
        speculation: Optional[SpecConfig] = None,
        admission: str = "fifo",
        deadline_window: int = 8,
    ):
        if reorder_window < 0:
            raise ValueError(
                f"reorder_window must be >= 0, got {reorder_window}"
            )
        if step_budget < 0:
            raise ValueError(
                f"step_budget must be >= 0, got {step_budget}"
            )
        if on_token is not None and not callable(on_token):
            raise ValueError(
                f"on_token must be callable or None, got {type(on_token).__name__}"
            )
        if admission not in ("fifo", "deadline"):
            raise ValueError(
                f"admission must be 'fifo' or 'deadline', got {admission!r}"
            )
        if deadline_window < 1:
            raise ValueError(
                f"deadline_window must be >= 1, got {deadline_window}"
            )
        if admission == "deadline" and reorder_window > 1:
            raise ValueError(
                "admission='deadline' and reorder_window > 1 both "
                "rearbitrate the queue window; use one or the other"
            )
        self.on_token = on_token
        self.engine = engine
        self.queue = queue if queue is not None else RequestQueue()
        self.max_batch_size = min(
            max_batch_size or engine.max_batch_size, engine.max_batch_size
        )
        self.reorder_window = reorder_window
        self.step_budget = step_budget
        self.preemption = bool(preemption)
        self.admission = admission
        self.deadline_window = deadline_window
        self.speculation = (
            speculation if speculation is not None else engine.speculation
        )
        self.active: List[_ActiveSequence] = []
        self.step_count = 0
        self._head_skips = 0       # consecutive admissions that bypassed head
        self._submitted = {}       # request_id -> (perf_counter, tick) at submit()
        self._resume_state = {}    # request_id -> parked (preempted) sequence
        self._tick_prefill_tokens = 0   # prefill+replay tokens fed this tick
        self.report = ServeReport(
            n_pages=engine.cache.n_pages,
            cache_pages=engine.cache_pages,
            step_budget=step_budget,
            admission=admission,
        )
        # The prefix cache's eviction counter is cumulative across the
        # engine's lifetime; snapshot it so a reused engine still yields
        # per-run telemetry.
        prefix_cache = engine.cache.prefix_cache
        self._evictions_baseline = (
            prefix_cache.evictions if prefix_cache is not None else 0
        )
        # So are its attention and sparse-MLP skip counters (a reused or
        # pre-warmed engine).
        self._attention_baseline = replace(engine.attn_telemetry)
        self._skip_baseline = replace(engine.sparse.stats)

    @staticmethod
    def _worst_case_positions(request: Request) -> int:
        """KV positions the request could feed its slot.

        A sequence feeds ``prompt_len + max_new_tokens - 1`` tokens (the
        final sampled token is never fed back).  Zero-token requests
        never prefill (they complete empty at admission), so they need
        no KV at all -- whatever their prompt length.
        """
        if request.max_new_tokens == 0:
            return 0
        return request.prompt_len + request.max_new_tokens - 1

    def _capacity_error(self, request: Request) -> Optional[str]:
        """Why ``request`` can never fit the KV cache, or None if it can.

        Checks against :attr:`max_request_positions` -- the per-slot cap
        and the whole page budget (a request bigger than the entire
        arena could never be admitted no matter how empty the system
        is).
        """
        needed = self._worst_case_positions(request)
        capacity = self.engine.cache.max_request_positions
        if needed <= capacity:
            return None
        return (
            f"request {request.request_id} needs up to {needed} KV "
            f"positions but slots hold {capacity}; shorten the prompt "
            f"or max_new_tokens, or raise the engine's max_seq_len"
        )

    def submit(self, request: Request) -> None:
        """Queue a request, rejecting malformed ones up front.

        Admission re-checks capacity (the queue is injectable), but
        failing fast here gives the caller the error as an exception
        instead of an errored :class:`Completion`.  Also rejected: a
        ``request_id`` that is still queued or resident (submit stamps,
        resume state and sampler RNG streams are keyed by it; a
        completed id may be reused), and prompt ids outside the
        vocabulary (they would index past the embedding table mid-tick
        and take the whole batch down).
        """
        reason = self._capacity_error(request)
        if reason is not None:
            raise ValueError(reason)
        if request.request_id in self._submitted:
            raise ValueError(
                f"request_id {request.request_id!r} is already queued or "
                f"resident"
            )
        vocab_size = self.engine.config.vocab_size
        if min(request.prompt_ids) < 0 or \
                max(request.prompt_ids) >= vocab_size:
            raise ValueError(
                f"request {request.request_id} has prompt ids outside "
                f"[0, {vocab_size})"
            )
        self._submitted[request.request_id] = (
            time.perf_counter(), self.step_count
        )
        self.queue.submit(request)

    @property
    def n_pending(self) -> int:
        return len(self.queue)

    @property
    def idle(self) -> bool:
        return not self.active and not self.queue

    # -- one tick ----------------------------------------------------------

    def _sampling_of(self, request: Request):
        """The request's effective SamplerConfig (engine default fallback)."""
        if request.sampling is not None:
            return request.sampling
        return self.engine.sampler.default

    def _sample_tokens(self, seqs, logits: np.ndarray) -> np.ndarray:
        """Next token per sequence, in one vectorised sampler call.

        ``logits`` is the stacked ``(B, vocab)`` decode output with row
        ``i`` belonging to ``seqs[i]``.  Greedy rows are argmax'd as one
        batch reduction; stochastic rows draw from their per-request
        streams.  Times the sampler and splits the greedy/sampled token
        counts into the report.
        """
        configs = [self._sampling_of(seq.request) for seq in seqs]
        request_ids = [seq.request.request_id for seq in seqs]
        t0 = time.perf_counter()
        tokens = self.engine.sampler.sample(logits, configs, request_ids)
        self.report.sampler_seconds += time.perf_counter() - t0
        n_greedy = sum(1 for c in configs if c.temperature == 0.0)
        self.report.greedy_tokens += n_greedy
        self.report.sampled_tokens += len(configs) - n_greedy
        return tokens

    def _emit_token(
        self, seq: _ActiveSequence, token_id: int, emit_time: float,
        finished: List[Completion],
    ) -> bool:
        """Record one sampled token; False when it finished the sequence.

        The single emission path for prefill-sampled first tokens and
        decode-step tokens alike: the per-request stop-id check (a stop
        token is never emitted), the first-token/inter-token telemetry
        stamps, the streaming ``on_token`` callback, and completion on
        budget exhaustion.  A callback that raises fails *its* request
        only: the sequence completes error-typed here, with the tokens
        emitted so far, so the rest of the tick's batch -- whose KV the
        decode step has already advanced -- still commits its tokens.
        """
        request = seq.request
        if request.stop_ids and token_id in request.stop_ids:
            finished.append(self._complete(seq))
            return False
        seq.generated_ids.append(token_id)
        seq.emit_times.append(emit_time)
        seq.emit_steps.append(self.step_count)
        self.report.tokens_generated += 1
        if self.on_token is not None:
            try:
                self.on_token(request.request_id, token_id, self.step_count)
            except Exception as exc:
                finished.append(
                    self._complete(seq, error=f"on_token raised {exc!r}")
                )
                return False
        if seq.wants_more():
            return True
        finished.append(self._complete(seq))
        return False

    def _complete(
        self, seq: _ActiveSequence, error: Optional[str] = None
    ) -> Completion:
        """Retire ``seq``: free its slot and sampler stream, account it."""
        self.engine.sampler.drop_stream(seq.request.request_id)
        self.engine.cache.release(seq.slot)
        # Retirement is the moment pages get parked; sample here so the
        # cached-page peak sees a burst's tail, not just decode ticks.
        self._sample_gauges(tick=False)
        submit_t, submitted_step = self._submitted.pop(
            seq.request.request_id, _UNSTAMPED
        )
        ttft = None
        if seq.emit_times and submit_t is not None:
            ttft = seq.emit_times[0] - submit_t
        itl = [
            b - a for a, b in zip(seq.emit_times, seq.emit_times[1:])
        ]
        completion = Completion(
            request=seq.request,
            generated_ids=list(seq.generated_ids),
            admitted_step=seq.admitted_step,
            finished_step=self.step_count,
            decode_steps=seq.decode_steps,
            error=error,
            first_token_step=seq.emit_steps[0] if seq.emit_steps else -1,
            preemptions=seq.preemptions,
            ttft_seconds=ttft,
            itl_seconds=itl,
            submitted_step=submitted_step,
            emit_steps=list(seq.emit_steps),
        )
        self._account(completion)
        return completion

    def _account(self, completion: Completion) -> None:
        """Record ``completion`` and settle its goodput/SLO ledger entry.

        The single append path into ``report.completions`` -- every
        completion flavour (decoded, rejected, zero-token, shed) passes
        through here exactly once, which is what makes the accounting
        identity (met + missed + shed == len(completions), per-class
        sums == report totals) structural rather than hoped-for.
        """
        report = self.report
        report.completions.append(completion)
        tag = report._class_of(completion)
        stats = report.class_stats.setdefault(tag, {
            "requests": 0, "slo_met": 0, "slo_missed": 0, "shed": 0,
            "goodput_tokens": 0, "tokens": 0,
        })
        stats["requests"] += 1
        stats["tokens"] += completion.n_generated
        if completion.shed:
            completion.slo_met = False
            report.shed_requests += 1
            stats["shed"] += 1
            return
        slo = completion.request.slo
        if slo is None:
            met = True     # vacuously in-SLO; slo_met stays None
        else:
            met = completion.error is None and slo.met(
                completion.submitted_step, completion.emit_steps
            )
            completion.slo_met = met
        if met:
            report.slo_met_requests += 1
            report.goodput_tokens += completion.n_generated
            stats["slo_met"] += 1
            stats["goodput_tokens"] += completion.n_generated
        else:
            report.slo_missed_requests += 1
            stats["slo_missed"] += 1

    def _choose_admission(self, index: int, head: Request) -> Optional[tuple]:
        """The next admission: the candidate, or a bounded-window jump.

        ``head`` is the candidate at queue ``index`` (the FIFO head, or
        the EDF pick under deadline admission).  Returns ``(queue_index,
        request, plan)`` -- ``plan`` being the KV store's
        :class:`~repro.model.paged_kvcache.SeatPlan` -- or ``None`` when
        nothing can be admitted this tick.  With ``reorder_window > 1``
        (never under deadline admission -- the two are mutually
        exclusive) a request later in the window is chosen only when it
        shares a live prefix *longer* than whatever the head's plan
        already skips (fork or revive), its fork fits, and the head has
        not yet been bypassed ``reorder_window - 1`` times in a row --
        after that the head is guaranteed to be the next admission,
        bounding starvation.  Window jumps stay donor-based: their
        point is co-scheduling correlated sign patterns with a *live*
        sharer, which a cached (retired) prefix cannot offer.
        """
        cache = self.engine.cache
        plan = cache.plan(head.prompt_ids, self._worst_case_positions(head))
        best = (index, head, plan) if plan.fits else None
        best_shared = plan.shared      # 0 for the only plan that can misfit
        if self.reorder_window > 1 and self.engine.prefix_sharing and \
                self._head_skips < self.reorder_window - 1:
            for i, request in enumerate(self.queue.window(self.reorder_window)):
                if i == 0:
                    continue
                if request.max_new_tokens == 0 or \
                        self._capacity_error(request) is not None:
                    continue   # handled (cheaply) when it reaches the head
                fork = cache.fork_plan(
                    request.prompt_ids, self._worst_case_positions(request)
                )
                if fork.fits and fork.shared > best_shared:
                    best = (i, request, fork)
                    best_shared = fork.shared
        return best

    # -- deadlines (admission="deadline") ----------------------------------

    def _next_deadline(self, request: Request, emit_steps) -> float:
        """The tick by which ``request`` next owes a token.

        ``emit_steps`` is what it has emitted so far: a request that has
        emitted nothing owes its first token by ``submitted tick +
        slo.ttft_steps``, one that has owes the next a full ITL deadline
        after its last emission.  Requests with no SLO -- or none
        bounding the owed token -- rank last at ``+inf``.
        """
        slo = request.slo
        if slo is None:
            return float("inf")
        if emit_steps:
            if slo.itl_steps is None:
                return float("inf")
            return emit_steps[-1] + slo.itl_steps
        if slo.ttft_steps is None:
            return float("inf")
        submitted = self._submitted.get(request.request_id, _UNSTAMPED)[1]
        return submitted + slo.ttft_steps

    def _queued_emit_steps(self, request: Request):
        """Emission ticks of a queued request (non-empty only for a
        preempted evictee that emitted before it was parked)."""
        parked = self._resume_state.get(request.request_id)
        return parked.emit_steps if parked is not None else ()

    def _earliest_deadline(self) -> tuple:
        """``(queue_index, request)`` for the next deadline admission.

        Earliest deadline first over the first ``deadline_window``
        queued requests; ``priority`` breaks deadline ties (higher
        first) and ``min`` keeps the first-seen -- i.e. FIFO-earliest --
        winner on full ties.  Once the head has been bypassed
        ``deadline_window - 1`` times in a row it is forced through
        regardless of deadlines (the same bounded-bypass rule
        ``reorder_window`` uses), so no feasible request starves.
        """
        window = self.queue.window(self.deadline_window)
        if self._head_skips >= self.deadline_window - 1:
            return 0, window[0]
        ranks = [
            (self._next_deadline(r, self._queued_emit_steps(r)), -r.priority)
            for r in window
        ]
        best = ranks.index(min(ranks))
        return best, window[best]

    def _shed_hopeless(self, finished: List[Completion]) -> None:
        """Drop queued requests whose TTFT deadline has already passed.

        A queued request is hopeless once ``step_count`` exceeds its
        TTFT deadline: inline admission can still emit a first token in
        the admission tick itself, so ``step_count == deadline`` is the
        last tick that could save it.  Hopeless requests complete as
        rejected-typed, ``shed=True`` completions (never silently
        vanish).  Preempted evictees that already emitted a token are
        never shed -- their TTFT contract is already settled and their
        generated tokens must not be discarded.
        """
        while True:
            for i, request in enumerate(self.queue.window(self.deadline_window)):
                if self._queued_emit_steps(request):
                    continue
                deadline = self._next_deadline(request, ())
                if self.step_count > deadline:
                    ttft_steps = request.slo.ttft_steps
                    submitted = deadline - ttft_steps
                    self._finish_unadmitted(i, finished, shed=True, error=(
                        f"shed: request {request.request_id} missed its "
                        f"TTFT deadline (submitted tick {submitted} + "
                        f"{ttft_steps} < tick {self.step_count})"
                    ))
                    break
            else:
                return

    # -- admission ---------------------------------------------------------

    def _finish_unadmitted(
        self, index: int, finished: List[Completion],
        error: Optional[str] = None, shed: bool = False,
    ) -> None:
        """Complete the queued request at ``index`` without seating it.

        The one exit for requests that never hold a slot: capacity
        rejects (``error``), zero-token requests (neither) and shed ones
        (both).  None of them needs a seat, so a full batch never delays
        them.  Popping the head resets the bypass streak; popping past
        it counts as a bypass unless the request was shed (a shed
        request was never an admission).
        """
        request = self.queue.pop_at(index)
        if index == 0:
            self._head_skips = 0
        elif not shed:
            self._head_skips += 1
        self._resume_state.pop(request.request_id, None)
        completion = Completion(
            request=request, generated_ids=[],
            admitted_step=self.step_count, finished_step=self.step_count,
            error=error, shed=shed,
            submitted_step=self._submitted.pop(
                request.request_id, _UNSTAMPED
            )[1],
        )
        self._account(completion)
        finished.append(completion)

    def _next_candidate(self, finished: List[Completion]) -> Optional[tuple]:
        """``(queue_index, request)`` to try admitting next; None = empty.

        The one place the two arbitration policies differ: FIFO offers
        the queue head, deadline admission sheds first (hopeless
        requests' already-passed deadlines would otherwise rank them
        ahead of every savable request) and offers the EDF pick.
        """
        if self.admission == "deadline":
            self._shed_hopeless(finished)
            return self._earliest_deadline() if self.queue else None
        try:
            return 0, self.queue.peek()
        except EmptyQueueError:
            return None

    def _admit(self, finished: List[Completion]) -> None:
        """Candidate selection -> plan -> seat, until blocked or empty."""
        evicted: List[Request] = []
        head_blocked = False
        while True:
            candidate = self._next_candidate(finished)
            if candidate is None:
                break
            index, head = candidate
            reason = self._capacity_error(head)
            if reason is not None or head.max_new_tokens == 0:
                # Can never fit (queued without going through submit();
                # rejected instead of letting PagedKVSlot.append blow up
                # the whole batch), or nothing to decode: complete
                # without burning a KV slot, a decode-batch seat, or a
                # prefill the output can never use.
                self._finish_unadmitted(index, finished, error=reason)
                continue
            choice = None
            if len(self.active) < self.max_batch_size:
                choice = self._choose_admission(index, head)
            if choice is None:
                # The candidate waits for a seat and slots/pages, and no
                # in-window prefix-sharer can take its place -- unless
                # preemption can evict a lower-priority resident.
                victim = (
                    self._pick_victim(head.priority)
                    if self.preemption else None
                )
                if victim is None:
                    head_blocked = bool(evicted)
                    break
                self._preempt(victim)
                evicted.append(victim.request)
                continue   # a seat or pages were freed; retry
            index, request, plan = choice
            self.queue.pop_at(index)
            self._head_skips = 0 if index == 0 else self._head_skips + 1
            self._seat(request, plan, finished)
        if evicted:
            # Victims resume ahead of FIFO order -- but never ahead of a
            # head that is still blocked after the eviction, or the
            # (lower-priority) victim would queue-jump the very request
            # it was evicted for, ping-ponging forever.  Deadline mode
            # needs no hold: EDF rearbitrates the window every admission
            # regardless of queue position, and a victim that keeps
            # losing pages eventually sheds or finishes (preemption
            # chains strictly descend in priority).
            held = (
                self.queue.pop()
                if head_blocked and self.admission != "deadline" else None
            )
            for request in reversed(evicted):
                self.queue.push_front(request)
            if held is not None:
                self.queue.push_front(held)

    def _seat(
        self, request: Request, plan: SeatPlan, finished: List[Completion],
    ) -> None:
        """Give ``request`` the slot its ``plan`` describes and start it.

        A preempted request resumes as the very sequence object that
        was parked (tokens, telemetry stamps and speculation state ride
        along; only the KV state is rebuilt).  What the slot still
        lacks becomes the sequence's pending work: the unshared prompt
        suffix, and for a resumed sequence the replay of its emitted
        tokens -- all but the last, which the next decode tick feeds
        exactly as it would have without eviction.  Under a step budget
        that work runs as per-tick chunks in :meth:`_run_restoration`;
        inline (``step_budget=0``) it runs here, so the prompt is
        registered for prefix sharing before the next admission plans.
        """
        slot = self.engine.cache.seat(plan)
        if plan.donor is not None:
            self.report.forked_admissions += 1
            self.report.prefill_tokens_saved += plan.shared
        elif plan.pages:
            # A preempted sequence's parked prompt usually resumes here.
            self.report.revived_admissions += 1
            self.report.revived_tokens += plan.shared
        seq = self._resume_state.pop(request.request_id, None)
        if seq is None:
            seq = _ActiveSequence(
                request=request, slot=slot, generated_ids=[],
                admitted_step=self.step_count,
                spec_k=self.speculation.k if self.speculation is not None else 0,
            )
        else:
            seq.slot = slot
            self.report.resumed_admissions += 1
        seq.pending_prefill = tuple(request.prompt_ids[plan.shared:])
        seq.pending_replay = tuple(seq.generated_ids[:-1])
        if self.step_budget == 0:
            try:
                logits = self._feed_prefill(seq, len(seq.pending_prefill))
            except BaseException:
                # A crashing prefill must not leak the admission's slot
                # and reserved pages: the request is already popped, so
                # nothing else holds a handle that could release them.
                self.engine.cache.release(seq.slot)
                raise
            if not self._finish_prompt(seq, logits, finished):
                return
            self._replay_tokens(seq, len(seq.pending_replay))
        self.active.append(seq)

    def _feed_prefill(self, seq: _ActiveSequence, take: int) -> np.ndarray:
        """Prefill the next ``take`` pending prompt tokens of ``seq``.

        The only ``engine.prefill`` call site: inline admission passes
        the whole suffix, budgeted restoration what the tick can afford.
        Returns the last fed position's logits.
        """
        piece = seq.pending_prefill[:take]
        seq.pending_prefill = seq.pending_prefill[take:]
        t0 = time.perf_counter()
        logits = self.engine.prefill(seq.slot, piece)
        self.report.prefill_seconds += time.perf_counter() - t0
        self.report.prefill_tokens += take
        self._tick_prefill_tokens += take
        return logits

    def _finish_prompt(
        self, seq: _ActiveSequence, logits: np.ndarray,
        finished: List[Completion],
    ) -> bool:
        """Wrap up a completed prompt prefill; True if ``seq`` stays live.

        Registers the prompt for prefix sharing, samples the peak page
        gauges while prefill-claimed pages are still held (a sequence
        finishing right at admission would otherwise never be counted),
        and -- for a fresh sequence only -- samples the first token from
        the prefill logits.  A resumed sequence already emitted its
        first token before eviction; it is kept, never resampled.
        """
        self.engine.cache.register(seq.slot, seq.request.prompt_ids)
        self._sample_gauges(tick=False)
        if seq.generated_ids:
            return True
        first = int(self._sample_tokens([seq], logits[None, :])[0])
        return self._emit_token(seq, first, time.perf_counter(), finished)

    def _replay_tokens(self, seq: _ActiveSequence, take: int) -> None:
        """Re-feed ``take`` pending replay tokens through the *decode* path.

        Generated-position K/V is a product of the sparse decode
        executor; recomputing it with the dense prefill path would
        change the values themselves, not just their rounding, so a
        restored sequence replays its history token-by-token through
        ``decode_step`` -- the same op sequence that wrote the evicted
        state.  The logits are discarded: every replayed token was
        already emitted.
        """
        if not take:
            return
        tokens = seq.pending_replay[:take]
        seq.pending_replay = seq.pending_replay[take:]
        t0 = time.perf_counter()
        for tok in tokens:
            self.engine.decode_step([seq.slot], [int(tok)])
        self.report.replay_seconds += time.perf_counter() - t0
        self.report.replayed_tokens += take
        self._tick_prefill_tokens += take

    # -- preemption --------------------------------------------------------

    def _pick_victim(self, priority: int) -> Optional[_ActiveSequence]:
        """The resident to evict for a head of ``priority``, or None.

        Only residents of *strictly* lower priority are evictable --
        the anti-livelock rule: equal priorities never evict each
        other, so every preemption chain descends in priority and is
        finite.  Among those the lowest priority loses, and among
        equals the latest-admitted (it has the least sunk decode work
        to replay).  Under ``admission="deadline"`` deadline slack
        ranks first: the resident with the *latest* next-owed-token
        tick loses -- evicting the most urgent one would just convert
        one SLO miss into another.
        """
        deadline_aware = self.admission == "deadline"
        victim, victim_rank = None, None
        for seq in self.active:
            if seq.request.priority >= priority:
                continue
            slack = (
                self._next_deadline(seq.request, seq.emit_steps)
                if deadline_aware else 0
            )
            rank = (slack, -seq.request.priority)
            if victim is None or rank >= victim_rank:
                victim, victim_rank = seq, rank
        return victim

    def _preempt(self, seq: _ActiveSequence) -> None:
        """Evict ``seq``: release its pages, park the sequence itself.

        Only the *prefilled prompt prefix* (``prompt_ids[:slot.length]``
        -- the whole prompt for a decoding resident, a prefix for one
        caught mid-restoration) is offered for parking: generated
        positions carry decode-path K/V that must never be shared or
        revived through prompt hashing.  The request itself goes back to
        the queue via the caller; the slot-less sequence waits in
        ``_resume_state`` with its emitted tokens and telemetry.  The
        request's sampler RNG stream is deliberately **kept**:
        restoration replays recorded tokens without sampling, so on
        resume the stream sits exactly one draw past each emitted token
        -- eviction never changes what a seeded request generates.
        """
        self.active.remove(seq)
        parked = seq.request.prompt_ids[:seq.slot.length]
        self.engine.cache.release(seq.slot, prompt_ids=parked)
        self._sample_gauges(tick=False)
        seq.slot = None
        seq.preemptions += 1
        self._resume_state[seq.request.request_id] = seq
        self.report.preemptions += 1

    def _run_restoration(self, finished: List[Completion]) -> None:
        """Advance restoring sequences within the tick's token budget.

        The leftover budget after charging one token per decoding
        resident -- but always at least 1, so restoration cannot stall
        behind a large decode batch -- is spent oldest-admission-first
        on pending prefill chunks (prefill path) and then replay tokens
        (decode path).  A sequence whose prompt completes here samples
        its first token from the final chunk's logits and, once any
        replay drains, joins the same tick's decode batch.
        """
        if not any(seq.restoring for seq in self.active):
            return
        n_decoding = sum(1 for seq in self.active if not seq.restoring)
        budget = max(self.step_budget - n_decoding, 1)
        spent = 0
        for seq in list(self.active):
            if spent >= budget:
                break
            if seq.pending_prefill:
                take = min(len(seq.pending_prefill), budget - spent)
                logits = self._feed_prefill(seq, take)
                self.report.piggybacked_chunks += 1
                self.report.piggybacked_tokens += take
                spent += take
                if seq.pending_prefill:
                    continue
                if not self._finish_prompt(seq, logits, finished):
                    self.active.remove(seq)
                    continue
            take = min(len(seq.pending_replay), budget - spent)
            self._replay_tokens(seq, take)
            spent += take

    def _sample_gauges(self, tick: bool) -> None:
        """Refresh the arena and prefix-cache gauges.

        High-water marks always; ``tick`` (once per decode step) also
        adds to the per-step sums.  Called without ``tick`` wherever
        pages change hands between decode steps: a finished prompt
        (prefill claims may park or evict pages), a retirement, an
        eviction.
        """
        report, cache = self.report, self.engine.cache
        in_use, shared = cache.n_pages_in_use, cache.n_shared_pages
        report.peak_pages_in_use = max(report.peak_pages_in_use, in_use)
        report.peak_shared_pages = max(report.peak_shared_pages, shared)
        if tick:
            report.page_occupancy_sum += in_use
            report.shared_pages_sum += shared
        if not report.cache_pages:
            return
        cached = cache.n_cached_pages
        report.peak_cached_pages = max(report.peak_cached_pages, cached)
        if tick:
            report.cached_pages_sum += cached
        report.cache_evictions = (
            cache.prefix_cache.evictions - self._evictions_baseline
        )

    def step(self) -> List[Completion]:
        """One scheduler tick; returns the requests that finished in it."""
        self.step_count += 1
        self._tick_prefill_tokens = 0
        finished: List[Completion] = []
        self._admit(finished)
        self._run_restoration(finished)
        decoding = [seq for seq in self.active if not seq.restoring]
        self.report.peak_tick_prefill_tokens = max(
            self.report.peak_tick_prefill_tokens, self._tick_prefill_tokens
        )
        if not decoding:
            # Admission-only (or restoration-only) tick: the report's
            # skip telemetry must still be finalised -- every return
            # path refreshes it, not just the decode path.
            self._finalise_skip_telemetry()
            return finished

        # Partition the decode batch: sequences with draft budget run
        # the speculative draft/verify path; everything else takes the
        # plain batched decode step.  Comprehension-built, same
        # admission order as self.active.
        spec = self.speculation
        drafters = [
            seq for seq in decoding
            if spec is not None and self._spec_depth(seq) >= 1
        ]
        drafter_ids = {id(seq) for seq in drafters}
        plain = [seq for seq in decoding if id(seq) not in drafter_ids]

        t_emit = time.perf_counter()
        logits = None
        if plain:
            slots = [seq.slot for seq in plain]
            tokens = [seq.last_token for seq in plain]
            t0 = time.perf_counter()
            logits = self.engine.decode_step(slots, tokens)
            t_emit = time.perf_counter()
            self.report.decode_seconds += t_emit - t0
        self.report.decode_steps += 1
        self.report.occupancy_sum += len(decoding)
        self.report.peak_occupancy = max(
            self.report.peak_occupancy, len(decoding)
        )
        self._sample_gauges(tick=True)
        self.report.attention = self.engine.attn_telemetry.since(
            self._attention_baseline
        )

        if plain:
            next_tokens = self._sample_tokens(plain, logits)
            self._commit_tokens(plain, next_tokens, t_emit, finished)
        if drafters:
            self._speculate(drafters, finished)
        self._finalise_skip_telemetry()
        return finished

    def _commit_tokens(
        self, seqs, next_tokens: np.ndarray, emit_time: float,
        finished: List[Completion],
    ) -> None:
        """Book-keep one decode tick's sampled tokens (no model compute).

        ``next_tokens[row]`` pairs with ``seqs[row]`` -- the same order
        :meth:`step` built the decode batch in.  The per-sequence loop
        here is pure O(1) bookkeeping (emit/stop/retire); the model
        compute (decode forward, batched sampling) already ran
        vectorised.  Finished sequences leave ``self.active``; the rest
        keep their seats and admission order.
        """
        for row, seq in enumerate(seqs):
            seq.decode_steps += 1
            if not self._emit_token(
                seq, int(next_tokens[row]), emit_time, finished
            ):
                self.active.remove(seq)

    def _spec_depth(self, seq: _ActiveSequence) -> int:
        """Draft steps ``seq`` may run this tick (0 = decode plainly).

        Capped by the sequence's adaptive depth and by its remaining
        token budget: drafting is only worth a verify pass when at
        least two tokens remain (one draft plus the bonus), and the
        deepest useful draft leaves the verify chunk's last fed
        position strictly inside the worst case reserved at admission
        (``prompt + max_new - 1`` positions), so speculation never
        outgrows the page reservation.
        """
        remaining = seq.request.max_new_tokens - len(seq.generated_ids)
        return max(0, min(seq.spec_k, remaining - 1))

    def _speculate(
        self, drafters: List[_ActiveSequence],
        finished: List[Completion],
    ) -> None:
        """Draft, verify, and commit speculative tokens for ``drafters``.

        Draft phase: up to ``spec_k`` cheap steps per sequence, batched
        across drafters depth by depth through the aggressive-alpha
        executor; each step's argmax extends that sequence's proposal
        (the draft's own logits are never sampled from).  The K/V those
        steps append is draft-quality, so each slot is rewound to its
        committed length before verification.

        Verify phase, per sequence: one chunked causal GEMM over
        ``[committed_token, draft_1, ..., draft_k]`` at the serving
        alpha yields the target logits after every position; targets
        are drawn through the normal per-request sampler stream (one
        draw per emitted token, same draw order as plain decode), and
        the longest draft prefix matching the targets is accepted plus
        the one corrected/bonus token.  The slot is truncated to cover
        exactly the emitted tokens, so rejected positions leave no
        trace.
        """
        spec = self.speculation
        engine = self.engine
        depths = [self._spec_depth(seq) for seq in drafters]
        bases = [seq.slot.length for seq in drafters]
        current = [seq.last_token for seq in drafters]
        drafts: List[list] = [[] for _ in drafters]
        t0 = time.perf_counter()
        for depth in range(max(depths)):
            rows = [i for i, d in enumerate(depths) if d > depth]
            logits = engine.draft_step(
                [drafters[i].slot for i in rows],
                [current[i] for i in rows],
                draft_alpha=spec.draft_alpha,
            )
            for j, i in enumerate(rows):
                tok = int(np.argmax(logits[j]))
                drafts[i].append(tok)
                current[i] = tok
        self.report.draft_seconds += time.perf_counter() - t0
        self.report.drafted_tokens += sum(depths)
        # repro: ignore[scalar-loop] -- ragged per-sequence verify chunks
        for i, seq in enumerate(drafters):
            k_eff = depths[i]
            base = bases[i]
            seq.slot.truncate(base)
            t0 = time.perf_counter()
            logits = engine.verify_chunk(
                seq.slot, [seq.last_token] + drafts[i]
            )
            t_emit = time.perf_counter()
            self.report.verify_seconds += t_emit - t0
            accepted = 0
            alive = True
            for pos in range(k_eff + 1):
                target = int(
                    self._sample_tokens([seq], logits[pos][None, :])[0]
                )
                is_match = pos < k_eff and target == drafts[i][pos]
                n_before = len(seq.generated_ids)
                alive = self._emit_token(seq, target, t_emit, finished)
                if len(seq.generated_ids) > n_before and is_match:
                    accepted += 1
                if not alive or not is_match:
                    break
            if alive:
                # Keep K/V only for tokens actually fed: the committed
                # token plus the accepted draft prefix.  A finished
                # sequence's slot was already released by _complete.
                seq.slot.truncate(base + accepted + 1)
            else:
                self.active.remove(seq)
            self.report.accepted_tokens += accepted
            seq.decode_steps += 1
            if spec.adaptive and k_eff:
                rate = accepted / k_eff
                seq.spec_ema = (
                    spec.ema_decay * seq.spec_ema
                    + (1.0 - spec.ema_decay) * rate
                )
                if seq.spec_ema >= spec.raise_threshold:
                    seq.spec_k = min(seq.spec_k + 1, spec.k)
                elif seq.spec_ema <= spec.lower_threshold:
                    seq.spec_k = max(seq.spec_k - 1, 1)

    def _finalise_skip_telemetry(self) -> None:
        """Fill the report's realised-vs-analytical skip fields.

        ``expected_uncorrelated_skip`` evaluates ``skip^B`` at the mean
        batch occupancy -- the ``correlation = 0`` curve of
        :func:`repro.gpu.batching.batch_skip_fraction` extended to the
        fractional ``B`` a drained workload realises -- so the realised
        intersection sitting *above* it is direct evidence of correlated
        (e.g. shared-prefix) co-scheduling.  Idempotent and cheap;
        refreshed after every :meth:`step` so callers driving the
        scheduler tick-by-tick see live values, not run()-only ones.
        """
        stats = self.engine.sparse.stats.since(self._skip_baseline)
        self.report.intersection_skip = stats.intersection_skip_fraction
        self.report.mean_sequence_skip = stats.mean_sequence_skip_fraction
        occupancy = self.report.mean_batch_occupancy
        if occupancy >= 1.0:
            self.report.expected_uncorrelated_skip = float(
                self.report.mean_sequence_skip ** occupancy
            )

    def run(self, max_steps: int = 1_000_000) -> ServeReport:
        """Tick until the queue and the batch are both empty."""
        steps = 0
        while not self.idle:
            self.step()
            steps += 1
            if steps >= max_steps and not self.idle:
                raise RuntimeError(
                    f"scheduler did not drain within {max_steps} steps"
                )
        self._finalise_skip_telemetry()
        return self.report
