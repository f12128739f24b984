"""Batched sparse-decode serving: queue, scheduler, and batched engine.

The paper evaluates SparseInfer at decode batch 1, where every gate row a
sequence predicts sparse saves its whole weight read.  A serving system
decodes many sequences per step, and a row's weights can only go unread
when **every** co-scheduled sequence predicts it sparse -- the exploitable
skip set is the *intersection* across the batch, which for independent
sequences decays roughly as ``skip^B`` (:mod:`repro.gpu.batching` models
this decay analytically; :func:`repro.gpu.batching.batch_skip_fraction`
is the curve the serving benchmark plots measured intersections against).

What batching loses in sparsity it repays in weight-read amortisation:
the rows that *are* computed are computed for the whole batch from a
single weight read, so throughput still rises with batch size -- the
classic serving-vs-edge trade-off (DejaVu targets the batched regime with
trained predictors, PowerInfer the edge regime; SparseInfer's
training-free predictor is cheap enough to run per step in either).

Pieces:

* :mod:`repro.serving.request`  -- :class:`Request` / :class:`Completion`.
* :mod:`repro.serving.queue`    -- FIFO admission queue.
* :mod:`repro.serving.batch_mlp` -- batch-aware sparse MLP executor: one
  sign-pack + popcount pass predicts all sequences, rows outside the
  intersection run as a batched GEMM, and per-sequence masks re-zero rows
  a sequence predicted sparse so outputs match single-sequence decode.
* :mod:`repro.serving.engine`   -- :class:`BatchedEngine`: the forward
  pass -- one layer loop over per-request KV slots of a shared page
  arena (:class:`repro.model.paged_kvcache.PagedKVCache`, which also
  decides where a new sequence's seat and prefix K/V come from), where
  short requests hold only the pages they touch and admission is gated
  on worst-case page demand.
* :mod:`repro.model.sampler` (re-exported here) -- per-request decode
  modes: :class:`Request.sampling` carries a
  :class:`~repro.model.sampler.SamplerConfig` and each decode tick
  samples the whole batch in one vectorised
  :class:`~repro.model.sampler.BatchedSampler` call, stochastic rows
  drawing from per-request RNG streams keyed by ``(seed, request_id)``
  so tokens reproduce regardless of batch composition or preemption.
* :mod:`repro.serving.scheduler` -- continuous batching: admit from the
  queue the moment a slot (and its worst-case pages) frees, retire
  finished sequences, never starve.  With ``prefix_sharing=True`` on the
  engine and a ``reorder_window`` on the scheduler, admission prefers
  queued requests sharing a live prompt prefix: they skip the shared
  prefill and keep the decode batch's sign patterns correlated so the
  intersection decays slower than the independent ``skip^B``;
  ``cache_pages > 0`` extends sharing across non-overlapping lifetimes
  (both mechanisms are the KV store's, see
  :mod:`repro.model.paged_kvcache`).
* :mod:`repro.serving.speculative` -- :class:`SpecConfig`: speculative
  self-drafting (``speculation=...`` on engine and scheduler).  The
  sparse path at an aggressive alpha drafts ``k`` tokens per tick, one
  chunked causal GEMM verifies ``k + 1`` positions at the serving
  alpha, rejected draft K/V is rolled back with ``truncate`` -- output
  stays token-identical to non-speculative serving by construction.
* :mod:`repro.serving.loadgen` -- deterministic seeded traffic:
  arrival processes (:class:`PoissonProcess`, bursty
  :class:`OnOffProcess`, :class:`DiurnalProcess`) feed a
  :class:`LoadGenerator` whose timed traces :func:`run_trace` replays
  against the scheduler on a virtual tick clock.  Requests carry SLO
  contracts (:class:`SLOSpec` on :class:`Request`); the scheduler's
  ``admission="deadline"`` mode admits earliest-deadline-first, sheds
  hopeless requests, and the :class:`ServeReport` accounts goodput
  (SLO-met tokens) per traffic class.

``docs/serving.md`` walks the whole pipeline and tabulates every engine
knob and every ``ServeReport`` telemetry field.
"""

from ..model.paged_kvcache import PrefixIndex
from ..model.sampler import BatchedSampler, Sampler, SamplerConfig
from .batch_mlp import BatchedMLPStats, BatchedSparseInferMLP
from .engine import BatchedEngine
from .loadgen import (
    DiurnalProcess,
    LoadGenerator,
    OnOffProcess,
    PoissonProcess,
    TimedRequest,
    run_trace,
)
from .queue import EmptyQueueError, RequestQueue
from .request import Completion, Request, SLOSpec
from .scheduler import ContinuousBatchingScheduler, ServeReport
from .speculative import SpecConfig

__all__ = [
    "BatchedEngine",
    "BatchedMLPStats",
    "BatchedSampler",
    "BatchedSparseInferMLP",
    "Completion",
    "ContinuousBatchingScheduler",
    "DiurnalProcess",
    "EmptyQueueError",
    "LoadGenerator",
    "OnOffProcess",
    "PoissonProcess",
    "PrefixIndex",
    "Request",
    "RequestQueue",
    "Sampler",
    "SamplerConfig",
    "ServeReport",
    "SLOSpec",
    "SpecConfig",
    "TimedRequest",
    "run_trace",
]
