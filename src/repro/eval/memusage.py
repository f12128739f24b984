"""Memory-usage comparisons: predictor footprints and KV-cache paging.

Three accountings live here:

* the paper's Section V-A.2 predictor comparison (PowerInfer's trained
  DejaVu predictors vs SparseInfer's packed sign bits);
* the serving engine's KV-cache footprint -- fixed per-slot arrays vs
  the page-granular pool of :mod:`repro.model.paged_kvcache` -- for a
  given request-length distribution;
* the prefix-sharing footprint -- per-sequence prefix copies vs one
  refcounted set of shared prefix pages -- for a co-resident set with a
  common prompt prefix (few-shot style workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..gpu.memory import (
    MIB,
    dejavu_predictor_bytes,
    kv_cache_bytes,
    sparseinfer_predictor_bytes,
)
from ..model.config import ModelConfig


@dataclass(frozen=True)
class PredictorMemoryComparison:
    """Section V-A.2: PowerInfer vs SparseInfer predictor footprints."""

    model_name: str
    powerinfer_bytes: float
    sparseinfer_bytes: float

    @property
    def powerinfer_mib(self) -> float:
        return self.powerinfer_bytes / MIB

    @property
    def sparseinfer_mib(self) -> float:
        return self.sparseinfer_bytes / MIB

    @property
    def reduction_factor(self) -> float:
        """The paper reports 4.38x for ProSparse-Llama2-13B."""
        return self.powerinfer_bytes / self.sparseinfer_bytes


def compare_predictor_memory(
    config: ModelConfig, dejavu_rank: int = 1024
) -> PredictorMemoryComparison:
    return PredictorMemoryComparison(
        model_name=config.name,
        powerinfer_bytes=dejavu_predictor_bytes(config, dejavu_rank),
        sparseinfer_bytes=sparseinfer_predictor_bytes(config),
    )


def format_comparison(cmp: PredictorMemoryComparison) -> str:
    return (
        f"{cmp.model_name}: PowerInfer predictor {cmp.powerinfer_mib:.1f} MiB, "
        f"SparseInfer {cmp.sparseinfer_mib:.1f} MiB "
        f"({cmp.reduction_factor:.2f}x less)"
    )


# -- KV-cache footprint: fixed slots vs paged pool -------------------------


def fixed_slot_kv_bytes(config: ModelConfig, n_slots: int,
                        max_seq_len: int = 0) -> float:
    """Resident KV bytes of a fixed pool: one full slot per sequence.

    Every slot holds the full ``max_seq_len`` regardless of what its
    request uses, so the footprint scales with the worst case -- the
    baseline the paged arena is compared against.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    seq = max_seq_len or config.max_seq_len
    return n_slots * kv_cache_bytes(config, seq)


def paged_kv_bytes(config: ModelConfig, n_pages: int,
                   page_size: int = 16) -> float:
    """Resident KV bytes of a :class:`PagePool` arena of ``n_pages``."""
    if n_pages < 0:
        raise ValueError(f"n_pages must be >= 0, got {n_pages}")
    return n_pages * kv_cache_bytes(config, page_size)


def pages_for_lengths(lengths: Sequence[int], page_size: int = 16) -> int:
    """Total pages needed to hold one sequence per entry of ``lengths``."""
    if page_size < 1:
        raise ValueError(f"page_size must be >= 1, got {page_size}")
    return sum(-(-int(n) // page_size) for n in lengths)


@dataclass(frozen=True)
class KVFootprintComparison:
    """Fixed-slot vs paged KV bytes to co-hold one set of requests.

    ``lengths`` are per-request KV positions (worst case:
    ``prompt_len + max_new_tokens - 1``).  The fixed pool needs one
    ``max_seq_len`` slot per request; the paged pool needs
    ``ceil(length / page_size)`` pages per request.  Internal page
    fragmentation (the unused tail of each request's last page) is the
    only waste paging keeps, which bounds it at ``page_size - 1``
    positions per sequence.
    """

    model_name: str
    max_seq_len: int
    page_size: int
    n_requests: int
    n_pages: int
    fixed_bytes: float
    paged_bytes: float

    @property
    def fixed_mib(self) -> float:
        return self.fixed_bytes / MIB

    @property
    def paged_mib(self) -> float:
        return self.paged_bytes / MIB

    @property
    def reduction_factor(self) -> float:
        return self.fixed_bytes / self.paged_bytes if self.paged_bytes else float("inf")


def compare_kv_footprint(
    config: ModelConfig,
    lengths: Sequence[int],
    max_seq_len: int = 0,
    page_size: int = 16,
) -> KVFootprintComparison:
    """KV bytes to co-schedule ``lengths`` fixed-slot vs paged."""
    seq = max_seq_len or config.max_seq_len
    # len(), not truthiness: a numpy array of lengths raises on bool().
    if len(lengths) == 0:
        raise ValueError("lengths must be non-empty")
    for n in lengths:
        if n > seq:
            raise ValueError(
                f"request length {n} exceeds max_seq_len {seq}"
            )
    n_pages = pages_for_lengths(lengths, page_size)
    return KVFootprintComparison(
        model_name=config.name,
        max_seq_len=seq,
        page_size=page_size,
        n_requests=len(lengths),
        n_pages=n_pages,
        fixed_bytes=fixed_slot_kv_bytes(config, len(lengths), seq),
        paged_bytes=paged_kv_bytes(config, n_pages, page_size),
    )


def format_kv_footprint(cmp: KVFootprintComparison) -> str:
    return (
        f"{cmp.model_name}: {cmp.n_requests} requests co-resident -- "
        f"fixed slots {cmp.fixed_mib:.2f} MiB "
        f"({cmp.n_requests} x {cmp.max_seq_len} positions), "
        f"paged {cmp.paged_mib:.2f} MiB "
        f"({cmp.n_pages} pages of {cmp.page_size}) "
        f"= {cmp.reduction_factor:.2f}x less"
    )


# -- prefix sharing: refcounted pages vs per-sequence copies ----------------


def pages_for_shared_prefix(lengths: Sequence[int], shared_prefix: int,
                            page_size: int = 16) -> int:
    """Total pages when every sequence shares one prompt prefix.

    Mirrors :meth:`repro.model.paged_kvcache.PagedKVCache.fork`: the
    ``shared_prefix // page_size`` full prefix pages are resident
    **once** (refcounted), while each sequence privately holds its
    remaining pages -- including the eagerly-copied partial prefix page
    when ``shared_prefix`` is not page-aligned.
    """
    if page_size < 1:
        raise ValueError(f"page_size must be >= 1, got {page_size}")
    if shared_prefix < 0:
        raise ValueError(f"shared_prefix must be >= 0, got {shared_prefix}")
    if len(lengths) == 0:
        return 0               # no sequences -> no pages resident
    full_shared = shared_prefix // page_size
    total = full_shared
    for n in lengths:
        if n < shared_prefix:
            raise ValueError(
                f"request length {n} is below the shared prefix "
                f"{shared_prefix}"
            )
        total += -(-int(n) // page_size) - full_shared
    return total


@dataclass(frozen=True)
class SharedPrefixKVComparison:
    """Paged KV bytes for one co-resident set, with vs without sharing.

    ``lengths`` are per-request KV positions, every request carrying the
    same ``shared_prefix`` leading positions.  Without sharing each
    sequence stores its own copy of the prefix pages; with sharing the
    full prefix pages are stored once and refcounted.
    """

    model_name: str
    page_size: int
    shared_prefix: int
    n_requests: int
    pages_unshared: int
    pages_shared: int
    unshared_bytes: float
    shared_bytes: float

    @property
    def unshared_mib(self) -> float:
        return self.unshared_bytes / MIB

    @property
    def shared_mib(self) -> float:
        return self.shared_bytes / MIB

    @property
    def reduction_factor(self) -> float:
        return self.unshared_bytes / self.shared_bytes if self.shared_bytes \
            else float("inf")


def compare_shared_prefix_footprint(
    config: ModelConfig,
    lengths: Sequence[int],
    shared_prefix: int,
    page_size: int = 16,
) -> SharedPrefixKVComparison:
    """Paged KV bytes to co-schedule ``lengths`` with/without sharing."""
    if len(lengths) == 0:
        raise ValueError("lengths must be non-empty")
    unshared = pages_for_lengths(lengths, page_size)
    shared = pages_for_shared_prefix(lengths, shared_prefix, page_size)
    return SharedPrefixKVComparison(
        model_name=config.name,
        page_size=page_size,
        shared_prefix=shared_prefix,
        n_requests=len(lengths),
        pages_unshared=unshared,
        pages_shared=shared,
        unshared_bytes=paged_kv_bytes(config, unshared, page_size),
        shared_bytes=paged_kv_bytes(config, shared, page_size),
    )


def format_shared_prefix_footprint(cmp: SharedPrefixKVComparison) -> str:
    return (
        f"{cmp.model_name}: {cmp.n_requests} requests sharing a "
        f"{cmp.shared_prefix}-position prefix -- unshared "
        f"{cmp.unshared_mib:.2f} MiB ({cmp.pages_unshared} pages), "
        f"prefix-shared {cmp.shared_mib:.2f} MiB "
        f"({cmp.pages_shared} pages of {cmp.page_size}) "
        f"= {cmp.reduction_factor:.2f}x less"
    )
