"""Page-granular KV cache for the serving engine (vLLM-style paging).

The serving engine's one KV store.  A fixed per-slot store would hold a
full ``max_seq_len x n_layers x d_model`` array per sequence, so a
10-token request would cost the same memory as the longest request the
engine accepts and the concurrent-sequence ceiling would be
``budget / worst_case`` (that store is this one's degenerate geometry,
``page_size=max_seq_len, n_pages=n_slots``).  This module shares a page
arena instead:

* :class:`PagePool` owns the storage -- two ``(n_pages, n_layers,
  page_size, d_model)`` arenas (keys and values) plus a free-page stack.
  A *page* is ``page_size`` consecutive sequence positions of **all**
  layers; keeping the layer axis inside the page means one page claim
  covers a position range for the whole stack, so pages are claimed once
  per ``page_size`` tokens rather than once per layer.

* :class:`PagedKVSlot` is one sequence's handle: a *page table* (list of
  arena page indices, in sequence order) that grows lazily as
  ``append`` touches new positions.  Logical position ``p`` lives at
  ``arena[page_table[p // page_size], layer, p % page_size]``.

* ``view(layer, length)`` hands the attention kernel a contiguous
  ``(length, d_model)`` K/V.  Two cases, because the layer axis sits
  between the page and position axes: positions within **one page**
  are already contiguous in the arena, so the result is a zero-copy
  view (start pointer and strides -- and the whole story for the
  ``page_size = max_seq_len`` fixed-store geometry); anything longer
  must be materialised, and is, by **one** fancy-index gather of the
  slot's pages.  :class:`PagedBatchView` is the same gather over a
  padded ``(B, p_max)`` page matrix.  How a sequence's pages are laid
  out in the arena never changes a float, so fork / COW / revive /
  truncate manipulate page tables and never touch the kernel side.

Admission safety uses **worst-case reservation**: the scheduler reserves
``ceil(needed_positions / page_size)`` pages when it admits a request
(:meth:`PagedKVCache.allocate` with ``max_positions``), and lazy page
claims draw the reservation down.  ``n_available_pages`` subtracts
outstanding reservations from the free list, so a request admitted
against it can never starve mid-decode, while memory *occupancy* (what
:attr:`n_pages_in_use` reports) still tracks actual, not worst-case,
lengths.

**Prefix sharing (refcount / copy-on-write lifecycle).**  Sequences with
a common prompt prefix can map the *same* physical pages
(:meth:`PagedKVCache.fork`):

* Every claimed page carries a **refcount** -- the number of page tables
  mapping it.  ``_claim_page`` starts it at 1, ``_share_page`` increments
  it, and releasing a page decrements it; the page returns to the free
  list only when the count reaches 0, so releasing a forked slot can
  never free a page its donor still maps.

* ``fork(donor, shared_positions)`` maps the donor's **full** prefix
  pages into the new slot's table by reference and **eagerly copies the
  partial trailing page** (if ``shared_positions`` is not page-aligned).
  Shared pages are therefore always full, and decode-phase appends --
  which only ever write at ``position == length >= shared_positions`` --
  land on exclusively-owned pages, keeping shared pages immutable.

* ``append`` still guards with **copy-on-write**: a write landing on a
  page with refcount > 1 first claims a fresh page, memcpys the shared
  page's contents, drops one reference on the shared page, and retargets
  the slot's table entry.  The engine path never triggers it (see
  above); it exists so direct cache users rewriting history cannot
  corrupt a sibling sequence.

* Reservation accounting composes: a forked slot's worst case is charged
  only for its *unshared* pages (the shared full pages are already
  resident), so admission of correlated requests gets strictly cheaper.

**Cross-request prefix cache (LRU page retention).**  Forking only helps
while the donor is *resident*; bursty traffic whose same-prefix requests
never overlap in time would re-prefill the shared prefix every burst.
With ``cache_pages > 0`` a :class:`PrefixCache` keeps retired prompt
prefixes alive:

* When a sequence is released **with its prompt**
  (:meth:`PagedKVCache.release` with ``prompt_ids``), its page-aligned
  prompt-prefix pages whose refcount would drop to 0 are *parked* --
  refcount 0, off the free list, indexed by the same chained per-page
  hash :class:`PrefixIndex` uses (:func:`chained_prefix_keys`).  Causal
  attention makes a full page's K/V a pure function of the tokens up to
  its end, so a parked page is valid for *any* future prompt sharing
  those tokens.

* A later request *revives* the longest cached chain of its prompt's
  aligned prefix pages (:meth:`PagedKVCache.revive`): the pages are
  pinned back into the new slot's table (refcount 0 -> 1) and only the
  prompt suffix needs prefill -- bit-for-bit the K/V the original
  prefill produced, so revived decode matches cold prefill exactly.

* Cached pages are **reclaimable**: they count toward
  :attr:`PagePool.n_available_pages`, and a claim that finds the free
  list empty evicts LRU cache entries on demand -- so admission
  reservations still hold, and ``cache_pages = 0`` (the default) is
  bit-identical to no cache at all.  The pool-level invariant becomes
  ``free + in_use + cached == n_pages``.

**Seating (plan -> seat -> register -> release).**  Where a new
sequence's prefix K/V comes from is decided here, once:
:meth:`PagedKVCache.plan` walks **resident-donor fork -> prefix-cache
revive -> cold allocation** (a live donor is cheapest: no pinning, and
the :class:`PrefixIndex` matches past page alignment; a cached chain
still skips its prefill) and returns a :class:`SeatPlan` saying how many
prompt positions the seat will already hold and whether the pool can
back the rest; :meth:`PagedKVCache.seat` turns a plan into a slot with
exactly one ``fork`` / ``revive`` / ``allocate``.  Once the caller has
prefilled the prompt, :meth:`PagedKVCache.register` makes it findable
as a donor (``prefix_sharing=True`` only), and
:meth:`PagedKVCache.release` retires it -- parking its prompt-prefix
pages when a prefix cache is configured.

Every path preserves the serving engine's equivalence guarantees: a
batch-1 decode step over this cache is **bit-identical** to
``build_engine``'s on the same KV contents, and served tokens are
**identical** at any batch size (see ``docs/serving.md`` for the
architecture walkthrough and the full knob / telemetry reference).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import ModelConfig

DEFAULT_PAGE_SIZE = 16


def chained_prefix_keys(prompt: tuple, page_size: int) -> list:
    """Chained hash keys of every full page-aligned prefix of ``prompt``.

    ``keys[i]`` covers ``prompt[:(i + 1) * page_size]`` and is computed
    as ``hash((keys[i - 1], page_tokens))`` -- vLLM block-hash style, so
    all of a prompt's keys come from one O(len) pass.  This is the
    shared key scheme of the resident :class:`PrefixIndex` and the
    retired-page :class:`PrefixCache`: a prefix parked by one is found
    by the other's walk.  Keys can collide, so users must verify token
    equality on a hit.
    """
    keys = []
    key = 0
    for start in range(0, len(prompt) - page_size + 1, page_size):
        key = hash((key, prompt[start:start + page_size]))
        keys.append(key)
    return keys


class PagePool:
    """Shared K/V page arena plus free-list and reservation accounting.

    Storage is ``(n_pages, n_layers, page_size, d_model)`` for keys and
    values.  Pages are claimed and released by :class:`PagedKVSlot`;
    user code sizes the pool (``n_pages * page_size`` is the total
    position budget shared by all sequences) and otherwise talks to
    :class:`PagedKVCache`.
    """

    def __init__(self, config: ModelConfig, n_pages: int,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if n_pages < 1:
            raise ValueError(f"n_pages must be >= 1, got {n_pages}")
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.config = config
        self.n_pages = n_pages
        self.page_size = page_size
        shape = (n_pages, config.n_layers, page_size, config.d_model)
        self.keys = np.zeros(shape, dtype=np.float32)
        self.values = np.zeros(shape, dtype=np.float32)
        self._free = list(range(n_pages - 1, -1, -1))   # pop() -> lowest index
        self._free_set = set(range(n_pages))
        self._reserved = 0      # worst-case pages promised but not yet claimed
        self._refcount = [0] * n_pages   # page tables mapping each page
        self._n_shared = 0      # pages with refcount > 1 (O(1) telemetry)
        self._cached_set = set()   # refcount-0 pages parked in a PrefixCache
        self.prefix_cache = None   # set by PagedKVCache when cache_pages > 0

    # -- accounting --------------------------------------------------------

    @property
    def n_free_pages(self) -> int:
        """Physically unclaimed pages (ignores reservations and cache)."""
        return len(self._free)

    @property
    def n_cached_pages(self) -> int:
        """Refcount-0 pages retained by the prefix cache (reclaimable)."""
        return len(self._cached_set)

    @property
    def n_available_pages(self) -> int:
        """Pages neither claimed nor reserved -- what admission can promise.

        Cached pages count: they hold no live reference and the
        allocator evicts them on demand, so a reservation backed by a
        cached page is exactly as safe as one backed by a free page.
        """
        return len(self._free) + len(self._cached_set) - self._reserved

    @property
    def n_pages_in_use(self) -> int:
        """Pages mapped by at least one live page table.

        Invariant: ``n_free_pages + n_pages_in_use + n_cached_pages ==
        n_pages`` -- every page is exactly one of free, pinned, cached.
        """
        return self.n_pages - len(self._free) - len(self._cached_set)

    @property
    def n_shared_pages(self) -> int:
        """Pages currently mapped by more than one page table.

        Maintained as a counter on the 1 <-> 2 refcount transitions:
        the scheduler samples this every decode tick, so it must not
        scan the arena.
        """
        return self._n_shared

    def refcount(self, index: int) -> int:
        """Number of page tables mapping page ``index`` (0 = free)."""
        return self._refcount[index]

    @property
    def arena_bytes(self) -> int:
        """Resident bytes of both arenas (the paged engine's KV footprint)."""
        return self.keys.nbytes + self.values.nbytes

    def pages_for(self, n_positions: int) -> int:
        """Pages needed to hold ``n_positions`` sequence positions."""
        if n_positions < 0:
            raise ValueError(f"n_positions must be >= 0, got {n_positions}")
        return -(-n_positions // self.page_size)

    def can_reserve(self, n_positions: int) -> bool:
        return self.pages_for(n_positions) <= self.n_available_pages

    # -- page claims (called by PagedKVSlot) -------------------------------

    def _claim_page(self, reserved: bool) -> int:
        """Pop a free page; unreserved claims cannot eat into reservations.

        Cached (prefix-retained) pages are reclaimable: when the free
        list is empty but cached pages exist, the LRU cache entry is
        evicted to back the claim -- which is why cached pages may count
        toward :attr:`n_available_pages` without weakening the
        no-mid-decode-starvation guarantee.
        """
        claimable = len(self._free) + len(self._cached_set)
        if claimable == 0:
            raise RuntimeError(
                f"page pool exhausted ({self.n_pages} pages of "
                f"{self.page_size} positions)"
            )
        if not reserved and claimable <= self._reserved:
            raise RuntimeError(
                "all free pages are reserved for admitted sequences"
            )
        if not self._free:
            self.prefix_cache.evict_lru()
        index = self._free.pop()
        self._free_set.discard(index)
        self._refcount[index] = 1
        if reserved:
            self._reserved -= 1
        return index

    # -- cached-page transitions (called by PrefixCache) --------------------

    def _park_page(self, index: int) -> None:
        """Sole-reference page -> cached: off the free list, refcount 0."""
        if self._refcount[index] != 1:
            raise ValueError(
                f"cannot park page {index} with refcount "
                f"{self._refcount[index]} (must be the sole reference)"
            )
        self._refcount[index] = 0
        self._cached_set.add(index)

    def _evict_page(self, index: int) -> None:
        """Cached page -> free list (its K/V is forgotten)."""
        if index not in self._cached_set:
            raise ValueError(f"page {index} is not cached")
        self._cached_set.discard(index)
        self._free.append(index)
        self._free_set.add(index)

    def _pin_page(self, index: int) -> None:
        """Cached page -> claimed (refcount 1) with its K/V intact."""
        if index not in self._cached_set:
            raise ValueError(f"page {index} is not cached")
        self._cached_set.discard(index)
        self._refcount[index] = 1

    def _share_page(self, index: int) -> None:
        """Add one page-table reference to an already-claimed page."""
        if self._refcount[index] < 1:
            raise ValueError(f"cannot share free page {index}")
        if self._refcount[index] == 1:
            self._n_shared += 1
        self._refcount[index] += 1

    def _release_pages(self, pages) -> None:
        """Drop one reference per page; free those that reach zero."""
        for index in pages:
            if self._refcount[index] < 1 or index in self._free_set:
                raise ValueError(f"page {index} released twice")
            if self._refcount[index] == 2:
                self._n_shared -= 1
            self._refcount[index] -= 1
            if self._refcount[index] == 0:
                self._free.append(index)
                self._free_set.add(index)

    def _reserve(self, n_pages: int) -> None:
        if n_pages > self.n_available_pages:
            raise RuntimeError(
                f"cannot reserve {n_pages} pages; only "
                f"{self.n_available_pages} available"
            )
        self._reserved += n_pages

    def _cancel_reservation(self, n_pages: int) -> None:
        self._reserved -= n_pages


class PrefixCache:
    """LRU index of retired prompt-prefix pages, keyed by chained hash.

    One entry per cached **page**: key ``i`` covers the page-aligned
    prefix ``prompt[:(i + 1) * page_size]`` (:func:`chained_prefix_keys`,
    the same scheme the resident ``PrefixIndex`` uses), and the entry
    stores that full prefix tuple so hash collisions can never revive
    the wrong K/V.  Per-page granularity is what makes the few-shot
    workload work: a retired prompt's trailing pages mix shared-prefix
    and request-specific tokens, and a later prompt matches exactly the
    pages whose token history it shares -- the lookup walk stops at the
    first divergence.

    Lifecycle (all state transitions go through the pool, which owns the
    ``free + in_use + cached == n_pages`` invariant):

    * :meth:`park` -- at release, each full prompt-prefix page whose
      refcount would drop to 0 is retained instead of freed.  Pages
      still mapped by a resident sharer are released normally (the
      resident is itself discoverable as a fork donor, and parking only
      sole-reference pages keeps cached pages strictly refcount 0).
    * :meth:`lookup` / :meth:`take` -- admission revives the longest
      cached chain: entries are removed and their pages pinned back to
      refcount 1.  Retirement re-parks them, so a hot prefix cycles
      between pinned and cached without ever being re-prefilled.
    * :meth:`evict_lru` -- drops the least-recently-parked entry, either
      to honour the ``cache_pages`` budget or on demand when the pool's
      free list runs dry.  Runs of one retirement are parked deepest
      page first, so eviction sheds the request-specific tail of a
      prefix family before the widely-shared head.
    """

    def __init__(self, pool: PagePool, cache_pages: int):
        if cache_pages < 1:
            raise ValueError(f"cache_pages must be >= 1, got {cache_pages}")
        self.pool = pool
        self.cache_pages = cache_pages
        self._entries: OrderedDict = OrderedDict()  # key -> (page, prefix)
        self._key_by_page: dict = {}                # page -> key
        self.hits = 0            # lookups that matched >= 1 page
        self.misses = 0          # lookups that matched nothing
        self.evictions = 0       # pages dropped (budget or demand)
        self.pages_parked = 0    # pages ever retained at release
        self.pages_revived = 0   # pages ever pinned back into a slot

    def __len__(self) -> int:
        return len(self._entries)

    # -- park (release path) -----------------------------------------------

    def park(self, slot: "PagedKVSlot", prompt_ids) -> int:
        """Retain ``slot``'s full prompt-prefix pages; returns how many.

        Every offered page is consumed -- parked, or released to the
        free list when ineligible (still shared, duplicate key, or
        budget-evicted) -- and removed from the slot's table, so the
        caller's ``reset`` only returns the remaining tail.  Offered
        deepest-first: under a tight budget the shallow pages every
        prefix sibling shares displace this request's specific tail.

        Only a **prefix-closed** run is offered: :meth:`lookup` walks
        from page 0 and stops at the first missing entry, so a page
        that can be neither parked (a resident sharer still maps it --
        that sharer is the better, fork-able source anyway) nor is
        already cached ends the run, and everything past it is released
        outright rather than parked unreachable.
        """
        prompt = tuple(int(t) for t in prompt_ids)
        # Cap by the slot's *advanced* length, not just its table: a
        # preempted sequence can retire mid-prefill with a trailing page
        # claimed but only partially written, and a partial page parked
        # under a full-page key would revive garbage positions.
        n_full = min(len(prompt) // self.pool.page_size,
                     len(slot.page_table),
                     slot.length // self.pool.page_size)
        if n_full == 0:
            return 0
        pool = self.pool
        page_size = pool.page_size
        keys = chained_prefix_keys(prompt[:n_full * page_size], page_size)
        n_run = 0
        for i in range(n_full):
            if pool._refcount[slot.page_table[i]] == 1 or \
                    keys[i] in self._entries:
                n_run = i + 1
            else:
                break
        parked = 0
        for i in reversed(range(n_run)):
            parked += self._offer(
                keys[i], prompt[:(i + 1) * page_size], slot.page_table[i]
            )
        if n_run < n_full:
            pool._release_pages(slot.page_table[n_run:n_full])
        del slot.page_table[:n_full]
        return parked

    def _offer(self, key, prefix: tuple, page: int) -> bool:
        """Drop one reference on ``page``; park it if it reaches zero."""
        pool = self.pool
        if key in self._entries:
            # Already cached from another retirement: keep that entry,
            # but refresh its recency -- offers run deepest-first, so
            # the touch keeps a chain's head at least as recent as the
            # deeper entries just parked behind it, and LRU eviction
            # breaks chains tail-first instead of stranding a tail
            # behind an aged-out head.
            self._entries.move_to_end(key)
            pool._release_pages([page])
            return False
        if pool._refcount[page] > 1:
            # Still mapped by a resident sharer -- which the PrefixIndex
            # already exposes as the better, fork-able source.
            pool._release_pages([page])
            return False
        while len(self._entries) >= self.cache_pages:
            self.evict_lru()
        pool._park_page(page)
        self._entries[key] = (page, prefix)
        self._key_by_page[page] = key
        self.pages_parked += 1
        return True

    # -- revive (admission path) -------------------------------------------

    def lookup(self, prompt_ids) -> list:
        """Cached pages of the longest aligned prefix of ``prompt_ids``.

        Walks pages 0, 1, ... while the chained key hits and the stored
        prefix tuple matches (collision guard); stops one page short of
        covering the whole prompt so at least one token is left to
        prefill for last-position logits.  Returns the page-index chain
        (possibly empty); pass it unmodified to
        :meth:`PagedKVCache.revive`.
        """
        prompt = tuple(int(t) for t in prompt_ids)
        page_size = self.pool.page_size
        cap = (len(prompt) - 1) // page_size
        pages = []
        key = 0
        for i in range(cap):
            key = hash((key, prompt[i * page_size:(i + 1) * page_size]))
            entry = self._entries.get(key)
            if entry is None or entry[1] != prompt[:(i + 1) * page_size]:
                break
            pages.append(entry[0])
        if pages:
            self.hits += 1
        else:
            self.misses += 1
        return pages

    def take(self, pages) -> None:
        """Remove ``pages`` from the cache and pin them (refcount 1)."""
        for page in pages:
            key = self._key_by_page.pop(page)
            del self._entries[key]
            self.pool._pin_page(page)
            self.pages_revived += 1

    # -- eviction ------------------------------------------------------------

    def evict_lru(self) -> int:
        """Free the least-recently-parked page; returns its index."""
        if not self._entries:
            raise RuntimeError("prefix cache is empty; nothing to evict")
        key, (page, _) = self._entries.popitem(last=False)
        del self._key_by_page[page]
        self.pool._evict_page(page)
        self.evictions += 1
        return page


class PrefixIndex:
    """Hash index from page-aligned prompt prefixes to resident slots.

    For every resident sequence the index stores one bucket per
    page-aligned prefix of its prompt (``prompt[:k * page_size]``),
    keyed by a **chained** per-page hash -- ``hash((prev_key,
    page_tokens))``, vLLM block-hash style -- so all of a prompt's
    bucket keys are computed in one O(len) pass rather than re-hashing
    each prefix slice from scratch.  Lookup walks a new prompt's aligned
    prefixes longest-first, verifies token equality on a hit (hashes can
    collide), and then extends the match token by token past the last
    aligned boundary -- the eager partial-page copy in
    :meth:`PagedKVCache.fork` makes non-aligned share lengths safe.

    Prompts shorter than one page are never matched: there is no aligned
    prefix to bucket, and sub-page sharing would save neither a page nor
    enough prefill to matter.
    """

    def __init__(self, page_size: int):
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.page_size = page_size
        self._prompts: dict = {}    # slot index -> prompt tuple
        self._buckets: dict = {}    # hash(aligned prefix) -> set of slots

    def __len__(self) -> int:
        return len(self._prompts)

    def insert(self, slot_index: int, prompt_ids) -> None:
        if slot_index in self._prompts:
            raise ValueError(f"slot {slot_index} already indexed")
        prompt = tuple(int(t) for t in prompt_ids)
        self._prompts[slot_index] = prompt
        for key in chained_prefix_keys(prompt, self.page_size):
            self._buckets.setdefault(key, set()).add(slot_index)

    def remove(self, slot_index: int):
        """Forget ``slot_index``; returns its prompt tuple (None if absent)."""
        prompt = self._prompts.pop(slot_index, None)
        if prompt is None:
            return None
        for key in chained_prefix_keys(prompt, self.page_size):
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard(slot_index)
                if not bucket:
                    del self._buckets[key]
        return prompt

    def lookup(self, prompt_ids) -> tuple:
        """``(slot_index, shared_len)`` of the longest shareable prefix.

        ``shared_len`` is capped at ``len(prompt) - 1``: at least one
        prompt token must be prefilled so the admission has last-position
        logits to sample from.  Returns ``(None, 0)`` when no resident
        prompt shares at least one full page.
        """
        prompt = tuple(int(t) for t in prompt_ids)
        cap = len(prompt) - 1
        keys = chained_prefix_keys(prompt, self.page_size)
        keys = keys[:cap // self.page_size]
        for i in range(len(keys) - 1, -1, -1):
            end = (i + 1) * self.page_size
            bucket = self._buckets.get(keys[i])
            if not bucket:
                continue
            best_slot, best_shared = None, 0
            for slot_index in bucket:
                donor = self._prompts[slot_index]
                if donor[:end] != prompt[:end]:     # hash-collision guard
                    continue
                shared = end
                limit = min(cap, len(donor))
                while shared < limit and donor[shared] == prompt[shared]:
                    shared += 1
                if shared > best_shared:
                    best_slot, best_shared = slot_index, shared
            if best_slot is not None:
                return best_slot, best_shared
        return None, 0


class PagedKVSlot:
    """One sequence's K/V storage: a page table over a :class:`PagePool`.

    Exposes the ``append`` / ``view`` / ``advance`` / ``reset``
    interface of :class:`~repro.model.kvcache.KVCache`, so
    :func:`repro.model.inference.attend_single` runs unchanged on one
    slot of a serving batch.  Pages are claimed lazily: the table
    grows the first time a write touches a position in a new page.
    ``view`` is the only way its K/V reaches a kernel -- a zero-copy
    arena view within one page, one gather of the page table beyond --
    so everything else here edits the table and never the kernel side.
    """

    def __init__(self, pool: PagePool, index: int, max_seq_len: int):
        self._pool = pool
        self.index = index
        self.max_seq_len = max_seq_len
        self.page_table: list = []
        self.length = 0
        self._reservation_left = 0

    @property
    def n_pages(self) -> int:
        return len(self.page_table)

    def reserve(self, n_positions: int) -> None:
        """Pre-commit the worst-case page count for this sequence.

        Called at admission; lazy claims draw the reservation down, and
        :meth:`reset` returns whatever was never used.
        """
        needed = self._pool.pages_for(min(n_positions, self.max_seq_len))
        extra = needed - self.n_pages - self._reservation_left
        if extra > 0:
            self._pool._reserve(extra)
            self._reservation_left += extra

    def _ensure_page(self, page_index: int) -> None:
        while len(self.page_table) <= page_index:
            reserved = self._reservation_left > 0
            self.page_table.append(self._pool._claim_page(reserved))
            if reserved:
                self._reservation_left -= 1

    def _materialise_page(self, table_index: int) -> int:
        """Copy-on-write: replace a shared page with an exclusive copy.

        Claims an *unreserved* page (COW demand is beyond the slot's
        worst case, which charges only unshared pages; drawing the
        reservation down here would starve this slot's own future
        appends), memcpys the shared page, and drops one reference on
        it -- the other mappers keep their data untouched.
        """
        pool = self._pool
        old = self.page_table[table_index]
        new = pool._claim_page(reserved=False)
        pool.keys[new] = pool.keys[old]
        pool.values[new] = pool.values[old]
        pool._release_pages([old])
        self.page_table[table_index] = new
        return new

    def _writable_page(self, table_index: int) -> int:
        """The exclusively-owned arena page behind ``table_index``.

        Claims pages up to ``table_index`` and breaks sharing
        (copy-on-write) first, so the caller may write into it.
        """
        self._ensure_page(table_index)
        page = self.page_table[table_index]
        if self._pool._refcount[page] > 1:
            page = self._materialise_page(table_index)
        return page

    def append(self, layer: int, k: np.ndarray, v: np.ndarray,
               position: int) -> None:
        if position >= self.max_seq_len:
            raise ValueError(
                f"position {position} exceeds slot capacity {self.max_seq_len}"
            )
        table_index, offset = divmod(position, self._pool.page_size)
        page = self._writable_page(table_index)
        self._pool.keys[page, layer, offset] = k
        self._pool.values[page, layer, offset] = v

    def append_rows(self, layer: int, k_rows: np.ndarray,
                    v_rows: np.ndarray, start: int) -> None:
        """Store ``(T, d_model)`` K/V rows at positions ``start..start+T``.

        The block form of :meth:`append` for chunked prefill / verify:
        one page claim, copy-on-write check and slice assignment per
        *page* touched rather than per position.
        """
        n_rows = len(k_rows)
        if start + n_rows > self.max_seq_len:
            raise ValueError(
                f"position {start + n_rows - 1} exceeds slot capacity "
                f"{self.max_seq_len}"
            )
        page_size = self._pool.page_size
        row = 0
        while row < n_rows:
            table_index, offset = divmod(start + row, page_size)
            n = min(page_size - offset, n_rows - row)
            page = self._writable_page(table_index)
            self._pool.keys[page, layer, offset:offset + n] = \
                k_rows[row:row + n]
            self._pool.values[page, layer, offset:offset + n] = \
                v_rows[row:row + n]
            row += n

    def view(self, layer: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """K/V for the first ``length`` positions of ``layer``.

        A zero-copy arena view when the positions fit one page; one
        fancy-index gather of the slot's pages otherwise.
        """
        pool = self._pool
        page_size = pool.page_size
        n_pages = pool.pages_for(length)
        if n_pages > len(self.page_table):
            raise ValueError(
                f"view of {length} positions but only "
                f"{len(self.page_table)} pages appended"
            )
        if n_pages <= 1:
            page = self.page_table[0] if self.page_table else 0
            return (pool.keys[page, layer, :length],
                    pool.values[page, layer, :length])
        pages = self.page_table[:n_pages]
        d_model = pool.config.d_model
        keys = pool.keys[pages, layer]                  # (n_pages, ps, d)
        values = pool.values[pages, layer]
        return (keys.reshape(n_pages * page_size, d_model)[:length],
                values.reshape(n_pages * page_size, d_model)[:length])

    def advance(self, n: int = 1) -> None:
        """Mark ``n`` more positions as filled (after all layers appended)."""
        self.length += n
        if self.length > self.max_seq_len:
            raise ValueError("KV slot overflow")

    def truncate(self, n_positions: int) -> None:
        """Roll the slot back to ``n_positions``, returning tail pages.

        Speculative decoding appends draft-quality K/V past the committed
        length and rewinds rejected positions.  Pages past
        ``pages_for(n_positions)`` drop one reference each -- a page a
        sharer still maps survives untouched (its refcount just
        decrements), so truncate can never free a forked sibling's
        prefix.  Pages that *do* come free are re-credited to this
        slot's reservation: the worst case the scheduler admitted
        against still covers the rewound positions, so the slot must be
        able to re-claim them without competing with other admissions.
        """
        if not 0 <= n_positions <= self.length:
            raise ValueError(
                f"cannot truncate slot of length {self.length} "
                f"to {n_positions}"
            )
        keep = self._pool.pages_for(n_positions)
        dropped = self.page_table[keep:]
        if dropped:
            free_before = self._pool.n_free_pages
            self._pool._release_pages(dropped)
            freed = self._pool.n_free_pages - free_before
            del self.page_table[keep:]
            if freed:
                # The pages just joined the free list, so the reserve
                # cannot fail; the credit keeps admission math exact.
                self._pool._reserve(freed)
                self._reservation_left += freed
        self.length = n_positions

    def reset(self) -> None:
        """Return every page (and any unused reservation) to the pool."""
        if self.page_table:
            self._pool._release_pages(self.page_table)
            self.page_table = []
        if self._reservation_left:
            self._pool._cancel_reservation(self._reservation_left)
            self._reservation_left = 0
        self.length = 0


class PagedBatchView:
    """Padded batched K/V gather over a :class:`PagePool`.

    The batch form of :meth:`PagedKVSlot.view`'s gather case: a
    ``(B, p_max)`` page-index matrix read straight from the slots' page
    tables, rows padded with page 0 (padded positions land at or past
    each row's length, so callers' length masks hide them -- whatever
    data page 0 holds never contributes).  ``gather(layer)`` turns it
    into ``(B, l_max, d_model)`` K/V with **one** arena index per layer
    instead of B page-table walks.  Build it after the decode step's
    first appends have claimed any new page; the matrix is then valid
    for every layer of the step.
    """

    def __init__(self, pool: PagePool, slots, lengths):
        self._pool = pool
        self.lengths = np.asarray(lengths)
        self.l_max = int(self.lengths.max())
        mat = np.zeros((len(slots), pool.pages_for(self.l_max)),
                       dtype=np.intp)
        for i, (slot, length) in enumerate(zip(slots, lengths)):
            needed = pool.pages_for(int(length))
            if needed > len(slot.page_table):
                raise ValueError(
                    f"gather of {needed} pages but only "
                    f"{len(slot.page_table)} pages appended"
                )
            mat[i, :needed] = slot.page_table[:needed]
        self._mat = mat

    def gather(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        pool = self._pool
        B, p_max = self._mat.shape
        width = p_max * pool.page_size
        d_model = pool.config.d_model
        keys = pool.keys[self._mat, layer]              # (B, p_max, ps, d)
        values = pool.values[self._mat, layer]
        return (keys.reshape(B, width, d_model)[:, :self.l_max],
                values.reshape(B, width, d_model)[:, :self.l_max])


class SeatPlan(NamedTuple):
    """Where a new sequence's prefix K/V will come from.

    Built by :meth:`PagedKVCache.plan` / :meth:`PagedKVCache.fork_plan`
    and consumed by :meth:`PagedKVCache.seat` in the same admission (a
    revive plan's ``pages`` leave the prefix cache when seated).
    """

    needed: int                   # worst-case positions the seat must back
    fits: bool                    # whether ``seat`` would succeed right now
    shared: int = 0               # prompt positions the seat already holds
    donor: Optional[PagedKVSlot] = None    # resident slot to fork
    pages: Sequence[int] = ()     # cached page chain to revive


class PagedKVCache:
    """The serving engine's KV store: slot handles over one page arena.

    ``allocate`` / ``release`` / ``n_free`` manage a fixed set of slot
    handles; storage comes from a shared :class:`PagePool` sized by
    ``n_pages`` (default: every slot's worst case at once,
    ``n_slots * ceil(max_seq_len / page_size)``).  Pass a smaller
    ``n_pages`` to run under a memory budget: short sequences then leave
    pages for extra concurrent sequences instead of padding out unused
    slot tails.  ``prefix_sharing`` keeps a :class:`PrefixIndex` over
    :meth:`register`-ed prompts so :meth:`plan` can find fork donors;
    ``cache_pages`` sizes the :class:`PrefixCache` it can revive from.
    """

    def __init__(self, config: ModelConfig, n_slots: int,
                 max_seq_len: int = 0, page_size: int = DEFAULT_PAGE_SIZE,
                 n_pages: int = 0, cache_pages: int = 0,
                 prefix_sharing: bool = False):
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if cache_pages < 0:
            raise ValueError(f"cache_pages must be >= 0, got {cache_pages}")
        self.config = config
        self.n_slots = n_slots
        self.max_seq_len = max_seq_len or config.max_seq_len
        worst_case = -(-self.max_seq_len // page_size)
        self.pool = PagePool(config, n_pages or n_slots * worst_case,
                             page_size)
        self.prefix_index = PrefixIndex(page_size) if prefix_sharing else None
        self.prefix_cache = (
            PrefixCache(self.pool, cache_pages) if cache_pages else None
        )
        if self.prefix_cache is not None:
            # Weak back-reference (the pool only needs it to evict on
            # demand): a strong one closes a pool <-> cache cycle that
            # keeps both K/V arenas of a dropped cache alive until the
            # next full garbage collection.
            self.pool.prefix_cache = weakref.proxy(self.prefix_cache)
        self._slots = [PagedKVSlot(self.pool, i, self.max_seq_len)
                       for i in range(n_slots)]
        self._free = list(range(n_slots - 1, -1, -1))   # pop() -> lowest index
        self._free_set = set(range(n_slots))

    # -- pool passthroughs -------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.pool.page_size

    @property
    def n_pages(self) -> int:
        return self.pool.n_pages

    @property
    def n_pages_in_use(self) -> int:
        return self.pool.n_pages_in_use

    @property
    def n_free_pages(self) -> int:
        return self.pool.n_free_pages

    @property
    def n_available_pages(self) -> int:
        return self.pool.n_available_pages

    @property
    def n_shared_pages(self) -> int:
        return self.pool.n_shared_pages

    @property
    def n_cached_pages(self) -> int:
        return self.pool.n_cached_pages

    @property
    def kv_bytes(self) -> int:
        return self.pool.arena_bytes

    def pages_for(self, n_positions: int) -> int:
        return self.pool.pages_for(n_positions)

    @property
    def max_request_positions(self) -> int:
        """Longest sequence any single request could ever store."""
        return min(self.max_seq_len, self.pool.n_pages * self.page_size)

    def view_batch(self, slots, lengths) -> PagedBatchView:
        """Padded ``(B, l_max, d_model)`` K/V gather for a decode batch."""
        return PagedBatchView(self.pool, slots, lengths)

    # -- seat preconditions (each list written once) -----------------------

    def unshared_page_demand(self, shared_positions: int,
                             max_positions: int) -> int:
        """Pages a seat must be able to claim or reserve right now.

        The full pages of a shared prefix come free -- a fork maps the
        donor's by reference, a revive's are already resident in the
        cache -- so everything else (the eager copy of a fork's partial
        trailing page plus the unshared worst case) must be backed by
        available pages.
        """
        full_shared = shared_positions // self.page_size
        total = min(max_positions or shared_positions, self.max_seq_len)
        return max(self.pool.pages_for(total) - full_shared, 0)

    def _seat_error(self, max_positions: int, available: int,
                    shared_positions: int = 0, kind: str = "shared"):
        """Why a sequence holding ``shared_positions`` cannot be seated now.

        The preconditions all three seats share (a cold seat shares 0
        positions); returns the exception to raise, or None.
        """
        if max_positions and max_positions < shared_positions:
            return ValueError(
                f"max_positions {max_positions} is below the {kind} "
                f"prefix length {shared_positions}"
            )
        if not self._free:
            return RuntimeError("no free KV slots")
        demand = self.unshared_page_demand(shared_positions, max_positions)
        if demand > available:
            return RuntimeError(
                f"cannot seat a {max_positions or shared_positions}-position "
                f"sequence: needs {demand} pages beyond its "
                f"{shared_positions} {kind} positions, {available} "
                f"available of {self.pool.n_pages}"
            )
        return None

    def _fork_error(self, donor: PagedKVSlot, shared_positions: int,
                    max_positions: int):
        if donor._pool is not self.pool:
            return ValueError("donor slot belongs to a different cache")
        if donor.index in self._free_set:
            return ValueError(f"donor slot {donor.index} is not allocated")
        if not 0 < shared_positions <= donor.length:
            return ValueError(
                f"shared_positions must be in [1, {donor.length}] "
                f"(donor length), got {shared_positions}"
            )
        return self._seat_error(max_positions, self.pool.n_available_pages,
                                shared_positions)

    def _revive_error(self, n_cached_pages: int, max_positions: int):
        if self.prefix_cache is None:
            return RuntimeError(
                "cache built without cache_pages > 0 cannot revive"
            )
        if n_cached_pages < 1:
            return ValueError("revive needs at least one cached page")
        revived = n_cached_pages * self.page_size
        if revived > self.max_seq_len:
            return ValueError(
                f"revived prefix length {revived} exceeds max_seq_len "
                f"{self.max_seq_len}"
            )
        # Pinning removes the revived pages from the reclaimable set, so
        # the unshared demand is checked against the availability that
        # remains *after* the pin.
        return self._seat_error(
            max_positions, self.pool.n_available_pages - n_cached_pages,
            revived, kind="revived",
        )

    def can_admit(self, n_positions: int) -> bool:
        """Whether a worst-case ``n_positions`` request fits right now."""
        return self._seat_error(
            n_positions, self.pool.n_available_pages
        ) is None

    def can_fork(self, donor: PagedKVSlot, shared_positions: int,
                 max_positions: int = 0) -> bool:
        """Whether :meth:`fork` with these arguments would succeed now."""
        return self._fork_error(
            donor, shared_positions, max_positions
        ) is None

    def can_revive(self, n_cached_pages: int, max_positions: int = 0) -> bool:
        """Whether :meth:`revive` of that many cached pages fits now."""
        return self._revive_error(n_cached_pages, max_positions) is None

    # -- slot management ---------------------------------------------------

    @property
    def n_free(self) -> int:
        return len(self._free)

    def _take_slot(self) -> PagedKVSlot:
        index = self._free.pop()
        self._free_set.discard(index)
        slot = self._slots[index]
        slot.reset()
        return slot

    def allocate(self, max_positions: int = 0) -> PagedKVSlot:
        """Claim a slot, reserving ``max_positions`` worth of pages.

        ``max_positions=0`` skips reservation: pages are then claimed
        purely lazily, which is fine for direct engine use but forfeits
        the no-mid-decode-starvation guarantee the scheduler relies on.
        """
        error = self._seat_error(max_positions, self.pool.n_available_pages)
        if error is not None:
            raise error
        slot = self._take_slot()
        if max_positions:
            slot.reserve(max_positions)
        return slot

    def fork(self, donor: PagedKVSlot, shared_positions: int,
             max_positions: int = 0) -> PagedKVSlot:
        """Map a new slot onto the donor's first ``shared_positions``.

        Full pages of the shared prefix are mapped **by reference**
        (refcount bumped); a partial trailing page is **copied eagerly**
        so every shared page stays full and immutable.  The new slot
        starts at ``length == shared_positions`` -- its K/V for those
        positions is the donor's, bit for bit -- and ``max_positions``
        reserves only the *unshared* worst case (shared full pages are
        already resident).

        Raises rather than partially forking when the donor is stale,
        the geometry is inconsistent, or the pool cannot back the
        unshared demand.
        """
        error = self._fork_error(donor, shared_positions, max_positions)
        if error is not None:
            raise error
        full_shared, partial = divmod(shared_positions, self.page_size)
        slot = self._take_slot()
        for page in donor.page_table[:full_shared]:
            self.pool._share_page(page)
            slot.page_table.append(page)
        if max_positions:
            slot.reserve(max_positions)   # charges only beyond the table
        if partial:
            slot._ensure_page(full_shared)
            new = slot.page_table[full_shared]
            old = donor.page_table[full_shared]
            self.pool.keys[new] = self.pool.keys[old]
            self.pool.values[new] = self.pool.values[old]
        slot.length = shared_positions
        return slot

    def revive(self, pages, max_positions: int = 0) -> PagedKVSlot:
        """Re-pin a cached prefix chain into a fresh slot.

        ``pages`` must come from :meth:`plan` (or
        :meth:`PrefixCache.lookup`) in the same admission -- the chain
        is consumed: entries leave the cache, each page's refcount goes
        0 -> 1 in the new slot's table, and the slot starts at ``length
        == len(pages) * page_size`` holding the exact K/V the original
        prefill wrote (cached sharing is page-granular -- unlike a fork
        there is no donor to copy a partial trailing page from).
        ``max_positions`` reserves only the worst case beyond the
        revived pages, like a fork.
        """
        error = self._revive_error(len(pages), max_positions)
        if error is not None:
            raise error
        self.prefix_cache.take(pages)
        slot = self._take_slot()
        slot.page_table.extend(pages)
        if max_positions:
            slot.reserve(max_positions)   # charges only beyond the chain
        slot.length = len(pages) * self.page_size
        return slot

    def release(self, slot: PagedKVSlot, prompt_ids=None) -> None:
        """Return a slot, its pages, and any unused reservation.

        With an active prefix cache, the slot's full prompt-prefix pages
        are *parked* (:meth:`PrefixCache.park`) instead of freed, so a
        later request sharing the prefix can revive them.  The parking
        key is the prompt :meth:`register` recorded, unless the caller
        names one: a preempting scheduler passes the *prefilled prompt
        prefix* (possibly shorter than the prompt when a sequence is
        evicted mid-prefill, before it was registered).  Only
        prefill-path positions may be parked -- decode positions go
        through the sparse executor, so their K/V is not the pure
        function of the tokens that revival assumes.  With neither a
        prompt nor a prefix cache this is a plain release.
        """
        if slot._pool is not self.pool:
            raise ValueError("slot belongs to a different cache")
        if slot.index in self._free_set:
            raise ValueError(f"slot {slot.index} released twice")
        if self.prefix_index is not None:
            registered = self.prefix_index.remove(slot.index)
            if prompt_ids is None:
                prompt_ids = registered
        if prompt_ids is not None and self.prefix_cache is not None:
            self.prefix_cache.park(slot, prompt_ids)
        slot.reset()
        self._free.append(slot.index)
        self._free_set.add(slot.index)

    # -- seating: where a new sequence's prefix comes from -----------------

    def register(self, slot: PagedKVSlot, prompt_ids) -> None:
        """Make a just-prefilled sequence's prompt findable as a donor."""
        if self.prefix_index is not None:
            self.prefix_index.insert(slot.index, prompt_ids)

    def fork_plan(self, prompt_ids, needed: int = 0) -> SeatPlan:
        """The resident-donor stage of :meth:`plan`, on its own.

        The donor is the registered sequence whose prompt shares the
        longest prefix with ``prompt_ids`` (at least one full page, at
        most ``len(prompt_ids) - 1`` so one token is left to prefill
        for last-position logits); ``donor is None`` when there is
        none, and ``fits`` says whether forking it can be backed now.
        """
        if self.prefix_index is None or len(prompt_ids) < 2:
            return SeatPlan(needed, False)
        index, shared = self.prefix_index.lookup(prompt_ids)
        if index is None:
            return SeatPlan(needed, False)
        donor = self._slots[index]
        return SeatPlan(needed, self.can_fork(donor, shared, needed),
                        shared, donor)

    def plan(self, prompt_ids, needed: int = 0) -> SeatPlan:
        """How to seat a ``needed``-position sequence with this prompt.

        The cascade, cheapest first: fork a resident donor, else revive
        the longest cached chain, else allocate cold (``shared == 0``;
        the only plan that can come back with ``fits=False``).
        """
        fork = self.fork_plan(prompt_ids, needed)
        if fork.fits:
            return fork
        if self.prefix_cache is not None and len(prompt_ids) >= 2:
            pages = self.prefix_cache.lookup(prompt_ids)
            if self.can_revive(len(pages), needed):
                return SeatPlan(needed, True, len(pages) * self.page_size,
                                None, pages)
        return SeatPlan(needed, self.can_admit(needed))

    def seat(self, plan: SeatPlan) -> PagedKVSlot:
        """Claim the slot ``plan`` describes; ``length == plan.shared``."""
        if plan.donor is not None:
            return self.fork(plan.donor, plan.shared, plan.needed)
        if plan.pages:
            return self.revive(plan.pages, plan.needed)
        return self.allocate(plan.needed)
