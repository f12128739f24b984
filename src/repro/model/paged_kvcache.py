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

* ``view(layer, length)`` gathers the sequence's pages back into a
  contiguous ``(length, d_model)`` K/V for the attention kernel.  Three
  paths, fastest first: a sequence within a single page returns a
  zero-copy arena view; a page table that happens to be one consecutive
  arena run is rebuilt with a basic slice + reshape (no index array);
  scattered pages use a fancy-index gather.  All three produce the same
  float values, so attention output -- and therefore decode output --
  does not depend on how a sequence's pages are laid out.

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
  hash :class:`repro.serving.engine.PrefixIndex` uses
  (:func:`chained_prefix_keys`).  Causal attention makes a full page's
  K/V a pure function of the tokens up to its end, so a parked page is
  valid for *any* future prompt sharing those tokens.

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

Every path preserves the serving engine's equivalence guarantees: a
batch-1 decode step over this cache is **bit-identical** to
``build_engine``'s on the same KV contents, and served tokens are
**identical** at any batch size (see ``docs/serving.md`` for the
architecture walkthrough and the full knob / telemetry reference).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from .config import ModelConfig

DEFAULT_PAGE_SIZE = 16


def chained_prefix_keys(prompt: tuple, page_size: int) -> list:
    """Chained hash keys of every full page-aligned prefix of ``prompt``.

    ``keys[i]`` covers ``prompt[:(i + 1) * page_size]`` and is computed
    as ``hash((keys[i - 1], page_tokens))`` -- vLLM block-hash style, so
    all of a prompt's keys come from one O(len) pass.  This is the
    shared key scheme of the resident
    :class:`repro.serving.engine.PrefixIndex` and the retired-page
    :class:`PrefixCache`: a prefix parked by one is found by the other's
    walk.  Keys can collide, so users must verify token equality on a
    hit.
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


class PagedKVSlot:
    """One sequence's K/V storage: a page table over a :class:`PagePool`.

    Exposes the ``append`` / ``view`` / ``advance`` / ``reset``
    interface of :class:`~repro.model.kvcache.KVCache`, so
    :func:`repro.model.inference.attend_single` runs unchanged on one
    slot of a serving batch.  Pages are claimed lazily: the table
    grows the first time a write touches a position in a new page.
    """

    def __init__(self, pool: PagePool, index: int, max_seq_len: int):
        self._pool = pool
        self.index = index
        self.max_seq_len = max_seq_len
        self.page_table: list = []
        self.length = 0
        self._reservation_left = 0
        # Bumped whenever an *existing* page-table entry can change
        # (reset, copy-on-write retarget).  Pure appends leave it alone,
        # which is what lets batched-gather plans extend incrementally
        # instead of re-reading the table every decode step.
        self.generation = 0

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
        self.generation += 1
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

        Zero-copy when the positions fit one page; basic-slice rebuild
        when the page table is one consecutive arena run; fancy-index
        gather otherwise.
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
        first, last = pages[0], pages[-1]
        d_model = pool.config.d_model
        if last - first == n_pages - 1 and pages == list(range(first, last + 1)):
            keys = pool.keys[first:last + 1, layer]
            values = pool.values[first:last + 1, layer]
        else:
            keys = pool.keys[pages, layer]
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
            self.generation += 1
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
        self.generation += 1


class _SlotGatherPlan:
    """Cached page-index array for one slot, extended append-only.

    A decode step only ever *appends* positions, so between steps a
    slot's page table changes by at most one trailing entry; the plan
    keeps a numpy copy of the table and syncs just the new tail.  The
    slot's :attr:`~PagedKVSlot.generation` counter guards the cases
    where existing entries *can* change (reset, copy-on-write): a bump
    rebuilds the plan from scratch.
    """

    __slots__ = ("generation", "n_pages", "pages")

    def __init__(self):
        self.generation = -1
        self.n_pages = 0
        self.pages = np.empty(4, dtype=np.intp)

    def sync(self, slot: "PagedKVSlot", needed: int) -> np.ndarray:
        """The slot's first ``needed`` page indices as an array view."""
        if needed > len(slot.page_table):
            raise ValueError(
                f"gather of {needed} pages but only "
                f"{len(slot.page_table)} pages appended"
            )
        if self.generation != slot.generation:
            self.generation = slot.generation
            self.n_pages = 0
        if needed > self.n_pages:
            if needed > len(self.pages):
                grown = np.empty(max(needed, 2 * len(self.pages)),
                                 dtype=np.intp)
                grown[:self.n_pages] = self.pages[:self.n_pages]
                self.pages = grown
            self.pages[self.n_pages:needed] = \
                slot.page_table[self.n_pages:needed]
            self.n_pages = needed
        return self.pages[:needed]


class PagedBatchView:
    """Padded batched K/V gather over a :class:`PagePool`.

    Built from per-slot gather plans: a ``(B, p_max)`` page-index
    matrix, rows padded with page 0 (padded positions land at or past
    each row's length, so callers' length masks hide them -- whatever
    data page 0 holds never contributes).  ``gather(layer)`` turns it
    into ``(B, l_max, d_model)`` K/V with **one** arena index per layer
    instead of B page-table walks.

    Reuses :meth:`PagedKVSlot.view`'s contiguous-run detection at batch
    granularity: when the padded matrix happens to enumerate one
    consecutive arena run row-major (common early in a drain, when
    equal-length sequences claimed consecutive pages), the gather uses
    a basic slice instead of a fancy index.  Both paths copy -- the
    layer axis sits between the page and position axes, so the reshape
    must materialise -- but the slice path skips the index-array
    machinery (~10% faster at decode shapes), same as the run path of
    the single-sequence ``view``.
    """

    def __init__(self, pool: PagePool, rows, lengths):
        self._pool = pool
        self.lengths = np.asarray(lengths)
        self.l_max = int(self.lengths.max())
        p_max = max(len(row) for row in rows)
        mat = np.zeros((len(rows), p_max), dtype=np.intp)
        for i, row in enumerate(rows):
            mat[i, :len(row)] = row
        self._mat = mat
        flat = mat.ravel()
        self._contig_start = None
        if flat[-1] - flat[0] == flat.size - 1 and \
                np.array_equal(flat, np.arange(flat[0], flat[-1] + 1)):
            self._contig_start = int(flat[0])

    def gather(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        pool = self._pool
        B, p_max = self._mat.shape
        width = p_max * pool.page_size
        d_model = pool.config.d_model
        if self._contig_start is not None:
            start, stop = self._contig_start, self._contig_start + B * p_max
            keys = pool.keys[start:stop, layer]
            values = pool.values[start:stop, layer]
        else:
            keys = pool.keys[self._mat, layer]      # (B, p_max, ps, d)
            values = pool.values[self._mat, layer]
        return (keys.reshape(B, width, d_model)[:, :self.l_max],
                values.reshape(B, width, d_model)[:, :self.l_max])


class PagedKVCache:
    """The serving engine's KV store: slot handles over one page arena.

    ``allocate`` / ``release`` / ``n_free`` manage a fixed set of slot
    handles; storage comes from a shared :class:`PagePool` sized by
    ``n_pages`` (default: every slot's worst case at once,
    ``n_slots * ceil(max_seq_len / page_size)``).  Pass a smaller
    ``n_pages`` to run under a memory budget: short sequences then leave
    pages for extra concurrent sequences instead of padding out unused
    slot tails.
    """

    def __init__(self, config: ModelConfig, n_slots: int,
                 max_seq_len: int = 0, page_size: int = DEFAULT_PAGE_SIZE,
                 n_pages: int = 0, cache_pages: int = 0):
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
        self._gather_plans = [_SlotGatherPlan() for _ in range(n_slots)]

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

    def can_admit(self, n_positions: int) -> bool:
        """Whether a worst-case ``n_positions`` request fits right now."""
        return bool(self._free) and self.pool.can_reserve(n_positions)

    def view_batch(self, slots, lengths) -> PagedBatchView:
        """Padded ``(B, l_max, d_model)`` K/V gather for a decode batch.

        The per-slot page-index arrays come from cached
        :class:`_SlotGatherPlan` objects, so between decode steps only
        newly-appended pages are read from the python page tables; the
        returned view performs one arena gather per layer.
        """
        rows = [
            self._gather_plans[slot.index].sync(
                slot, self.pool.pages_for(int(length))
            )
            for slot, length in zip(slots, lengths)
        ]
        return PagedBatchView(self.pool, rows, lengths)

    # -- slot management ---------------------------------------------------

    @property
    def n_free(self) -> int:
        return len(self._free)

    def allocate(self, max_positions: int = 0) -> PagedKVSlot:
        """Claim a slot, reserving ``max_positions`` worth of pages.

        ``max_positions=0`` skips reservation: pages are then claimed
        purely lazily, which is fine for direct engine use but forfeits
        the no-mid-decode-starvation guarantee the scheduler relies on.
        """
        if not self._free:
            raise RuntimeError("no free KV slots")
        if max_positions and not self.pool.can_reserve(max_positions):
            raise RuntimeError(
                f"cannot admit a {max_positions}-position sequence: "
                f"{self.pool.n_available_pages} pages available of "
                f"{self.pool.n_pages}"
            )
        index = self._free.pop()
        self._free_set.discard(index)
        slot = self._slots[index]
        slot.reset()
        if max_positions:
            slot.reserve(max_positions)
        return slot

    def release(self, slot: PagedKVSlot, prompt_ids=None) -> None:
        """Return a slot, its pages, and any unused reservation.

        With ``prompt_ids`` (the sequence's prompt) and an active prefix
        cache, the slot's full prompt-prefix pages are *parked* in the
        cache (:meth:`PrefixCache.park`) instead of freed, so a later
        request sharing the prefix can :meth:`revive` them.  Without
        either, behaviour is exactly the pre-cache release.
        """
        if slot._pool is not self.pool:
            raise ValueError("slot belongs to a different cache")
        if slot.index in self._free_set:
            raise ValueError(f"slot {slot.index} released twice")
        if prompt_ids is not None and self.prefix_cache is not None:
            self.prefix_cache.park(slot, prompt_ids)
        slot.reset()
        self._free.append(slot.index)
        self._free_set.add(slot.index)

    # -- prefix sharing ----------------------------------------------------

    def fork_page_demand(self, shared_positions: int,
                         max_positions: int) -> int:
        """Pages a fork must be able to claim or reserve right now.

        The donor's full prefix pages come free (they are shared by
        reference); everything else -- the eager copy of a partial
        trailing page plus the unshared worst case -- must be backed by
        available pages.
        """
        full_shared = shared_positions // self.page_size
        total = min(max_positions or shared_positions, self.max_seq_len)
        return max(self.pool.pages_for(total) - full_shared, 0)

    def can_fork(self, donor: PagedKVSlot, shared_positions: int,
                 max_positions: int = 0) -> bool:
        """Whether :meth:`fork` with these arguments would succeed now."""
        if not self._free or donor.index in self._free_set:
            return False
        if not 0 < shared_positions <= donor.length:
            return False
        if max_positions and max_positions < shared_positions:
            return False
        demand = self.fork_page_demand(shared_positions, max_positions)
        return demand <= self.pool.n_available_pages

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
        if donor._pool is not self.pool:
            raise ValueError("donor slot belongs to a different cache")
        if donor.index in self._free_set:
            raise ValueError(f"donor slot {donor.index} is not allocated")
        if not 0 < shared_positions <= donor.length:
            raise ValueError(
                f"shared_positions must be in [1, {donor.length}] "
                f"(donor length), got {shared_positions}"
            )
        if max_positions and max_positions < shared_positions:
            raise ValueError(
                f"max_positions {max_positions} is below the shared "
                f"prefix length {shared_positions}"
            )
        if not self._free:
            raise RuntimeError("no free KV slots")
        full_shared, partial = divmod(shared_positions, self.page_size)
        demand = self.fork_page_demand(shared_positions, max_positions)
        if demand > self.pool.n_available_pages:
            raise RuntimeError(
                f"cannot fork a {shared_positions}-position prefix: needs "
                f"{demand} unshared pages, {self.pool.n_available_pages} "
                f"available"
            )
        index = self._free.pop()
        self._free_set.discard(index)
        slot = self._slots[index]
        slot.reset()
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

    # -- cross-request prefix cache ----------------------------------------

    def find_cached_prefix(self, prompt_ids) -> tuple:
        """``(pages, positions)`` of the longest revivable cached prefix.

        ``pages`` is the chain to pass to :meth:`revive`; ``positions``
        is always ``len(pages) * page_size`` (cached sharing is
        page-granular -- unlike a fork there is no donor to copy a
        partial trailing page from).  ``([], 0)`` when no prefix cache
        is configured or nothing matches.
        """
        if self.prefix_cache is None:
            return [], 0
        pages = self.prefix_cache.lookup(prompt_ids)
        return pages, len(pages) * self.page_size

    def revive_page_demand(self, n_cached_pages: int,
                           max_positions: int) -> int:
        """Pages a revive must be able to claim or reserve right now.

        Mirrors :meth:`fork_page_demand`: the revived pages are already
        resident (they come out of the cache), so only the worst case
        *beyond* them must be backed.
        """
        revived = n_cached_pages * self.page_size
        total = min(max_positions or revived, self.max_seq_len)
        return max(self.pool.pages_for(total) - n_cached_pages, 0)

    def can_revive(self, n_cached_pages: int, max_positions: int = 0) -> bool:
        """Whether :meth:`revive` of that many cached pages fits now.

        Pinning removes the revived pages from the reclaimable set, so
        the unshared demand is checked against the availability that
        remains *after* the pin.
        """
        if not self._free or n_cached_pages < 1:
            return False
        revived = n_cached_pages * self.page_size
        if max_positions and max_positions < revived:
            return False
        demand = self.revive_page_demand(n_cached_pages, max_positions)
        return demand <= self.pool.n_available_pages - n_cached_pages

    def revive(self, pages, max_positions: int = 0) -> PagedKVSlot:
        """Re-pin a cached prefix chain into a fresh slot.

        ``pages`` must come from :meth:`find_cached_prefix` (or
        :meth:`PrefixCache.lookup`) in the same admission -- the chain
        is consumed: entries leave the cache, each page's refcount goes
        0 -> 1 in the new slot's table, and the slot starts at ``length
        == len(pages) * page_size`` holding the exact K/V the original
        prefill wrote.  ``max_positions`` reserves only the worst case
        beyond the revived pages, like a fork.
        """
        if self.prefix_cache is None:
            raise RuntimeError(
                "cache built without cache_pages > 0 cannot revive"
            )
        n_cached = len(pages)
        if n_cached < 1:
            raise ValueError("revive needs at least one cached page")
        revived = n_cached * self.page_size
        if max_positions and max_positions < revived:
            raise ValueError(
                f"max_positions {max_positions} is below the revived "
                f"prefix length {revived}"
            )
        if revived > self.max_seq_len:
            raise ValueError(
                f"revived prefix length {revived} exceeds max_seq_len "
                f"{self.max_seq_len}"
            )
        if not self._free:
            raise RuntimeError("no free KV slots")
        demand = self.revive_page_demand(n_cached, max_positions)
        if demand > self.pool.n_available_pages - n_cached:
            raise RuntimeError(
                f"cannot revive a {revived}-position prefix: needs "
                f"{demand} pages beyond the cached chain, "
                f"{self.pool.n_available_pages - n_cached} available"
            )
        self.prefix_cache.take(pages)
        index = self._free.pop()
        self._free_set.discard(index)
        slot = self._slots[index]
        slot.reset()
        slot.page_table.extend(pages)
        if max_positions:
            slot.reserve(max_positions)   # charges only beyond the chain
        slot.length = revived
        return slot
