"""Page-granular KV cache for the serving engine (vLLM-style paging).

The serving engine's one KV store.  A fixed per-slot store would hold a
full ``max_seq_len x n_layers x d_model`` array per sequence, so a
10-token request would cost the same memory as the longest request the
engine accepts and the concurrent-sequence ceiling would be
``budget / worst_case`` (that store is this one's degenerate geometry,
``page_size=max_seq_len, n_pages=n_slots``).  This module shares a page
arena instead:

* :class:`PagePool` owns the storage -- two **layer-major** ``(n_layers,
  n_pages, page_size, d_model)`` arenas (keys and values) plus the free
  pages.  A *page* is ``page_size`` consecutive sequence positions of
  **all** layers, so pages are claimed once per ``page_size`` tokens
  rather than once per layer; within one layer, consecutive pages are
  consecutive arena rows.

* :class:`PagedKVSlot` is one sequence's handle: a *page table* (list of
  arena page indices, in sequence order) that grows lazily as
  ``append`` touches new positions.  Logical position ``p`` lives at
  ``arena[layer, page_table[p // page_size], p % page_size]``.

* **Home runs.**  Slot ``s`` owns a run of *home pages*, ``[s * R, (s +
  1) * R)`` with ``R = pages_for(max_seq_len)``, and a lazy claim for
  table index ``j`` takes home page ``s * R + j`` whenever it is free.
  Claims with no home (copy-on-write, overflow) take the *spare* pages
  past the last home run before another slot's home page.  A slot whose
  table is its home run holds each layer's K/V in one contiguous arena
  slice.  Homes exist for ``min(n_slots, n_pages // R)`` slots, so a
  budgeted pool may have fewer homes than slots, or none.

* ``view(layer, length)`` hands the attention kernel a contiguous
  ``(length, d_model)`` K/V: a zero-copy arena view (start pointer and
  strides) when the positions lie within one page or within the slot's
  home run; otherwise **one** fancy-index gather of the slot's pages.
  Every attention pass reads each slot through its own ``view``, so
  how a sequence's pages are laid out in the arena never changes a
  float: seat / COW / truncate manipulate page tables and never touch
  the kernel side.

Admission safety uses **worst-case reservation**: the scheduler reserves
``ceil(needed_positions / page_size)`` pages when it admits a request
(:meth:`PagedKVCache.allocate` with ``max_positions``), and lazy page
claims draw the reservation down.  ``n_available_pages`` subtracts
outstanding reservations from the free list, so a request admitted
against it can never starve mid-decode, while memory *occupancy* (what
:attr:`n_pages_in_use` reports) still tracks actual, not worst-case,
lengths.

**Prefix sharing: one prefix table (refcount / copy-on-write).**
Sequences with a common prompt prefix map the *same* physical pages:

* Every claimed page carries a **refcount** -- the number of page tables
  mapping it.  ``_claim_page`` starts it at 1, ``_share_page`` increments
  it, and releasing a page decrements it, so releasing one sharer can
  never free a page another still maps.

* The pool's **prefix table** indexes prompt pages by the chained
  per-page hash of the tokens up to their end (:func:`chained_prefix_keys`,
  vLLM block-hash style) and lists each key's child pages under it: a
  radix tree with page-sized edges, as in SGLang's RadixAttention.  An
  entry stores the page, its own tokens and its parent's key.  Causal
  attention makes a prompt page's K/V a pure function of the tokens up
  to it, so an indexed page is valid for *any* prompt that shares them.
  A live prompt's partial last page is indexed too, as a leaf holding
  only its prompt tokens.  A page enters at :meth:`PagedKVCache.register`
  (or at ``release`` with ``prompt_ids``, for a sequence preempted
  mid-prefill) and leaves when it is freed.

* A page's refcount alone says whether an indexed page is *resident*
  (> 0) or *parked* (0: off the free list, in the pool's LRU, which
  holds at most ``cache_pages`` full pages; a partial page is freed).
  Parked pages are reclaimable: they count toward
  :attr:`PagePool.n_available_pages`, and a claim that finds no free
  page evicts the LRU head, so reservations still hold.  A parked
  page's parked ancestors are always more recent, so eviction breaks a
  chain tail first.  ``cache_pages = 0`` (the default) frees a page
  when its refcount reaches 0, which keeps resident matching only.
  The pool-level invariant is ``free + in_use + cached == n_pages``.

* **Seating (plan -> seat -> register -> release).**
  :meth:`PagedKVCache.plan` walks the prompt's chain once and takes the
  longest token match over every indexed page, whatever its refcount:
  full pages by key, then the child page (full, or a live prompt's
  partial last page) that shares the most further tokens.  It returns
  a :class:`SeatPlan` saying how many prompt positions the seat will
  already hold and whether the pool can back the rest.
  :meth:`PagedKVCache.seat` maps each full matched page (a share if
  resident, a pin if parked) and **eagerly copies** the page where the
  match ends mid-page, pinning the source across the copy so
  that claiming the destination cannot evict it.  Shared pages are
  therefore always full, and the new sequence's writes -- which only
  ever land at ``position >= shared`` -- go to pages it owns.  The seat
  reserves only the worst case beyond its full shared pages, so
  admission of correlated requests gets strictly cheaper.

* ``append`` still guards with **copy-on-write**: a write landing on a
  shared page, or on an indexed page's tokens, first claims a fresh
  page, memcpys the old page's contents, drops one reference on it,
  and retargets the slot's table entry.  The engine path never
  triggers it (see above); it exists so direct cache users rewriting
  history cannot corrupt a sibling sequence or the table.

Every path preserves the serving engine's numerical contract (stated in
``docs/serving.md``, with the architecture walkthrough and the full
knob / telemetry reference): page layout, sharing and caching never
change a float, so a batch-1 decode step over this cache is
**bit-identical** to ``build_engine``'s on the same KV contents.
"""

from __future__ import annotations

import contextlib
import mmap
from collections import OrderedDict
from typing import NamedTuple, Sequence

import numpy as np

from .config import ModelConfig

DEFAULT_PAGE_SIZE = 16


def chained_prefix_keys(prompt: tuple, page_size: int) -> list:
    """Chained hash keys of every full page-aligned prefix of ``prompt``.

    ``keys[i]`` covers ``prompt[:(i + 1) * page_size]`` and is computed
    as ``hash((keys[i - 1], page_tokens))`` -- vLLM block-hash style, so
    all of a prompt's keys come from one O(len) pass.  These are the
    prefix table's keys.  Keys can collide, so users must verify token
    equality on a hit.
    """
    keys = []
    key = 0
    for start in range(0, len(prompt) - page_size + 1, page_size):
        key = hash((key, prompt[start:start + page_size]))
        keys.append(key)
    return keys


def _zeroed_arena(shape: tuple) -> np.ndarray:
    """A zero-filled float32 array on private anonymous small-page memory.

    Home runs spread a few live pages over the whole arena; with
    transparent hugepages each touched page would make its 2 MB
    neighbourhood resident, so the arena opts out where the platform
    allows it and stays resident only where K/V was written.  The
    mapping is private (copy-on-write across ``fork()``, like numpy's
    own allocations) where the platform has the flag.
    """
    private = ({"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE")
               else {})
    buf = mmap.mmap(-1, int(np.prod(shape)) * 4, **private)   # zero-filled
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        with contextlib.suppress(OSError):   # kernel without hugepages
            buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float32).reshape(shape)


class PagePool:
    """Shared K/V page arena plus free-list, reservation and prefix table.

    Storage is layer-major ``(n_layers, n_pages, page_size, d_model)``
    for keys and values; ``flat_keys`` / ``flat_values`` are the same
    memory as ``(n_layers, n_pages * page_size, d_model)`` rows.  The
    first ``n_homes * home_run`` pages are the slots' home runs (see the
    module docstring), the rest are spare.  Pages are claimed and
    released by :class:`PagedKVSlot`; user code sizes the pool
    (``n_pages * page_size`` is the total position budget shared by all
    sequences) and otherwise talks to :class:`PagedKVCache`.

    The pool also owns the prefix table and its LRU of parked pages, so
    every page transition -- claim, share, pin, park, evict, free --
    happens in this one class, which keeps ``free + in_use + cached ==
    n_pages``.
    """

    def __init__(self, config: ModelConfig, n_pages: int,
                 page_size: int = DEFAULT_PAGE_SIZE, n_homes: int = 0,
                 home_run: int = 0, cache_pages: int = 0):
        if n_pages < 1:
            raise ValueError(f"n_pages must be >= 1, got {n_pages}")
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        if cache_pages < 0:
            raise ValueError(f"cache_pages must be >= 0, got {cache_pages}")
        self.config = config
        self.n_pages = n_pages
        self.page_size = page_size
        self.n_homes = n_homes
        self.home_run = home_run
        self.cache_pages = cache_pages
        shape = (config.n_layers, n_pages, page_size, config.d_model)
        self.keys = _zeroed_arena(shape)
        self.values = _zeroed_arena(shape)
        rows = (config.n_layers, n_pages * page_size, config.d_model)
        self.flat_keys = self.keys.reshape(rows)
        self.flat_values = self.values.reshape(rows)
        # Free pages as two LIFO stacks with O(1) removal of a given
        # page (a home claim): popitem() takes the last one pushed.
        # Spare pages start lowest-first; foreign home pages are taken
        # from the last slot's run down, the run least likely in use.
        n_home_pages = n_homes * home_run
        self._free_spare = dict.fromkeys(
            range(n_pages - 1, n_home_pages - 1, -1))
        self._free_homes = dict.fromkeys(range(n_home_pages))
        self._reserved = 0      # worst-case pages promised but not yet claimed
        self._refcount = [0] * n_pages   # page tables mapping each page
        self._n_shared = 0      # pages with refcount > 1 (O(1) telemetry)
        # The prefix table: a radix tree with page-sized edges.
        self._table: dict = {}      # key -> (page, its tokens, parent key)
        self._key_of: dict = {}     # indexed page -> its key
        self._children: dict = {}   # parent key -> {child key: None}
        self._parked = OrderedDict()   # refcount-0 indexed pages, LRU first
        self.evictions = 0      # parked pages freed (budget or demand)

    # -- accounting --------------------------------------------------------

    @property
    def n_free_pages(self) -> int:
        """Physically unclaimed pages (ignores reservations and cache)."""
        return len(self._free_spare) + len(self._free_homes)

    @property
    def n_cached_pages(self) -> int:
        """Parked pages: indexed, refcount 0, reclaimable."""
        return len(self._parked)

    @property
    def n_available_pages(self) -> int:
        """Pages neither claimed nor reserved -- what admission can promise.

        Parked pages count: they hold no live reference and the
        allocator evicts them on demand, so a reservation backed by a
        parked page is exactly as safe as one backed by a free page.
        """
        return self.n_free_pages + len(self._parked) - self._reserved

    @property
    def n_pages_in_use(self) -> int:
        """Pages mapped by at least one live page table.

        Invariant: ``n_free_pages + n_pages_in_use + n_cached_pages ==
        n_pages`` -- every page is exactly one of free, mapped, parked.
        """
        return self.n_pages - self.n_free_pages - len(self._parked)

    @property
    def n_shared_pages(self) -> int:
        """Pages currently mapped by more than one page table.

        Maintained as a counter on the 1 <-> 2 refcount transitions:
        the scheduler samples this every decode tick, so it must not
        scan the arena.
        """
        return self._n_shared

    def refcount(self, index: int) -> int:
        """Number of page tables mapping page ``index`` (0 = free or parked)."""
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

    # -- page transitions --------------------------------------------------

    def _claim_page(self, reserved: bool, home: int = -1) -> int:
        """Claim a free page; unreserved claims cannot eat into reservations.

        ``home`` (a page index, or -1 for none) is taken when it is
        free; otherwise a spare page, and only then another slot's home
        page.  Parked pages are reclaimable: when no page is free, the
        LRU head is evicted to back the claim -- which is why parked
        pages may count toward :attr:`n_available_pages` without
        weakening the no-mid-decode-starvation guarantee.  A parked home
        page is never evicted for being a home: eviction happens exactly
        when no page is free, so the LRU order does not depend on where
        homes lie.
        """
        claimable = self.n_free_pages + len(self._parked)
        if claimable == 0:
            raise RuntimeError(
                f"page pool exhausted ({self.n_pages} pages of "
                f"{self.page_size} positions)"
            )
        if not reserved and claimable <= self._reserved:
            raise RuntimeError(
                "all free pages are reserved for admitted sequences"
            )
        if home in self._free_homes:
            del self._free_homes[home]
            index = home
        else:
            if not (self._free_spare or self._free_homes):
                self._evict()
            index = (self._free_spare or self._free_homes).popitem()[0]
        self._refcount[index] = 1
        if reserved:
            self._reserved -= 1
        return index

    def _share_page(self, index: int) -> None:
        """Add one page-table reference: shares a mapped page, pins a
        parked one back to refcount 1 with its K/V intact."""
        if index in self._parked:
            del self._parked[index]
        elif self._refcount[index] < 1:
            raise ValueError(f"cannot share free page {index}")
        elif self._refcount[index] == 1:
            self._n_shared += 1
        self._refcount[index] += 1

    def _release_pages(self, pages) -> None:
        """Drop one reference per page; a page reaching zero is parked
        when it is an indexed full page and the cache has a budget, else
        freed: a prompt's partial last page is matched only while its
        sequence lives."""
        for index in pages:
            if self._refcount[index] < 1:
                raise ValueError(f"page {index} released twice")
            if self._refcount[index] == 2:
                self._n_shared -= 1
            self._refcount[index] -= 1
            if self._refcount[index] == 0:
                key = self._key_of.get(index)
                if self.cache_pages and key is not None and \
                        len(self._table[key][1]) == self.page_size:
                    self._park(index)
                else:
                    self._free_page(index)

    def _park(self, index: int) -> None:
        """Mapped -> parked, as the LRU's newest entry.

        Its parked ancestors are touched after it, so a chain's head is
        always more recent than its tail and eviction breaks chains
        tail-first instead of stranding a tail behind an aged-out head.
        """
        self._parked[index] = None
        key = self._table[self._key_of[index]][2]
        while key in self._table:
            page, _, key = self._table[key]
            if page in self._parked:
                self._parked.move_to_end(page)
        while len(self._parked) > self.cache_pages:
            self._evict()

    def _evict(self) -> None:
        """Free the least-recently-parked page (its K/V is forgotten)."""
        self._free_page(self._parked.popitem(last=False)[0])
        self.evictions += 1

    def _free_page(self, index: int) -> None:
        """Return ``index`` to the free stack of its kind, unindexed.

        Every entry below it leaves the table too, and parked pages
        among them are freed: a lookup reaches a page only through its
        parent.  This keeps every indexed page hanging off an indexed
        parent, which is what lets a lookup verify a page by its own
        tokens and its parent key.
        """
        freed = [index]
        key = self._key_of.get(index)
        if key is not None:
            parent = self._table[key][2]
            siblings = self._children[parent]
            del siblings[key]
            if not siblings:
                del self._children[parent]
            below = [key]
            while below:
                key = below.pop()
                page = self._table.pop(key)[0]
                del self._key_of[page]
                below.extend(self._children.pop(key, ()))
                if page in self._parked:
                    del self._parked[page]
                    freed.append(page)
        for page in freed:
            home = page < self.n_homes * self.home_run
            (self._free_homes if home else self._free_spare)[page] = None

    def _is_free(self, index: int) -> bool:
        return index in self._free_homes or index in self._free_spare

    def write(self, layer: int, cells, k_rows: np.ndarray,
              v_rows: np.ndarray) -> None:
        """Store one layer's K/V rows at flat arena rows ``cells`` (from
        :meth:`PagedKVSlot.cells`)."""
        self.flat_keys[layer, cells] = k_rows
        self.flat_values[layer, cells] = v_rows

    def _reserve(self, n_pages: int) -> None:
        if n_pages > self.n_available_pages:
            raise RuntimeError(
                f"cannot reserve {n_pages} pages; only "
                f"{self.n_available_pages} available"
            )
        self._reserved += n_pages

    def _cancel_reservation(self, n_pages: int) -> None:
        self._reserved -= n_pages

    # -- the prefix table --------------------------------------------------

    def _add_entry(self, key, page: int, tokens: tuple, parent) -> None:
        self._table[key] = (page, tokens, parent)
        self._key_of[page] = key
        self._children.setdefault(parent, {})[key] = None

    def _index(self, prompt: tuple, slot: "PagedKVSlot") -> None:
        """Index ``prompt``'s pages, which ``slot`` holds.

        Walks the chain from page 0.  Where another page already holds
        the same tokens, the slot maps that page and frees its own copy
        (vLLM's block deduplication), so the chain stays findable for as
        long as any sequence holding it lives.  The walk stops at a hash
        collision (a key held for other tokens or under another parent)
        or at a page already indexed under another key.  A partial last
        page is indexed as a leaf holding only the prompt's tokens in
        it, for matches that end inside it.
        """
        page_size = self.page_size
        pages = slot.page_table
        parent = 0
        n_full = len(prompt) // page_size
        for i, key in enumerate(chained_prefix_keys(prompt, page_size)):
            tokens = prompt[i * page_size:(i + 1) * page_size]
            entry = self._table.get(key)
            if entry is None:
                if pages[i] in self._key_of:
                    return
                self._add_entry(key, pages[i], tokens, parent)
            elif entry[1:] != (tokens, parent):
                return
            elif entry[0] != pages[i]:
                self._share_page(entry[0])
                self._release_pages([pages[i]])
                pages[i] = entry[0]
                slot._home_len = min(slot._home_len, i)
            parent = key
        tokens = prompt[n_full * page_size:]
        if n_full and tokens:
            key = hash((parent, tokens))
            if key not in self._table and pages[n_full] not in self._key_of:
                self._add_entry(key, pages[n_full], tokens, parent)

    def _match(self, prompt: tuple) -> tuple:
        """Pages of the longest indexed prefix of ``prompt``, and its length.

        Full pages by chained key while each entry holds the prompt's
        tokens under the page matched before it (the hash-collision
        guard), then the child of the last one -- a full page or a live
        prompt's partial last page -- that shares the most further
        tokens: the source a seat copies, a resident one on a tie.  The
        match covers at most ``len(prompt) - 1`` tokens, so one is left
        to prefill for last-position logits, and at least one full page,
        so a prompt no longer than a page never matches.  Returns
        ``(pages, shared)``.
        """
        page_size = self.page_size
        cap = len(prompt) - 1
        pages, parent = [], 0
        for i, key in enumerate(chained_prefix_keys(prompt[:cap], page_size)):
            entry = self._table.get(key)
            if entry is None or \
                    entry[1:] != (prompt[i * page_size:(i + 1) * page_size],
                                  parent):
                break
            pages.append(entry[0])
            parent = key
        if not pages:
            return pages, 0
        shared = len(pages) * page_size
        rest = prompt[shared:min(cap, shared + page_size)]
        source, best = -1, (0, False)   # (tokens matched, resident)
        for key in self._children.get(parent, ()):
            page, tokens, _ = self._table[key]
            n = 0
            for have, want in zip(tokens, rest):
                if have != want:
                    break
                n += 1
            rank = (n, self._refcount[page] > 0)
            if n and rank > best:
                source, best = page, rank
        if source >= 0:
            pages.append(source)
        return pages, shared + best[0]


class PagedKVSlot:
    """One sequence's K/V storage: a page table over a :class:`PagePool`.

    Exposes the ``append`` / ``view`` / ``advance`` / ``reset``
    interface of :class:`~repro.model.kvcache.KVCache`.  The serving
    passes write through :meth:`cells` and :meth:`PagePool.write`;
    ``append`` stays as the per-position reference those are tested
    against.  Pages are claimed lazily: the table
    grows the first time a write touches a position in a new page,
    taking the slot's home page for that table index when it is free.
    ``view`` is the only way its K/V reaches a kernel -- a zero-copy
    arena view within one page or within the home run, one gather of
    the page table beyond -- so everything else here edits the table
    and never the kernel side.
    """

    def __init__(self, pool: PagePool, index: int, max_seq_len: int):
        self._pool = pool
        self.index = index
        self.max_seq_len = max_seq_len
        self.page_table: list = []
        self.length = 0
        self._reservation_left = 0
        # First page of the home run, or -1 for none: ``_push`` then
        # never matches a page, so ``_home_len`` stays 0.
        self._home_start = (index * pool.home_run if index < pool.n_homes
                            else -1)
        self._home_len = 0    # leading table entries that are the home run

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

    def _push(self, page: int) -> None:
        """Append ``page`` to the table, extending the home-run count."""
        if (self._home_len == len(self.page_table)
                and page == self._home_start + self._home_len):
            self._home_len += 1
        self.page_table.append(page)

    def _ensure_page(self, page_index: int) -> None:
        while len(self.page_table) <= page_index:
            reserved = self._reservation_left > 0
            home = (self._home_start + len(self.page_table)
                    if self._home_start >= 0 else -1)
            self._push(self._pool._claim_page(reserved, home))
            if reserved:
                self._reservation_left -= 1

    def _materialise_page(self, table_index: int) -> int:
        """Copy-on-write: replace a shared or indexed page with a copy.

        Claims an *unreserved* page (COW demand is beyond the slot's
        worst case, which charges only unshared pages; drawing the
        reservation down here would starve this slot's own future
        appends), memcpys the page, and drops one reference on it -- the
        other mappers, and the prefix table, keep their data untouched.
        """
        pool = self._pool
        old = self.page_table[table_index]
        new = pool._claim_page(reserved=False)
        pool.keys[:, new] = pool.keys[:, old]
        pool.values[:, new] = pool.values[:, old]
        pool._release_pages([old])
        self.page_table[table_index] = new
        self._home_len = min(self._home_len, table_index)
        return new

    def _writable_page(self, table_index: int, offset: int) -> int:
        """The exclusively-owned arena page behind ``table_index``.

        Claims pages up to ``table_index`` and breaks sharing
        (copy-on-write) first, so the caller may write into it from
        ``offset`` on.  An indexed page is copied too, even unshared,
        when ``offset`` lies among its indexed tokens: the prefix table
        hands their K/V to any later prompt with the same tokens.  A
        live prompt's partial last page is indexed for its prompt
        positions only, so decoding past them writes in place.
        """
        self._ensure_page(table_index)
        pool = self._pool
        page = self.page_table[table_index]
        key = pool._key_of.get(page)
        if pool._refcount[page] > 1 or \
                (key is not None and offset < len(pool._table[key][1])):
            page = self._materialise_page(table_index)
        return page

    def append(self, layer: int, k: np.ndarray, v: np.ndarray,
               position: int) -> None:
        if position >= self.max_seq_len:
            raise ValueError(
                f"position {position} exceeds slot capacity {self.max_seq_len}"
            )
        table_index, offset = divmod(position, self._pool.page_size)
        page = self._writable_page(table_index, offset)
        self._pool.keys[layer, page, offset] = k
        self._pool.values[layer, page, offset] = v

    def cells(self, start: int, n_rows: int) -> list:
        """Flat arena rows of positions ``start..start+n_rows``, writable.

        Indices into ``flat_keys[layer]`` / ``flat_values[layer]`` of the
        pool, the same for every layer.  Claims the pages they touch and
        breaks sharing (copy-on-write) first -- one check per *page*, not
        per position or layer -- so a pass computes them once and writes
        each layer's rows with one :meth:`PagePool.write`.
        """
        end = start + n_rows
        if end > self.max_seq_len:
            raise ValueError(
                f"position {end - 1} exceeds slot capacity {self.max_seq_len}"
            )
        page_size = self._pool.page_size
        cells: list = []
        position = start
        while position < end:
            table_index, offset = divmod(position, page_size)
            n = min(page_size - offset, end - position)
            first = (self._writable_page(table_index, offset) * page_size
                     + offset)
            cells.extend(range(first, first + n))
            position += n
        return cells

    def view(self, layer: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """K/V for the first ``length`` positions of ``layer``.

        A zero-copy arena view when the positions fit one page or the
        home run; one fancy-index gather of the slot's pages otherwise.
        """
        pool = self._pool
        page_size = pool.page_size
        n_pages = pool.pages_for(length)
        if n_pages > len(self.page_table):
            raise ValueError(
                f"view of {length} positions but only "
                f"{len(self.page_table)} pages appended"
            )
        if n_pages <= max(self._home_len, 1):
            start = self.page_table[0] * page_size if self.page_table else 0
            return (pool.flat_keys[layer, start:start + length],
                    pool.flat_values[layer, start:start + length])
        pages = self.page_table[:n_pages]
        d_model = pool.config.d_model
        keys = pool.keys[layer, pages]                  # (n_pages, ps, d)
        values = pool.values[layer, pages]
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
        prefix.  Pages that *do* come unmapped (freed or parked) are
        re-credited to this slot's reservation: the worst case the
        scheduler admitted against still covers the rewound positions,
        so the slot must be able to re-claim them without competing with
        other admissions.
        """
        if not 0 <= n_positions <= self.length:
            raise ValueError(
                f"cannot truncate slot of length {self.length} "
                f"to {n_positions}"
            )
        keep = self._pool.pages_for(n_positions)
        self._home_len = min(self._home_len, keep)
        dropped = self.page_table[keep:]
        if dropped:
            in_use_before = self._pool.n_pages_in_use
            self._pool._release_pages(dropped)
            freed = in_use_before - self._pool.n_pages_in_use
            del self.page_table[keep:]
            if freed:
                # The pages just became reclaimable, so the reserve
                # cannot fail; the credit keeps admission math exact.
                self._pool._reserve(freed)
                self._reservation_left += freed
        self.length = n_positions

    def reset(self) -> None:
        """Return every page (and any unused reservation) to the pool."""
        if self.page_table:
            self._pool._release_pages(self.page_table)
            self.page_table = []
            self._home_len = 0
        if self._reservation_left:
            self._pool._cancel_reservation(self._reservation_left)
            self._reservation_left = 0
        self.length = 0


class SeatPlan(NamedTuple):
    """Where a new sequence's prefix K/V will come from.

    Built by :meth:`PagedKVCache.plan` and consumed by
    :meth:`PagedKVCache.seat` in the same admission.  ``pages`` is the
    match: the full shared pages, then -- when ``shared`` ends mid-page
    -- the page the seat copies that partial page from.
    """

    needed: int                   # worst-case positions the seat must back
    fits: bool                    # whether ``seat`` would succeed right now
    shared: int = 0               # prompt positions the seat already holds
    resident: int = 0             # leading shared positions a live sequence maps
    pages: Sequence[int] = ()     # matched pages (full ones, then a copy source)


class PagedKVCache:
    """The serving engine's KV store: slot handles over one page arena.

    ``allocate`` / ``release`` / ``n_free`` manage a fixed set of slot
    handles; storage comes from a shared :class:`PagePool` sized by
    ``n_pages`` (default: every slot's worst case at once,
    ``n_slots * ceil(max_seq_len / page_size)``).  Pass a smaller
    ``n_pages`` to run under a memory budget: short sequences then leave
    pages for extra concurrent sequences instead of padding out unused
    slot tails.  The pool's prefix table holds the :meth:`register`-ed
    prompt pages that :meth:`plan` matches; ``cache_pages`` caps how
    many of them stay parked once no sequence maps them.
    """

    def __init__(self, config: ModelConfig, n_slots: int,
                 max_seq_len: int = 0, page_size: int = DEFAULT_PAGE_SIZE,
                 n_pages: int = 0, cache_pages: int = 0):
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if page_size < 1:    # checked here: the division below comes first
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.config = config
        self.n_slots = n_slots
        self.max_seq_len = max_seq_len or config.max_seq_len
        worst_case = -(-self.max_seq_len // page_size)
        n_pages = n_pages or n_slots * worst_case
        self.pool = PagePool(config, n_pages, page_size,
                             min(n_slots, n_pages // worst_case), worst_case,
                             cache_pages)
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

    # -- seat preconditions (written once) ---------------------------------

    def unshared_page_demand(self, shared_positions: int,
                             max_positions: int) -> int:
        """Pages a seat must be able to claim or reserve right now.

        The full pages of a shared prefix come free -- they are already
        mapped or parked -- so everything else (the copy of a partial
        trailing page plus the unshared worst case) must be backed by
        available pages.
        """
        full_shared = shared_positions // self.page_size
        total = min(max_positions or shared_positions, self.max_seq_len)
        return max(self.pool.pages_for(total) - full_shared, 0)

    def _seat_error(self, plan: SeatPlan):
        """Why ``plan`` cannot be seated now; the exception, or None.

        Pinning takes a plan's parked pages -- the copy source too, for
        the length of the copy -- out of the reclaimable set, so the
        unshared demand is checked against what remains after the pins.
        """
        pool = self.pool
        if plan.needed and plan.needed < plan.shared:
            return ValueError(
                f"max_positions {plan.needed} is below the shared prefix "
                f"length {plan.shared}"
            )
        if not self._free:
            return RuntimeError("no free KV slots")
        if len(plan.pages) != pool.pages_for(plan.shared) or \
                any(pool._is_free(page) for page in plan.pages):
            return ValueError("stale plan: its pages no longer hold the "
                              f"{plan.shared} shared positions")
        available = pool.n_available_pages - sum(
            1 for page in plan.pages if page in pool._parked)
        demand = self.unshared_page_demand(plan.shared, plan.needed)
        if demand > available:
            return RuntimeError(
                f"cannot seat a {plan.needed or plan.shared}-position "
                f"sequence: needs {demand} pages beyond its {plan.shared} "
                f"shared positions, {available} available of {pool.n_pages}"
            )
        return None

    def can_admit(self, n_positions: int) -> bool:
        """Whether a worst-case ``n_positions`` request fits right now."""
        return self._seat_error(SeatPlan(n_positions, True)) is None

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
        error = self._seat_error(SeatPlan(max_positions, True))
        if error is not None:
            raise error
        slot = self._take_slot()
        if max_positions:
            slot.reserve(max_positions)
        return slot

    def holds(self, slot: PagedKVSlot) -> bool:
        """Whether ``slot`` keeps its K/V in this cache's arena."""
        return slot._pool is self.pool

    def release(self, slot: PagedKVSlot, prompt_ids=None) -> None:
        """Return a slot, its pages, and any unused reservation.

        Indexed pages the slot was the last to map are parked, not
        freed, while ``cache_pages`` allows.  A preempting scheduler
        passes the *prefilled prompt prefix* as ``prompt_ids`` (possibly
        shorter than the prompt when a sequence is evicted mid-prefill,
        before it was registered), which indexes its full pages first,
        as :meth:`register` does.  Only prefill-path positions may be
        indexed -- decode positions go through the sparse executor, so
        their K/V is not the pure function of the tokens that sharing
        assumes.
        """
        if slot._pool is not self.pool:
            raise ValueError("slot belongs to a different cache")
        if slot.index in self._free_set:
            raise ValueError(f"slot {slot.index} released twice")
        if prompt_ids is not None:
            self.register(slot, prompt_ids)
        slot.reset()
        self._free.append(slot.index)
        self._free_set.add(slot.index)

    # -- seating: where a new sequence's prefix comes from -----------------

    def register(self, slot: PagedKVSlot, prompt_ids) -> None:
        """Index a just-prefilled prompt's pages for later matches.

        Capped by the slot's *advanced* length: a preempted sequence can
        retire mid-prefill with a trailing page claimed but only
        partially written, and indexing unwritten positions would share
        garbage.
        """
        prompt = tuple(int(t) for t in prompt_ids)
        self.pool._index(prompt[:slot.length], slot)

    def plan(self, prompt_ids, needed: int = 0) -> SeatPlan:
        """How to seat a ``needed``-position sequence with this prompt.

        One lookup: the longest token match over every indexed page,
        resident or parked (:meth:`PagePool._match`); ``shared == 0``
        means a cold seat.
        """
        pool, page_size = self.pool, self.page_size
        pages, shared = pool._match(tuple(int(t) for t in prompt_ids))
        plan = SeatPlan(needed, True, shared, 0, tuple(pages))
        error = self._seat_error(plan)
        if error is not None and shared % page_size and \
                pages[-1] in pool._parked:
            # A parked copy source that is the last claimable page
            # cannot also back its copy: seat the full pages only.
            plan = plan._replace(shared=shared - shared % page_size,
                                 pages=plan.pages[:-1])
            error = self._seat_error(plan)
        resident = 0
        for page in plan.pages:
            if not pool._refcount[page]:
                break
            resident = min(resident + page_size, plan.shared)
        return plan._replace(fits=error is None, resident=resident)

    def seat(self, plan: SeatPlan) -> PagedKVSlot:
        """Claim the slot ``plan`` describes; ``length == plan.shared``.

        Maps each full matched page -- a share if resident, a pin if
        parked -- and eagerly copies the partial trailing page, so every
        shared page stays full and immutable.  The copy source is pinned
        across the claim of its destination, which may evict the LRU
        head.  ``plan.needed`` reserves only the worst case beyond the
        full shared pages.
        """
        if not plan.pages:
            return self.allocate(plan.needed)
        error = self._seat_error(plan)
        if error is not None:
            raise error
        pool = self.pool
        full, partial = divmod(plan.shared, self.page_size)
        slot = self._take_slot()
        for page in plan.pages:
            pool._share_page(page)
        for page in plan.pages[:full]:
            slot._push(page)
        if plan.needed:
            slot.reserve(plan.needed)   # charges only beyond the table
        if partial:
            slot._ensure_page(full)
            new, old = slot.page_table[full], plan.pages[full]
            pool.keys[:, new] = pool.keys[:, old]
            pool.values[:, new] = pool.values[:, old]
            pool._release_pages([old])
        slot.length = plan.shared
        return slot
