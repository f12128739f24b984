"""Randomized property tests for the paged KV cache's fork/COW/prefix-cache lifecycle.

Drives :class:`PagePool` / :class:`PagedKVSlot` / :meth:`PagedKVCache.fork`
/ :class:`PrefixCache` through random interleavings of allocate / fork /
append / truncate / rewrite / release / retire / revive against a pure-python
model of the expected contents, asserting after every operation:

* ``free + in_use + cached == n_pages`` (no page is ever lost or
  double-counted; every page is exactly one of free, pinned, cached);
* ``0 <= reserved <= free + cached`` (admission promises are always
  backable -- cached pages are reclaimable on demand);
* every page's refcount equals the number of live page tables mapping
  it; exactly the refcount-0 pages are free or cached, and the cached
  set is exactly the prefix cache's entries;
* releasing a forked slot never frees (or corrupts) a page its donor
  still maps, and LRU eviction under page pressure never touches a
  pinned (refcounted) page -- every surviving slot's K/V always matches
  the model;
* truncating a slot (the PR 9 speculation rollback) returns only pages
  no other slot maps -- a sharer's page is unpinned, never freed -- and
  re-credits actually-freed pages to the slot's reservation, so the
  sequence can always regrow to its admitted worst case;
* a revived prefix chain holds bit-for-bit the K/V its retired writer
  parked.
"""

from collections import Counter

import numpy as np
import pytest

from repro.model.paged_kvcache import PagedKVCache

N_SLOTS = 4
N_PAGES = 10


def check_invariants(cache: PagedKVCache, live: dict) -> None:
    pool = cache.pool
    assert pool.n_free_pages + pool.n_pages_in_use + pool.n_cached_pages \
        == pool.n_pages
    assert 0 <= pool._reserved <= pool.n_free_pages + pool.n_cached_pages
    assert not any(pool._is_free(page) for page in pool._cached_set)
    refs = Counter()
    for slot, _ in live.values():
        refs.update(slot.page_table)
    for page in range(pool.n_pages):
        assert pool.refcount(page) == refs.get(page, 0), (
            f"page {page}: refcount {pool.refcount(page)} != "
            f"{refs.get(page, 0)} table references"
        )
        unmapped = pool._is_free(page) or page in pool._cached_set
        assert unmapped == (refs.get(page, 0) == 0)
    shared = sum(1 for page, n in refs.items() if n > 1)
    assert pool.n_shared_pages == shared
    if cache.prefix_cache is not None:
        entry_pages = {page for page, _ in
                       cache.prefix_cache._entries.values()}
        assert entry_pages == pool._cached_set
        assert len(cache.prefix_cache) <= cache.prefix_cache.cache_pages
        assert set(cache.prefix_cache._key_by_page) == entry_pages
    else:
        assert not pool._cached_set


def check_contents(cache: PagedKVCache, live: dict, n_layers: int) -> None:
    """Every live slot's K/V matches its model, on every layer."""
    for slot, stamps in live.values():
        if not stamps:
            continue
        for layer in range(n_layers):
            keys, values = slot.view(layer, len(stamps))
            np.testing.assert_array_equal(keys[:, 0], np.array(stamps))
            np.testing.assert_array_equal(values[:, 0], -np.array(stamps))


def write_position(slot, n_layers: int, d_model: int, position: int,
                   stamp: float) -> None:
    for layer in range(n_layers):
        slot.append(layer, np.full(d_model, stamp),
                    np.full(d_model, -stamp), position)


@pytest.mark.parametrize("page_size", [1, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleavings_hold_invariants(micro_config, page_size, seed):
    rng = np.random.default_rng(seed)
    max_seq_len = page_size * 6
    cache = PagedKVCache(micro_config, n_slots=N_SLOTS,
                         max_seq_len=max_seq_len, page_size=page_size,
                         n_pages=N_PAGES)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    live: dict = {}               # slot index -> (slot, expected stamps)
    stamp = 0.0

    for op_index in range(150):
        op = rng.choice(["allocate", "fork", "append", "truncate",
                         "rewrite", "release"])
        if op == "allocate":
            max_positions = int(rng.integers(0, max_seq_len + 1))
            if cache.n_free == 0 or \
                    (max_positions and not cache.can_admit(max_positions)):
                with pytest.raises(RuntimeError):
                    cache.allocate(max_positions)
                continue
            slot = cache.allocate(max_positions)
            live[slot.index] = (slot, [])
        elif op == "fork":
            donors = [(s, st) for s, st in live.values() if s.length > 0]
            if not donors:
                continue
            donor, donor_stamps = donors[int(rng.integers(len(donors)))]
            shared = int(rng.integers(1, donor.length + 1))
            max_positions = int(rng.choice([0, shared, max_seq_len]))
            if not cache.can_fork(donor, shared, max_positions):
                with pytest.raises((RuntimeError, ValueError)):
                    cache.fork(donor, shared, max_positions)
                continue
            slot = cache.fork(donor, shared, max_positions)
            assert slot.length == shared
            live[slot.index] = (slot, list(donor_stamps[:shared]))
        elif op == "append":
            growable = [(s, st) for s, st in live.values()
                        if s.length < max_seq_len]
            if not growable:
                continue
            slot, stamps = growable[int(rng.integers(len(growable)))]
            stamp += 1.0
            try:
                write_position(slot, n_layers, d, slot.length, stamp)
            except RuntimeError:
                continue          # pool exhausted / all free pages reserved
            slot.advance()
            stamps.append(stamp)
        elif op == "truncate":
            # The speculation rollback: dropped tail pages a sharer
            # still maps are unpinned (not freed); actually-freed pages
            # flow back into the slot's reservation.
            if not live:
                continue
            index = int(rng.choice(list(live)))
            slot, stamps = live[index]
            n_keep = int(rng.integers(0, slot.length + 1))
            slot.truncate(n_keep)
            del stamps[n_keep:]
        elif op == "rewrite":
            writable = [(s, st) for s, st in live.values() if s.length > 0]
            if not writable:
                continue
            slot, stamps = writable[int(rng.integers(len(writable)))]
            position = int(rng.integers(slot.length))
            stamp += 1.0
            try:
                # May land on a shared page: copy-on-write must detach
                # this slot without touching the other mappers.
                write_position(slot, n_layers, d, position, stamp)
            except RuntimeError:
                continue          # COW could not claim an unreserved page
            stamps[position] = stamp
        else:   # release
            if not live:
                continue
            index = int(rng.choice(list(live)))
            slot, _ = live.pop(index)
            cache.release(slot)
        check_invariants(cache, live)
        if op_index % 10 == 0:
            check_contents(cache, live, n_layers)

    check_contents(cache, live, n_layers)
    for slot, _ in list(live.values()):
        cache.release(slot)
    live.clear()
    check_invariants(cache, live)
    assert cache.n_pages_in_use == 0
    assert cache.pool._reserved == 0


def test_release_of_fork_keeps_donor_pages(micro_config):
    """The named invariant, deterministically: forked release must not
    free or alter any page the donor still maps."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=24,
                         page_size=4, n_pages=12)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    donor = cache.allocate()
    for pos in range(10):
        write_position(donor, n_layers, d, pos, float(pos + 1))
        donor.advance()
    fork = cache.fork(donor, 10)        # 2 full shared pages + 1 copied
    donor_pages = list(donor.page_table)
    cache.release(fork)
    for page in donor_pages:
        assert cache.pool.refcount(page) == 1
        assert not cache.pool._is_free(page)
    keys, values = donor.view(0, 10)
    np.testing.assert_array_equal(keys[:, 0], np.arange(1.0, 11.0))
    np.testing.assert_array_equal(values[:, 0], -np.arange(1.0, 11.0))


def test_cow_write_detaches_without_touching_donor(micro_config):
    """A rewrite landing inside a shared full page copies first."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    donor = cache.allocate()
    for pos in range(8):
        write_position(donor, n_layers, d, pos, float(pos + 1))
        donor.advance()
    fork = cache.fork(donor, 8)          # page-aligned: both pages shared
    assert cache.n_shared_pages == 2
    shared_page = fork.page_table[0]
    write_position(fork, n_layers, d, 1, 99.0)
    assert fork.page_table[0] != shared_page          # detached
    assert cache.pool.refcount(shared_page) == 1      # donor keeps it
    assert cache.n_shared_pages == 1
    donor_keys, _ = donor.view(0, 8)
    fork_keys, _ = fork.view(0, 8)
    assert donor_keys[1, 0] == 2.0
    assert fork_keys[1, 0] == 99.0
    np.testing.assert_array_equal(donor_keys[[0, 2, 3], 0],
                                  fork_keys[[0, 2, 3], 0])


def test_fork_reserves_only_unshared_worst_case(micro_config):
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=32,
                         page_size=4, n_pages=10)
    donor = cache.allocate(max_positions=12)          # reserves 3
    n_layers, d = micro_config.n_layers, micro_config.d_model
    for pos in range(12):
        write_position(donor, n_layers, d, pos, 1.0)
        donor.advance()
    assert cache.n_available_pages == 7
    # Fork sharing 8 aligned positions of a 16-position worst case:
    # 4 total pages, 2 shared -> only 2 charged.
    assert cache.unshared_page_demand(8, 16) == 2
    fork = cache.fork(donor, 8, max_positions=16)
    assert cache.n_available_pages == 5
    assert fork.n_pages == 2                          # shared pages only
    assert cache.pool._reserved == 2
    cache.release(fork)
    assert cache.n_available_pages == 7


def test_fork_validation_errors(micro_config):
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8)
    other = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    donor = cache.allocate()
    n_layers, d = micro_config.n_layers, micro_config.d_model
    for pos in range(5):
        write_position(donor, n_layers, d, pos, 1.0)
        donor.advance()
    with pytest.raises(ValueError, match="different cache"):
        other.fork(donor, 2)
    with pytest.raises(ValueError, match="shared_positions"):
        cache.fork(donor, 0)
    with pytest.raises(ValueError, match="shared_positions"):
        cache.fork(donor, 6)                          # beyond donor length
    with pytest.raises(ValueError, match="below the shared"):
        cache.fork(donor, 4, max_positions=3)
    released = cache.fork(donor, 4)
    cache.release(released)
    with pytest.raises(ValueError, match="not allocated"):
        cache.fork(released, 2)


def test_share_free_page_rejected(micro_config):
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    with pytest.raises(ValueError, match="share free page"):
        cache.pool._share_page(0)


# -- KV rollback (speculation's truncate) -----------------------------------


def test_truncate_never_frees_a_sharers_pages(micro_config):
    """Rolling a fork back through the shared prefix unpins, never
    frees: the donor keeps every page it maps, contents intact."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    donor = cache.allocate()
    for pos in range(8):
        write_position(donor, n_layers, d, pos, float(pos + 1))
        donor.advance()
    fork = cache.fork(donor, 8)            # page-aligned: 2 shared pages
    assert cache.n_shared_pages == 2
    donor_pages = list(donor.page_table)
    fork.truncate(0)                       # drop the whole shared prefix
    assert fork.page_table == []
    for page in donor_pages:
        assert cache.pool.refcount(page) == 1      # unpinned, not freed
        assert not cache.pool._is_free(page)
    assert cache.n_shared_pages == 0
    keys, values = donor.view(0, 8)
    np.testing.assert_array_equal(keys[:, 0], np.arange(1.0, 9.0))
    np.testing.assert_array_equal(values[:, 0], -np.arange(1.0, 9.0))
    check_invariants(cache, {donor.index: (donor, [float(p + 1)
                                                   for p in range(8)])})


def test_truncate_recredits_freed_pages_to_the_reservation(micro_config):
    """Freed tail pages flow back into the slot's worst-case budget, so
    a rolled-back sequence can always regrow to what admission promised
    -- even when the rest of the pool is spoken for."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=2, n_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    slot = cache.allocate(max_positions=8)           # reserves 4 pages
    for pos in range(8):
        write_position(slot, n_layers, d, pos, float(pos + 1))
        slot.advance()
    assert cache.pool._reserved == 0                 # fully materialised
    hog = cache.allocate(max_positions=8)            # claims the other 4
    slot.truncate(3)                                 # frees 2 pages...
    assert cache.pool._reserved == 4 + 2             # ...back on reserve
    for pos in range(3, 8):                          # regrow to worst case
        write_position(slot, n_layers, d, pos, float(pos + 1))
        slot.advance()
    assert slot.length == 8
    cache.release(hog)
    cache.release(slot)
    assert cache.pool._reserved == 0


def test_truncate_then_reappend_is_bit_identical(micro_config):
    """Rollback leaves no trace: re-appending the same K/V reproduces
    the original contents exactly (the accept-path contract)."""
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    slot = cache.allocate()
    for pos in range(7):
        write_position(slot, n_layers, d, pos, float(pos + 1))
        slot.advance()
    before_k, before_v = (arr.copy() for arr in slot.view(0, 7))
    slot.truncate(3)                       # drops the second page
    for pos in range(3, 7):
        write_position(slot, n_layers, d, pos, float(pos + 1))
        slot.advance()
    after_k, after_v = slot.view(0, 7)
    np.testing.assert_array_equal(after_k, before_k)
    np.testing.assert_array_equal(after_v, before_v)


def test_reappend_onto_kept_shared_page_copies_on_write(micro_config):
    """Truncating into a shared full page keeps it mapped; the next
    append must detach this slot instead of scribbling on the donor."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    donor = cache.allocate()
    for pos in range(8):
        write_position(donor, n_layers, d, pos, float(pos + 1))
        donor.advance()
    fork = cache.fork(donor, 8)
    fork.truncate(5)                       # position 5 lives on shared page 1
    shared_page = fork.page_table[1]
    assert cache.pool.refcount(shared_page) == 2
    write_position(fork, n_layers, d, 5, 99.0)
    fork.advance()
    assert fork.page_table[1] != shared_page         # detached
    assert cache.pool.refcount(shared_page) == 1     # donor keeps it
    donor_keys, _ = donor.view(0, 8)
    np.testing.assert_array_equal(donor_keys[:, 0], np.arange(1.0, 9.0))
    fork_keys, _ = fork.view(0, 6)
    np.testing.assert_array_equal(fork_keys[:, 0],
                                  [1.0, 2.0, 3.0, 4.0, 5.0, 99.0])


def test_truncate_validation_errors(micro_config):
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    slot = cache.allocate()
    for pos in range(4):
        write_position(slot, n_layers, d, pos, 1.0)
        slot.advance()
    with pytest.raises(ValueError, match="truncate"):
        slot.truncate(5)                   # beyond current length
    with pytest.raises(ValueError, match="truncate"):
        slot.truncate(-1)
    slot.truncate(4)                       # no-op keeps everything
    assert slot.length == 4 and len(slot.page_table) == 1


# -- cross-request prefix cache (LRU page retention) ------------------------


@pytest.mark.parametrize("page_size", [1, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleavings_with_prefix_cache(micro_config, page_size,
                                                seed):
    """The fork/COW interleaving property, extended with retire/revive.

    ``retire`` releases a slot *with its prompt* (current stamps), so
    eligible prefix pages are parked rather than freed; ``revive`` looks
    up a previously retired prompt and, if a chain is cached, pins it
    into a fresh slot -- whose contents must then equal the stamps the
    retired sequence wrote, bit for bit.  All the shared-pool invariants
    (including ``free + in_use + cached == n_pages``) hold after every
    operation.
    """
    rng = np.random.default_rng(seed)
    max_seq_len = page_size * 6
    cache = PagedKVCache(micro_config, n_slots=N_SLOTS,
                         max_seq_len=max_seq_len, page_size=page_size,
                         n_pages=N_PAGES, cache_pages=N_PAGES // 2)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    live: dict = {}               # slot index -> (slot, expected stamps)
    retired: list = []            # prompts (stamp tuples) seen by the cache
    stamp = 0.0

    for op_index in range(200):
        op = rng.choice(["allocate", "fork", "append", "truncate",
                         "rewrite", "release", "retire", "revive"])
        if op == "allocate":
            max_positions = int(rng.integers(0, max_seq_len + 1))
            if cache.n_free == 0 or \
                    (max_positions and not cache.can_admit(max_positions)):
                with pytest.raises(RuntimeError):
                    cache.allocate(max_positions)
                continue
            slot = cache.allocate(max_positions)
            live[slot.index] = (slot, [])
        elif op == "fork":
            donors = [(s, st) for s, st in live.values() if s.length > 0]
            if not donors:
                continue
            donor, donor_stamps = donors[int(rng.integers(len(donors)))]
            shared = int(rng.integers(1, donor.length + 1))
            max_positions = int(rng.choice([0, shared, max_seq_len]))
            if not cache.can_fork(donor, shared, max_positions):
                with pytest.raises((RuntimeError, ValueError)):
                    cache.fork(donor, shared, max_positions)
                continue
            slot = cache.fork(donor, shared, max_positions)
            live[slot.index] = (slot, list(donor_stamps[:shared]))
        elif op == "append":
            growable = [(s, st) for s, st in live.values()
                        if s.length < max_seq_len]
            if not growable:
                continue
            slot, stamps = growable[int(rng.integers(len(growable)))]
            stamp += 1.0
            try:
                write_position(slot, n_layers, d, slot.length, stamp)
            except RuntimeError:
                continue          # pool exhausted / all free pages reserved
            slot.advance()
            stamps.append(stamp)
        elif op == "truncate":
            if not live:
                continue
            index = int(rng.choice(list(live)))
            slot, stamps = live[index]
            n_keep = int(rng.integers(0, slot.length + 1))
            slot.truncate(n_keep)
            del stamps[n_keep:]
        elif op == "rewrite":
            writable = [(s, st) for s, st in live.values() if s.length > 0]
            if not writable:
                continue
            slot, stamps = writable[int(rng.integers(len(writable)))]
            position = int(rng.integers(slot.length))
            stamp += 1.0
            try:
                write_position(slot, n_layers, d, position, stamp)
            except RuntimeError:
                continue          # COW could not claim an unreserved page
            stamps[position] = stamp
        elif op == "release":
            if not live:
                continue
            index = int(rng.choice(list(live)))
            slot, _ = live.pop(index)
            cache.release(slot)
        elif op == "retire":
            # Release with the prompt: prefix pages get parked.  The
            # "prompt" is the stamps the slot currently holds, so a
            # later revive can be checked against them.
            if not live:
                continue
            index = int(rng.choice(list(live)))
            slot, stamps = live.pop(index)
            prompt = tuple(int(s) for s in stamps)
            cache.release(slot, prompt_ids=prompt)
            if len(prompt) >= page_size + 1:
                retired.append(prompt)
        else:   # revive
            if not retired:
                continue
            prompt = retired[int(rng.integers(len(retired)))]
            pages = cache.prefix_cache.lookup(prompt)
            if not pages:
                continue
            max_positions = int(rng.choice([0, len(pages) * page_size,
                                            max_seq_len]))
            if not cache.can_revive(len(pages), max_positions):
                with pytest.raises((RuntimeError, ValueError)):
                    cache.revive(pages, max_positions)
                continue
            slot = cache.revive(pages, max_positions)
            revived = len(pages) * page_size
            assert slot.length == revived
            # Revived K/V is bit-for-bit what the retired writer parked.
            for layer in range(n_layers):
                keys, values = slot.view(layer, revived)
                expect = np.array([float(t) for t in prompt[:revived]])
                np.testing.assert_array_equal(keys[:, 0], expect)
                np.testing.assert_array_equal(values[:, 0], -expect)
            live[slot.index] = (slot, [float(t) for t in prompt[:revived]])
        check_invariants(cache, live)
        if op_index % 10 == 0:
            check_contents(cache, live, n_layers)

    check_contents(cache, live, n_layers)
    for slot, _ in list(live.values()):
        cache.release(slot)
    live.clear()
    check_invariants(cache, live)
    assert cache.n_pages_in_use == 0
    assert cache.pool._reserved == 0


def test_eviction_under_pressure_never_frees_pinned_pages(micro_config):
    """Filling the pool on top of a populated cache evicts only cached
    pages -- pinned (refcounted) pages and their contents survive."""
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=16,
                         page_size=4, n_pages=8, cache_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    writer = cache.allocate()
    for pos in range(8):
        write_position(writer, n_layers, d, pos, float(pos + 1))
        writer.advance()
    prompt = tuple(range(1, 9))
    cache.release(writer, prompt_ids=prompt)     # parks both full pages
    assert cache.n_cached_pages == 2

    survivor = cache.allocate()
    for pos in range(8):
        write_position(survivor, n_layers, d, pos, 100.0 + pos)
        survivor.advance()
    # 2 cached + 2 pinned; claim the remaining 6 pages -> the allocator
    # must reclaim both cached pages, never the survivor's.
    hog = cache.allocate()
    for pos in range(16):
        write_position(hog, n_layers, d, pos, 200.0 + pos)
        hog.advance()
    evicting = cache.allocate()
    for pos in range(8):
        write_position(evicting, n_layers, d, pos, 300.0 + pos)
        evicting.advance()
    assert cache.n_cached_pages == 0
    assert cache.prefix_cache.evictions == 2
    assert cache.pool.n_free_pages == 0
    keys, _ = survivor.view(0, 8)
    np.testing.assert_array_equal(keys[:, 0], 100.0 + np.arange(8))
    # The parked prefix is gone -- lookup must now miss, not resurrect
    # freed (since overwritten) pages.
    assert cache.prefix_cache.lookup(prompt) == []
    # Pool exhausted and cache empty: further claims fail loudly.
    extra_slot_cache = cache  # same pool
    with pytest.raises(RuntimeError, match="exhausted"):
        extra_slot_cache.pool._claim_page(reserved=False)


def test_eviction_prefers_deep_pages_of_a_parked_run(micro_config):
    """Budget pressure drops a retired prefix's tail before its head, so
    the widely-shared head of a prefix family stays revivable."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8, cache_pages=2)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    writer = cache.allocate()
    for pos in range(12):
        write_position(writer, n_layers, d, pos, float(pos + 1))
        writer.advance()
    prompt = tuple(range(1, 13))
    cache.release(writer, prompt_ids=prompt)     # 3 full pages, budget 2
    assert cache.n_cached_pages == 2
    pages = cache.prefix_cache.lookup(prompt)
    assert len(pages) == 2                       # head survived, tail evicted


def test_park_is_prefix_closed_past_a_resident_sharer(micro_config):
    """A page still mapped by a resident fork ends the parked run: deeper
    pages are released, not parked unreachable (lookup walks from page 0,
    so an entry behind a gap could never be revived yet would hold cache
    budget)."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8, cache_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    donor = cache.allocate()
    for pos in range(12):
        write_position(donor, n_layers, d, pos, float(pos + 1))
        donor.advance()
    holder = cache.fork(donor, 4)          # keeps page 0 mapped
    prompt = tuple(range(1, 13))
    cache.release(donor, prompt_ids=prompt)
    # Page 0 is still the holder's; pages 1 and 2 would be unreachable
    # behind the gap, so nothing may be parked.
    assert cache.n_cached_pages == 0
    assert len(cache.prefix_cache) == 0
    assert cache.prefix_cache.lookup(prompt) == []
    check_invariants(cache, {holder.index: (holder, [1.0, 2.0, 3.0, 4.0])})
    # When the holder itself retires, its (shorter) prefix parks fine.
    cache.release(holder, prompt_ids=prompt[:4])
    # holder held 4 positions = 1 full page -> lookup caps at 0 pages of
    # a 4-token prompt... but the page itself is parked for longer twins.
    assert cache.n_cached_pages == 1
    pages = cache.prefix_cache.lookup(prompt)
    assert len(pages) == 1                 # head revivable again


def test_duplicate_park_refreshes_chain_head_recency(micro_config):
    """A later retirement extending an already-cached prefix must leave
    the shared head *newer* in LRU order than its own tail, so eviction
    breaks the chain tail-first (a head aged out before its tail would
    strand unreachable entries in the budget)."""
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=16, cache_pages=8)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    prompt = tuple(range(1, 13))
    first = cache.allocate()
    for pos in range(4):
        write_position(first, n_layers, d, pos, float(pos + 1))
        first.advance()
    cache.release(first, prompt_ids=prompt[:4])      # parks the head page
    second = cache.allocate()
    for pos in range(12):
        write_position(second, n_layers, d, pos, float(pos + 1))
        second.advance()
    cache.release(second, prompt_ids=prompt)         # extends the chain
    assert cache.n_cached_pages == 3
    # One eviction must shed the *deepest* page, not the (older) head.
    cache.prefix_cache.evict_lru()
    pages = cache.prefix_cache.lookup(prompt)
    assert len(pages) == 2                           # chain 0..1 intact
    cache.prefix_cache.evict_lru()
    assert len(cache.prefix_cache.lookup(prompt)) == 1
    check_invariants(cache, {})


def test_revive_reserves_only_beyond_the_chain(micro_config):
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=32,
                         page_size=4, n_pages=10, cache_pages=4)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    writer = cache.allocate()
    for pos in range(8):
        write_position(writer, n_layers, d, pos, float(pos + 1))
        writer.advance()
    cache.release(writer, prompt_ids=tuple(range(1, 9)))
    assert cache.n_cached_pages == 2
    assert cache.unshared_page_demand(8, 16) == 2    # 4 total - 2 revived
    pages = cache.prefix_cache.lookup(tuple(range(1, 9)) + (7, 7, 7))
    assert len(pages) == 2
    slot = cache.revive(pages, max_positions=16)
    assert slot.length == 8
    assert cache.pool._reserved == 2
    assert cache.n_cached_pages == 0
    cache.release(slot)
    assert cache.pool._reserved == 0


def test_revive_validation_errors(micro_config):
    plain = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    with pytest.raises(RuntimeError, match="cannot revive"):
        plain.revive([0])
    cached = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                          page_size=4, n_pages=8, cache_pages=2)
    with pytest.raises(ValueError, match="at least one cached page"):
        cached.revive([])
    n_layers, d = micro_config.n_layers, micro_config.d_model
    writer = cached.allocate()
    for pos in range(8):
        write_position(writer, n_layers, d, pos, float(pos + 1))
        writer.advance()
    cached.release(writer, prompt_ids=tuple(range(1, 9)))
    pages = cached.prefix_cache.lookup(tuple(range(1, 9)) + (3,))
    with pytest.raises(ValueError, match="below the revived"):
        cached.revive(pages, max_positions=4)


def test_cache_pages_zero_changes_nothing(micro_config):
    """``cache_pages=0`` must release exactly as the pre-cache code."""
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    assert cache.prefix_cache is None
    n_layers, d = micro_config.n_layers, micro_config.d_model
    slot = cache.allocate()
    for pos in range(8):
        write_position(slot, n_layers, d, pos, 1.0)
        slot.advance()
    cache.release(slot, prompt_ids=tuple(range(8)))   # prompt is ignored
    assert cache.n_cached_pages == 0
    assert cache.pool.n_free_pages == 4
    plan = cache.plan(tuple(range(8)))
    assert not plan.pages and plan.shared == 0


# -- seating (plan -> seat -> register -> release) ---------------------------

def _write_prompt(slot, config, n_positions):
    for pos in range(slot.length, n_positions):
        write_position(slot, config.n_layers, config.d_model, pos,
                       float(pos + 1))
        slot.advance()


def test_plan_prefers_fork_over_revive_over_cold(micro_config):
    """One prompt that qualifies for all three seats at once: the
    cascade is decided in ``plan`` alone, cheapest source first."""
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=32,
                         page_size=4, n_pages=16, cache_pages=4)
    prompt = tuple(range(1, 12))                     # 11 tokens, 2 full pages
    resident = cache.seat(cache.plan(prompt, 16))    # cold: nothing to share
    assert resident.length == 0
    _write_prompt(resident, micro_config, len(prompt))
    cache.register(resident, prompt)
    retired = cache.allocate()                       # same tokens, own pages
    _write_prompt(retired, micro_config, len(prompt))
    cache.release(retired, prompt_ids=prompt)
    assert cache.n_cached_pages == 2
    lookups = cache.prefix_cache.hits + cache.prefix_cache.misses

    fork = cache.plan(prompt, 16)
    assert fork.fits and fork.donor is resident and not fork.pages
    assert fork.shared == 10                         # all but the last token
    assert fork == cache.fork_plan(prompt, 16)
    # A fitting fork short-circuits: the prefix cache is never consulted.
    assert cache.prefix_cache.hits + cache.prefix_cache.misses == lookups
    forked = cache.seat(fork)
    assert forked.length == fork.shared
    cache.release(forked)

    cache.release(resident)                          # donor gone, chain stays
    assert cache.fork_plan(prompt, 16).donor is None
    revive = cache.plan(prompt, 16)
    assert revive.fits and revive.donor is None and len(revive.pages) == 2
    assert revive.shared == 8
    revived = cache.seat(revive)
    assert revived.length == revive.shared
    assert cache.n_cached_pages == 0
    cache.release(revived)                           # unregistered: freed

    cold = cache.plan(prompt, 16)
    assert cold.fits and cold.donor is None and not cold.pages
    assert cold.shared == 0
    slot = cache.seat(cold)
    assert slot.length == 0
    cache.release(slot)
    check_invariants(cache, {})


def test_plan_reports_unbackable_seat_and_seat_raises(micro_config):
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=2)
    plan = cache.plan((1, 2, 3), 12)                 # 3 pages of a 2-page pool
    assert not plan.fits and plan.shared == 0
    with pytest.raises(RuntimeError, match="cannot seat"):
        cache.seat(plan)
    assert cache.n_free == 2 and cache.pool._reserved == 0
    assert cache.plan((1, 2, 3), 8).fits
