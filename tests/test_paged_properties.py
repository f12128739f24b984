"""Randomized property tests for the paged KV cache's sharing lifecycle.

Drives :class:`PagePool` / :class:`PagedKVSlot` / :class:`PagedKVCache`
through random interleavings of allocate / fork / append / truncate /
rewrite / release / register / retire / seat against a pure-python model
of the expected contents, asserting after every operation:

* ``free + in_use + cached == n_pages`` (no page is ever lost or
  double-counted; every page is exactly one of free, mapped, parked);
* ``0 <= reserved <= free + cached`` (admission promises are always
  backable -- parked pages are reclaimable on demand);
* every page's refcount equals the number of live page tables mapping
  it; exactly the refcount-0 pages are free or parked;
* the prefix table holds one page per key and one key per page, only
  pages that are not free, every entry under the root or an entry
  holding a full page, and each indexed page's K/V is its tokens; the
  LRU holds only refcount-0 indexed pages, at most ``cache_pages``;
* releasing a forked slot never frees (or corrupts) a page its donor
  still maps, and LRU eviction under page pressure never touches a
  mapped page -- every surviving slot's K/V always matches the model;
* truncating a slot (the speculation rollback) returns only pages no
  other slot maps -- a sharer's page is unpinned, never freed -- and
  re-credits unmapped pages to the slot's reservation, so the sequence
  can always regrow to its admitted worst case;
* a seated prefix holds bit-for-bit the K/V its writers indexed.

K/V cells are stamped with their token (keys ``+t``, values ``-t``), so a
slot's expected contents *are* its prompt.
"""

from collections import Counter

import numpy as np
import pytest

import repro.model.paged_kvcache as paged_kvcache
from repro.model.paged_kvcache import PagedKVCache, SeatPlan

from helpers import donor_plan, fork_from

N_SLOTS = 4
N_PAGES = 10


def check_invariants(cache: PagedKVCache, live: dict) -> None:
    pool = cache.pool
    assert pool.n_free_pages + pool.n_pages_in_use + pool.n_cached_pages \
        == pool.n_pages
    assert 0 <= pool._reserved <= pool.n_free_pages + pool.n_cached_pages
    refs = Counter()
    for slot, _ in live.values():
        refs.update(slot.page_table)
    for page in range(pool.n_pages):
        assert pool.refcount(page) == refs.get(page, 0), (
            f"page {page}: refcount {pool.refcount(page)} != "
            f"{refs.get(page, 0)} table references"
        )
        unmapped = pool._is_free(page) or page in pool._parked
        assert unmapped == (refs.get(page, 0) == 0)
    shared = sum(1 for page, n in refs.items() if n > 1)
    assert pool.n_shared_pages == shared
    # The prefix table: every indexed page under exactly one key, every
    # key holding one page, and the radix edges mirroring the entries.
    table = pool._table
    assert len(pool._key_of) == len(table)
    assert all(table[key][0] == page for page, key in pool._key_of.items())
    assert not any(pool._is_free(page) for page in pool._key_of)
    assert {(parent, key) for key, (_, _, parent) in table.items()} == \
        {(parent, key) for parent, children in pool._children.items()
         for key in children}
    # Closed under parents: every entry hangs off the root or an entry
    # holding a full page, and only leaves hold partial pages.
    for page, tokens, parent in table.values():
        assert parent == 0 or len(table[parent][1]) == pool.page_size
        assert 0 < len(tokens) <= pool.page_size
    # The LRU holds only refcount-0 indexed pages, within its budget.
    assert all(pool.refcount(page) == 0 and page in pool._key_of
               for page in pool._parked)
    assert len(pool._parked) <= pool.cache_pages


def check_contents(cache: PagedKVCache, live: dict, n_layers: int) -> None:
    """Every live slot's K/V matches its model, and every indexed page
    holds its own tokens, on every layer."""
    for slot, stamps in live.values():
        if not stamps:
            continue
        for layer in range(n_layers):
            keys, values = slot.view(layer, len(stamps))
            np.testing.assert_array_equal(keys[:, 0], np.array(stamps))
            np.testing.assert_array_equal(values[:, 0], -np.array(stamps))
    pool = cache.pool
    for page, tokens, _ in pool._table.values():
        n = len(tokens)
        tokens = np.array(tokens, dtype=float)
        for layer in range(n_layers):
            np.testing.assert_array_equal(pool.keys[layer, page, :n, 0],
                                          tokens)
            np.testing.assert_array_equal(pool.values[layer, page, :n, 0],
                                          -tokens)


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
            plan = donor_plan(cache, donor, shared, max_positions)
            if cache._seat_error(plan) is not None:
                with pytest.raises((RuntimeError, ValueError)):
                    cache.seat(plan)
                continue
            slot = cache.seat(plan)
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
    fork = fork_from(cache, donor, 10)        # 2 full shared pages + 1 copied
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
    fork = fork_from(cache, donor, 8)          # page-aligned: both pages shared
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
    fork = fork_from(cache, donor, 8, max_positions=16)
    assert cache.n_available_pages == 5
    assert fork.n_pages == 2                          # shared pages only
    assert cache.pool._reserved == 2
    cache.release(fork)
    assert cache.n_available_pages == 7


def test_seat_validation_errors(micro_config):
    """A seat whose plan no longer holds, or asks for too little, raises
    before it changes anything."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8)
    donor = cache.allocate()
    n_layers, d = micro_config.n_layers, micro_config.d_model
    for pos in range(5):
        write_position(donor, n_layers, d, pos, 1.0)
        donor.advance()
    with pytest.raises(ValueError, match="below the shared"):
        fork_from(cache, donor, 4, max_positions=3)
    with pytest.raises(ValueError, match="stale plan"):   # pages miss a page
        cache.seat(SeatPlan(0, True, 5, 5, donor.page_table[:1]))
    stale = SeatPlan(0, True, 4, 4, tuple(donor.page_table[:1]))
    cache.release(donor)                               # unindexed: freed
    with pytest.raises(ValueError, match="stale plan"):
        cache.seat(stale)
    assert cache.n_free == 2 and cache.n_pages_in_use == 0
    check_invariants(cache, {})


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
    fork = fork_from(cache, donor, 8)            # page-aligned: 2 shared pages
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
    fork = fork_from(cache, donor, 8)
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




# -- the prefix table (one longest-match lookup, one seat) -------------------


@pytest.mark.parametrize("page_size", [1, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleavings_with_prefix_table(micro_config, page_size,
                                                seed):
    """The fork/COW interleaving property, extended with the table.

    ``register`` indexes a live slot's stamps as its prompt, ``retire``
    releases a slot *with* its prompt (so its full pages stay parked),
    and ``seat`` plans a prompt seen before and seats the longest match
    -- whose contents must then equal the prompt's tokens, bit for bit.
    All the shared-pool and table invariants hold after every operation.
    """
    rng = np.random.default_rng(seed)
    max_seq_len = page_size * 6
    cache = PagedKVCache(micro_config, n_slots=N_SLOTS,
                         max_seq_len=max_seq_len, page_size=page_size,
                         n_pages=N_PAGES, cache_pages=N_PAGES // 2)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    live: dict = {}               # slot index -> (slot, expected stamps)
    known: list = []              # prompts (stamp tuples) seen by the table
    stamp = 0.0

    for op_index in range(200):
        op = rng.choice(["allocate", "fork", "append", "truncate",
                         "rewrite", "release", "register", "retire",
                         "seat"])
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
            plan = donor_plan(cache, donor, shared, max_positions)
            if cache._seat_error(plan) is not None:
                with pytest.raises((RuntimeError, ValueError)):
                    cache.seat(plan)
                continue
            slot = cache.seat(plan)
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
                # May land on a shared or indexed page: copy-on-write
                # must detach this slot without touching the others.
                write_position(slot, n_layers, d, position, stamp)
            except RuntimeError:
                continue          # COW could not claim an unreserved page
            stamps[position] = stamp
        elif op in ("release", "register", "retire"):
            if not live:
                continue
            index = int(rng.choice(list(live)))
            slot, stamps = live[index]
            prompt = tuple(int(s) for s in stamps)
            if op == "release":
                cache.release(slot)
            elif op == "register":
                cache.register(slot, prompt)
            else:
                cache.release(slot, prompt_ids=prompt)
            if op != "register":
                del live[index]
            if len(prompt) > page_size:
                known.append(prompt)
        else:   # seat
            if not known:
                continue
            prompt = known[int(rng.integers(len(known)))]
            needed = int(rng.choice([0, len(prompt), max_seq_len]))
            plan = cache.plan(prompt, needed)
            if not plan.fits:
                with pytest.raises((RuntimeError, ValueError)):
                    cache.seat(plan)
                continue
            slot = cache.seat(plan)
            assert slot.length == plan.shared < len(prompt)
            expect = [float(t) for t in prompt[:plan.shared]]
            check_contents(cache, {slot.index: (slot, expect)}, n_layers)
            live[slot.index] = (slot, expect)
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


def _write_prompt(slot, config, prompt):
    """Prefill stand-in: stamp ``prompt``'s tokens past ``slot.length``."""
    for pos in range(slot.length, len(prompt)):
        write_position(slot, config.n_layers, config.d_model, pos,
                       float(prompt[pos]))
        slot.advance()


def _registered(cache, config, prompt):
    """A live slot holding ``prompt``, its full pages in the table."""
    slot = cache.seat(cache.plan(prompt, 0))
    _write_prompt(slot, config, prompt)
    cache.register(slot, prompt)
    return slot


def _assert_holds(slot, config, tokens):
    expect = np.array(tokens, dtype=float)
    for layer in range(config.n_layers):
        keys, values = slot.view(layer, len(tokens))
        np.testing.assert_array_equal(keys[:, 0], expect)
        np.testing.assert_array_equal(values[:, 0], -expect)


def test_resident_head_and_parked_tail_seat_the_longer_match(micro_config):
    """One lookup over every indexed page: a live sequence maps the
    chain's head, parked pages hold the rest, and the seat takes all of
    it (a resident-first cascade would stop at the live sharer's page)."""
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=32,
                         page_size=4, n_pages=16, cache_pages=8)
    prompt = tuple(range(1, 14))
    writer = cache.allocate()
    _write_prompt(writer, micro_config, prompt)
    cache.release(writer, prompt_ids=prompt)     # pages 0-2 parked
    head_prompt = prompt[:4] + (20, 21, 22, 23, 24)
    head = _registered(cache, micro_config, head_prompt)
    assert head.length == 9 and cache.n_cached_pages == 2   # page 0 pinned

    query = prompt[:12] + (70,)
    plan = cache.plan(query, 16)
    assert plan.fits and plan.shared == 12 and plan.resident == 4
    slot = cache.seat(plan)
    assert slot.page_table[0] == head.page_table[0]
    _assert_holds(slot, micro_config, query[:12])
    assert cache.n_cached_pages == 0
    live = {head.index: (head, [float(t) for t in head_prompt]),
            slot.index: (slot, [float(t) for t in query[:12]])}
    check_invariants(cache, live)
    check_contents(cache, live, micro_config.n_layers)


def test_one_lookup_seats_resident_parked_and_cold(micro_config):
    """The same prompt matched through a live sequence, then through its
    parked pages once it retires, then cold for an unrelated prompt; a
    match ending mid-page copies that page from either kind of source."""
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=32,
                         page_size=4, n_pages=16, cache_pages=4)
    resident = _registered(cache, micro_config, tuple(range(1, 14)))
    prompt = tuple(range(1, 12)) + (50,)     # diverges inside page 2
    plan = cache.plan(prompt, 16)
    assert plan.fits and plan.shared == plan.resident == 11
    assert plan.pages == tuple(resident.page_table[:3])
    forked = cache.seat(plan)
    assert forked.page_table[:2] == resident.page_table[:2]
    assert forked.page_table[2] != resident.page_table[2]     # the copy
    _assert_holds(forked, micro_config, prompt[:11])
    cache.release(forked)

    cache.release(resident)                  # all three pages stay parked
    assert cache.n_cached_pages == 3
    plan = cache.plan(prompt, 16)
    assert plan.fits and plan.shared == 11 and plan.resident == 0
    revived = cache.seat(plan)
    _assert_holds(revived, micro_config, prompt[:11])
    assert cache.n_cached_pages == 1         # the copy source re-parked
    cache.release(revived)

    cold = cache.plan((9, 9, 9, 9, 9, 9), 16)
    assert cold.fits and cold.shared == 0 and not cold.pages
    slot = cache.seat(cold)
    assert slot.length == 0
    cache.release(slot)
    check_invariants(cache, {})


def test_match_is_capped_one_token_short(micro_config):
    """At least one prompt token is always left to prefill, even when
    the table holds the whole prompt; within that cap the match runs
    past the last full page into a child page."""
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=32,
                         page_size=4, n_pages=16)
    _registered(cache, micro_config, tuple(range(1, 13)))
    assert cache.plan(tuple(range(1, 13))).shared == 11
    assert cache.plan(tuple(range(1, 9))).shared == 7
    assert cache.plan(tuple(range(1, 10)) + (0,)).shared == 9


def test_prompts_no_longer_than_a_page_never_match(micro_config):
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=32,
                         page_size=8, n_pages=8, cache_pages=4)
    _registered(cache, micro_config, tuple(range(1, 9)))
    assert cache.plan(tuple(range(1, 5))).shared == 0
    assert cache.plan(tuple(range(1, 9))).shared == 0
    short = _registered(cache, micro_config, (1, 2, 3))
    cache.release(short, prompt_ids=(1, 2, 3))   # no full page: not indexed
    assert len(cache.pool._table) == 1


def test_hash_collisions_never_share_other_tokens(micro_config, monkeypatch):
    """With every prompt's page ``i`` forced onto one key, the stored
    tokens still decide: a match stops where the tokens differ, and an
    index walk stops at a key held for other tokens, so the pages past
    it are freed at release rather than parked out of reach."""
    monkeypatch.setattr(
        paged_kvcache, "chained_prefix_keys",
        lambda prompt, page_size: list(range(1, len(prompt) // page_size + 1)))
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=32,
                         page_size=4, n_pages=12, cache_pages=8)
    first = _registered(cache, micro_config, tuple(range(1, 10)))
    other = (1, 2, 3, 4, 9, 9, 9, 9, 7)
    assert cache.plan(other).shared == 4
    assert cache.plan((9,) * 9).shared == 0
    second = _registered(cache, micro_config, other)
    assert second.page_table[0] == first.page_table[0]   # same tokens
    # first's two full pages and its partial last page; none of other's
    assert len(cache.pool._table) == 3
    cache.release(second, prompt_ids=other)
    assert cache.n_cached_pages == 0         # page 0 is still first's
    cache.release(first)
    assert cache.n_cached_pages == 2
    check_invariants(cache, {})


def test_a_live_prompts_partial_last_page_is_matched(micro_config):
    """A prompt that extends a live prompt by less than a page shares
    the live prompt's partial last page too: 17 positions of an 18-token
    prompt over a 19-token live one at page size 16, the last one
    copied, and all of it resident."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=32,
                         page_size=16, n_pages=4)
    prefix = tuple(range(1, 18))
    live = _registered(cache, micro_config, prefix + (8, 2))
    plan = cache.plan(prefix + (4,), 32)
    assert plan.fits and plan.shared == plan.resident == 17
    assert plan.pages == tuple(live.page_table)
    slot = cache.seat(plan)
    assert slot.page_table[0] == live.page_table[0]
    assert slot.page_table[1] != live.page_table[1]      # the copy
    _assert_holds(slot, micro_config, prefix)
    assert cache.plan(prefix[:16] + (0, 0)).shared == 16
    check_invariants(cache, {live.index: (live, []), slot.index: (slot, [])})


def test_partial_page_leaf_lives_with_its_prompt_positions(micro_config):
    """Decoding past a live prompt's indexed tokens writes its partial
    last page in place; rewriting one of those tokens copies the page
    and drops the leaf; and a released leaf is freed, never parked."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8, cache_pages=8)
    prompt = (1, 2, 3, 4, 5, 6)
    slot = _registered(cache, micro_config, prompt)
    leaf = slot.page_table[1]
    assert cache.plan(prompt[:5] + (0,)).shared == 5
    _write_prompt(slot, micro_config, prompt + (7, 8))   # decode, in place
    assert slot.page_table[1] == leaf
    assert cache.plan(prompt + (0,)).shared == 6
    write_position(slot, micro_config.n_layers, micro_config.d_model, 5, 9.0)
    assert slot.page_table[1] != leaf                    # copy-on-write
    assert cache.plan(prompt + (0,)).shared == 4
    cache.release(slot)
    assert cache.n_cached_pages == 1                     # the full page
    other = _registered(cache, micro_config, prompt)
    cache.release(other)
    assert cache.n_cached_pages == 1 and len(cache.pool._table) == 1
    check_invariants(cache, {})


def test_an_unreachable_subtree_leaves_the_table(micro_config):
    """Freeing an indexed page unindexes every entry below it -- the
    lookup can no longer reach them -- and frees the parked ones, so
    every entry always hangs off an indexed parent."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8, cache_pages=8)
    prompt = tuple(range(1, 14))
    slot = _registered(cache, micro_config, prompt)
    tail = slot.page_table[2]
    slot.truncate(8)                     # page 2 parked; page 3, the leaf,
    assert cache.n_cached_pages == 1     # freed
    write_position(slot, micro_config.n_layers, micro_config.d_model, 0, 0.0)
    assert cache.n_cached_pages == 2     # the rewritten head, parked
    cache.pool._evict()                  # the tail page, least recent
    assert cache.pool._is_free(tail)
    cache.pool._evict()                  # the head: page 1 is unreachable
    assert cache.pool._table == {} and cache.n_cached_pages == 0
    check_invariants(cache, {slot.index: (slot, [])})


def test_a_page_leaves_the_table_only_when_freed(micro_config):
    """Without a parking budget a page reaching refcount 0 is freed and
    forgotten; while a sharer maps it, it stays matchable."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=32,
                         page_size=4, n_pages=8)
    prompt = tuple(range(1, 10))
    donor = _registered(cache, micro_config, prompt)
    sharer = cache.seat(cache.plan(prompt[:4] + (0, 0), 0))
    cache.release(donor)
    assert cache.plan(prompt).shared == 4        # page 0: the sharer's
    cache.release(sharer)
    assert cache.plan(prompt).shared == 0
    assert cache.pool._table == {} and cache.pool._children == {}
    assert cache.n_free_pages == 8


def test_partial_copy_from_a_parked_source_survives_a_full_pool(
    micro_config
):
    """The page a match ends in is copied after the seat claims its
    destination.  With no free page that claim evicts the LRU head --
    here the copy source itself, unless the seat pins it first."""
    cache = PagedKVCache(micro_config, n_slots=3, max_seq_len=16,
                         page_size=4, n_pages=5, cache_pages=5)
    prompt = tuple(range(1, 10))
    writer = _registered(cache, micro_config, prompt)
    source = writer.page_table[1]
    cache.release(writer)                        # LRU: page 1, then page 0
    other = _registered(cache, micro_config, (40, 41, 42, 43, 44))
    cache.release(other)                         # LRU: ..., then this one
    hog = cache.allocate()
    _write_prompt(hog, micro_config, (90,) * 8)
    assert cache.n_free_pages == 0 and cache.n_cached_pages == 3
    assert next(iter(cache.pool._parked)) == source

    query = (1, 2, 3, 4, 5, 6, 99)
    plan = cache.plan(query, 0)
    assert plan.fits and plan.shared == 6 and plan.pages[1] == source
    slot = cache.seat(plan)
    _assert_holds(slot, micro_config, query[:6])
    assert slot.page_table[1] != source
    _write_prompt(slot, micro_config, query)     # prefill the suffix
    cache.release(slot)
    cache.release(hog)
    # The source kept its page, its K/V and its place in the table.
    again = cache.plan(prompt, 0)
    assert again.shared == 8 and again.pages[1] == source
    _assert_holds(cache.seat(again), micro_config, prompt[:8])


def test_a_parked_source_that_cannot_back_its_copy_is_dropped(micro_config):
    """On an idle pool a request as large as the pool must still fit: when
    pinning the copy source would leave its copy nothing to claim, the
    plan keeps the full pages only."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=3, cache_pages=3)
    writer = _registered(cache, micro_config, tuple(range(1, 10)))
    cache.release(writer)                        # 2 parked, 1 free
    plan = cache.plan((1, 2, 3, 4, 5, 6, 99), 12)     # the whole pool
    assert plan.fits and plan.shared == 4
    _assert_holds(cache.seat(plan), micro_config, (1, 2, 3, 4))


def test_eviction_under_pressure_never_frees_pinned_pages(micro_config):
    """Filling the pool on top of parked pages evicts only parked pages
    -- mapped (refcounted) pages and their contents survive."""
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
    # 2 parked + 2 mapped; claim the remaining 6 pages -> the allocator
    # must reclaim both parked pages, never the survivor's.
    hog = cache.allocate()
    for pos in range(16):
        write_position(hog, n_layers, d, pos, 200.0 + pos)
        hog.advance()
    evicting = cache.allocate()
    for pos in range(8):
        write_position(evicting, n_layers, d, pos, 300.0 + pos)
        evicting.advance()
    assert cache.n_cached_pages == 0
    assert cache.pool.evictions == 2
    assert cache.pool.n_free_pages == 0
    keys, _ = survivor.view(0, 8)
    np.testing.assert_array_equal(keys[:, 0], 100.0 + np.arange(8))
    # The parked prefix is gone -- the lookup must now miss, not
    # resurrect freed (since overwritten) pages.
    assert cache.plan(prompt + (0,)).shared == 0
    # Pool exhausted and nothing parked: further claims fail loudly.
    with pytest.raises(RuntimeError, match="exhausted"):
        cache.pool._claim_page(reserved=False)


def test_eviction_drops_a_chains_tail_first(micro_config):
    """Budget pressure drops a retired prefix's tail before its head, so
    the widely-shared head of a prefix family stays matchable."""
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=8, cache_pages=2)
    prompt = tuple(range(1, 13))
    writer = cache.allocate()
    _write_prompt(writer, micro_config, prompt)
    cache.release(writer, prompt_ids=prompt)     # 3 full pages, budget 2
    assert cache.n_cached_pages == 2
    assert cache.plan(prompt + (0,)).shared == 8     # head survived


def test_parking_runs_deepest_page_first(micro_config):
    """One release parks its chain with the deepest page oldest in the
    LRU, and a later retirement that extends a parked chain leaves the
    shared head *newer* than its own tail, so eviction breaks the chain
    tail-first (a head aged out before its tail would strand unreachable
    entries in the budget)."""
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=16, cache_pages=8)
    prompt = tuple(range(1, 13))
    first = cache.allocate()
    _write_prompt(first, micro_config, prompt[:4])
    cache.release(first, prompt_ids=prompt[:4])      # parks the head page
    head = next(iter(cache.pool._parked))
    second = cache.allocate()
    _write_prompt(second, micro_config, prompt)
    tail = second.page_table[1:]
    cache.release(second, prompt_ids=prompt)         # extends the chain
    assert list(cache.pool._parked) == tail[::-1] + [head]
    cache.pool._evict()                              # the deepest page
    assert cache.plan(prompt + (0,)).shared == 8
    cache.pool._evict()
    assert cache.plan(prompt + (0,)).shared == 4
    check_invariants(cache, {})


def test_seat_reserves_only_beyond_the_full_pages(micro_config):
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=32,
                         page_size=4, n_pages=10, cache_pages=4)
    writer = cache.allocate()
    _write_prompt(writer, micro_config, tuple(range(1, 9)))
    cache.release(writer, prompt_ids=tuple(range(1, 9)))
    assert cache.n_cached_pages == 2
    assert cache.unshared_page_demand(8, 16) == 2    # 4 total - 2 matched
    plan = cache.plan(tuple(range(1, 9)) + (7, 7, 7), 16)
    assert plan.shared == 8 and len(plan.pages) == 2
    slot = cache.seat(plan)
    assert slot.length == 8
    assert cache.pool._reserved == 2
    assert cache.n_cached_pages == 0
    cache.release(slot)
    assert cache.pool._reserved == 0
    plan = cache.plan(tuple(range(1, 9)) + (3,), 4)  # needs less than shared
    assert not plan.fits
    with pytest.raises(ValueError, match="below the shared"):
        cache.seat(plan)


def test_cache_pages_zero_changes_nothing(micro_config):
    """``cache_pages=0`` releases exactly as with no table at all."""
    cache = PagedKVCache(micro_config, n_slots=1, max_seq_len=16,
                         page_size=4, n_pages=4)
    n_layers, d = micro_config.n_layers, micro_config.d_model
    slot = cache.allocate()
    for pos in range(8):
        write_position(slot, n_layers, d, pos, 1.0)
        slot.advance()
    cache.release(slot, prompt_ids=tuple(range(8)))   # nothing is parked
    assert cache.n_cached_pages == 0
    assert cache.pool.n_free_pages == 4
    plan = cache.plan(tuple(range(8)))
    assert not plan.pages and plan.shared == 0


def test_plan_reports_unbackable_seat_and_seat_raises(micro_config):
    cache = PagedKVCache(micro_config, n_slots=2, max_seq_len=16,
                         page_size=4, n_pages=2)
    plan = cache.plan((1, 2, 3), 12)                 # 3 pages of a 2-page pool
    assert not plan.fits and plan.shared == 0
    with pytest.raises(RuntimeError, match="cannot seat"):
        cache.seat(plan)
    assert cache.n_free == 2 and cache.pool._reserved == 0
    assert cache.plan((1, 2, 3), 8).fits
