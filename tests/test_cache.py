"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import SetAssociativeCache, TagCache


class TestBasics:
    def test_miss_then_hit(self):
        c = SetAssociativeCache(16, 4)
        assert not c.lookup(5)
        c.insert(5)
        assert c.lookup(5)

    def test_counters(self):
        c = SetAssociativeCache(16, 4)
        c.lookup(1)
        c.insert(1)
        c.lookup(1)
        assert c.misses == 1 and c.hits == 1
        assert c.hit_rate == 0.5

    def test_contains_no_side_effects(self):
        c = SetAssociativeCache(16, 4)
        c.insert(3)
        hits, misses = c.hits, c.misses
        assert c.contains(3)
        assert not c.contains(4)
        assert (c.hits, c.misses) == (hits, misses)

    def test_len_counts_resident_lines(self):
        c = SetAssociativeCache(16, 4)
        for i in range(5):
            c.insert(i)
        assert len(c) == 5

    def test_iteration_yields_resident_lines(self):
        c = SetAssociativeCache(16, 4)
        for i in (1, 2, 17):
            c.insert(i)
        assert sorted(c) == [1, 2, 17]

    def test_set_mapping(self):
        c = SetAssociativeCache(16, 4)  # 4 sets
        assert c.n_sets == 4
        # Lines 0 and 4 share set 0; fill it and check independence.
        for line in (0, 4, 8, 12):
            c.insert(line)
        c.insert(1)  # set 1 unaffected
        assert all(c.contains(x) for x in (0, 4, 8, 12, 1))

    def test_reset_counters(self):
        c = SetAssociativeCache(16, 4)
        c.lookup(1)
        c.reset_counters()
        assert c.hits == 0 and c.misses == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 4)
        with pytest.raises(ValueError):
            SetAssociativeCache(16, 0)
        with pytest.raises(ValueError):
            SetAssociativeCache(15, 4)

    def test_small_cache_degenerates_to_full_assoc(self):
        c = SetAssociativeCache(2, 8)
        assert c.ways == 2 and c.n_sets == 1


class TestLru:
    def test_lru_eviction_order(self):
        c = SetAssociativeCache(4, 4)  # one set, 4 ways
        for line in (0, 1, 2, 3):
            c.insert(line)
        victim = c.insert(4)
        assert victim is not None and victim.line == 0

    def test_lookup_refreshes_recency(self):
        c = SetAssociativeCache(4, 4)
        for line in (0, 1, 2, 3):
            c.insert(line)
        c.lookup(0)  # 0 becomes MRU; 1 is now LRU
        victim = c.insert(4)
        assert victim.line == 1

    def test_reinsert_refreshes_recency(self):
        c = SetAssociativeCache(4, 4)
        for line in (0, 1, 2, 3):
            c.insert(line)
        c.insert(0)
        victim = c.insert(4)
        assert victim.line == 1

    def test_lookup_without_lru_update(self):
        c = SetAssociativeCache(4, 4)
        for line in (0, 1, 2, 3):
            c.insert(line)
        c.lookup(0, update_lru=False)
        victim = c.insert(4)
        assert victim.line == 0

    def test_insert_returns_none_without_eviction(self):
        c = SetAssociativeCache(4, 4)
        assert c.insert(0) is None


class TestDirtyAndRemote:
    def test_insert_dirty(self):
        c = SetAssociativeCache(4, 4)
        c.insert(1, dirty=True)
        victim_gen = c.invalidate_line(1)
        assert victim_gen.dirty

    def test_reinsert_ors_dirty(self):
        c = SetAssociativeCache(4, 4)
        c.insert(1, dirty=True)
        c.insert(1, dirty=False)
        assert c.invalidate_line(1).dirty

    def test_mark_dirty_present(self):
        c = SetAssociativeCache(4, 4)
        c.insert(2)
        assert c.mark_dirty(2)
        assert c.invalidate_line(2).dirty

    def test_mark_dirty_absent(self):
        c = SetAssociativeCache(4, 4)
        assert not c.mark_dirty(9)

    def test_eviction_carries_dirty_state(self):
        c = SetAssociativeCache(4, 4)
        c.insert(0, dirty=True)
        for line in (1, 2, 3):
            c.insert(line)
        victim = c.insert(4)
        assert victim.line == 0 and victim.dirty

    def test_remote_flag_tracked(self):
        c = SetAssociativeCache(4, 4)
        c.insert(1, remote=True)
        c.insert(2, remote=False)
        assert c.invalidate_line(1).remote
        assert not c.invalidate_line(2).remote


class TestBulkOps:
    def test_invalidate_all_returns_dirty(self):
        c = SetAssociativeCache(8, 4)
        c.insert(1, dirty=True)
        c.insert(2)
        c.insert(3, dirty=True)
        dirty = c.invalidate_all()
        assert sorted(e.line for e in dirty) == [1, 3]
        assert len(c) == 0

    def test_invalidate_remote_keeps_local(self):
        c = SetAssociativeCache(8, 4)
        c.insert(1, remote=True)
        c.insert(2, remote=False)
        dropped = c.invalidate_remote()
        assert dropped == 1
        assert not c.contains(1) and c.contains(2)

    def test_flush_dirty_cleans_but_keeps_lines(self):
        c = SetAssociativeCache(8, 4)
        c.insert(1, dirty=True)
        c.insert(2)
        flushed = c.flush_dirty()
        assert [e.line for e in flushed] == [1]
        assert c.contains(1)
        # Second flush finds nothing.
        assert c.flush_dirty() == []

    def test_invalidate_line_absent_returns_none(self):
        c = SetAssociativeCache(8, 4)
        assert c.invalidate_line(99) is None


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = SetAssociativeCache(16, 4)
        for line in lines:
            c.insert(line)
        assert len(c) <= 16
        for s in c._sets:
            assert len(s) <= c.ways

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=300))
    def test_resident_lines_map_to_their_set(self, lines):
        c = SetAssociativeCache(16, 4)
        for line in lines:
            c.insert(line)
        for i, s in enumerate(c._sets):
            for line in s:
                assert line % c.n_sets == i

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=200))
    def test_most_recent_insert_is_resident(self, lines):
        c = SetAssociativeCache(8, 2)
        for line in lines:
            c.insert(line)
            assert c.contains(line)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60), st.booleans()
            ),
            max_size=200,
        )
    )
    def test_hits_plus_misses_equals_lookups(self, ops):
        c = SetAssociativeCache(8, 4)
        lookups = 0
        for line, do_insert in ops:
            if do_insert:
                c.insert(line)
            else:
                c.lookup(line)
                lookups += 1
        assert c.hits + c.misses == lookups


class _ListLru:
    """Reference model: per-set lists of ``[line, dirty, remote]``,
    LRU first, with the documented semantics of every operation."""

    def __init__(self, n_lines, ways):
        self.ways = min(ways, n_lines)
        self.sets = [[] for _ in range(n_lines // self.ways)]
        self.hits = 0
        self.misses = 0

    def _find(self, line):
        s = self.sets[line % len(self.sets)]
        for entry in s:
            if entry[0] == line:
                return s, entry
        return s, None

    def lookup(self, line, update_lru):
        s, entry = self._find(line)
        if entry is None:
            self.misses += 1
            return False
        self.hits += 1
        if update_lru:
            s.remove(entry)
            s.append(entry)
        return True

    def insert(self, line, dirty, remote):
        s, entry = self._find(line)
        if entry is not None:
            entry[1] = entry[1] or dirty
            entry[2] = remote
            s.remove(entry)
            s.append(entry)
            return None
        victim = tuple(s.pop(0)) if len(s) >= self.ways else None
        s.append([line, dirty, remote])
        return victim

    def mark_dirty(self, line):
        s, entry = self._find(line)
        if entry is None:
            return False
        entry[1] = True
        s.remove(entry)
        s.append(entry)
        return True

    def invalidate_line(self, line):
        s, entry = self._find(line)
        if entry is None:
            return None
        s.remove(entry)
        return tuple(entry)

    def invalidate_all(self):
        dirty = [tuple(e) for s in self.sets for e in s if e[1]]
        for s in self.sets:
            s.clear()
        return dirty

    def invalidate_remote(self):
        dropped = 0
        for s in self.sets:
            keep = [e for e in s if not e[2]]
            dropped += len(s) - len(keep)
            s[:] = keep
        return dropped

    def flush_dirty(self):
        flushed = []
        for s in self.sets:
            for e in s:
                if e[1]:
                    flushed.append((e[0], True, e[2]))
                    e[1] = False
        return flushed


def _victim(ev):
    return None if ev is None else (ev.line, ev.dirty, ev.remote)


_OPS = st.tuples(
    st.sampled_from([
        "insert", "lookup", "mark_dirty", "invalidate_line",
        "invalidate_all", "invalidate_remote", "flush_dirty",
    ]),
    st.integers(min_value=0, max_value=9),
    st.booleans(),
    st.booleans(),
)


class TestFlagStateModel:
    """The flag-int line state behaves exactly like a list-based LRU."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(1, 1), (2, 8), (4, 4), (6, 3), (8, 2), (8, 4)]),
        # Long sequences: a dirty line, a later fill of its set and then a
        # bulk op is the kind of interleaving that needs dozens of ops.
        st.lists(_OPS, min_size=20, max_size=120),
    )
    def test_matches_list_lru(self, geometry, ops):
        from repro.memory.cache import DIRTY, REMOTE

        cache = SetAssociativeCache(*geometry)
        ref = _ListLru(*geometry)
        for op, line, a, b in ops:
            if op == "insert":
                got = _victim(cache.insert(line, dirty=a, remote=b))
                want = ref.insert(line, a, b)
            elif op == "lookup":
                got = cache.lookup(line, update_lru=a)
                want = ref.lookup(line, a)
            elif op == "mark_dirty":
                got = cache.mark_dirty(line)
                want = ref.mark_dirty(line)
            elif op == "invalidate_line":
                got = _victim(cache.invalidate_line(line))
                want = ref.invalidate_line(line)
            elif op == "invalidate_remote":
                got = cache.invalidate_remote()
                want = ref.invalidate_remote()
            else:
                got = [_victim(e) for e in getattr(cache, op)()]
                want = getattr(ref, op)()
            assert got == want, op
            # Residency, LRU order and per-line flags, set by set.
            assert [
                [(ln, bool(f & DIRTY), bool(f & REMOTE)) for ln, f in s.items()]
                for s in cache.sets
            ] == [[tuple(e) for e in s] for s in ref.sets]
            assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
            assert len(cache) == sum(len(s) for s in ref.sets)


_TAG_OPS = st.tuples(
    st.sampled_from([
        "insert", "lookup", "invalidate_line", "invalidate_all",
        "invalidate_remote", "flush_dirty",
    ]),
    st.integers(min_value=0, max_value=9),
    st.booleans(),
)


class TestTagCacheModel:
    """The tag-only list sets behave exactly like a list-based LRU."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(1, 1), (2, 8), (4, 4), (6, 3), (8, 2), (8, 4)]),
        st.lists(_TAG_OPS, min_size=20, max_size=120),
    )
    def test_matches_list_lru(self, geometry, ops):
        cache = TagCache(*geometry)
        ref = _ListLru(*geometry)
        for op, line, a in ops:
            if op == "insert":
                got = _victim(cache.insert(line))
                want = ref.insert(line, False, False)
            elif op == "lookup":
                got = cache.lookup(line, update_lru=a)
                want = ref.lookup(line, a)
            elif op == "invalidate_line":
                got = _victim(cache.invalidate_line(line))
                want = ref.invalidate_line(line)
            else:
                got = getattr(cache, op)()
                want = getattr(ref, op)()
            assert got == want, op
            # Residency and LRU order, set by set.
            assert [list(s) for s in cache.sets] == [
                [e[0] for e in s] for s in ref.sets
            ]
            assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
            assert len(cache) == sum(len(s) for s in ref.sets)
            assert sorted(cache) == sorted(e[0] for s in ref.sets for e in s)
            assert cache.contains(line) == (ref._find(line)[1] is not None)

    @pytest.mark.parametrize("flags", [{"dirty": True}, {"remote": True}])
    def test_insert_with_state_raises(self, flags):
        c = TagCache(16, 4)
        with pytest.raises(ValueError):
            c.insert(1, **flags)
        assert not c.contains(1)

    def test_mark_dirty_raises(self):
        c = TagCache(16, 4)
        c.insert(1)
        with pytest.raises(ValueError):
            c.mark_dirty(1)

    def test_shares_geometry_checks(self):
        with pytest.raises(ValueError):
            TagCache(15, 4)
        c = TagCache(2, 8)
        assert c.ways == 2 and c.n_sets == 1
