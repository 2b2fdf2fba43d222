"""Property test: the dict-backed CacheSlice equals a naive reference.

The reference model below is the obvious O(ways) implementation the slice
had before the hot-path rewrite: a list of entries per set, linear-scan
lookup, and LRU victim chosen by ``min`` over stamps.  Hypothesis drives
both models through the same random operation sequence (lookup+touch,
insert, invalidate, flush) with **strictly increasing stamps** — the
invariant the hierarchy guarantees and the recency-ordered dict relies on —
and demands identical observable behaviour at every step:

- same hit/miss answer and same evicted line for every operation,
- same ``entries()`` iteration order (the checkpoint digest hashes it),
- same ``victim_candidate`` at every point.

The slice keeps one recency dict per set and recovers fill order from each
entry's ``filled`` key, so two further cases pin that order where it is
easiest to lose: across an ``export_arrays``/``import_arrays`` round trip
in the middle of the sequence, and under tree-PLRU, whose way indices are
positions in the fill order (the reference drives its own
``TreePlruPolicy`` on list positions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.cache import CacheSlice
from repro.caches.replacement import TreePlruPolicy


class ReferenceSlice:
    """Naive list-scan LRU slice: the pre-rewrite semantics, unoptimised."""

    def __init__(self, sets, ways):
        self.sets = sets
        self.ways = ways
        self._data = [[] for _ in range(sets)]

    def _set(self, line):
        return self._data[line & (self.sets - 1)]

    def lookup(self, line):
        for entry in self._set(line):
            if entry[0] == line:
                return entry
        return None

    def touch(self, entry, stamp):
        entry[3] = stamp

    def insert(self, line, owner, dirty, stamp):
        ways = self._set(line)
        victim = None
        if len(ways) >= self.ways:
            victim = min(ways, key=lambda e: e[3])
            ways.remove(victim)
        ways.append([line, owner, dirty, stamp])
        return victim

    def victim_candidate(self, line):
        ways = self._set(line)
        if len(ways) < self.ways:
            return None
        return min(ways, key=lambda e: e[3])

    def invalidate(self, line):
        entry = self.lookup(line)
        if entry is not None:
            self._set(line).remove(entry)
        return entry

    def flush(self):
        removed = [entry for ways in self._data for entry in ways]
        self._data = [[] for _ in range(self.sets)]
        return removed

    def entries(self):
        return [entry for ways in self._data for entry in ways]


class ReferencePlruSlice(ReferenceSlice):
    """The list-scan slice under tree-PLRU: way ``i`` is list position ``i``."""

    def __init__(self, sets, ways):
        super().__init__(sets, ways)
        self.policy = TreePlruPolicy(sets, ways)

    def touch(self, entry, stamp):
        entry[3] = stamp
        set_index = entry[0] & (self.sets - 1)
        self.policy.touch(set_index, self._data[set_index].index(entry))

    def insert(self, line, owner, dirty, stamp):
        ways = self._set(line)
        victim = self.victim_candidate(line)
        if victim is not None:
            ways.remove(victim)
        ways.append([line, owner, dirty, stamp])
        self.policy.touch(line & (self.sets - 1), len(ways) - 1)
        return victim

    def victim_candidate(self, line):
        ways = self._set(line)
        if len(ways) < self.ways:
            return None
        set_index = line & (self.sets - 1)
        return ways[self.policy.victim(set_index, [e[3] for e in ways])]


def _op_strategy():
    line = st.integers(0, 63)
    return st.lists(
        st.one_of(
            st.tuples(st.just("access"), line, st.booleans()),
            st.tuples(st.just("invalidate"), line, st.just(False)),
            st.tuples(st.just("flush"), st.just(0), st.just(False)),
        ),
        min_size=1, max_size=200,
    )


@st.composite
def _ops_with_cut(draw):
    """An op sequence plus the index of the op before which the slice is
    rebuilt from its own export (always inside the sequence).

    Mostly accesses over few distinct lines: the state must build up and
    take hits (which reorder LRU recency and flip PLRU tree bits) before
    the cut for fill order to be at stake.
    """
    kinds = ("access",) * 8 + ("invalidate", "flush")
    ops = draw(st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 15), st.booleans()),
        min_size=1, max_size=200))
    return ops, draw(st.integers(0, len(ops) - 1))


def _as_tuple(entry):
    """(line, owner, dirty, stamp) for either model's entry, or None."""
    if entry is None:
        return None
    if isinstance(entry, list):
        return tuple(entry)
    return (entry.line, entry.owner, entry.dirty, entry.stamp)


def _drive(slice_, ref, ops, round_trip_at=None):
    """Run ``ops`` on both models, comparing after every operation; before
    op ``round_trip_at`` the slice is rebuilt from its own export."""
    stamp = 0  # strictly increasing, as the hierarchy guarantees

    for step, (op, line, write) in enumerate(ops):
        if step == round_trip_at:
            slice_.import_arrays(slice_.export_arrays())
        stamp += 1
        if op == "access":
            got = slice_.lookup(line)
            want = ref.lookup(line)
            assert (got is None) == (want is None)
            assert _as_tuple(slice_.victim_candidate(line)) \
                == _as_tuple(ref.victim_candidate(line))
            if got is not None:
                if write:
                    got.dirty = True
                    want[2] = True
                slice_.touch(got, stamp)
                ref.touch(want, stamp)
            else:
                evicted = slice_.insert(line, owner=0, dirty=write, stamp=stamp)
                ref_evicted = ref.insert(line, owner=0, dirty=write, stamp=stamp)
                assert _as_tuple(evicted) == _as_tuple(ref_evicted)
        elif op == "invalidate":
            assert _as_tuple(slice_.invalidate(line)) \
                == _as_tuple(ref.invalidate(line))
        else:  # flush
            assert [_as_tuple(e) for e in slice_.flush()] \
                == [_as_tuple(e) for e in ref.flush()]

        # Observable state identical after every operation, including the
        # entries() iteration order the checkpoint digest depends on.
        assert [_as_tuple(e) for e in slice_.entries()] \
            == [_as_tuple(e) for e in ref.entries()]
        assert slice_.occupancy() == len(ref.entries())
        for probe in range(64):
            assert (probe in slice_) == (ref.lookup(probe) is not None)


@given(sets=st.sampled_from([1, 2, 4, 8]), ways=st.integers(1, 4),
       ops=_op_strategy())
@settings(max_examples=200, deadline=None)
def test_dict_slice_matches_reference(sets, ways, ops):
    _drive(CacheSlice(sets, ways, replacement="lru"),
           ReferenceSlice(sets, ways), ops)


@given(sets=st.sampled_from([1, 2, 4, 8]), ways=st.integers(1, 4),
       ops_cut=_ops_with_cut())
@settings(max_examples=200, deadline=None)
def test_fill_order_survives_import_round_trip(sets, ways, ops_cut):
    # Imported entries get fill ranks below every real stamp, so entries()
    # order and every later victim still match the never-exported reference.
    ops, cut = ops_cut
    _drive(CacheSlice(sets, ways, replacement="lru"),
           ReferenceSlice(sets, ways), ops, round_trip_at=cut)


@given(sets=st.sampled_from([1, 2, 4, 8]), ways=st.sampled_from([1, 2, 4]),
       ops_cut=_ops_with_cut(), round_trip=st.booleans())
@settings(max_examples=200, deadline=None)
def test_plru_slice_matches_list_reference(sets, ways, ops_cut, round_trip):
    ops, cut = ops_cut
    _drive(CacheSlice(sets, ways, replacement="plru"),
           ReferencePlruSlice(sets, ways), ops,
           round_trip_at=cut if round_trip else None)
