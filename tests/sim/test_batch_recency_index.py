"""The slice-group kernel's per-set recency index, checked directly.

Every multi-slice group the batch kernel runs keeps, next to its
``line -> slice`` residency maps, a per-set *recency index*: an
``Entry -> slice_id`` dict of the group's resident entries in ascending
stamp order, whose first key is the group-wide LRU victim
``CacheHierarchy._fill_group`` would pick.  The differential suites only
see the index through its effect on the final state; this file asserts
the invariant itself after every batch epoch
(:func:`assert_group_index_consistent`) and pins the victim cases that a
wrong key order would get wrong, each against an event-engine run of the
same epoch.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import L2, L3
from repro.config import TINY, CacheGeometry
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.resilience.checkpoint import state_digest
from repro.sim.batch import (
    MERGED_KERNEL,
    PRIVATE_KERNEL,
    SHARED_KERNEL,
    _state_marker,
    run_epoch_batch,
)
from repro.sim.engine import run_epoch

from tests.sim.test_batch_property import _draw_topology

#: Tags of epochs the slice-group kernel resolved (all-private epochs with
#: shared lines run it too, under the ``batch-private`` tag).
GROUP_TAGS = (PRIVATE_KERNEL, MERGED_KERNEL, SHARED_KERNEL)


def assert_group_index_consistent(hier):
    """The group kernel's cached maps match the hierarchy's resident state.

    For every multi-slice group at L2 and L3 and every set: the recency
    index lists exactly the entries the group's slices hold in that set
    (by identity, under the right slice), in strictly ascending stamp
    order; and the residency maps equal a fresh
    :meth:`~repro.caches.hierarchy.CacheHierarchy.group_line_index`.
    Only meaningful right after a group-kernel epoch, while the cache is
    marked clean.
    """
    state = hier._batch_group_state
    assert state["marker"] == _state_marker(hier)
    maps = state["maps"]
    for level, groups, slices in ((L2, hier._l2_groups, hier.l2s),
                                  (L3, hier._l3_groups, hier.l3s)):
        for group in groups:
            if len(group) == 1:
                assert (level, group) not in maps
                continue
            index, dups, recency = maps[(level, group)]
            assert (index, dups) == hier.group_line_index(level, group), \
                (level, group)
            for set_index, rec in enumerate(recency):
                resident = {id(entry): slice_id
                            for slice_id in group
                            for entry in slices[slice_id]
                            .set_buckets()[set_index].values()}
                assert {id(entry): slice_id
                        for entry, slice_id in rec.items()} == resident, \
                    (level, group, set_index)
                stamps = [entry.stamp for entry in rec]
                assert all(a < b for a, b in zip(stamps, stamps[1:])), \
                    (level, group, set_index, stamps)


class _Trace:
    """Minimal EpochTrace stand-in with the three arrays the engines read."""

    def __init__(self, lines, writes=None):
        self.lines = np.asarray(lines, dtype=np.int64)
        if writes is None:
            writes = [False] * len(lines)
        self.writes = np.asarray(writes, dtype=bool)
        self.gaps = np.zeros(len(lines), dtype=np.int32)


def _timers(config, cores):
    return {core: CoreTimingModel(config.issue_width,
                                  memory_latency=config.latency.memory)
            for core in cores}


def _pair(config, l2_groups, l3_groups):
    """An (event, batch) pair of identical systems on one topology."""
    systems = []
    for _ in range(2):
        system = CmpSystem(config, static_label=f"(1:1:{config.cores})")
        system.hierarchy.set_topology(l2_groups, l3_groups)
        systems.append(system)
    return systems


def _epoch(pair, config, traces, n):
    """Run one epoch on both engines; require identical state, return tag."""
    event_sys, batch_sys = pair
    timer_sets = [_timers(config, traces), _timers(config, traces)]
    run_epoch(event_sys, traces, timer_sets[0], n)
    tag = run_epoch_batch(batch_sys, traces, timer_sets[1], n)
    assert state_digest(event_sys) == state_digest(batch_sys)
    for core in traces:
        assert repr(timer_sets[0][core].cycles) \
            == repr(timer_sets[1][core].cycles), core
    return tag


# -- property: the invariant holds after every epoch -------------------------

#: Few ways per slice so group sets fill (and take the O(1) victim path)
#: within a few dozen accesses; four L1 sets keep partition reordering on.
SMALL_WAYS = TINY.with_(l1=CacheGeometry(4, 2),
                        l2_slice=CacheGeometry(4, 2),
                        l3_slice=CacheGeometry(8, 4))


def _draw_merged_topology(draw, cores):
    """Random legal topology with at least one multi-slice L2 group."""
    l2_groups, l3_groups = _draw_topology(draw, cores)
    if all(len(g) == 1 for g in l2_groups):
        l2_groups = list(l3_groups)
        if all(len(g) == 1 for g in l2_groups):
            l2_groups = l3_groups = [tuple(range(cores))]
    return l2_groups, l3_groups


def _draw_group_topology(draw, cores):
    """A merged topology, or the all-singleton one: all-private epochs whose
    cores share lines run the group kernel too, and the private -> merged
    transition is MorphCache's first boundary on a shared address space."""
    if draw(st.booleans()):
        singletons = [(core,) for core in range(cores)]
        return singletons, singletons
    return _draw_merged_topology(draw, cores)


#: Every default phase but shrinking (and the explain phase that needs
#: it): the same examples are drawn, but a failing multi-epoch example is
#: reported as found — shrinking one can outlast a CI timeout — with the
#: blob that reproduces it (``@reproduce_failure``).
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@settings(max_examples=25, deadline=None, phases=UNSHRUNK, print_blob=True)
@given(data=st.data())
def test_recency_index_invariant_across_epochs(data):
    """Random merged/shared topologies, mid-run reconfigurations (to
    all-private and back) that merge slices holding copies of shared lines,
    and ``disable-slice`` faults inside merged groups: after every
    group-kernel epoch the cached index is exact, and after every epoch
    the state matches the event engine."""
    draw = data.draw
    cores = draw(st.sampled_from([4, 8]))
    config = SMALL_WAYS.with_(cores=cores)
    pair = _pair(config, *_draw_group_topology(draw, cores))
    length = draw(st.integers(16, 48))
    group_epochs = 0
    for epoch in range(draw(st.integers(2, 4))):
        if epoch:
            action = draw(st.sampled_from(["none", "reconfigure", "fault"]))
            hier = pair[1].hierarchy
            if action == "reconfigure":
                # From all-private, always merge (the transition under test).
                topology = (_draw_merged_topology(draw, cores)
                            if hier.all_private_fast
                            else _draw_group_topology(draw, cores))
                for system in pair:
                    system.hierarchy.set_topology(*topology)
            elif action == "fault":
                level = draw(st.sampled_from([L2, L3]))
                merged = [g for g in (hier._l2_groups if level == L2
                                      else hier._l3_groups) if len(g) > 1]
                if merged:
                    target = draw(st.sampled_from(
                        sorted(draw(st.sampled_from(merged)))))
                    for system in pair:
                        system.hierarchy.set_faulted_slices(level, {target})
        # Mostly one machine-wide pool: copies of the same lines land in
        # several private slices and become duplicates on the next merge.
        traces = {core: _Trace(draw(st.lists(
            st.one_of(st.integers(0, 47),
                      st.integers(1000 + 64 * core, 1000 + 64 * core + 15)),
            min_size=length, max_size=length)),
            draw(st.lists(st.booleans(), min_size=length, max_size=length)))
            for core in range(cores)}
        tag = _epoch(pair, config, traces, length)
        if tag in GROUP_TAGS:
            group_epochs += 1
            assert_group_index_consistent(pair[1].hierarchy)
        for system in pair:
            system.end_epoch()
    assert group_epochs


# -- targeted victim cases ---------------------------------------------------

#: Two cores; each L2 slice is one 2-way set, so a merged pair's group set
#: holds four lines.  L1 is a single way (any other line evicts it, which
#: lets an L2 hit refresh a stamp); L3 is big enough never to evict here.
TWO_CORE = TINY.with_(cores=2, l1=CacheGeometry(1, 1),
                      l2_slice=CacheGeometry(1, 2),
                      l3_slice=CacheGeometry(1, 8))
B, D, A, C, E, X, P, Q, R = (0x10, 0x11, 0x20, 0x21, 0x22, 0x30, 0x31,
                             0x32, 0x33)


def test_victim_in_non_local_slice_behind_a_younger_local_head():
    """The group-wide LRU entry sits in the *other* slice while the local
    slice's head is younger: the fill must evict across the group."""
    pair = _pair(TWO_CORE, [(0, 1)], [(0, 1)])
    # Round robin, core 0 first.  Stamps: B=1 A=2 D=3 C=4, then core 0
    # re-reads B (L1 lost it to D) so B=5 while core 1 hits C in its L1.
    # Group set: slice 0 = [D(3), B(5)], slice 1 = [A(2), C(4)]; core 0's
    # miss on E must evict A from slice 1, not its local head D.
    traces = {0: _Trace([B, D, B, E]), 1: _Trace([A, C, C, C])}
    assert _epoch(pair, TWO_CORE, traces, 4) in GROUP_TAGS
    hier = pair[1].hierarchy
    assert_group_index_consistent(hier)
    assert hier.l2s[1].lookup(E) is not None
    assert hier.l2s[1].lookup(A) is None
    assert hier.l2s[0].lookup(D) is not None


def test_full_group_set_whose_oldest_entry_is_a_duplicate_copy():
    """A merge leaves one line in both slices; the older copy is the
    group-wide victim, after which the survivor must hit without lazy
    invalidation."""
    pair = _pair(TWO_CORE, [(0,), (1,)], [(0, 1)])
    # Private L2s: both cores read X, so each slice keeps a copy.
    assert _epoch(pair, TWO_CORE, {0: _Trace([X]), 1: _Trace([X])}, 1) \
        in GROUP_TAGS
    for system in pair:
        system.end_epoch()
        system.hierarchy.set_topology([(0, 1)], [(0, 1)])
    assert pair[1].hierarchy.group_line_index(L2, (0, 1))[1] == {X: {0, 1}}
    # P and Q fill the free ways; R finds the group set full and evicts
    # slice 0's copy of X (stamp 1, the oldest); core 1 then hits the
    # remaining copy in slice 1.
    traces = {0: _Trace([P, R]), 1: _Trace([Q, X])}
    assert _epoch(pair, TWO_CORE, traces, 2) in GROUP_TAGS
    hier = pair[1].hierarchy
    assert_group_index_consistent(hier)
    assert hier.l2s[0].lookup(X) is None
    assert hier.l2s[0].lookup(R) is not None
    assert hier.l2s[1].lookup(X) is not None
    assert hier.stats.l2_slices[0].lazy_invalidations == 0


def test_index_rebuilt_from_imported_state():
    """A resume that lands inside a merged epoch: the slices are restored
    from exported arrays (fresh ``Entry`` objects, recency dicts rebuilt in
    stamp order), and the kernel's first epoch on them builds its index
    from that imported state — and still matches the event engine."""
    cores = 4
    config = SMALL_WAYS.with_(cores=cores)
    l2_groups = [(0, 1, 2, 3)]
    l3_groups = [(0, 1, 2, 3)]
    pair = _pair(config, l2_groups, l3_groups)
    rng = np.random.default_rng(5)
    n = 40

    def traces():
        return {core: _Trace(rng.integers(0, 96, n).tolist(),
                             (rng.random(n) < 0.3).tolist())
                for core in range(cores)}

    # Build the pre-checkpoint state on the event engine for both.
    for _ in range(2):
        epoch_traces = traces()
        for system in pair:
            run_epoch(system, epoch_traces, _timers(config, range(cores)), n)
            system.end_epoch()
    restored = pair[1].hierarchy
    for slice_ in restored.l1s + restored.l2s + restored.l3s:
        slice_.import_arrays(slice_.export_arrays())
    assert state_digest(pair[0]) == state_digest(pair[1])
    for _ in range(2):
        assert _epoch(pair, config, traces(), n) == SHARED_KERNEL
        assert_group_index_consistent(restored)
        for system in pair:
            system.end_epoch()
