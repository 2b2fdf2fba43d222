"""Batched epoch engine: set-partitioned, bit-identical to the event engine.

MorphCache only reconfigures at epoch boundaries, so within one epoch the
topology, search orders and latencies are frozen.  The event engine
(:func:`repro.sim.engine.run_epoch`) still pays a per-access Python dispatch
through ``system.access`` and ``CoreTimingModel.account``; this module
resolves the same epoch as a small number of array operations plus one
specialised kernel loop, and produces **bit-identical** results — the same
hit/miss decisions, the same stamps and LRU orders, the same statistics,
ACFVs and ``cycles`` floats, pinned by the golden-determinism fixtures and
the differential suite (``tests/sim/test_batch_equivalence.py``).

Why reordering is sound — the set-partition argument (DESIGN.md §7):

1. Stamps are positional.  The hierarchy increments its stamp counter once
   per access regardless of outcome, so access ``g`` of the round-robin
   interleave always receives stamp ``base + 1 + g``.  The batch engine
   reserves the whole range up front (:meth:`CacheHierarchy.advance_stamp`)
   and hands each access its stamp explicitly.

2. Every structure a reference can touch shares its low ``line`` bits.
   With power-of-two set counts the smallest level's index bits are a
   subset of every level's index bits, so a reference, its LRU victims
   (same set per level), its L1 dirty write-back target (same L1 set),
   inclusion back-invalidations (same set at the lower levels) and
   coherence invalidations (same line) all agree on
   ``line & (partition_sets - 1)``.  Each cache set at every level is
   therefore wholly owned by one partition.

3. Hence resolving partition 0's subsequence (in its original global
   order), then partition 1's, … performs exactly the same operations on
   exactly the same per-set state in exactly the same per-set order as the
   fully interleaved stream.  Per-core/per-slice counters are integer sums
   (order-free); observer effects are gated to order-free ones (ACFV
   ``on_hit`` is a bitwise OR; see :func:`_observer_order_free`).  The
   kernels therefore do not call ``on_hit`` at all: each adds the hit line
   to its core's L2 or L3 hit set and flushes the sets into the ACFVs with
   one vectorised hash per core (:meth:`AcfvBank.record_hits`) — the
   per-core kernel right after that core's loop, the slice-group kernel at
   kernel end.
   The result is exact: OR is idempotent and commutative, fault injection
   flips ACFV bits before the epoch's first access, and the controller
   reads the vectors only after the epoch returns.

4. Timing sums exactly.  ``cycles`` accumulates dyadic rationals on a
   coarse grid whenever ``issue_width`` is a power of two and the hidden
   off-chip fraction is a multiple of 2**-8 (the defaults), so any
   regrouping of the sum is exact — ``CoreTimingModel.account_summary``
   reproduces the scalar loop bit for bit.  Configurations outside that
   envelope fall back to order-preserving accounting.

Kernels (all three behind one gate: an order-free observer, true LRU and
exact timing summation, :func:`_timing_exact`):

- **per-core** — all-private LRU topologies
  (``CacheHierarchy.all_private_fast``) whose epoch touches no line another
  core has referenced (:func:`_percore_applicable`): every multiprogrammed
  mix.  Each core's trace runs back-to-back in its own tight loop with the
  slice probes inlined, per-core integer counters instead of per-access
  stat increments and no per-access timing calls; the fastest path
  (BENCH_batch.json).
- **slice group** — every other LRU epoch: merged and shared topologies
  (the configurations MorphCache's merge decisions create, including
  under faults) and all-private epochs with shared lines (the PARSEC
  programs' shared address space), run by :func:`_run_group_kernel`.
  Sets are partitioned at the slice-*group* level — the set-partition
  argument holds unchanged because every slice of a group is probed at
  the same set index — and the per-access probe of every group slice is
  replaced by one aggregate ``line -> slice`` residency map per
  multi-slice group (:meth:`CacheHierarchy.group_line_index`), built by a
  single scan, cached across epochs and maintained incrementally by the
  kernel's own fills/evictions/back-invalidations/lazy invalidations.  A
  per-set recency index beside it (:func:`_recency_index`) makes fill
  placement O(1): a full group set's LRU victim is its first key.
  Singleton groups probe their one slice directly.  The tier tag names
  the topology only: ``batch-private`` when all-private, ``batch-shared``
  for one L2 group spanning the machine, ``batch-merged`` otherwise.
- **general** — anything else (PLRU, order-sensitive observers,
  timing-inexact configurations): the real access path driven in global
  order with batched timing.
- **event fallback** — systems without a batchable hierarchy (PIPP, DSR)
  run the event engine unchanged; :func:`run_epoch_batch` reports which
  path it took.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.caches.cache import Entry
from repro.caches.hierarchy import CacheHierarchy, HierarchyObserver, L2, L3
from repro.core.acfv import AcfvBank
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.obs import metrics as obs_metrics
from repro.sim.engine import run_epoch

#: Tags returned by :func:`run_epoch_batch` naming the path taken.
PRIVATE_PERCORE = "batch-private-percore"
PRIVATE_KERNEL = "batch-private"
MERGED_KERNEL = "batch-merged"
SHARED_KERNEL = "batch-shared"
GENERAL_KERNEL = "batch-general"
EVENT_FALLBACK = "event"


def _record_tier(tag: str) -> str:
    """Count the dispatch tier taken (once per epoch; off-path cost is one
    flag check, within the <2% tracing-off budget)."""
    reg = obs_metrics.REGISTRY
    if reg.enabled:
        reg.counter("repro_batch_epochs_total",
                    "Epochs resolved by the batch engine, by dispatch tier",
                    labels=("tier",)).labels(tier=tag).inc()
    return tag


def batch_unsupported(system) -> Optional[str]:
    """Why ``system`` cannot be batched this epoch, or None if it can.

    Only a plain :class:`~repro.cpu.cmp.CmpSystem` (MorphCache or a static
    topology) exposes the hierarchy the kernels operate on; the PIPP/DSR
    baselines implement the access protocol with their own organisations
    and run on the event engine.
    """
    if type(system) is not CmpSystem:
        label = getattr(system, "label", type(system).__name__)
        return f"scheme {label!r} does not expose a batchable hierarchy"
    if not isinstance(system.hierarchy, CacheHierarchy):
        return "system.hierarchy is not a CacheHierarchy"
    return None


def run_epoch_batch(system, traces: Dict[int, object],
                    timers: Dict[int, CoreTimingModel],
                    n_accesses: int) -> str:
    """Drive one epoch like :func:`~repro.sim.engine.run_epoch`, batched.

    Drop-in replacement: same signature, same post-state, same timer
    contents, bit for bit.  Returns the path taken
    (``batch-private-percore``, ``batch-private``, ``batch-merged``,
    ``batch-shared``, ``batch-general`` or ``event`` for the fallback),
    which the tests and benchmarks assert on.
    """
    if batch_unsupported(system) is not None:
        run_epoch(system, traces, timers, n_accesses)
        return _record_tier(EVENT_FALLBACK)
    active = list(traces)
    if not active or n_accesses <= 0:
        return _record_tier(GENERAL_KERNEL)
    hier = system.hierarchy
    gap_sums = {core: int(traces[core].gaps[:n_accesses].sum())
                for core in active}
    if (_observer_order_free(hier)
            and hier.config.replacement == "lru"
            and _timing_exact(hier, timers, active, gap_sums, n_accesses)):
        if (hier.all_private_fast
                and _percore_applicable(hier, traces, active, n_accesses)):
            _run_private_percore(hier, timers, traces, active, n_accesses,
                                 gap_sums)
            _mark_percore_clean(hier)
            return _record_tier(PRIVATE_PERCORE)
        lines, writes, cores = _interleave(traces, active, n_accesses)
        _run_group_kernel(hier, timers, active, n_accesses,
                          lines, writes, cores, gap_sums)
        # The tag names the topology, not a separate kernel: all-private
        # (singleton groups everywhere, shared lines present), fully shared
        # (one L2 group spanning the machine, the paper's "(cores:1:1)"),
        # or any other merged grouping.  The distinction is observability
        # only.
        if hier.all_private_fast:
            return _record_tier(PRIVATE_KERNEL)
        if len(hier._l2_groups) == 1:
            return _record_tier(SHARED_KERNEL)
        return _record_tier(MERGED_KERNEL)
    lines, writes, cores = _interleave(traces, active, n_accesses)
    _run_general(system, timers, traces, active, n_accesses,
                 lines, writes, cores)
    return _record_tier(GENERAL_KERNEL)


# -- epoch materialisation ---------------------------------------------------

def _interleave(traces, active: List[int],
                n_accesses: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic round-robin global interleave, as arrays.

    Access ``i`` of core rank ``r`` lands at global index ``i * k + r`` —
    exactly the order the event engine's nested loop visits.  Strided
    assignment keeps this at numpy speed with no ``tolist`` round trip.
    """
    k = len(active)
    total = n_accesses * k
    lines = np.empty(total, dtype=np.int64)
    writes = np.empty(total, dtype=bool)
    for rank, core in enumerate(active):
        trace = traces[core]
        lines[rank::k] = trace.lines[:n_accesses]
        writes[rank::k] = trace.writes[:n_accesses]
    cores = np.tile(np.asarray(active, dtype=np.int64), n_accesses)
    return lines, writes, cores


def _observer_order_free(hier: CacheHierarchy) -> bool:
    """Whether the installed observer commutes across partitions.

    The base observer's hooks are no-ops, and an :class:`AcfvBank` only
    ever ORs bits in on hits (it never clears on eviction), so the final
    vectors are independent of cross-partition order — and of *when* the
    bits are ORed in, which lets the kernels buffer each core's hit lines
    and flush them once per epoch (:func:`_flush_hits`): OR is idempotent
    and commutative, faults flip bits before any access, and nothing reads
    the vectors until the epoch returns.  Any other observer routes the
    epoch to the order-preserving general kernel.
    """
    return type(hier.observer) in (HierarchyObserver, AcfvBank)


def _timing_exact(hier, timers, active, gap_sums, n_accesses: int) -> bool:
    """Whether every active timer admits exact order-free summation.

    The epoch's cycles are bounded with :meth:`CacheHierarchy.
    max_access_latency` (worst remote merged hit, bus span and fault
    penalty, coherence adder) for every access — a loose over-estimate,
    far inside the exact range for any realistic run.
    """
    max_latency = hier.max_access_latency()
    for core in active:
        timer = timers[core]
        bound = timer.cycles + gap_sums[core] + n_accesses * max_latency + 1
        if not timer.batch_summation_exact(bound):
            return False
    return True


def _flush_hits(hier: CacheHierarchy, active: List[int],
                hits2: List[set], hits3: List[set]) -> None:
    """Apply the kernel's buffered per-core L2/L3 hit lines to the ACFVs.

    Under :func:`_observer_order_free` a hit-notified observer is an
    :class:`AcfvBank` whose ``on_hit`` only ORs bits in, so one
    :meth:`AcfvBank.record_hits` per core after the loop leaves exactly the
    vectors the per-hit calls would have.
    """
    if hier._notify_hit:
        record = hier.observer.record_hits
        for core in active:
            record(core, hits2[core], hits3[core])


# -- the per-core kernel (no shared lines) -----------------------------------
#
# Under an all-private topology an access by core ``c`` touches only core
# ``c``'s slices — *except* through lines that more than one core has ever
# referenced: the L1 directory entry of such a line can carry foreign
# holders, so a write (coherence invalidation) or an eviction
# (back-invalidation) by one core can reach into another core's L1.  When
# no line is shared — the overwhelmingly common case for multiprogrammed
# mixes, whose address spaces are disjoint by construction — the cores are
# fully independent and each trace can run back-to-back in its own tight
# loop (no interleave, no partition sort, stamps by arithmetic), which is
# the fastest path in the engine.
#
# Sharedness is *verified*, not assumed: a full scan of the resident state
# builds a line -> owner map (cached on the hierarchy, invalidated whenever
# the stamp, groups or fault sets changed outside this kernel), and each
# epoch's trace lines are checked against it.  Any conflict — two owners
# for a line, a multi-holder directory entry, a trace touching a foreign
# line, a multi-slice L3 cover under faults — falls back to the slice-group
# kernel, which handles sharing exactly.

_PERCORE_ATTR = "_batch_percore_state"


def _state_marker(hier: CacheHierarchy) -> tuple:
    """Fingerprint of everything that can move cache state outside a kernel.

    Both the per-core owner map and the slice-group residency maps are
    cached under it.  The stamp advances on every access (any engine), and
    group/fault changes cover reconfiguration repair, which mutates state
    without consuming stamps.  Repair only *removes* entries, so a stale
    owner map can never hide new sharing — at worst it fails a check
    conservatively.
    """
    return (hier._stamp,
            tuple(hier._l2_groups), tuple(hier._l3_groups),
            frozenset(hier.disabled_slices(L2)),
            frozenset(hier.disabled_slices(L3)))


#: Granularity of the slot-level ownership fast path, in line-address bits.
#: Synthetic workloads place each thread's private region in its own
#: ``1 << 40``-aligned stride (and shared regions far above), so after the
#: first epoch a core's whole trace usually falls inside one slot it already
#: owns outright — an O(1) min/max check instead of a per-line scan.  The
#: constant is a heuristic only; correctness never depends on alignment.
_SLOT_BITS = 40


def _scan_owners(hier: CacheHierarchy) -> Optional[Tuple[Dict[int, int],
                                                         Dict[int, int]]]:
    """Build resident line -> owner (and slot -> owner) maps, or None.

    Fills always stamp the accessing core as ``owner`` under a private
    topology, so two residencies of one line under different owners (or a
    multi-holder directory entry) prove the line was referenced by more
    than one core.  A slot maps to a core only while *every* recorded line
    in it belongs to that core (-1 marks a slot shared between cores).
    """
    owners: Dict[int, int] = {}
    slots: Dict[int, int] = {}
    for slices in (hier.l1s, hier.l2s, hier.l3s):
        for slice_ in slices:
            for bucket in slice_._index:
                for entry in bucket.values():
                    if owners.setdefault(entry.line, entry.owner) != entry.owner:
                        return None
    for line, holders in hier._l1_directory.items():
        if len(holders) > 1:
            return None
        for holder in holders:
            if owners.setdefault(line, holder) != holder:
                return None
    for line, owner in owners.items():
        slot = line >> _SLOT_BITS
        if slots.setdefault(slot, owner) != owner:
            slots[slot] = -1
    return owners, slots


def _percore_applicable(hier: CacheHierarchy, traces, active: List[int],
                        n_accesses: int) -> bool:
    """Whether this epoch can run core-by-core, committing trace ownership.

    On success the epoch's new lines are recorded in the cached owner map
    (the kernel preserves the no-sharing invariant, so the cache stays
    valid).  On failure nothing is recorded as clean — the next epoch
    rescans.
    """
    if any(len(cover) != 1 for cover in hier._l3_group_of):
        return False
    # Singleton L2 groups give the kernel strict per-slice inclusion
    # (L1 ⊆ own L2 slice ⊆ own L3 slice), which it exploits to skip
    # back-invalidation probes; fault-merged groups use the partition
    # kernel instead.
    if any(len(group) != 1 for group in hier._l2_group_of):
        return False
    state = getattr(hier, _PERCORE_ATTR, None)
    if state is None or state["marker"] != _state_marker(hier):
        state = {"marker": None, "maps": _scan_owners(hier)}
        setattr(hier, _PERCORE_ATTR, state)
    maps = state["maps"]
    if maps is None:
        return False
    owners, slots = maps
    get = owners.get
    slot_get = slots.get
    for core in active:
        arr = traces[core].lines[:n_accesses]
        lo = int(arr.min())
        hi = int(arr.max())
        slot = lo >> _SLOT_BITS
        if hi >> _SLOT_BITS == slot and slot_get(slot) == core:
            # Every line of the epoch falls in a slot whose recorded lines
            # all belong to this core already — nothing new to commit.
            continue
        for line in set(arr.tolist()):
            owner = get(line)
            if owner is None:
                owners[line] = core
                line_slot = line >> _SLOT_BITS
                if slots.setdefault(line_slot, core) != core:
                    slots[line_slot] = -1
            elif owner != core:
                # Shared line (or a stale claim on a long-dead one):
                # conservative fallback; the slice-group kernel is exact.
                return False
    return True


def _mark_percore_clean(hier: CacheHierarchy) -> None:
    """Record that the cached owner map matches the post-epoch state."""
    state = getattr(hier, _PERCORE_ATTR)
    state["marker"] = _state_marker(hier)


def _run_private_percore(hier: CacheHierarchy, timers, traces,
                         active: List[int], n_accesses: int,
                         gap_sums: Dict[int, int]) -> None:
    """All-private epoch with no shared lines: one tight loop per core.

    Bit-identical to the event engine because, with every line referenced
    by exactly one core, *no* operation of one core's access can read or
    write another core's structures — the global round-robin order is then
    equivalent to any per-core grouping.  Stamps remain positional
    (access ``i`` of rank ``r`` gets ``base + 1 + i*k + r``), and the
    coherence branches are provably dead: a multi-holder set cannot exist,
    so writes only set the dirty bit exactly as the event path would.

    The L1 directory is *reconstructed* rather than maintained per access:
    under the gate a core's directory entries are exactly
    ``{line: {core}}`` for its resident L1 lines, nothing reads the
    directory during the epoch (both coherence reads are dead), and the
    back-invalidation probe "is the victim in some L1?" is answered by the
    L1 index itself — so deleting the entries that left the L1 and adding
    fresh ``{core}`` singletons for the ones that joined, once per core,
    yields the identical final directory.  Statistics and timing flush per
    core from integer counts, as in the slice-group kernel.
    """
    config = hier.config
    k = len(active)
    base = hier.advance_stamp(n_accesses * k)
    m1 = config.l1.sets - 1
    m2 = config.l2_slice.sets - 1
    m3 = config.l3_slice.sets - 1
    w1 = config.l1.ways
    w2 = config.l2_slice.ways
    w3 = config.l3_slice.ways
    lat = config.latency
    lat_l1, lat_l2, lat_l3 = lat.l1_hit, lat.l2_local_hit, lat.l3_local_hit
    lat_mem = lat.memory
    directory = hier._l1_directory
    notify_hit = hier._notify_hit
    new_entry = Entry
    core_stats = hier.stats.cores
    l2_stats = hier._l2_slice_stats
    l3_stats = hier._l3_slice_stats

    for rank, core in enumerate(active):
        trace = traces[core]
        lines_list = trace.lines[:n_accesses].tolist()
        writes_list = trace.writes[:n_accesses].tolist()
        l1x = hier.l1s[core]._index
        l2x = hier.l2s[core]._index
        l3x = hier.l3s[core]._index
        # Directory reconstruction (see docstring): remember what is in
        # this L1 now, fix the directory up after the loop.
        old_resident = {ln for bucket in l1x for ln in bucket}
        # Insertion counts need no loop counters: every L3/mem resolution
        # fills L2 (ins2 == cl3 + cmem) and every mem resolution fills L3
        # (ins3 == cmem).
        # cl3 is derived at flush (cl3 = n - cl1 - cl2 - cmem): the L3-hit
        # branch is the most-executed one, so it carries no counter at all.
        cl1 = cl2 = cmem = evi2 = evi3 = 0
        stamp = base + rank + 1 - k
        # This core's L2/L3 hit lines, flushed into its ACFVs after the
        # loop (the gate makes on_hit an order-free OR).
        hits2 = set()
        hits3 = set()
        add2 = hits2.add
        add3 = hits3.add

        for line, write in zip(lines_list, writes_list):
            stamp += k
            set1 = line & m1
            bucket1 = l1x[set1]
            if line in bucket1:
                entry = bucket1[line]
                entry.stamp = stamp
                del bucket1[line]
                bucket1[line] = entry
                cl1 += 1
                if write:
                    entry.dirty = True
                continue

            set2 = line & m2
            bucket2 = l2x[set2]
            if line in bucket2:
                entry = bucket2[line]
                entry.stamp = stamp
                del bucket2[line]
                bucket2[line] = entry
                cl2 += 1
                if notify_hit:
                    add2(line)
            else:
                set3 = line & m3
                bucket3 = l3x[set3]
                entry = bucket3.get(line)
                if entry is not None:
                    entry.stamp = stamp
                    del bucket3[line]
                    bucket3[line] = entry
                    if notify_hit:
                        add3(line)
                else:
                    cmem += 1
                    if len(bucket3) >= w3:
                        for v_line in bucket3:
                            break
                        victim = bucket3.pop(v_line)
                        victim.line = line
                        victim.owner = core
                        victim.dirty = write
                        victim.stamp = victim.filled = stamp
                        bucket3[line] = victim
                        evi3 += 1
                        # Inclusion: the L3 cover is this core alone (gate).
                        # Strict per-slice inclusion (singleton L2 group)
                        # means a victim absent from the L2 slice cannot be
                        # in the L1 either; the directory entry, if any, is
                        # exactly {core} and gets rebuilt at flush.
                        if l2x[v_line & m2].pop(v_line, None) is not None:
                            evi2 += 1
                            l1x[v_line & m1].pop(v_line, None)
                    else:
                        bucket3[line] = new_entry(line, core, write, stamp)

                if len(bucket2) >= w2:
                    for v_line in bucket2:
                        break
                    victim = bucket2.pop(v_line)
                    victim.line = line
                    victim.owner = core
                    victim.dirty = write
                    victim.stamp = victim.filled = stamp
                    bucket2[line] = victim
                    evi2 += 1
                    l1x[v_line & m1].pop(v_line, None)
                else:
                    bucket2[line] = new_entry(line, core, write, stamp)

            # Fill L1.  The victim's holder set is exactly {core} (no
            # sharing), so the discard-then-empty-delete of the event path
            # collapses to a plain delete — deferred to the flush, along
            # with the fresh singleton insert for the filled line.
            if len(bucket1) >= w1:
                for v_line in bucket1:
                    break
                victim = bucket1.pop(v_line)
                if victim.dirty:
                    # Inclusion guarantees the L2 copy exists (a KeyError
                    # here would mean the gate's invariant was violated).
                    l2x[v_line & m2][v_line].dirty = True
                victim.line = line
                victim.owner = core
                victim.dirty = write
                victim.stamp = victim.filled = stamp
                bucket1[line] = victim
            else:
                bucket1[line] = new_entry(line, core, write, stamp)

        # Directory fix-up: entries whose lines left this L1 disappear,
        # lines that joined get fresh {core} singletons, survivors keep
        # their (value-identical) sets — exactly the event engine's final
        # directory for this core.
        new_resident = {ln for bucket in l1x for ln in bucket}
        for ln in old_resident - new_resident:
            del directory[ln]
        for ln in new_resident - old_resident:
            directory[ln] = {core}
        if notify_hit:
            hier.observer.record_hits(core, hits2, hits3)

        # Per-core flush: counters into stats, one exact timing reduction.
        cl3 = n_accesses - cl1 - cl2 - cmem
        core_stats[core].add_access_counts(
            accesses=n_accesses, l1_hits=cl1, l2_local_hits=cl2,
            l3_local_hits=cl3, memory_accesses=cmem,
            memory_cycles=cmem * lat_mem)
        stats2 = l2_stats[core]
        stats2.hits += cl2
        stats2.misses += cl3 + cmem
        stats2.insertions += cl3 + cmem
        stats2.evictions += evi2
        stats3 = l3_stats[core]
        stats3.hits += cl3
        stats3.misses += cmem
        stats3.insertions += cmem
        stats3.evictions += evi3
        timer = timers[core]
        ml = timer.memory_latency
        latency_sum = cl1 * lat_l1 + cl2 * lat_l2 + cl3 * lat_l3 \
            + cmem * lat_mem
        offchip = (cl1 * int(lat_l1 >= ml) + cl2 * int(lat_l2 >= ml)
                   + cl3 * int(lat_l3 >= ml) + cmem * int(lat_mem >= ml))
        timer.account_summary(n_accesses, gap_sums[core], latency_sum,
                              offchip)


# -- the slice-group kernel (every other LRU epoch) --------------------------
#
# The configurations MorphCache's merge decisions create — multi-slice L2/L3
# groups, up to one fully-shared group spanning the machine — used to run on
# the general kernel at ~event-engine speed, because each access probed every
# slice of its group through the full Python access path.  The group kernel
# closes that gap with one idea: a *group-level aggregate residency map*.
# Singleton groups need no map (their one slice is probed directly), so the
# same loop also resolves all-private epochs whose cores share lines.
#
# Within an epoch the topology is frozen, so for each multi-slice group a
# single scan builds ``line -> holding slice`` (with a side map for the
# duplicate copies a merge leaves behind).  A group probe then becomes one
# dict lookup instead of O(group size) slice probes, and every mutation the
# kernel performs — fills, evictions, inclusion back-invalidations, lazy
# invalidations — updates the map incrementally, so it stays exact.  Fills
# get the same treatment from a per-set recency index (entries in stamp
# order, see :func:`_recency_index`): the group-wide LRU victim is its
# first key, where the event path scans every slice of the group.  The
# maps are cached on the hierarchy across epochs under the same fingerprint
# the per-core kernel uses (stamp + groups + fault sets): steady-state
# epochs pay no scan at all.
#
# Bit-identity rests on the set-partition argument (module docstring),
# *lifted to slice groups* (DESIGN.md §7): all slices of a group are
# probed at one set index per level, the group-wide LRU victim search reads
# only that set in each slice, back-invalidation and the dirty write-back
# stay on the victim's (subset) index bits, and lazy invalidation picks its
# winner by maximum stamp — stamps are unique, so the choice is order-free.
# Everything latency-relevant is precomputed per epoch (per-core × per-slice
# hit latency tables honouring ``charge_remote_latency``, the segmented-bus
# distance span and any bus-fault penalty), and timing flushes through one
# exact reduction per core, gated by :func:`_timing_exact`.

_GROUP_ATTR = "_batch_group_state"


def _group_state(hier: CacheHierarchy) -> dict:
    """Cached residency maps and recency indexes for every multi-slice group.

    ``state["maps"][(level, group)]`` is ``(index, dups, recency)``: the
    aggregate residency maps of :meth:`CacheHierarchy.group_line_index`
    plus the group's per-set *recency index* (:func:`_recency_index`).
    Rebuilt (one scan of the resident state) whenever the fingerprint shows
    state moved outside this kernel: any access through any engine advances
    the stamp, and reconfiguration/fault repair changes the group tuples or
    disabled sets.  Mutating slice contents behind the hierarchy's back
    (directly calling ``CacheSlice.flush`` etc.) is outside the contract.
    """
    state = getattr(hier, _GROUP_ATTR, None)
    if state is None or state["marker"] != _state_marker(hier):
        maps = {}
        for level, groups, slices in ((L2, hier._l2_groups, hier.l2s),
                                      (L3, hier._l3_groups, hier.l3s)):
            for group in groups:
                if len(group) > 1:
                    index, dups = hier.group_line_index(level, group)
                    maps[(level, group)] = (index, dups,
                                            _recency_index(slices, group))
        state = {"marker": None, "maps": maps}
        setattr(hier, _GROUP_ATTR, state)
    return state


def _recency_index(slices, group: Tuple[int, ...]) -> List[Dict[Entry, int]]:
    """Per-set ``Entry -> slice_id`` dicts over a group, ascending stamp.

    Set ``i``'s dict holds every entry the group's slices keep in set ``i``
    (``Entry`` hashes by identity), oldest first — so its first key is the
    group-wide LRU entry, the victim ``_fill_group`` picks as the
    minimum-stamp slice head.  The kernel keeps the order by re-inserting
    at the end whatever it stamps: stamps are unique and, within one set,
    the kernel processes accesses in stamp order.
    """
    buckets = [(slice_id, slices[slice_id].set_buckets())
               for slice_id in group]
    recency = []
    for set_index in range(len(buckets[0][1])):
        held = [(entry, slice_id) for slice_id, sets in buckets
                for entry in sets[set_index].values()]
        held.sort(key=lambda it: it[0].stamp)
        recency.append(dict(held))
    return recency


def _mark_group_clean(hier: CacheHierarchy) -> None:
    """Record that the cached residency maps match the post-epoch state."""
    getattr(hier, _GROUP_ATTR)["marker"] = _state_marker(hier)


def _group_index_remove(index: Dict[int, int], dups: Dict[int, set],
                        line: int, slice_id: int) -> None:
    """Drop one slice's copy of ``line`` from a group residency map.

    A duplicated line whose holder count falls to one collapses back into
    the plain index (its ``dups`` entry disappears), so the maps stay
    canonical: ``dups`` holds exactly the lines marked ``-1`` in ``index``.
    """
    prev = index.get(line)
    if prev == slice_id:
        del index[line]
    elif prev == -1:
        holders = dups[line]
        holders.discard(slice_id)
        if len(holders) == 1:
            index[line] = holders.pop()
            del dups[line]


def _lazy_invalidate(sets, set_index: int, line: int,
                     index: Dict[int, int], dups: Dict[int, set],
                     rec: Dict[Entry, int], lazy: List[int]) -> int:
    """Replay lazy invalidation of a line a merge left duplicated in a group.

    The freshest copy wins (stamps are unique, so max-by-stamp is
    order-free), the others leave their slices and the set's recency
    index, their dirtiness folds into the winner and each counts one lazy
    invalidation on its slice.  Returns the winning slice, now the line's
    sole holder in the residency map.
    """
    copies = sorted(((sets[ds][set_index][line], ds) for ds in dups.pop(line)),
                    key=lambda it: it[0].stamp, reverse=True)
    keep, winner = copies[0]
    for dup, ds in copies[1:]:
        del sets[ds][set_index][line]
        del rec[dup]
        lazy[ds] += 1
        if dup.dirty:
            keep.dirty = True
    index[line] = winner
    return winner


def _run_group_kernel(hier: CacheHierarchy, timers, active: List[int],
                      n_accesses: int, lines: np.ndarray, writes: np.ndarray,
                      cores: np.ndarray, gap_sums: Dict[int, int]) -> None:
    """Set-partitioned resolution of any LRU epoch (merged, shared, or
    all-private with shared lines).

    Semantically identical to ``CacheHierarchy.access`` driven in global
    order, in one fall-through loop: an L1 hit ends the access; otherwise
    the L2 group probe, then on a miss the L3 group probe or memory plus
    the L3 fill, then the L2 fill, and the L1 fill as the shared tail.
    Group probes resolve through the aggregate residency maps (one dict
    lookup instead of probing every slice; singleton groups probe their
    one slice), hits replay ``touch`` on the winning slice, duplicate
    copies replay lazy invalidation (:func:`_lazy_invalidate`), fills replay
    ``_fill_group`` placement (local slice if its set has room, else first
    slice in search order with room, else the group-wide LRU victim — read
    in O(1) as the first key of the group's per-set recency index, see
    :func:`_recency_index`) with ``_back_invalidate`` inlined, and the L1
    fill replays ``_fill_l1``, including its first-in-search-order dirty
    write-back.  Hits are counted per ``(core, serving slice)`` and misses
    per core; stats and timing are priced from those counts once at the
    end (one exact reduction per core — the dispatch gate verified
    exactness against the worst-case latency bound), so only coherence
    adders accumulate latency per access.  Observer ``on_fill``/``on_evict``
    are elided — no-ops under :func:`_observer_order_free` — and every hit
    the event path would report to ``on_hit`` is buffered per core and
    flushed at the end (:func:`_flush_hits`).
    """
    state = _group_state(hier)
    maps = state["maps"]

    config = hier.config
    n_cores = config.cores
    total = len(lines)
    base = hier.advance_stamp(total)

    part_mask = hier.partition_sets - 1
    if part_mask:
        order = np.argsort(lines & part_mask, kind="stable")
        stamps_list = (order + (base + 1)).tolist()
        lines_list = lines[order].tolist()
        writes_list = writes[order].tolist()
        cores_list = cores[order].tolist()
    else:
        stamps_list = list(range(base + 1, base + total + 1))
        lines_list = lines.tolist()
        writes_list = writes.tolist()
        cores_list = cores.tolist()

    l1_idx = [s.set_buckets() for s in hier.l1s]
    l2_idx = [s.set_buckets() for s in hier.l2s]
    l3_idx = [s.set_buckets() for s in hier.l3s]
    m1 = config.l1.sets - 1
    m2 = config.l2_slice.sets - 1
    m3 = config.l3_slice.sets - 1
    w1 = config.l1.ways
    w2 = config.l2_slice.ways
    w3 = config.l3_slice.ways

    ord2 = hier._l2_binding.orders
    ord3 = hier._l3_binding.orders
    grp3 = hier._l3_group_of
    # Per-core group views: the residency maps for multi-slice groups, or
    # the single probe target for singleton groups (-1 when the core's only
    # slice is fault-disabled, i.e. its search order is empty).
    gi2 = [maps.get((L2, g)) for g in hier._l2_group_of]
    gi3 = [maps.get((L3, g)) for g in grp3]
    d2 = [ord2[c][0] if (gi2[c] is None and ord2[c]) else -1
          for c in range(n_cores)]
    d3 = [ord3[c][0] if (gi3[c] is None and ord3[c]) else -1
          for c in range(n_cores)]
    # Entries a core's group set holds when every live slice's set is full.
    full2 = [len(o) * w2 for o in ord2]
    full3 = [len(o) * w3 for o in ord3]
    # The L2 groups each L3 group covers (L2 groups refine L3 groups): a
    # singleton as (slice, None), a multi-slice group as (-1, its maps), so
    # an L3 eviction's back-invalidation asks one residency map where the
    # victim's L2 copies are instead of probing every covered slice.
    covers = {}
    for group in hier._l3_groups:
        members = set(group)
        covers[group] = [(g[0], None) if len(g) == 1 else (-1, maps[(L2, g)])
                         for g in hier._l2_groups if g[0] in members]
    cover2 = [covers[g] for g in grp3]

    lat = config.latency
    lat_l1 = lat.l1_hit
    lat_mem = lat.memory
    charge = hier.charge_remote_latency
    hop = lat.distance_cycles_per_hop
    bus = hier.bus_penalty

    def _hit_latencies(local_hit: int, merged_hit: int) -> List[List[int]]:
        # lat[core][slice]: what _lookup_group charges for a hit served by
        # ``slice`` on behalf of ``core`` — statics run flat local
        # latencies, morphcache pays merged + bus span + fault penalty.
        if not charge:
            return [[local_hit] * n_cores for _ in range(n_cores)]
        return [[local_hit if s == c
                 else merged_hit + max(0, (abs(s - c) - 1) * hop) + bus
                 for s in range(n_cores)]
                for c in range(n_cores)]

    lat2 = _hit_latencies(lat.l2_local_hit, lat.l2_merged_hit)
    lat3 = _hit_latencies(lat.l3_local_hit, lat.l3_merged_hit)

    # h2[core][slice]: L2 hits served by ``slice`` for ``core`` (likewise
    # h3) — the per-slice hit stats, the local/remote split and the hit
    # latencies are all priced from these at the flush.
    h2 = [[0] * n_cores for _ in range(n_cores)]
    h3 = [[0] * n_cores for _ in range(n_cores)]
    c_l1 = [0] * n_cores
    c_mem = [0] * n_cores
    miss2 = [0] * n_cores
    ins2 = [0] * n_cores
    evi2 = [0] * n_cores
    lazy2 = [0] * n_cores
    miss3 = [0] * n_cores
    ins3 = [0] * n_cores
    evi3 = [0] * n_cores
    lazy3 = [0] * n_cores
    lat_extra = [0] * n_cores
    off_extra = [0] * n_cores
    ml = [0] * n_cores
    for core in active:
        ml[core] = timers[core].memory_latency

    directory = hier._l1_directory
    notify_hit = hier._notify_hit
    # Per-core L2/L3 hit lines, flushed into the ACFVs at kernel end.
    hits2 = [set() for _ in range(n_cores)]
    hits3 = [set() for _ in range(n_cores)]
    inval_others = hier._invalidate_other_l1s
    new_entry = Entry

    def coherence(core: int, line: int, latency: int) -> None:
        # _invalidate_other_l1s on top of an access of ``latency`` cycles:
        # its adder, and the off-chip threshold crossing it may cause.
        extra = inval_others(core, line)
        if extra:
            lat_extra[core] += extra
            m = ml[core]
            off_extra[core] += (latency + extra >= m) - (latency >= m)

    for line, write, core, stamp in zip(lines_list, writes_list,
                                        cores_list, stamps_list):
        # L1 probe (recency-dict hit).
        set1 = line & m1
        bucket1 = l1_idx[core][set1]
        entry = bucket1.get(line)
        if entry is not None:
            entry.stamp = stamp
            del bucket1[line]
            bucket1[line] = entry
            c_l1[core] += 1
            if write:
                entry.dirty = True
                holders = directory.get(line)
                if holders is not None and len(holders) > 1:
                    coherence(core, line, lat_l1)
            continue

        # L2 group probe through the aggregate residency map (singleton
        # groups probe their one slice directly).
        set2 = line & m2
        g2 = gi2[core]
        entry = None
        if g2 is None:
            s = d2[core]
            if s >= 0:
                bucket2 = l2_idx[s][set2]
                entry = bucket2.get(line)
                if entry is not None:
                    del bucket2[line]
                    bucket2[line] = entry
        else:
            index2, dups2, recency2 = g2
            s = index2.get(line, -2)
            if s != -2:
                rec = recency2[set2]
                if s == -1:
                    s = _lazy_invalidate(l2_idx, set2, line, index2, dups2,
                                         rec, lazy2)
                # touch(): move to the recency tail of the slice and of
                # the group's recency index.
                bucket2 = l2_idx[s][set2]
                entry = bucket2.pop(line)
                bucket2[line] = entry
                del rec[entry]
                rec[entry] = s
        if entry is not None:
            entry.stamp = stamp
            h2[core][s] += 1
            win, hlat = s, lat2
            if notify_hit:
                hits2[core].add(line)
        else:
            miss2[core] += 1

            # L3 group probe.
            set3 = line & m3
            g3 = gi3[core]
            if g3 is None:
                s = d3[core]
                if s >= 0:
                    b = l3_idx[s][set3]
                    entry = b.get(line)
                    if entry is not None:
                        del b[line]
                        b[line] = entry
            else:
                index3, dups3, recency3 = g3
                s = index3.get(line, -2)
                if s != -2:
                    rec = recency3[set3]
                    if s == -1:
                        s = _lazy_invalidate(l3_idx, set3, line, index3,
                                             dups3, rec, lazy3)
                    b = l3_idx[s][set3]
                    entry = b.pop(line)
                    b[line] = entry
                    del rec[entry]
                    rec[entry] = s
            if entry is not None:
                entry.stamp = stamp
                h3[core][s] += 1
                win, hlat = s, lat3
                if notify_hit:
                    hits3[core].add(line)
            else:
                # Main memory.  Fills cascade only while the parent level
                # succeeded (a fully-offline group skips the lower levels
                # too — inclusion).
                miss3[core] += 1
                c_mem[core] += 1
                win = -1
                o = ord3[core]
                if not o:
                    if write:
                        coherence(core, line, lat_mem)
                    continue
                # Fill L3: _fill_group placement with insert inlined and the
                # residency map and recency index maintained (a singleton
                # group's bucket is the one its probe just missed in).
                if g3 is not None:
                    rec = recency3[set3]
                    if len(rec) == full3[core]:
                        # Group set full: the recency index's first key is
                        # the group-wide LRU victim, so skip the room scan.
                        for victim in rec:
                            break
                        target = rec[victim]
                    else:
                        # Some live slice has room, so this scan always
                        # succeeds.
                        for target in o:
                            if len(l3_idx[target][set3]) < w3:
                                break
                    b = l3_idx[target][set3]
                else:
                    target = o[0]
                ins3[target] += 1
                if len(b) >= w3:
                    for v_line in b:
                        break
                    victim = b.pop(v_line)
                    victim.line = line
                    victim.owner = core
                    victim.dirty = write
                    victim.stamp = victim.filled = stamp
                    b[line] = victim
                    evi3[target] += 1
                    if g3 is not None:
                        _group_index_remove(index3, dups3, v_line, target)
                        index3[line] = target
                        del rec[victim]
                        rec[victim] = target
                    # _back_invalidate at L3 additionally sweeps the covered
                    # L2 slices (same subset index bits, same partition).
                    v_set2 = v_line & m2
                    for cov, gcov in cover2[target]:
                        if gcov is None:
                            if l2_idx[cov][v_set2].pop(v_line, None) \
                                    is not None:
                                evi2[cov] += 1
                            continue
                        index, dups, recency = gcov
                        held = index.pop(v_line, -2)
                        if held == -2:
                            continue
                        rec = recency[v_set2]
                        for cov in (dups.pop(v_line) if held == -1
                                    else (held,)):
                            del rec[l2_idx[cov][v_set2].pop(v_line)]
                            evi2[cov] += 1
                    holders = directory.get(v_line)
                    if holders:
                        v_set1 = v_line & m1
                        for hc in holders:
                            l1_idx[hc][v_set1].pop(v_line, None)
                        del directory[v_line]
                else:
                    entry = new_entry(line, core, write, stamp)
                    b[line] = entry
                    if g3 is not None:
                        index3[line] = target
                        rec[entry] = target

            # Fill L2: _fill_group placement with insert inlined and the
            # residency map and recency index maintained.
            o = ord2[core]
            if not o:
                if write:
                    coherence(core, line,
                              lat_mem if win < 0 else hlat[core][win])
                continue
            if g2 is None:
                target = o[0]
            else:
                rec = recency2[set2]
                if len(rec) == full2[core]:
                    # Group set full: the recency index's first key is the
                    # group-wide LRU victim, so skip the room scan.
                    for victim in rec:
                        break
                    target = rec[victim]
                else:
                    # Some live slice has room, so this scan always succeeds.
                    for target in o:
                        if len(l2_idx[target][set2]) < w2:
                            break
                bucket2 = l2_idx[target][set2]
            ins2[target] += 1
            if len(bucket2) >= w2:
                for v_line in bucket2:
                    break
                victim = bucket2.pop(v_line)
                victim.line = line
                victim.owner = core
                victim.dirty = write
                victim.stamp = victim.filled = stamp
                bucket2[line] = victim
                evi2[target] += 1
                if g2 is not None:
                    _group_index_remove(index2, dups2, v_line, target)
                    index2[line] = target
                    del rec[victim]
                    rec[victim] = target
                # _back_invalidate at L2: only the L1 holders must go.
                holders = directory.get(v_line)
                if holders:
                    v_set1 = v_line & m1
                    for hc in holders:
                        l1_idx[hc][v_set1].pop(v_line, None)
                    del directory[v_line]
            else:
                entry = new_entry(line, core, write, stamp)
                bucket2[line] = entry
                if g2 is not None:
                    index2[line] = target
                    rec[entry] = target

        # Fill L1 (every non-L1-hit path; _fill_l1 inlined, entry
        # recycling included).
        if len(bucket1) >= w1:
            for v_line in bucket1:
                break
            victim = bucket1.pop(v_line)
            holders = directory.get(v_line)
            if holders is not None:
                holders.discard(core)
                if not holders:
                    del directory[v_line]
            if victim.dirty:
                # The write-back lands on the *first* copy in search order
                # (same set, hence same partition) — not the freshest one;
                # _fill_l1 probes in order and stops at the first hit.  A
                # multi-slice group's residency map names the holders, so
                # only duplicates need the search order.
                if g2 is None:
                    s = d2[core]
                else:
                    s = g2[0].get(v_line, -2)
                    if s == -1:
                        held = g2[1][v_line]
                        for s in ord2[core]:
                            if s in held:
                                break
                if s >= 0:
                    l2e = l2_idx[s][v_line & m2].get(v_line)
                    if l2e is not None:
                        l2e.dirty = True
            victim.line = line
            victim.owner = core
            victim.dirty = write
            victim.stamp = victim.filled = stamp
            bucket1[line] = victim
        else:
            bucket1[line] = new_entry(line, core, write, stamp)
        holders = directory.get(line)
        if holders is None:
            directory[line] = {core}
        else:
            holders.add(core)
            if write and len(holders) > 1:
                coherence(core, line,
                          lat_mem if win < 0 else hlat[core][win])

    # Flush: integer sums into the real stats, one exact reduction per timer.
    core_stats = hier.stats.cores
    l2_stats = hier._l2_slice_stats
    l3_stats = hier._l3_slice_stats
    hit2 = [sum(col) for col in zip(*h2)]
    hit3 = [sum(col) for col in zip(*h3)]
    for c in range(n_cores):
        if hit2[c] or miss2[c]:
            l2_stats[c].add_probe_counts(hits=hit2[c], misses=miss2[c])
        if ins2[c] or evi2[c] or lazy2[c]:
            stats = l2_stats[c]
            stats.insertions += ins2[c]
            stats.evictions += evi2[c]
            stats.lazy_invalidations += lazy2[c]
        if hit3[c] or miss3[c]:
            l3_stats[c].add_probe_counts(hits=hit3[c], misses=miss3[c])
        if ins3[c] or evi3[c] or lazy3[c]:
            stats = l3_stats[c]
            stats.insertions += ins3[c]
            stats.evictions += evi3[c]
            stats.lazy_invalidations += lazy3[c]
    for core in active:
        n1, nm = c_l1[core], c_mem[core]
        m = ml[core]
        latency_sum = n1 * lat_l1 + nm * lat_mem + lat_extra[core]
        offchip = (n1 * int(lat_l1 >= m) + nm * int(lat_mem >= m)
                   + off_extra[core])
        for counts, lats in ((h2[core], lat2[core]), (h3[core], lat3[core])):
            for n, latency in zip(counts, lats):
                if n:
                    latency_sum += n * latency
                    offchip += n * int(latency >= m)
        l2_local, l3_local = h2[core][core], h3[core][core]
        core_stats[core].add_access_counts(
            accesses=n_accesses, l1_hits=n1,
            l2_local_hits=l2_local, l2_remote_hits=sum(h2[core]) - l2_local,
            l3_local_hits=l3_local, l3_remote_hits=sum(h3[core]) - l3_local,
            memory_accesses=nm, memory_cycles=nm * lat_mem)
        timers[core].account_summary(n_accesses, gap_sums[core],
                                     latency_sum, offchip)
    _flush_hits(hier, active, hits2, hits3)
    _mark_group_clean(hier)


# -- the general kernel ------------------------------------------------------

def _run_general(system, timers, traces, active: List[int], n_accesses: int,
                 lines: np.ndarray, writes: np.ndarray,
                 cores: np.ndarray) -> None:
    """Any-topology epoch: real access path in global order, batched timing.

    Merged groups, fault-disabled slices, PLRU and order-sensitive
    observers all take this path.  It performs exactly the event engine's
    access calls in exactly the event engine's order (so it is trivially
    bit-identical in cache state), and defers only the timing to
    ``account_batch`` — whose per-core latency sequences preserve the
    per-core access order, making even its non-exact scalar fallback
    reproduce the event engine's rounding sequence.
    """
    access = system.access
    latencies: Dict[int, List[int]] = {core: [] for core in active}
    appends = {core: latencies[core].append for core in active}
    append_list = [appends.get(c) for c in range(max(active) + 1)]
    for line, write, core in zip(lines.tolist(), writes.tolist(),
                                 cores.tolist()):
        append_list[core](access(core, line, write))
    for core in active:
        timers[core].account_batch(traces[core].gaps[:n_accesses],
                                   latencies[core])
