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
   to its core's L2 or L3 hit set, and at epoch end all cores' sets go
   into the ACFVs with one vectorised hash per level
   (:meth:`AcfvBank.record_epoch_hits`).
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
  core has referenced (:func:`_private_lines`): every multiprogrammed
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
  the same set index.  During the epoch each multi-slice group's sets live
  in the kernel's own maps (:func:`_group_maps`): a ``line -> Entry``
  index replaces the probe of every group slice, a per-set recency index
  (``Entry -> slice``, ascending stamp) orders hits and yields a full
  group set's LRU victim as its first key, and occupancy counts answer the
  room scan.  They are built by one scan, cached across epochs, and the
  member slices' buckets are rewritten from them once at epoch end.
  Singleton groups probe their one slice directly.  When no line has two
  owners (:func:`_private_lines`, the per-core kernel's check), the
  kernel runs in private-lines mode: no L1-directory upkeep or coherence
  checks per access, owner-only back-invalidation, one directory rebuild
  at the end.  The tier tag names
  the topology only: ``batch-private`` when all-private, ``batch-shared``
  for one L2 group spanning the machine, ``batch-merged`` otherwise.
- **general** — anything else (PLRU, order-sensitive observers,
  timing-inexact configurations): the real access path driven in global
  order with batched timing.
- **event fallback** — systems without a batchable hierarchy (PIPP, DSR)
  run the event engine unchanged; :func:`run_epoch_batch` reports which
  path it took.

The slice-group and general kernels stream their epoch: the interleave
and the partition order stay numpy arrays (~17 B per access), and the
loops draw their Python lists ``_CHUNK`` accesses at a time
(:func:`_stream`), so an epoch's Python objects no longer grow with its
length.  The per-core kernel's lists are one core's trace at a time.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

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
        private = _private_lines(hier, traces, active, n_accesses)
        if private and hier.all_private_fast:
            _run_private_percore(hier, timers, traces, active, n_accesses,
                                 gap_sums)
            _mark_owners_clean(hier)
            return _record_tier(PRIVATE_PERCORE)
        lines, writes = _interleave(traces, active, n_accesses)
        _run_group_kernel(hier, timers, active, n_accesses,
                          lines, writes, gap_sums, private)
        if private:
            _mark_owners_clean(hier)
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
    lines, writes = _interleave(traces, active, n_accesses)
    _run_general(system, timers, traces, active, n_accesses, lines, writes)
    return _record_tier(GENERAL_KERNEL)


# -- epoch materialisation ---------------------------------------------------

def _interleave(traces, active: List[int],
                n_accesses: int) -> Tuple[np.ndarray, np.ndarray]:
    """The deterministic round-robin global interleave, as arrays.

    Access ``i`` of core rank ``r`` lands at global index ``g = i * k + r``
    — exactly the order the event engine's nested loop visits — so the
    acting core is ``active[g % k]`` and needs no array of its own.
    Strided assignment keeps this at numpy speed with no ``tolist`` round
    trip.
    """
    k = len(active)
    total = n_accesses * k
    lines = np.empty(total, dtype=np.int64)
    writes = np.empty(total, dtype=bool)
    for rank, core in enumerate(active):
        trace = traces[core]
        lines[rank::k] = trace.lines[:n_accesses]
        writes[rank::k] = trace.writes[:n_accesses]
    return lines, writes


#: Accesses a kernel turns into Python objects at a time.  The kernels'
#: loops run over Python lists, which cost ~100 B per access; resolving an
#: epoch chunk by chunk bounds that transient by this constant instead of
#: the epoch length.  Chunks cut an access order without reordering it, so
#: every kernel sees the same stream.  Picked by measurement (MorphCache on
#: canneal, SMALL): kernel time showed no difference from 4k to unchunked
#: beyond the host's noise, and one run's peak RSS read 44.0 MB at 2k,
#: 44.4 MB at 8k, 45.2 MB at 16k and 51.6 MB unchunked.
_CHUNK = 8192


def _stream(lines: np.ndarray, writes: np.ndarray, active: List[int],
            order: Optional[np.ndarray], base: int) -> Iterator[tuple]:
    """``(line, write, core, stamp)`` per access, one chunk at a time.

    ``order`` lists global interleave indices in processing order (None:
    global order).  Each chunk materialises only its own four lists; the
    C-level ``chain`` drops a chunk's lists before building the next and
    adds no Python frame per access.
    """
    k = len(active)
    core_of = np.asarray(active, dtype=np.int64)
    total = len(lines)

    def chunk(start: int):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop) if order is None else order[start:stop]
        return zip(lines[idx].tolist(), writes[idx].tolist(),
                   core_of[idx % k].tolist(), (idx + (base + 1)).tolist())

    return chain.from_iterable(map(chunk, range(0, total, _CHUNK)))


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


def _flush_hits(hier: CacheHierarchy, hits) -> None:
    """Apply the kernel's buffered ``(core, l2_lines, l3_lines)`` hits to
    the ACFVs.

    Under :func:`_observer_order_free` a hit-notified observer is an
    :class:`AcfvBank` whose ``on_hit`` only ORs bits in, so one
    :meth:`AcfvBank.record_epoch_hits` for the whole epoch leaves exactly
    the vectors the per-hit calls would have.
    """
    if hier._notify_hit:
        hier.observer.record_epoch_hits(hits)


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
# the stamp, groups or fault sets changed outside the kernels), and each
# epoch's trace lines are checked against it (:func:`_private_lines`).  A
# core whose whole epoch lies in one address slot no other core has touched
# claims the slot instead of recording its lines; another core's new line
# in a claimed slot then counts as shared.  A map that outgrows the cache's
# capacity is rescanned, so its size is bounded by the cache, not by the
# length of the run.  The
# check runs for every LRU epoch, whatever the topology: it also puts the
# slice-group kernel in private-lines mode.  Any conflict — two owners for
# a line, a multi-holder directory entry, a trace touching a foreign line —
# sends the epoch to the slice-group kernel's shared path, which handles
# sharing exactly.

_OWNERS_ATTR = "_batch_owner_state"


def _state_marker(hier: CacheHierarchy) -> tuple:
    """Fingerprint of everything that can move cache state outside a kernel.

    Both the owner map and the slice-group kernel's maps are cached under
    it.  The stamp advances on every access (any engine), and
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
#: ``1 << 40``-aligned stride (and shared regions far above), so a core's
#: whole trace usually falls inside one slot that no other core has touched
#: — an O(1) min/max check instead of a per-line scan, which *claims* the
#: slot for that core.  The constant is a heuristic only; correctness never
#: depends on alignment.
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


def _private_lines(hier: CacheHierarchy, traces, active: List[int],
                   n_accesses: int) -> bool:
    """Whether no line of the cache or the epoch has two owners,
    committing trace ownership.

    A property of the input, checked for every LRU epoch.  Under an
    all-private topology it admits the per-core kernel; under any other
    it puts the slice-group kernel in private-lines mode (no L1-directory
    upkeep, owner-only back-invalidation).  On success the epoch's new
    lines are recorded in the cached owner map or covered by a claimed
    slot (both kernels preserve the no-sharing invariant, so the cache
    stays valid once marked clean by :func:`_mark_owners_clean`).  On
    failure nothing is recorded as clean — the next epoch rescans.
    """
    state = getattr(hier, _OWNERS_ATTR, None)
    if state is None or state["marker"] != _state_marker(hier):
        state = {"marker": None, "maps": _scan_owners(hier),
                 "claimed": set()}
        setattr(hier, _OWNERS_ATTR, state)
    maps = state["maps"]
    if maps is None:
        return False
    owners, slots = maps
    claimed = state["claimed"]
    get = owners.get
    for core in active:
        arr = traces[core].lines[:n_accesses]
        lo = int(arr.min())
        hi = int(arr.max())
        slot = lo >> _SLOT_BITS
        if hi >> _SLOT_BITS == slot and slots.setdefault(slot, core) == core:
            # Every line of the epoch falls in one slot that is untouched
            # or whose recorded lines all belong to this core.  The core
            # claims it, and its lines go unrecorded: from now on another
            # core's new line in it may be one of them, so counts as shared.
            claimed.add(slot)
            continue
        for line in set(arr.tolist()):
            owner = get(line)
            if owner is None:
                line_slot = line >> _SLOT_BITS
                if slots.setdefault(line_slot, core) != core:
                    if line_slot in claimed:
                        return False
                    slots[line_slot] = -1
                owners[line] = core
            elif owner != core:
                # Shared line (or a stale claim on a long-dead one):
                # conservative; the kernels' shared paths are exact.
                return False
    return True


def _mark_owners_clean(hier: CacheHierarchy) -> None:
    """Record that the cached owner map matches the post-epoch state.

    Unless the map has outgrown the cache's capacity in lines: it keeps
    every recorded line, resident or not, so the next epoch rescans
    instead, which keeps only the resident ones.
    """
    state = getattr(hier, _OWNERS_ATTR)
    capacity = sum(slice_.sets * slice_.ways
                   for slices in (hier.l1s, hier.l2s, hier.l3s)
                   for slice_ in slices)
    state["marker"] = (_state_marker(hier)
                       if len(state["maps"][0]) <= capacity else None)


def _l1_lines(sets) -> set:
    """The lines an L1's per-set buckets hold."""
    return {line for bucket in sets for line in bucket}


def _fix_directory(directory: Dict[int, set], core: int, before: set,
                   after: set) -> None:
    """Bring the L1 directory up to date with one core's L1, when every
    line it holds has that core as its only holder.

    Entries whose lines left the L1 disappear, lines that joined get fresh
    ``{core}`` singletons, survivors keep their (value-identical) sets —
    exactly the event engine's final directory for this core.
    """
    for line in before - after:
        del directory[line]
    for line in after - before:
        directory[line] = {core}


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
    # Every core's L2/L3 hit lines as arrays, flushed once after all cores.
    epoch_hits = []

    for rank, core in enumerate(active):
        trace = traces[core]
        lines_list = trace.lines[:n_accesses].tolist()
        writes_list = trace.writes[:n_accesses].tolist()
        l1x = hier.l1s[core]._index
        l2x = hier.l2s[core]._index
        l3x = hier.l3s[core]._index
        # Directory reconstruction (see docstring): remember what is in
        # this L1 now, fix the directory up after the loop.
        old_resident = _l1_lines(l1x)
        # Insertion counts need no loop counters: every L3/mem resolution
        # fills L2 (ins2 == cl3 + cmem) and every mem resolution fills L3
        # (ins3 == cmem).
        # cl3 is derived at flush (cl3 = n - cl1 - cl2 - cmem): the L3-hit
        # branch is the most-executed one, so it carries no counter at all.
        cl1 = cl2 = cmem = evi2 = evi3 = 0
        stamp = base + rank + 1 - k
        # This core's L2/L3 hit lines, flushed into the ACFVs at epoch
        # end (the gate makes on_hit an order-free OR).
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

        _fix_directory(directory, core, old_resident, _l1_lines(l1x))
        if notify_hit:
            epoch_hits.append((core, np.fromiter(hits2, np.int64, len(hits2)),
                               np.fromiter(hits3, np.int64, len(hits3))))

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
    _flush_hits(hier, epoch_hits)


# -- the slice-group kernel (every other LRU epoch) --------------------------
#
# The configurations MorphCache's merge decisions create — multi-slice L2/L3
# groups, up to one fully-shared group spanning the machine — used to run on
# the general kernel at ~event-engine speed, because each access probed every
# slice of its group through the full Python access path.  The group kernel
# closes that gap by keeping every multi-slice group set in *its own maps*
# for the duration of the epoch.  Singleton groups need no maps (their one
# slice is probed directly), so the same loop also resolves all-private
# epochs whose cores share lines.
#
# Within an epoch the topology is frozen, so for each multi-slice group one
# scan builds three structures (:func:`_group_maps`): an index
# ``line -> Entry`` (a duplicated line, left behind by a merge, maps to the
# ``_DUP`` sentinel and its ``dups`` entry maps ``slice -> Entry``), a
# per-set *recency index* ``Entry -> slice`` in ascending stamp order, and
# per-slice occupancy counts per set.  A group probe is one index lookup, a
# hit moves one key of the recency index to its end, a fill into a full
# group set recycles the recency index's first key (the group-wide LRU
# victim), and a room scan reads the counts.  The member slices' buckets
# are not touched during the epoch; at its end each is rewritten from the
# recency index, in ascending stamp order, so every other reader (the
# event path, ``CacheSlice``, the per-core kernel) again finds its LRU
# victim at the bucket's head.  The maps are cached on the hierarchy across
# epochs under the same fingerprint the owner map uses (stamp + groups +
# fault sets): steady-state epochs pay no scan at all.
#
# When no line has two owners (:func:`_private_lines`: every multiprogrammed
# mix), the L1 directory only ever holds ``{owner}`` singletons and no
# coherence check can fire.  The kernel then runs in *private-lines mode*:
# it keeps no directory during the epoch, back-invalidates only the L1 of
# the victim's owner, and rebuilds the directory once at the end, as the
# per-core kernel does.
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

#: What a multi-slice group's index maps a duplicated line to; the copies
#: are in the group's ``dups`` map.
_DUP = Entry(-1, -1, False, -1)


def _group_state(hier: CacheHierarchy) -> dict:
    """Cached kernel maps for every multi-slice group.

    ``state["maps"][(level, group)]`` is ``(index, dups, recency, counts)``
    as built by :func:`_group_maps`.  Rebuilt (one scan of the resident
    state) whenever the fingerprint shows state moved outside this kernel:
    any access through any engine advances the stamp, and
    reconfiguration/fault repair changes the group tuples or disabled sets.
    Mutating slice contents behind the hierarchy's back (directly calling
    ``CacheSlice.flush`` etc.) is outside the contract.
    """
    state = getattr(hier, _GROUP_ATTR, None)
    if state is None or state["marker"] != _state_marker(hier):
        maps = {}
        for level, groups, slices in ((L2, hier._l2_groups, hier.l2s),
                                      (L3, hier._l3_groups, hier.l3s)):
            for group in groups:
                if len(group) > 1:
                    maps[(level, group)] = _group_maps(slices, group)
        state = {"marker": None, "maps": maps}
        setattr(hier, _GROUP_ATTR, state)
    return state


def _group_maps(slices, group: Tuple[int, ...]) -> tuple:
    """``(index, dups, recency, counts)`` of one multi-slice group.

    - ``index``: resident ``line -> Entry``, or ``line -> _DUP`` when
      several slices hold copies; ``dups[line]`` then maps
      ``slice -> Entry`` for each copy.
    - ``recency[set]``: ``Entry -> slice`` over every entry the group's
      slices keep in that set (``Entry`` hashes by identity), oldest
      first — so its first key is the group-wide LRU entry, the victim
      ``_fill_group`` picks as the minimum-stamp slice head.  The kernel
      keeps the order by re-inserting at the end whatever it stamps:
      stamps are unique and, within one set, the kernel processes
      accesses in stamp order.
    - ``counts[slice][set]``: entries the slice holds in that set.
    """
    buckets = [(slice_id, slices[slice_id].set_buckets())
               for slice_id in group]
    counts = {slice_id: [len(bucket) for bucket in sets]
              for slice_id, sets in buckets}
    index: Dict[int, Entry] = {}
    dups: Dict[int, Dict[int, Entry]] = {}
    recency = []
    for set_index in range(len(buckets[0][1])):
        held = [(entry, slice_id) for slice_id, sets in buckets
                for entry in sets[set_index].values()]
        held.sort(key=lambda it: it[0].stamp)
        rec = dict(held)
        recency.append(rec)
        for entry, slice_id in held:
            line = entry.line
            prev = index.setdefault(line, entry)
            if prev is _DUP:
                dups[line][slice_id] = entry
            elif prev is not entry:
                dups[line] = {rec[prev]: prev, slice_id: entry}
                index[line] = _DUP
    return index, dups, recency, counts


def _rewrite_buckets(slices, group: Tuple[int, ...],
                     recency: List[Dict[Entry, int]]) -> None:
    """Rewrite a group's member buckets from its recency index.

    The kernel leaves the buckets alone during the epoch; this puts every
    entry back into its slice's set in ascending stamp order, the recency
    order whose head ``CacheSlice`` and the kernels take as the LRU victim.
    """
    member_sets = {slice_id: slices[slice_id].set_buckets()
                   for slice_id in group}
    for set_index, rec in enumerate(recency):
        for sets in member_sets.values():
            sets[set_index].clear()
        for entry, slice_id in rec.items():
            member_sets[slice_id][set_index][entry.line] = entry


def _mark_group_clean(hier: CacheHierarchy) -> None:
    """Record that the cached kernel maps match the post-epoch state."""
    getattr(hier, _GROUP_ATTR)["marker"] = _state_marker(hier)


def _lazy_invalidate(line: int, set_index: int, index: Dict[int, Entry],
                     dups: Dict[int, Dict[int, Entry]],
                     rec: Dict[Entry, int], occupancy: List[List[int]],
                     lazy: List[int]) -> Entry:
    """Replay lazy invalidation of a line a merge left duplicated in a group.

    The freshest copy wins (stamps are unique, so max-by-stamp is
    order-free), the others leave the set's recency index and occupancy
    counts, their dirtiness folds into the winner and each counts one lazy
    invalidation on its slice.  Returns the winning entry, now the line's
    sole copy in the index.
    """
    copies = sorted(dups.pop(line).items(), key=lambda it: it[1].stamp,
                    reverse=True)
    keep = copies[0][1]
    for ds, dup in copies[1:]:
        del rec[dup]
        occupancy[ds][set_index] -= 1
        lazy[ds] += 1
        if dup.dirty:
            keep.dirty = True
    index[line] = keep
    return keep


def _drop_duplicate(index: Dict[int, Entry],
                    dups: Dict[int, Dict[int, Entry]], line: int,
                    slice_id: int) -> None:
    """Put back a duplicated line's index entry after dropping the copy in
    ``slice_id``.

    A line left with one copy collapses back into the plain index, so
    ``dups`` holds exactly the lines the index marks ``_DUP``.
    """
    copies = dups[line]
    del copies[slice_id]
    if len(copies) == 1:
        (index[line],) = copies.values()
        del dups[line]
    else:
        index[line] = _DUP


def _run_group_kernel(hier: CacheHierarchy, timers, active: List[int],
                      n_accesses: int, lines: np.ndarray, writes: np.ndarray,
                      gap_sums: Dict[int, int], private: bool) -> None:
    """Set-partitioned resolution of any LRU epoch (merged, shared, or
    all-private with shared lines).

    Semantically identical to ``CacheHierarchy.access`` driven in global
    order, in one fall-through loop over the partition-sorted epoch, drawn
    chunk by chunk (:func:`_stream`): an L1 hit ends the access; otherwise
    the L2 group probe, then on a miss the L3 group probe or memory plus
    the L3 fill, then the L2 fill, and the L1 fill as the shared tail.

    A multi-slice group resolves through the kernel's own maps
    (:func:`_group_maps`): a probe is one index lookup, a hit moves the
    entry to the end of the set's recency index, duplicate copies replay
    lazy invalidation (:func:`_lazy_invalidate`), and a fill replays
    ``_fill_group`` placement — local slice if its set has room, else the
    first slice in search order with room (read from the occupancy
    counts), else the group-wide LRU victim, the recency index's first
    key — with ``_back_invalidate`` inlined.  Singleton groups probe and
    fill their one slice's bucket directly.  The L1 fill replays
    ``_fill_l1``, including its first-in-search-order dirty write-back.
    At the end each multi-slice group's member buckets are rewritten from
    its recency index (:func:`_rewrite_buckets`).

    ``private`` (:func:`_private_lines`: no line has two owners) drops the
    L1 directory from the loop: no coherence check can fire, a victim's
    only L1 copy is in its owner's L1, and the directory is rebuilt once
    at the end.

    Hits are counted per ``(core, serving slice)`` and memory accesses
    per core; misses, stats and timing are derived from those counts once
    at the end (one exact reduction per core — the dispatch gate verified
    exactness against the worst-case latency bound), so only coherence
    adders accumulate latency per access.  Observer ``on_fill``/
    ``on_evict`` are elided — no-ops under :func:`_observer_order_free` —
    and every hit the event path would report to ``on_hit`` is buffered
    per core and flushed at the end (:func:`_flush_hits`).
    """
    state = _group_state(hier)
    maps = state["maps"]

    config = hier.config
    n_cores = config.cores
    total = len(lines)
    base = hier.advance_stamp(total)

    part_mask = hier.partition_sets - 1
    order = None
    if part_mask:
        # The partition key in the narrowest unsigned type that holds it
        # (no 8 B-per-access temporary; a stable argsort of 8/16-bit keys
        # is a radix sort).  Any stable sort yields the same order.
        key = np.bitwise_and(lines, part_mask, casting="unsafe",
                             dtype=np.min_scalar_type(part_mask))
        order = np.argsort(key, kind="stable")
        del key

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
    # Per-core group views: (index, dups, recency) for multi-slice groups,
    # or the single probe target for singleton groups (-1 when the core's
    # only slice is fault-disabled, i.e. its search order is empty).
    views = {key: group_maps[:3] for key, group_maps in maps.items()}
    gi2 = [views.get((L2, g)) for g in hier._l2_group_of]
    gi3 = [views.get((L3, g)) for g in grp3]
    d2 = [ord2[c][0] if (gi2[c] is None and ord2[c]) else -1
          for c in range(n_cores)]
    d3 = [ord3[c][0] if (gi3[c] is None and ord3[c]) else -1
          for c in range(n_cores)]
    # Per-slice occupancy counts of multi-slice group members, by set.
    occ2: List[Optional[List[int]]] = [None] * n_cores
    occ3: List[Optional[List[int]]] = [None] * n_cores
    for (level, _), group_maps in maps.items():
        occ = occ2 if level == L2 else occ3
        for slice_id, counts in group_maps[3].items():
            occ[slice_id] = counts
    # Entries a core's group set holds when every live slice's set is full.
    full2 = [len(o) * w2 for o in ord2]
    full3 = [len(o) * w3 for o in ord3]
    # The L2 groups each L3 group covers (L2 groups refine L3 groups): a
    # singleton as (slice, None), a multi-slice group as (-1, its view), so
    # an L3 eviction's back-invalidation asks one index where the victim's
    # L2 copies are instead of probing every covered slice.
    covers = {}
    for group in hier._l3_groups:
        members = set(group)
        covers[group] = [(g[0], None) if len(g) == 1 else (-1, views[(L2, g)])
                         for g in hier._l2_groups if g[0] in members]
    cover2 = [covers[g] for g in grp3]
    # Each core's own L2 group in the same form (empty when fault-disabled):
    # where an L3 victim's L2 copies can be when its owner is its only
    # referencer, since repair keeps every L2 entry inside its owner's group.
    own2 = [((d2[c], None),) if d2[c] >= 0
            else ((-1, gi2[c]),) if gi2[c] is not None else ()
            for c in range(n_cores)]

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
    # h3) — the per-slice hit stats, the local/remote split, the misses
    # and the hit latencies are all priced from these at the flush.
    h2 = [[0] * n_cores for _ in range(n_cores)]
    h3 = [[0] * n_cores for _ in range(n_cores)]
    c_l1 = [0] * n_cores
    c_mem = [0] * n_cores
    ins2 = [0] * n_cores
    evi2 = [0] * n_cores
    lazy2 = [0] * n_cores
    ins3 = [0] * n_cores
    evi3 = [0] * n_cores
    lazy3 = [0] * n_cores
    lat_extra = [0] * n_cores
    off_extra = [0] * n_cores
    ml = [0] * n_cores
    for core in active:
        ml[core] = timers[core].memory_latency

    directory = hier._l1_directory
    shared = not private
    if private:
        # Directory rebuild (see docstring): remember what every L1 holds
        # now, fix the directory up after the loop.
        l1_before = [_l1_lines(sets) for sets in l1_idx]
    notify_hit = hier._notify_hit
    # Per-core L2/L3 hit lines, flushed into the ACFVs at kernel end.
    hits2 = [set() for _ in range(n_cores)]
    hits3 = [set() for _ in range(n_cores)]
    inval_others = hier._invalidate_other_l1s
    new_entry = Entry
    dup = _DUP

    def coherence(core: int, line: int, latency: int) -> None:
        # _invalidate_other_l1s on top of an access of ``latency`` cycles:
        # its adder, and the off-chip threshold crossing it may cause.
        extra = inval_others(core, line)
        if extra:
            lat_extra[core] += extra
            m = ml[core]
            off_extra[core] += (latency + extra >= m) - (latency >= m)

    for line, write, core, stamp in _stream(lines, writes, active, order,
                                            base):
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
                if shared:
                    holders = directory.get(line)
                    if holders is not None and len(holders) > 1:
                        coherence(core, line, lat_l1)
            continue

        # L2 group probe: the group's index (singleton groups probe their
        # one slice directly).
        set2 = line & m2
        g2 = gi2[core]
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
            entry = index2.get(line)
            if entry is not None:
                rec = recency2[set2]
                if entry is dup:
                    entry = _lazy_invalidate(line, set2, index2, dups2, rec,
                                             occ2, lazy2)
                # touch(): move to the end of the recency index.
                s = rec.pop(entry)
                rec[entry] = s
        if entry is not None:
            entry.stamp = stamp
            h2[core][s] += 1
            win, hlat = s, lat2
            if notify_hit:
                hits2[core].add(line)
        else:
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
                entry = index3.get(line)
                if entry is not None:
                    rec = recency3[set3]
                    if entry is dup:
                        entry = _lazy_invalidate(line, set3, index3, dups3,
                                                 rec, occ3, lazy3)
                    s = rec.pop(entry)
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
                c_mem[core] += 1
                win = -1
                o = ord3[core]
                if not o:
                    if write and shared:
                        coherence(core, line, lat_mem)
                    continue
                # Fill L3: _fill_group placement with insert inlined (a
                # singleton group's bucket is the one its probe just
                # missed in).
                victim = None
                if g3 is None:
                    target = o[0]
                    if len(b) >= w3:
                        for v_line in b:
                            break
                        victim = b.pop(v_line)
                        b[line] = victim
                    else:
                        b[line] = new_entry(line, core, write, stamp)
                else:
                    rec = recency3[set3]
                    if len(rec) == full3[core]:
                        # Group set full: the recency index's first key is
                        # the group-wide LRU victim, so skip the room scan.
                        for victim in rec:
                            break
                        target = rec.pop(victim)
                        v_line = victim.line
                        if index3.pop(v_line) is dup:
                            _drop_duplicate(index3, dups3, v_line, target)
                        index3[line] = victim
                        rec[victim] = target
                    else:
                        # Some live slice has room, so this scan always
                        # succeeds.
                        for target in o:
                            if occ3[target][set3] < w3:
                                break
                        occ3[target][set3] += 1
                        entry = new_entry(line, core, write, stamp)
                        index3[line] = entry
                        rec[entry] = target
                ins3[target] += 1
                if victim is not None:
                    v_owner = victim.owner
                    victim.line = line
                    victim.owner = core
                    victim.dirty = write
                    victim.stamp = victim.filled = stamp
                    evi3[target] += 1
                    # _back_invalidate at L3 additionally sweeps the covered
                    # L2 slices (same subset index bits, same partition) —
                    # in private-lines mode only the owner's L2 group, the
                    # one place its sole referencer can have put a copy.
                    v_set2 = v_line & m2
                    for cov, gcov in (cover2[target] if shared
                                      else own2[v_owner]):
                        if gcov is None:
                            if l2_idx[cov][v_set2].pop(v_line, None) \
                                    is not None:
                                evi2[cov] += 1
                            continue
                        index, dups, recency = gcov
                        held = index.pop(v_line, None)
                        if held is None:
                            continue
                        rec = recency[v_set2]
                        for cov, held in (dups.pop(v_line).items()
                                          if held is dup
                                          else ((rec[held], held),)):
                            del rec[held]
                            occ2[cov][v_set2] -= 1
                            evi2[cov] += 1
                    if shared:
                        holders = directory.get(v_line)
                        if holders:
                            v_set1 = v_line & m1
                            for hc in holders:
                                l1_idx[hc][v_set1].pop(v_line, None)
                            del directory[v_line]
                    else:
                        l1_idx[v_owner][v_line & m1].pop(v_line, None)

            # Fill L2: _fill_group placement with insert inlined.
            o = ord2[core]
            if not o:
                if write and shared:
                    coherence(core, line,
                              lat_mem if win < 0 else hlat[core][win])
                continue
            victim = None
            if g2 is None:
                # The bucket is the one the L2 probe just missed in.
                target = o[0]
                if len(bucket2) >= w2:
                    for v_line in bucket2:
                        break
                    victim = bucket2.pop(v_line)
                    bucket2[line] = victim
                else:
                    bucket2[line] = new_entry(line, core, write, stamp)
            else:
                rec = recency2[set2]
                if len(rec) == full2[core]:
                    # Group set full: the recency index's first key is the
                    # group-wide LRU victim, so skip the room scan.
                    for victim in rec:
                        break
                    target = rec.pop(victim)
                    v_line = victim.line
                    if index2.pop(v_line) is dup:
                        _drop_duplicate(index2, dups2, v_line, target)
                    index2[line] = victim
                    rec[victim] = target
                else:
                    # Some live slice has room, so this scan always succeeds.
                    for target in o:
                        if occ2[target][set2] < w2:
                            break
                    occ2[target][set2] += 1
                    entry = new_entry(line, core, write, stamp)
                    index2[line] = entry
                    rec[entry] = target
            ins2[target] += 1
            if victim is not None:
                v_owner = victim.owner
                victim.line = line
                victim.owner = core
                victim.dirty = write
                victim.stamp = victim.filled = stamp
                evi2[target] += 1
                # _back_invalidate at L2: only the L1 holders must go.
                if shared:
                    holders = directory.get(v_line)
                    if holders:
                        v_set1 = v_line & m1
                        for hc in holders:
                            l1_idx[hc][v_set1].pop(v_line, None)
                        del directory[v_line]
                else:
                    l1_idx[v_owner][v_line & m1].pop(v_line, None)

        # Fill L1 (every non-L1-hit path; _fill_l1 inlined, entry
        # recycling included).
        if len(bucket1) >= w1:
            for v_line in bucket1:
                break
            victim = bucket1.pop(v_line)
            if shared:
                holders = directory.get(v_line)
                if holders is not None:
                    holders.discard(core)
                    if not holders:
                        del directory[v_line]
            if victim.dirty:
                # The write-back lands on the *first* copy in search order
                # (same set, hence same partition) — not the freshest one;
                # _fill_l1 probes in order and stops at the first hit.  A
                # multi-slice group's index names the copy, so only
                # duplicates need the search order.  (The L2 search order
                # is not empty: this access reached the L1 fill.)
                if g2 is None:
                    l2e = l2_idx[d2[core]][v_line & m2].get(v_line)
                else:
                    l2e = g2[0].get(v_line)
                    if l2e is dup:
                        copies = g2[1][v_line]
                        for s in ord2[core]:
                            if s in copies:
                                l2e = copies[s]
                                break
                if l2e is not None:
                    l2e.dirty = True
            victim.line = line
            victim.owner = core
            victim.dirty = write
            victim.stamp = victim.filled = stamp
            bucket1[line] = victim
        else:
            bucket1[line] = new_entry(line, core, write, stamp)
        if shared:
            holders = directory.get(line)
            if holders is None:
                directory[line] = {core}
            else:
                holders.add(core)
                if write and len(holders) > 1:
                    coherence(core, line,
                              lat_mem if win < 0 else hlat[core][win])

    if private:
        for core, sets in enumerate(l1_idx):
            _fix_directory(directory, core, l1_before[core], _l1_lines(sets))
    for (level, group), group_maps in maps.items():
        _rewrite_buckets(hier.l2s if level == L2 else hier.l3s, group,
                         group_maps[2])

    # Flush: integer sums into the real stats, one exact reduction per timer.
    # Every L2 miss is served by L3 or memory, and every L3 miss by memory.
    core_stats = hier.stats.cores
    l2_stats = hier._l2_slice_stats
    l3_stats = hier._l3_slice_stats
    hit2 = [sum(col) for col in zip(*h2)]
    hit3 = [sum(col) for col in zip(*h3)]
    miss3 = c_mem
    miss2 = [sum(h3[c]) + c_mem[c] for c in range(n_cores)]
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
    _flush_hits(hier, [(core, hits2[core], hits3[core]) for core in active])
    _mark_group_clean(hier)


# -- the general kernel ------------------------------------------------------

def _run_general(system, timers, traces, active: List[int], n_accesses: int,
                 lines: np.ndarray, writes: np.ndarray) -> None:
    """Any-topology epoch: real access path in global order, batched timing.

    Merged groups, fault-disabled slices, PLRU and order-sensitive
    observers all take this path.  It performs exactly the event engine's
    access calls in exactly the event engine's order (so it is trivially
    bit-identical in cache state), and defers only the timing to
    ``account_batch`` — whose per-core latency sequences preserve the
    per-core access order, making even its non-exact scalar fallback
    reproduce the event engine's rounding sequence.

    The epoch streams in chunks of whole interleave rounds, each core's
    latencies going to ``account_batch`` chunk by chunk.  That is still bit
    for bit the per-access loop: an exact chunk sums exactly, and once a
    chunk is inexact every later one is too (``cycles`` only grows), so
    the scalar fallback resumes from the identical state.
    """
    access = system.access
    k = len(active)
    rounds = max(1, _CHUNK // k)
    for first in range(0, n_accesses, rounds):
        last = min(first + rounds, n_accesses)
        latencies: Dict[int, List[int]] = {core: [] for core in active}
        appends = {core: latencies[core].append for core in active}
        append_list = [appends.get(c) for c in range(max(active) + 1)]
        for line, write, core in zip(lines[first * k:last * k].tolist(),
                                     writes[first * k:last * k].tolist(),
                                     active * (last - first)):
            append_list[core](access(core, line, write))
        for core in active:
            timers[core].account_batch(traces[core].gaps[first:last],
                                       latencies[core])
