"""Three-level inclusive cache hierarchy with mergeable L2/L3 slice groups.

This is the substrate every scheme in the paper runs on: 16 private L1s and
16 slices of L2 and L3.  The hierarchy does not decide topology — it is told
the current grouping of slices at each level (``set_topology``) and provides:

- group-wide lookup: a core's access searches every slice of its group,
  local slice first (local hits cost the local latency, remote hits the
  merged latency of Table 3 when ``charge_remote_latency`` is set);
- group-wide insertion with true-LRU victim choice across the group
  (merging sums associativities, footnote 1 of the paper);
- lazy invalidation of duplicate copies created by a merge (Section 2.2):
  on a multi-hit only the most recently used copy survives;
- inclusion maintenance: an L3 eviction back-invalidates the covered L2
  slices and L1s, an L2 eviction back-invalidates L1s;
- a write-invalidate L1 directory for threads sharing an address space.

An observer receives fill/hit/evict events per slice — the MorphCache
controller attaches its ACFVs there, and the oracle footprint estimator of
Figure 5 uses the same interface.

Hot-path architecture (see DESIGN.md §6): the access path is driven by
per-level :class:`_LevelBinding` objects precomputed at ``set_topology``
time, so no per-access work re-resolves ``level == L2`` branches, config
attributes, or stats dict lookups.  Singleton (private, local) groups take
a fast path that skips the multi-hit collection/sort/lazy-invalidation
machinery entirely, and observer dispatch is skipped per hook when the
installed observer inherits the default no-op implementation.  All of this
is bit-identical to the straightforward path — the golden-determinism test
and checkpoint digests pin that down.

:meth:`CacheHierarchy.access` is the event engine's only access path and
the reference the batch kernels (``repro.sim.batch``) are tested against.
No method is bound on the instance, so a hierarchy is freed by reference
counting as soon as its run lets go of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.caches.cache import CacheSlice, Entry
from repro.caches.stats import HierarchyStats
from repro.config import MachineConfig
from repro.obs import metrics as obs_metrics
from repro.resilience.errors import FaultInjectedError

L2 = "l2"
L3 = "l3"


class HierarchyObserver:
    """Event sink for per-slice cache activity.  All hooks are optional."""

    def on_hit(self, level: str, slice_id: int, core: int, tag: int) -> None:
        """A lookup hit ``tag`` in slice ``slice_id`` on behalf of ``core``."""

    def on_fill(self, level: str, slice_id: int, core: int, tag: int) -> None:
        """``tag`` was installed into slice ``slice_id`` for ``core``."""

    def on_evict(self, level: str, slice_id: int, tag: int,
                 owner: int = -1) -> None:
        """``tag`` left slice ``slice_id`` (replacement or invalidation)."""


class AccessResult(NamedTuple):
    """Outcome of one memory reference.

    A NamedTuple rather than a dataclass: one is constructed per access,
    and tuple construction is several times cheaper.
    """

    latency: int

    level: str
    """Where the reference was served: ``l1``, ``l2``, ``l3`` or ``mem``."""

    remote: bool
    """True when served by a non-local slice of a merged group."""


@dataclass
class _LevelBinding:
    """Everything the access path needs about one level, pre-resolved.

    Rebuilt whenever the topology or the fault-disabled set changes; the
    hot path only ever indexes into these lists.
    """

    name: str
    slices: List[CacheSlice]
    stats: List  # SliceStats per slice id
    local_hit: int
    merged_hit: int
    orders: List[Tuple[int, ...]]
    """Per-core search order (local slice first, then by distance)."""

    fast: List[Optional[CacheSlice]]
    """Per-core: the core's own slice when its order is exactly
    ``(core,)`` — the private-topology fast path — else None."""


class CacheHierarchy:
    """The CMP cache substrate (see module docstring)."""

    def __init__(
        self,
        config: MachineConfig,
        charge_remote_latency: bool = True,
        observer: Optional[HierarchyObserver] = None,
    ) -> None:
        self.config = config
        self.charge_remote_latency = charge_remote_latency
        n = config.cores
        rep = config.replacement
        self.l1s = [CacheSlice(config.l1.sets, config.l1.ways, rep, i) for i in range(n)]
        self.l2s = [CacheSlice(config.l2_slice.sets, config.l2_slice.ways, rep, i)
                    for i in range(n)]
        self.l3s = [CacheSlice(config.l3_slice.sets, config.l3_slice.ways, rep, i)
                    for i in range(n)]
        self.stats = HierarchyStats.for_machine(n)
        self._core_stats = [self.stats.cores[i] for i in range(n)]
        lat = config.latency
        self._stamp = 0
        self.bus_penalty = 0
        """Extra cycles a remote (merged) hit pays while a bus fault stalls
        the arbiter; set by the fault injector, 0 in healthy epochs."""

        self.observer = observer or HierarchyObserver()

        # Slices taken offline by injected faults, per level.
        self._disabled: Dict[str, Set[int]] = {L2: set(), L3: set()}
        # line -> cores holding the line in their L1 (inclusion directory).
        self._l1_directory: Dict[int, Set[int]] = {}
        private = [(i,) for i in range(n)]
        self._l2_groups: List[Tuple[int, ...]] = []
        self._l3_groups: List[Tuple[int, ...]] = []
        self._l2_group_of: List[Tuple[int, ...]] = []
        self._l3_group_of: List[Tuple[int, ...]] = []
        self._l2_binding = _LevelBinding(
            L2, self.l2s, [self.stats.l2_slices[i] for i in range(n)],
            lat.l2_local_hit, lat.l2_merged_hit, [()] * n, [None] * n)
        self._l3_binding = _LevelBinding(
            L3, self.l3s, [self.stats.l3_slices[i] for i in range(n)],
            lat.l3_local_hit, lat.l3_merged_hit, [()] * n, [None] * n)
        self._l2_slice_stats = self._l2_binding.stats
        self._l3_slice_stats = self._l3_binding.stats
        self.set_topology(private, list(private))

    # -- observer dispatch flags -------------------------------------------

    @property
    def observer(self) -> HierarchyObserver:
        return self._observer

    @observer.setter
    def observer(self, observer: HierarchyObserver) -> None:
        """Install an observer, pre-resolving which hooks are overridden.

        Hooks left at the base-class no-op are never dispatched on the hot
        path — the default (no observer) configuration pays nothing.
        """
        cls = type(observer)
        self._observer = observer
        self._notify_hit = cls.on_hit is not HierarchyObserver.on_hit
        self._notify_fill = cls.on_fill is not HierarchyObserver.on_fill
        self._notify_evict = cls.on_evict is not HierarchyObserver.on_evict

    # -- topology ----------------------------------------------------------

    def set_topology(
        self,
        l2_groups: Sequence[Tuple[int, ...]],
        l3_groups: Sequence[Tuple[int, ...]],
    ) -> None:
        """Install a new slice grouping at both levels.

        ``l2_groups`` / ``l3_groups`` must each partition ``range(cores)``.
        Every L2 group must be contained in a single L3 group (the inclusion
        requirement of Sections 2.2/2.3).  Duplicate copies that sharing may
        create are *not* flushed here — lazy invalidation handles them.
        """
        n = self.config.cores
        for name, groups in ((L2, l2_groups), (L3, l3_groups)):
            seen = sorted(s for g in groups for s in g)
            if seen != list(range(n)):
                raise ValueError(f"{name} groups {groups} do not partition 0..{n - 1}")
        l3_of: Dict[int, Tuple[int, ...]] = {}
        for group in l3_groups:
            for slice_id in group:
                l3_of[slice_id] = tuple(group)
        for group in l2_groups:
            covering = {l3_of[s] for s in group}
            if len(covering) != 1:
                raise ValueError(
                    f"L2 group {group} spans multiple L3 groups {covering}: "
                    "inclusion would be violated"
                )
        l2_new = [tuple(g) for g in l2_groups]
        l3_new = [tuple(g) for g in l3_groups]
        # Reinstalling the installed grouping (most epoch boundaries) is a
        # no-op: the disabled sets only change through set_faulted_slices,
        # which repairs on its own, so the search orders are current and
        # the access paths have kept every inclusion invariant the repair
        # scan checks.
        if l2_new != self._l2_groups or l3_new != self._l3_groups:
            self._l2_groups = l2_new
            self._l3_groups = l3_new
            self._l2_group_of = [()] * n
            self._l3_group_of = [()] * n
            for group in self._l2_groups:
                for slice_id in group:
                    self._l2_group_of[slice_id] = group
            for group in self._l3_groups:
                for slice_id in group:
                    self._l3_group_of[slice_id] = group
            self._recompute_search_orders()
            self._repair_after_reconfiguration()
        reg = obs_metrics.REGISTRY
        if reg.enabled:
            reg.counter("repro_topology_changes_total",
                        "Topology installs via set_topology").inc()
            groups_gauge = reg.gauge("repro_topology_groups",
                                     "Installed slice groups per level",
                                     labels=("level",))
            groups_gauge.labels(level=L2).set(len(self._l2_groups))
            groups_gauge.labels(level=L3).set(len(self._l3_groups))

    def topology(self) -> Dict[str, List[Tuple[int, ...]]]:
        """The installed slice grouping per level (copies, sorted members)."""
        return {
            L2: [tuple(sorted(g)) for g in self._l2_groups],
            L3: [tuple(sorted(g)) for g in self._l3_groups],
        }

    def _recompute_search_orders(self) -> None:
        """Rebuild the per-level bindings (orders + fast-path slices)."""
        for binding, groups in ((self._l2_binding, self._l2_groups),
                                (self._l3_binding, self._l3_groups)):
            disabled = self._disabled[binding.name]
            for group in groups:
                for slice_id in group:
                    order = _search_order(slice_id, group, disabled)
                    binding.orders[slice_id] = order
                    binding.fast[slice_id] = (
                        binding.slices[slice_id]
                        if order == (slice_id,) else None)
        # The batch engine's per-core kernel needs every core's L2 and L3
        # order to be its own slice alone, and true LRU (it implements
        # recency-dict LRU only).
        self._all_private_fast = (
            self.config.replacement == "lru"
            and all(fast is not None for fast in self._l2_binding.fast)
            and all(fast is not None for fast in self._l3_binding.fast))

    # -- fault support -----------------------------------------------------

    def disabled_slices(self, level: str) -> Set[int]:
        """Slices currently offline at ``level`` (injected faults)."""
        return set(self._disabled[level])

    def set_faulted_slices(self, level: str, slice_ids: Set[int]) -> None:
        """Take the given slices offline at ``level`` (and the rest online).

        Newly-offline slices are flushed (a failed slice loses its data) and
        excluded from every group's lookup/fill path; the surviving slices
        of each group carry on serving.  Inclusion is re-established by the
        standard reconfiguration repair.  Re-enabled slices come back empty.

        Raises:
            FaultInjectedError: disabling every slice of a level — the
                machine would be unable to cache anything there.
        """
        slice_ids = {int(s) for s in slice_ids}
        n = self.config.cores
        if any(not 0 <= s < n for s in slice_ids):
            raise FaultInjectedError(
                f"{level} fault targets {sorted(slice_ids)} outside 0..{n - 1}")
        if len(slice_ids) >= n:
            raise FaultInjectedError(
                f"fault set disables every {level} slice; no capacity left")
        if slice_ids == self._disabled[level]:
            return
        newly_offline = slice_ids - self._disabled[level]
        self._disabled[level] = slice_ids
        slices = self.l2s if level == L2 else self.l3s
        slice_stats = self.stats.l2_slices if level == L2 else self.stats.l3_slices
        for slice_id in newly_offline:
            for entry in slices[slice_id].flush():
                slice_stats[slice_id].evictions += 1
                self._observer.on_evict(level, slice_id, entry.line, entry.owner)
        self._recompute_search_orders()
        self._repair_after_reconfiguration()
        reg = obs_metrics.REGISTRY
        if reg.enabled:
            reg.gauge("repro_faulted_slices",
                      "Cache slices taken offline by injected faults",
                      labels=("level",)).labels(level=level).set(len(slice_ids))

    def _repair_after_reconfiguration(self) -> None:
        """Evict lines a topology change made unreachable or non-inclusive.

        A split leaves lines stranded in slices their owner can no longer
        reach; those lines would never hit again and, worse, an L2 copy may
        lose its backing L3 copy, breaking inclusion.  Hardware would handle
        this with (lazy) invalidation; the repair here invalidates orphans
        eagerly at the reconfiguration boundary, which is rare enough that
        the cost is irrelevant (and the lost-locality penalty of refetching
        is faithfully paid by the subsequent misses).
        """
        # L3 orphans: owner can no longer address this slice.
        for slice_id, l3 in enumerate(self.l3s):
            for entry in l3.entries():
                if slice_id not in self._l3_group_of[entry.owner]:
                    l3.invalidate_entry(entry)
                    self.stats.l3_slices[slice_id].evictions += 1
                    self._observer.on_evict(L3, slice_id, entry.line, entry.owner)
        # L2 orphans: unreachable by owner, or L3 backing copy gone.
        for slice_id, l2 in enumerate(self.l2s):
            l3_group = self._l3_group_of[slice_id]
            for entry in l2.entries():
                unreachable = slice_id not in self._l2_group_of[entry.owner]
                unbacked = not any(entry.line in self.l3s[s] for s in l3_group)
                if unreachable or unbacked:
                    l2.invalidate_entry(entry)
                    self.stats.l2_slices[slice_id].evictions += 1
                    self._observer.on_evict(L2, slice_id, entry.line, entry.owner)
        # L1 copies must still be backed by the core's (new) L2 group.
        for line, holders in list(self._l1_directory.items()):
            for core in list(holders):
                backed = any(line in self.l2s[s]
                             for s in self._l2_group_of[core])
                if not backed:
                    self.l1s[core].invalidate(line)
                    holders.discard(core)
            if not holders:
                del self._l1_directory[line]

    @property
    def l2_groups(self) -> List[Tuple[int, ...]]:
        return list(self._l2_groups)

    @property
    def l3_groups(self) -> List[Tuple[int, ...]]:
        return list(self._l3_groups)

    def l2_group_of(self, slice_id: int) -> Tuple[int, ...]:
        return self._l2_group_of[slice_id]

    def l3_group_of(self, slice_id: int) -> Tuple[int, ...]:
        return self._l3_group_of[slice_id]

    # -- batch-engine entry points ------------------------------------------

    @property
    def all_private_fast(self) -> bool:
        """True when every core's search orders are its own slices alone.

        Singleton local groups at both levels, true LRU, no fault-disabled
        slices in any core's path.  It gates the batch engine's per-core
        kernel (``repro.sim.batch``), which additionally needs an epoch with
        no shared lines, and names the ``batch-private`` tier of the
        slice-group kernel otherwise.
        """
        return self._all_private_fast

    @property
    def partition_sets(self) -> int:
        """Number of independent set partitions for batched resolution.

        The smallest set count across the three levels.  Every structure a
        reference can touch — its own sets, LRU victims (same set), dirty
        write-backs (same L1 set ⇒ partition bits preserved), inclusion
        back-invalidations (subset index bits) and coherence invalidations
        (same line) — shares the reference's ``line & (partition_sets - 1)``
        bits, so resolving each partition's subsequence in global order is
        bit-identical to the fully interleaved order (DESIGN.md §7).
        """
        config = self.config
        return min(config.l1.sets, config.l2_slice.sets, config.l3_slice.sets)

    def group_line_index(
        self, level: str, group: Tuple[int, ...]
    ) -> Tuple[Dict[int, int], Dict[int, Set[int]]]:
        """Aggregate residency view of one slice group at ``level``.

        Returns ``(index, dups)``: ``index`` maps each resident line to the
        slice holding it, or to ``-1`` when several slices hold copies (the
        duplicates a merge leaves behind, resolved lazily on the next hit);
        ``dups`` then lists the holding slices.  Fault-disabled slices are
        naturally absent — they are flushed when they go offline.

        This is the scatter/gather substrate of the batch engine's group
        kernel: one scan replaces the per-access probe of every slice in
        the group, and the kernel keeps the maps current incrementally.
        """
        slices = self.l2s if level == L2 else self.l3s
        index: Dict[int, int] = {}
        dups: Dict[int, Set[int]] = {}
        # Order-free, so the per-set dicts are read directly rather than
        # through the fill-order sort of ``resident_lines()``.
        for slice_id in group:
            for bucket in slices[slice_id].set_buckets():
                for line in bucket:
                    prev = index.setdefault(line, slice_id)
                    if prev != slice_id:
                        dups.setdefault(line, {prev} if prev >= 0 else set()) \
                            .add(slice_id)
                        index[line] = -1
        return index, dups

    def max_access_latency(self) -> int:
        """Upper bound on the latency any single access can return.

        Used by the batch engine to bound the cycles an epoch can add when
        checking :meth:`~repro.cpu.core_model.CoreTimingModel.
        batch_summation_exact`.  Covers the worst remote merged hit (full
        segmented-bus span plus any active bus-fault penalty) and the
        coherence invalidation adder; deliberately a loose over-estimate.
        """
        lat = self.config.latency
        span = max(0, self.config.cores - 2) * lat.distance_cycles_per_hop
        worst_remote = max(lat.l2_merged_hit, lat.l3_merged_hit) + span \
            + self.bus_penalty
        return max(lat.l1_hit, lat.l2_local_hit, lat.l3_local_hit,
                   lat.memory, worst_remote) + lat.coherence_invalidate

    def advance_stamp(self, count: int) -> int:
        """Consume ``count`` stamps; returns the stamp *before* the first.

        The batch engine assigns each access its stamp positionally
        (``base + 1 + global_index``) instead of incrementing per access;
        this reserves the range and keeps the counter identical to what the
        per-access path would leave behind.
        """
        base = self._stamp
        self._stamp = base + count
        return base

    # -- the access path ---------------------------------------------------

    def access(self, core: int, line: int, write: bool = False) -> AccessResult:
        """Issue one reference from ``core``; returns level and latency."""
        self._stamp += 1
        stamp = self._stamp
        lat = self.config.latency
        core_stats = self._core_stats[core]
        core_stats.accesses += 1

        # L1.
        l1 = self.l1s[core]
        entry = l1.lookup(line)
        if entry is not None:
            l1.touch(entry, stamp)
            core_stats.l1_hits += 1
            latency = lat.l1_hit
            if write:
                entry.dirty = True
                latency += self._invalidate_other_l1s(core, line)
            return AccessResult(latency, "l1", False)

        # L2 group.
        hit_slice, latency = self._lookup_group(self._l2_binding, core, line, stamp)
        if hit_slice is not None:
            remote = hit_slice != core
            if remote:
                core_stats.l2_remote_hits += 1
            else:
                core_stats.l2_local_hits += 1
            total = latency + self._fill_l1(core, line, write, stamp)
            if write:
                total += self._invalidate_other_l1s(core, line)
            return AccessResult(total, "l2", remote)

        # L3 group.
        hit_slice, latency = self._lookup_group(self._l3_binding, core, line, stamp)
        if hit_slice is not None:
            remote = hit_slice != core
            if remote:
                core_stats.l3_remote_hits += 1
            else:
                core_stats.l3_local_hits += 1
            l2_filled = self._fill_group(self._l2_binding, core, line, write, stamp)
            total = latency
            if l2_filled is not None:
                total += self._fill_l1(core, line, write, stamp)
            if write:
                total += self._invalidate_other_l1s(core, line)
            return AccessResult(total, "l3", remote)

        # Main memory.  Fills cascade only while the parent level succeeded:
        # with a whole group fault-disabled the lower levels skip caching
        # too, preserving inclusion (an L2 copy must have an L3 backing).
        core_stats.memory_accesses += 1
        core_stats.memory_cycles += lat.memory
        total = lat.memory
        if self._fill_group(self._l3_binding, core, line, write, stamp) is not None:
            if self._fill_group(self._l2_binding, core, line, write, stamp) is not None:
                total += self._fill_l1(core, line, write, stamp)
        if write:
            total += self._invalidate_other_l1s(core, line)
        return AccessResult(total, "mem", False)

    # -- group mechanics ---------------------------------------------------

    def _lookup_group(
        self, binding: _LevelBinding, core: int, line: int, stamp: int
    ) -> Tuple[Optional[int], int]:
        """Search the core's group at the binding's level; return (hit slice,
        latency).

        Implements lazy invalidation: when the line is found in several
        slices of a merged group (duplicates left over from a merge), only
        the most recently used copy is kept.  The private-topology fast path
        (a singleton, local group) skips all of that: at most one copy can
        exist and any hit is local.
        """
        stats = binding.stats
        local = binding.fast[core]
        if local is not None:
            entry = local.lookup(line)
            if entry is None:
                stats[core].misses += 1
                return None, 0
            local.touch(entry, stamp)
            stats[core].hits += 1
            if self._notify_hit:
                self._observer.on_hit(binding.name, core, core, line)
            return core, binding.local_hit

        slices = binding.slices
        order = binding.orders[core]
        winner_slice = -1
        winner: Optional[Entry] = None
        extra: Optional[List[Tuple[int, Entry]]] = None
        for slice_id in order:
            entry = slices[slice_id].lookup(line)
            if entry is not None:
                if winner is None:
                    winner_slice, winner = slice_id, entry
                elif extra is None:
                    extra = [(slice_id, entry)]
                else:
                    extra.append((slice_id, entry))
        if winner is None:
            stats[core].misses += 1
            return None, 0

        if extra is not None:
            hits = [(winner_slice, winner)] + extra
            hits.sort(key=lambda item: item[1].stamp, reverse=True)
            winner_slice, winner = hits[0]
            for dup_slice, dup in hits[1:]:
                slices[dup_slice].invalidate_entry(dup)
                stats[dup_slice].lazy_invalidations += 1
                if dup.dirty:
                    winner.dirty = True
                if self._notify_evict:
                    self._observer.on_evict(binding.name, dup_slice, line, dup.owner)
        slices[winner_slice].touch(winner, stamp)
        stats[winner_slice].hits += 1
        if self._notify_hit:
            self._observer.on_hit(binding.name, winner_slice, core, line)
        if winner_slice == core or not self.charge_remote_latency:
            return winner_slice, binding.local_hit
        # Remote hits pay the merged latency plus the segmented-bus span
        # cost for slices beyond the immediate neighbourhood (Section 5.5),
        # plus the arbiter-stall penalty while a bus fault is active.
        distance_penalty = (abs(winner_slice - core) - 1) \
            * self.config.latency.distance_cycles_per_hop
        return winner_slice, binding.merged_hit + max(0, distance_penalty) \
            + self.bus_penalty

    def _fill_group(self, binding: _LevelBinding, core: int, line: int,
                    write: bool, stamp: int) -> Optional[int]:
        """Install ``line`` into the core's group at the binding's level.

        Placement: the local slice if its set has room, else any group slice
        with room, else the slice holding the group-wide LRU victim (summed
        associativity per footnote 1).  Returns the slice filled, or None
        when every slice of the group is fault-disabled (the line is simply
        not cached at this level).  A singleton local group needs no
        placement search — insert() already picks the slice-local victim.
        """
        slices = binding.slices
        local = binding.fast[core]
        if local is not None:
            target = core
            victim = local.insert(line, core, write, stamp)
        else:
            order = binding.orders[core]
            if not order:
                return None
            target = None
            for slice_id in order:
                if slices[slice_id].has_room(line):
                    target = slice_id
                    break
            if target is None:
                oldest_stamp = None
                for slice_id in order:
                    candidate = slices[slice_id].victim_candidate(line)
                    if candidate is not None and (
                        oldest_stamp is None or candidate.stamp < oldest_stamp
                    ):
                        oldest_stamp = candidate.stamp
                        target = slice_id
                if target is None:  # pragma: no cover - sets cannot all be unfull and victimless
                    target = order[0]
            victim = slices[target].insert(line, core, write, stamp)
        binding.stats[target].insertions += 1
        if self._notify_fill:
            self._observer.on_fill(binding.name, target, core, line)
        if victim is not None:
            binding.stats[target].evictions += 1
            if self._notify_evict:
                self._observer.on_evict(binding.name, target, victim.line,
                                        victim.owner)
            self._back_invalidate(binding.name, target, victim.line)
        return target

    def _back_invalidate(self, level: str, from_slice: int, line: int) -> None:
        """Maintain inclusion after an eviction at ``level``."""
        if level == L3:
            # The line can only live in L2 slices covered by this L3 group.
            for slice_id in self._l3_group_of[from_slice]:
                removed = self.l2s[slice_id].invalidate(line)
                if removed is not None:
                    self.stats.l2_slices[slice_id].evictions += 1
                    if self._notify_evict:
                        self._observer.on_evict(L2, slice_id, line, removed.owner)
        # In both cases the L1 copies must go (L1 is inclusive in L2).
        holders = self._l1_directory.get(line)
        if holders:
            for core in list(holders):
                self.l1s[core].invalidate(line)
            del self._l1_directory[line]

    # -- L1 handling -------------------------------------------------------

    def _fill_l1(self, core: int, line: int, write: bool, stamp: int) -> int:
        """Install into the core's L1; returns extra latency (always 0)."""
        victim = self.l1s[core].insert(line, core, write, stamp)
        self._l1_directory.setdefault(line, set()).add(core)
        if victim is not None:
            holders = self._l1_directory.get(victim.line)
            if holders is not None:
                holders.discard(core)
                if not holders:
                    del self._l1_directory[victim.line]
            if victim.dirty:
                # Write back into the L2 copy (inclusion guarantees presence
                # unless a concurrent back-invalidation removed it).
                for slice_id in self._l2_binding.orders[core]:
                    entry = self.l2s[slice_id].lookup(victim.line)
                    if entry is not None:
                        entry.dirty = True
                        break
        return 0

    def _invalidate_other_l1s(self, core: int, line: int) -> int:
        """Write-invalidate coherence for threads sharing an address space."""
        holders = self._l1_directory.get(line)
        if not holders:
            return 0
        if len(holders) == 1 and core in holders:
            return 0  # only the writer itself holds the line (common case)
        others = [c for c in holders if c != core]
        if not others:
            return 0
        for other in others:
            self.l1s[other].invalidate(line)
            holders.discard(other)
            self.stats.cores[core].coherence_invalidations += 1
        if not holders:
            # A writer that keeps no L1 copy (its L2 group is fault-disabled)
            # leaves no holder; drop the entry, as every other path does.
            del self._l1_directory[line]
        return self.config.latency.coherence_invalidate

    # -- invariants (used by tests and property checks) ---------------------

    def check_inclusion(self) -> None:
        """Raise AssertionError if any inclusion invariant is violated."""
        for core, l1 in enumerate(self.l1s):
            group = self._l2_group_of[core]
            for line in l1.resident_lines():
                if not any(line in self.l2s[s] for s in group):
                    raise AssertionError(
                        f"L1 of core {core} holds line {line:#x} absent from "
                        f"its L2 group {group}"
                    )
        for slice_id, l2 in enumerate(self.l2s):
            group = self._l3_group_of[slice_id]
            for line in l2.resident_lines():
                if not any(line in self.l3s[s] for s in group):
                    raise AssertionError(
                        f"L2 slice {slice_id} holds line {line:#x} absent "
                        f"from its L3 group {group}"
                    )


def _search_order(local: int, group: Tuple[int, ...],
                  disabled: Set[int] = frozenset()) -> Tuple[int, ...]:
    """Local slice first, then the rest of the group by physical distance.

    Fault-disabled slices are excluded entirely; a core whose local slice is
    offline is served by the surviving slices of its group (possibly none).
    """
    alive = [s for s in group if s not in disabled]
    rest = sorted((s for s in alive if s != local), key=lambda s: abs(s - local))
    if local in disabled:
        return tuple(rest)
    return (local, *rest)
