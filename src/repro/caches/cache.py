"""A single set-associative cache slice.

A slice stores line addresses directly (the simulator is line-granular), but
exposes the hardware *tag* of a line (the line address with the set-index
bits stripped) because the ACFV hardware of Section 2.1 hashes tags.

Entries carry a monotonic access stamp supplied by the hierarchy; stamps
implement true LRU and order copies during lazy invalidation after a merge.

Hot-path layout: every set is **one** ``line -> Entry`` dict (``_index``),
giving O(1) ``lookup``, ``invalidate`` and ``__contains__``.

Under true LRU the dict is kept in **recency order** (a hit re-appends its
entry), so the LRU victim is simply the first value — O(1) instead of a
``min()`` scan over the set.  This is exactly equivalent to min-by-stamp
because the hierarchy's stamps are strictly monotonic: recency order and
stamp order coincide, and stamps within a set are unique (each access
touches or inserts at most one entry per slice).

The *fill* order of a set — the iteration order of ``entries()``,
``resident_lines()``, ``flush()`` and ``export_arrays()``, which checkpoint
state digests hash and so must never change — is recovered on demand from
each entry's ``filled`` key: the stamp at which the line entered this set.
Under PLRU nothing reorders the dict, so its order already is fill order,
and a way index is a position in the dict.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.caches.replacement import make_policy


class Entry:
    """One cache line: its address, owning thread, dirtiness, access stamp.

    ``filled`` is the stamp at which the line entered its set (the fill
    order key of :class:`CacheSlice`); code that recycles an evicted entry
    for a new line must reset it along with the other fields.
    """

    __slots__ = ("line", "owner", "dirty", "stamp", "filled")

    def __init__(self, line: int, owner: int, dirty: bool, stamp: int) -> None:
        self.line = line
        self.owner = owner
        self.dirty = dirty
        self.stamp = stamp
        self.filled = stamp

    def __repr__(self) -> str:
        return f"Entry(line={self.line:#x}, owner={self.owner}, " \
               f"dirty={self.dirty}, stamp={self.stamp})"


_by_fill = attrgetter("filled")


class CacheSlice:
    """One slice of ``sets`` x ``ways`` lines with a replacement policy.

    The slice itself knows nothing about levels, merging or latencies; the
    hierarchy composes slices into groups.  All mutating operations return
    enough information for the caller to maintain inclusion (the evicted
    entry, if any).

    Stamps passed to ``insert``/``touch`` must be monotonically increasing
    (as the hierarchy's global counter guarantees); the O(1) LRU victim
    relies on recency order and stamp order coinciding.
    """

    def __init__(self, sets: int, ways: int, replacement: str = "lru",
                 slice_id: int = 0) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        if sets & (sets - 1):
            raise ValueError(f"sets must be a power of two, got {sets}")
        self.sets = sets
        self.ways = ways
        self.slice_id = slice_id
        self._set_mask = sets - 1
        self._set_shift = sets.bit_length() - 1
        self.policy = make_policy(replacement, sets, ways)
        self._lru = replacement == "lru"
        self._index: List[Dict[int, Entry]] = [{} for _ in range(sets)]

    # -- address helpers ---------------------------------------------------

    def set_index(self, line: int) -> int:
        """Set that the given line address maps to."""
        return line & self._set_mask

    def tag(self, line: int) -> int:
        """Hardware tag of the line (index bits stripped)."""
        return line >> self._set_shift

    # -- lookup / update ---------------------------------------------------

    def lookup(self, line: int) -> Optional[Entry]:
        """Return the entry holding ``line``, or None.  Does not touch LRU."""
        return self._index[line & self._set_mask].get(line)

    def touch(self, entry: Entry, stamp: int) -> None:
        """Record a hit on ``entry`` at time ``stamp``."""
        entry.stamp = stamp
        if self._lru:
            # Move to the recency tail so the head stays the LRU victim.
            bucket = self._index[entry.line & self._set_mask]
            del bucket[entry.line]
            bucket[entry.line] = entry
            return
        set_index = entry.line & self._set_mask
        way = list(self._index[set_index]).index(entry.line)
        self.policy.touch(set_index, way)

    def has_room(self, line: int) -> bool:
        """True if the line's set has a free way."""
        return len(self._index[line & self._set_mask]) < self.ways

    def insert(self, line: int, owner: int, dirty: bool, stamp: int) -> Optional[Entry]:
        """Install ``line``; return the evicted entry if the set was full.

        The caller is responsible for checking the line is not already
        present (the hierarchy always performs a group-wide lookup first).
        """
        set_index = line & self._set_mask
        bucket = self._index[set_index]
        victim: Optional[Entry] = None
        if len(bucket) >= self.ways:
            if self._lru:
                victim = next(iter(bucket.values()))
            else:
                ways = list(bucket.values())
                victim = ways[self.policy.victim(set_index,
                                                 [e.stamp for e in ways])]
            del bucket[victim.line]
        bucket[line] = Entry(line, owner, dirty, stamp)
        if not self._lru:
            self.policy.touch(set_index, len(bucket) - 1)
        return victim

    def victim_candidate(self, line: int) -> Optional[Entry]:
        """The entry that *would* be evicted if ``line`` were inserted now."""
        set_index = line & self._set_mask
        bucket = self._index[set_index]
        if len(bucket) < self.ways:
            return None
        if self._lru:
            return next(iter(bucket.values()))
        ways = list(bucket.values())
        return ways[self.policy.victim(set_index, [e.stamp for e in ways])]

    def invalidate(self, line: int) -> Optional[Entry]:
        """Remove ``line`` from the slice; return the entry if it was present."""
        return self._index[line & self._set_mask].pop(line, None)

    def invalidate_entry(self, entry: Entry) -> bool:
        """Remove a specific entry object (used by lazy invalidation)."""
        bucket = self._index[entry.line & self._set_mask]
        if bucket.get(entry.line) is not entry:
            return False
        del bucket[entry.line]
        return True

    # -- array-friendly state export/import (batch engine & tests) ---------

    def set_bucket(self, set_index: int) -> Dict[int, "Entry"]:
        """The ``line -> Entry`` dict of one set, in recency order (LRU).

        The batch engine's per-set kernels hoist these dicts once per
        partition instead of re-resolving ``_index[line & mask]`` per
        access, and mutate them directly.  A kernel that does so must keep
        the slice's invariants itself: recency order under LRU, and
        ``filled`` set to the fill stamp on every entry it installs or
        recycles.
        """
        return self._index[set_index]

    def set_buckets(self) -> List[Dict[int, "Entry"]]:
        """All per-set recency dicts, indexed by set (LRU victim = first
        value of each dict); same direct mutation contract as
        :meth:`set_bucket`."""
        return self._index

    def way_lists(self) -> List[List[Entry]]:
        """Per-set snapshots of the entries in fill order, indexed by set.

        The lists are fresh copies: mutating one does not touch the slice
        (use :meth:`set_buckets` for that).  A PLRU dict is never
        reordered, so its order already is fill order.
        """
        if self._lru:
            return [sorted(bucket.values(), key=_by_fill)
                    for bucket in self._index]
        return [list(bucket.values()) for bucket in self._index]

    def export_arrays(self) -> Dict[str, np.ndarray]:
        """Snapshot the slice state as parallel numpy arrays.

        Entries appear in digest order (fill order per set, sets ascending)
        so two slices are state-equal iff their exports are element-wise
        equal.  Used by the batch-engine differential tests and available
        to future vectorised kernels.
        """
        sets, lines, owners, dirty, stamps = [], [], [], [], []
        for set_index, ways in enumerate(self.way_lists()):
            for entry in ways:
                sets.append(set_index)
                lines.append(entry.line)
                owners.append(entry.owner)
                dirty.append(entry.dirty)
                stamps.append(entry.stamp)
        return {
            "set": np.asarray(sets, dtype=np.int64),
            "line": np.asarray(lines, dtype=np.int64),
            "owner": np.asarray(owners, dtype=np.int64),
            "dirty": np.asarray(dirty, dtype=bool),
            "stamp": np.asarray(stamps, dtype=np.int64),
        }

    def import_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Rebuild the slice from an :meth:`export_arrays` snapshot.

        Entries get ``filled`` ranks in export order, all negative and so
        below any real stamp (the hierarchy's first stamp is 1): fill order
        survives the round trip, and later fills sort after every imported
        entry.  Under true LRU the recency dicts are rebuilt in stamp order
        (recency and stamp order coincide for states produced by
        monotonic-stamp hierarchies), so a round trip is state-identical
        including the LRU victim choice.  Under PLRU the dicts are built in
        export order, which keeps every way index.
        """
        held: List[List[Entry]] = [[] for _ in range(self.sets)]
        count = len(state["line"])
        for rank, (set_index, line, owner, d, stamp) in enumerate(zip(
                state["set"], state["line"], state["owner"],
                state["dirty"], state["stamp"])):
            set_index = int(set_index)
            if len(held[set_index]) >= self.ways:
                raise ValueError(
                    f"set {set_index} over-full in imported state")
            entry = Entry(int(line), int(owner), bool(d), int(stamp))
            entry.filled = rank - count
            held[set_index].append(entry)
        if self._lru:
            for ways in held:
                ways.sort(key=lambda e: e.stamp)
        self._index = [{entry.line: entry for entry in ways} for ways in held]

    # -- introspection -----------------------------------------------------

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(bucket) for bucket in self._index)

    def resident_lines(self) -> List[int]:
        """All line addresses currently in the slice (test/oracle helper)."""
        return [entry.line for entry in self.entries()]

    def entries(self) -> List[Entry]:
        """All valid entries in fill order per set, sets ascending
        (snapshot; safe to invalidate while iterating)."""
        return [entry for ways in self.way_lists() for entry in ways]

    def flush(self) -> List[Entry]:
        """Invalidate everything; return the removed entries."""
        removed = self.entries()
        self._index = [{} for _ in range(self.sets)]
        return removed

    def __contains__(self, line: int) -> bool:
        return line in self._index[line & self._set_mask]

    def __repr__(self) -> str:
        return (f"CacheSlice(id={self.slice_id}, sets={self.sets}, "
                f"ways={self.ways}, occupancy={self.occupancy()})")
