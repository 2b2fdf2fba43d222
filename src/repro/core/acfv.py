"""Active Cache Footprint Vectors (Section 2.1).

An ACFV is a small bit vector summarising the active footprint of a thread
in one cache slice's worth of capacity.  In the paper, bits are set when a
tag is brought in or reused and cleared when the hashed victim tag is
replaced; all vectors are reset at each reconfiguration interval so stale
data stops counting.  Here only reuse (a hit) sets a bit and eviction
clears nothing — see :class:`AcfvBank` for why.

The paper states "there is an ACFV per-core, per cache slice".  In the
private base topology those coincide; this implementation keeps one ACFV per
*core* per level, updated by that core's hits regardless of which physical
slice of a merged group the line lands in.
That realises both properties the paper relies on:

(i) ``|ACFV|`` tracks the core's active utilisation in slice-capacity
    units, and
(ii) the common 1's of two cores' ACFVs measure their data sharing.

For decision-making the raw population count is *linearised*: with ``F``
active lines hashed into ``n`` bits the expected population is
``n * (1 - (1 - 1/n)^F)``, which saturates for ``F >> n``.  Inverting that
curve (``F_est = -n * ln(1 - ones/n)``) recovers a scale-independent
footprint estimate, so the MSAT thresholds keep their "percent of slice
capacity" meaning at every simulator scale.  Figure 5's correlation study
uses the raw count, exactly as the hardware would.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, List, Sequence, Tuple

import numpy as np

from repro.caches.hierarchy import HierarchyObserver
from repro.core.hashing import make_hash


class Acfv:
    """One active-cache-footprint bit vector."""

    def __init__(self, bits: int, hash_name: str = "xor") -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        self.hash = make_hash(hash_name, bits)
        self._vector = 0

    def set(self, tag: int) -> None:
        """Mark the hashed tag active (new or reused data)."""
        self._vector |= 1 << self.hash(tag)

    def reset(self) -> None:
        """Zero the vector (start of a reconfiguration interval)."""
        self._vector = 0

    def flip(self, bit: int) -> None:
        """Invert one bit in place (fault injection: a soft error in the
        footprint-tracking SRAM)."""
        if not 0 <= bit < self.bits:
            raise ValueError(f"bit {bit} out of range for {self.bits}-bit vector")
        self._vector ^= 1 << bit

    @property
    def ones(self) -> int:
        """``|ACFV|`` — the population count."""
        return self._vector.bit_count()

    @property
    def fraction(self) -> float:
        """Fraction of bits set."""
        return self.ones / self.bits

    def estimated_lines(self) -> float:
        """Linearised footprint estimate in cache lines.

        Inverts the expected-population curve; saturated vectors (all ones)
        estimate 3x the vector length, the point where the curve becomes
        uninformative.
        """
        if self.ones >= self.bits:
            return 3.0 * self.bits
        return -self.bits * math.log(1.0 - self.ones / self.bits)

    def overlap_ones(self, other: "Acfv") -> int:
        """Number of common 1's with another vector (data-sharing signal)."""
        return (self._vector & other._vector).bit_count()

    def overlap_fraction(self, other: "Acfv") -> float:
        """Data-sharing evidence: excess common 1's over chance, as a
        fraction of the smaller population.

        Two *independent* footprints hashed into n bits still share
        ``ones_a * ones_b / n`` bits in expectation; small vectors would
        otherwise read random collisions as data sharing.  Only the excess
        above that baseline counts.
        """
        smaller = min(self.ones, other.ones)
        if smaller == 0:
            return 0.0
        expected_random = self.ones * other.ones / self.bits
        max_excess = smaller - expected_random
        if max_excess <= 0:
            return 0.0  # saturated vectors carry no sharing information
        excess = self.overlap_ones(other) - expected_random
        return max(0.0, excess / max_excess)

    def as_int(self) -> int:
        """The raw bit vector (test helper)."""
        return self._vector


def _lines_array(lines: Collection[int]) -> np.ndarray:
    """Hit lines as an ``int64`` array (arrays pass through)."""
    if isinstance(lines, np.ndarray):
        return lines
    return np.fromiter(lines, dtype=np.int64, count=len(lines))


class AcfvBank(HierarchyObserver):
    """Per-core, per-level ACFVs attached to a cache hierarchy.

    The bank implements the hierarchy's observer interface: hits set bits
    in the acting core's vector; fills and evictions leave the vectors
    alone (see the hook notes below).
    """

    def __init__(self, n_cores: int, l2_bits: int, l3_bits: int,
                 hash_name: str = "xor") -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.n_cores = n_cores
        self.l2_bits = l2_bits
        self.l3_bits = l3_bits
        self.vectors: Dict[str, List[Acfv]] = {
            "l2": [Acfv(l2_bits, hash_name) for _ in range(n_cores)],
            "l3": [Acfv(l3_bits, hash_name) for _ in range(n_cores)],
        }

    # -- HierarchyObserver hooks -------------------------------------------
    #
    # The paper defines the ACF as "the set of unique cache lines
    # referenced by the thread in that epoch", i.e. its active working set,
    # and resets the vectors every reconfiguration interval so stale data
    # stops counting.  This bank realises that definition directly:
    #
    # - a *hit* sets the referenced tag's bit — reuse is the evidence a
    #   line belongs to the active footprint.  An L2 hit also marks the L3
    #   vector: by inclusion the L3 copy is part of the thread's L3-level
    #   footprint (this is what makes Table 4's L3 ACFs include the
    #   L2-resident hot set);
    # - a plain fill does not count until the line proves reuse —
    #   streaming data is occupancy, not footprint (the paper's "mere
    #   presence of a cache block ... does not guarantee active usage");
    # - bits accumulate over the epoch, so a thread whose working set
    #   exceeds its slice registers its *full* demand as resident lines
    #   rotate — which is precisely what makes capacity starvation read as
    #   high utilisation for the condition (i) donor/recipient contrast.
    #   Staleness is handled by the epoch reset.  The paper's continuous
    #   eviction-time clear is not modelled (the bank inherits the no-op
    #   ``on_evict``): it would track the *resident* reused subset; with
    #   decisions taken only at epoch boundaries, the accumulated epoch
    #   working set is the demand signal the merge conditions need —
    #   clearing erases the evidence of over-capacity demand exactly for
    #   the threads merging would help.

    def on_hit(self, level: str, slice_id: int, core: int, tag: int) -> None:
        self.vectors[level][core].set(tag)
        if level == "l2":
            self.vectors["l3"][core].set(tag)

    def record_epoch_hits(
            self, hits: Sequence[Tuple[int, Collection[int],
                                       Collection[int]]]) -> None:
        """Apply a batch of hits for many cores at once: exactly the vectors
        that :meth:`on_hit` per L2-hit line and per L3-hit line of each
        ``(core, l2_lines, l3_lines)`` would leave, since each hit only ORs
        in a bit (the L3 vector takes both sets — the inclusion rule of
        :meth:`on_hit`).

        One vectorised hash per level covers every core's lines: each line
        sets its hashed bit in a ``cores x bits`` mask row, and each row is
        packed and ORed into its core's vector.  Lines may come as any
        collection of ints or as ``int64`` arrays.
        """
        if not hits:
            return
        cores = [core for core, _, _ in hits]
        l2 = [_lines_array(lines) for _, lines, _ in hits]
        l3 = [_lines_array(lines) for _, _, lines in hits]
        rows = np.arange(len(hits))
        rows2 = np.repeat(rows, [len(a) for a in l2])
        rows3 = np.repeat(rows, [len(a) for a in l3])
        lines2 = np.concatenate(l2)
        self._or_rows("l2", cores, rows2, lines2)
        self._or_rows("l3", cores, np.concatenate((rows2, rows3)),
                      np.concatenate([lines2] + l3))

    def _or_rows(self, level: str, cores: List[int], rows: np.ndarray,
                 lines: np.ndarray) -> None:
        """OR ``lines[i]``'s hashed bit into ``cores[rows[i]]``'s vector
        (every vector of a level hashes alike, so one hash serves all)."""
        vectors = self.vectors[level]
        hash_ = vectors[0].hash
        mask = np.zeros((len(cores), hash_.bits), dtype=bool)
        mask[rows, hash_.many(lines)] = True
        packed = np.packbits(mask, axis=1, bitorder="little")
        for core, row in zip(cores, packed):
            vectors[core]._vector |= int.from_bytes(row.tobytes(), "little")

    def on_fill(self, level: str, slice_id: int, core: int, tag: int) -> None:
        """Fills do not count until the line proves reuse with a hit."""

    # -- queries used by the decision engine --------------------------------

    def acfv(self, level: str, core: int) -> Acfv:
        return self.vectors[level][core]

    def group_utilization(self, level: str, cores: Sequence[int],
                          slice_lines: int) -> float:
        """Active utilisation of a slice group, in percent.

        Juxtaposes the member cores' (linearised) footprint estimates over
        the group's summed capacity (the Section 2.2 rule for merged
        slices), then maps the demand back through the saturation curve
        ``u = 1 - exp(-demand / capacity)`` — the fraction of bits a
        one-bit-per-line vector would show.  This is the scale on which the
        paper's MSAT of (60, 30) operates and on which Table 4 reports its
        ACFs: 60 % utilisation corresponds to a demand of ~0.92 slices,
        100 % is unreachable (demand has saturated the slice).
        """
        if not cores:
            raise ValueError("group must contain at least one core")
        estimated = sum(self.vectors[level][c].estimated_lines() for c in cores)
        capacity = len(cores) * slice_lines
        return 100.0 * (1.0 - math.exp(-estimated / capacity))

    def overlap(self, level: str, cores_a: Sequence[int],
                cores_b: Sequence[int]) -> float:
        """Peak pairwise overlap fraction between two groups' cores."""
        best = 0.0
        vectors = self.vectors[level]
        for a in cores_a:
            for b in cores_b:
                best = max(best, vectors[a].overlap_fraction(vectors[b]))
        return best

    def reset_all(self) -> None:
        """Reset every vector (epoch boundary, Section 2.1)."""
        for level_vectors in self.vectors.values():
            for vector in level_vectors:
                vector.reset()
