"""Synthetic address-stream generator with controllable cache footprints.

The generator realises the paper's workload characterisation (Table 4)
directly: every benchmark is described by its mean active cache footprint
(ACF) in an L2 and an L3 slice plus the temporal standard deviation of those
footprints, and — for multithreaded benchmarks — a data-sharing fraction and
a spatial (across-thread) standard deviation.

The reuse model is a three-tier hot/warm/cold hierarchy:

- a *hot* set sized to the target L2 footprint: a contiguous region (mapping
  uniformly over cache sets) accessed uniformly at random, so it stays
  L2-resident and is repeatedly reused;
- a *warm* set sized so hot + warm matches the target L3 footprint.  Warm
  lines must be L3-resident yet *not* L2-resident (otherwise any footprint
  smaller than an L2 slice would collapse the L2/L3 distinction of
  Table 4).  They are therefore laid out in *conflict classes*: each class
  holds lines strided by the L2 set count, so the whole class maps to a
  single L2 set (bounded by its associativity) but spreads over
  ``l3_sets / l2_sets`` L3 sets.  Sweeping each class cyclically with more
  lines than L2 ways guarantees L2 misses on reuse, while the class size is
  chosen to fit the class's L3 way capacity, keeping reuses L3 hits;
- a *cold* stream of fresh lines that miss everywhere (streaming data).

Each epoch resamples the footprint sizes from ``Normal(mean, sigma_t)`` and
drifts the hot-region base, producing the temporal footprint variation that
MorphCache's reconfiguration logic feeds on.  Epochs where the sampled hot
set exceeds the L2 slice (or a class overflows its L3 ways) thrash exactly
like an over-capacity working set would — those are the epochs merging
neighbouring slices pays off.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.config import CacheGeometry
from repro.workloads.footprint import FootprintModel
from repro.workloads.trace import EpochTrace

#: Private address-space stride between threads, in line addresses.  Large
#: enough that private regions of different threads can never collide.
THREAD_STRIDE = 1 << 40

#: Base of the region shared by all threads of a multithreaded benchmark.
SHARED_BASE = 1 << 56

#: Offset of the warm region inside a thread's private range.
_WARM_OFFSET = 1 << 30

#: Offset of the cold stream inside a thread's private range.
_COLD_OFFSET = 1 << 35

#: Fraction of hot/warm references that revisit a random line of their set
#: instead of following the loop (see SyntheticThread._warm_lines).
REUSE_SPRINKLE = 0.15


class SyntheticThread:
    """Stateful per-thread trace generator driven by a :class:`FootprintModel`.

    Args:
        model: footprint targets for this thread's benchmark.
        thread_id: global thread index; determines the private address range.
        l2: geometry of one L2 slice (sets the hot-set scale and the warm
            conflict classes).
        l3: geometry of one L3 slice (sets the warm-set scale).
        seed: RNG seed; the same (seed, thread_id, model) replays
            identically, which the tests rely on.
        spatial_scale: per-thread multiplier on the footprint means, drawn
            by :func:`make_threads` to realise across-thread variance.
    """

    def __init__(
        self,
        model: FootprintModel,
        thread_id: int,
        l2: CacheGeometry,
        l3: CacheGeometry,
        seed: int = 0,
        spatial_scale: float = 1.0,
    ) -> None:
        if spatial_scale <= 0:
            raise ValueError("spatial_scale must be positive")
        self.model = model
        self.thread_id = thread_id
        self.l2 = l2
        self.l3 = l3
        self.spatial_scale = spatial_scale
        self._rng = np.random.default_rng(
            (seed, thread_id, zlib.crc32(model.name.encode()))
        )
        # The per-thread odd offset de-aligns address spaces so different
        # threads' regions start in different cache sets — as real virtual
        # address spaces do.  Without it every thread's warm conflict
        # classes would collide on the same sets and pooled capacity could
        # never absorb them.
        self._private_base = (thread_id + 1) * THREAD_STRIDE + thread_id * 977
        self._epoch = 0
        self._cold_cursor = self._private_base + _COLD_OFFSET
        self._warm_cursor = 0
        self._hot_cursor = 0
        self._size_phase = 0.0
        self._cold_phase = 1.0

        # Warm conflict classes (see module docstring).  The class sweep
        # length targets ~3/4 of the class's L3 way capacity and at least
        # 1.5x the L2 ways so reuse always misses L2 at the mean footprint.
        l3_sets_per_l2_set = max(1, l3.sets // l2.sets)
        class_l3_capacity = l3.ways * l3_sets_per_l2_set
        self._class_target = max(int(1.5 * l2.ways),
                                 int(0.75 * class_l3_capacity))

    # -- epoch sampling ------------------------------------------------------
    #
    # Programs execute in *phases*: a benchmark dwells in a behaviour for a
    # few hundred million cycles, then switches — its footprint surges or
    # collapses, its streaming traffic bursts or pauses.  Phases are what
    # make the best cache topology change over time (the paper's Figure
    # 2(a)); independent per-epoch noise alone averages out across 16 cores
    # and never changes the topology ranking.  The phase offsets are scaled
    # by the benchmark's own Table 4 temporal sigma, so the stationary
    # variation of the measured footprint still matches the table.

    _SIZE_PHASES = (-1.5, 0.0, 1.5)
    _COLD_PHASES = (0.3, 1.0, 2.2)
    _PHASE_SWITCH_PROBABILITY = 1.0 / 3.0

    def _advance_phase(self) -> None:
        rng = self._rng
        if rng.random() < self._PHASE_SWITCH_PROBABILITY:
            self._size_phase = self._SIZE_PHASES[
                rng.choice(3, p=[0.25, 0.5, 0.25])
            ]
        if rng.random() < self._PHASE_SWITCH_PROBABILITY:
            self._cold_phase = self._COLD_PHASES[
                rng.choice(3, p=[0.25, 0.5, 0.25])
            ]

    def _sample_footprints(self) -> tuple:
        """Draw this epoch's (hot_lines, warm_lines) from the model.

        Table 4's ACF values are *measured utilisations*, which saturate as
        true demand approaches and exceeds capacity (a vector of n bits
        tracking d active lines shows ``u = 1 - exp(-d/n)`` of its bits
        set).  The generator therefore inverts that curve: an ACF of 0.74
        means the benchmark actively uses about ``-ln(1 - 0.74) = 1.35``
        slices' worth of lines.  This is what gives high-ACF benchmarks
        genuine over-capacity demand — the demand that merging slices
        relieves — while low-ACF benchmarks really do fit.
        """
        model, rng = self.model, self._rng
        f2 = (model.l2_acf * self.spatial_scale
              + self._size_phase * model.l2_sigma_t
              + rng.normal(0.0, 0.3 * model.l2_sigma_t))
        f3 = (model.l3_acf * self.spatial_scale
              + self._size_phase * model.l3_sigma_t
              + rng.normal(0.0, 0.3 * model.l3_sigma_t))
        demand2 = -math.log(1.0 - float(np.clip(f2, 0.02, 0.93)))
        demand3 = -math.log(1.0 - float(np.clip(f3, 0.02, 0.93)))
        hot = max(4, int(round(demand2 * self.l2.lines)))
        total = max(hot + 4, int(round(demand3 * self.l3.lines)))
        warm = total - hot
        return hot, warm

    def _warm_lines(self, n_warm: int, warm_size: int) -> np.ndarray:
        """Conflict-class loop over the warm set (see module docstring).

        Each class is swept cyclically — the loop-like pattern that gives
        real working sets their capacity *cliff*: a class that fits its L3
        ways hits on every revisit, a class that overflows misses on every
        revisit (the LRU worst case).  A small random sprinkle
        (``REUSE_SPRINKLE``) revisits arbitrary warm lines out of order;
        under overflow those touches still find the currently-resident
        subset, which is what keeps the ACFV demand signal alive when the
        loop itself never hits.
        """
        n_classes = max(1, round(warm_size / self._class_target))
        n_classes = min(n_classes, self.l2.sets)
        per_class = max(1, warm_size // n_classes)
        base = self._private_base + _WARM_OFFSET
        k = self._warm_cursor + np.arange(n_warm)
        self._warm_cursor += n_warm
        class_index = k % n_classes
        sweep_index = (k // n_classes) % per_class
        sprinkle = self._rng.random(n_warm) < REUSE_SPRINKLE
        n_sprinkle = int(sprinkle.sum())
        if n_sprinkle:
            sweep_index = sweep_index.copy()
            sweep_index[sprinkle] = self._rng.integers(0, per_class,
                                                       size=n_sprinkle)
        # Lines of class c: base + c + j * l2.sets — one L2 set per class,
        # spread over l3.sets / l2.sets L3 sets.
        return base + class_index + sweep_index * self.l2.sets

    # -- trace generation ------------------------------------------------------

    def generate(self, accesses: int) -> EpochTrace:
        """Produce the next epoch's trace of ``accesses`` references."""
        if accesses <= 0:
            raise ValueError("accesses must be positive")
        model, rng = self.model, self._rng
        self._advance_phase()
        hot_size, warm_size = self._sample_footprints()

        # Probability of a warm reference: enough to sweep the warm set
        # about twice per epoch so every warm line is reused (registering in
        # the L3 footprint), bounded so the hot set still dominates.
        p_cold = min(0.48, model.cold_fraction * self._cold_phase)
        p_shared = model.shared_fraction
        p_warm = min(0.5, max(0.10, 2.0 * warm_size / accesses)) if warm_size else 0.0
        p_hot = max(0.0, 1.0 - p_cold - p_shared - p_warm)

        categories = rng.choice(
            4, size=accesses, p=_normalised([p_hot, p_warm, p_cold, p_shared])
        )
        lines = np.empty(accesses, dtype=np.int64)

        drift_lines = int(self._epoch * model.drift * hot_size)
        hot_base = self._private_base + drift_lines

        hot_mask = categories == 0
        n_hot = int(hot_mask.sum())
        if n_hot:
            # Loop over the hot set (capacity cliff at the L2 slice size)
            # with a random sprinkle that keeps reuse visible to the ACFVs
            # even when the loop overflows and stops hitting.
            positions = (self._hot_cursor + np.arange(n_hot)) % hot_size
            self._hot_cursor += n_hot
            sprinkle = rng.random(n_hot) < REUSE_SPRINKLE
            n_sprinkle = int(sprinkle.sum())
            if n_sprinkle:
                positions[sprinkle] = rng.integers(0, hot_size, size=n_sprinkle)
            lines[hot_mask] = hot_base + positions

        warm_mask = categories == 1
        n_warm = int(warm_mask.sum())
        if n_warm:
            lines[warm_mask] = self._warm_lines(n_warm, warm_size)

        cold_mask = categories == 2
        n_cold = int(cold_mask.sum())
        if n_cold:
            lines[cold_mask] = self._cold_cursor + np.arange(n_cold)
            self._cold_cursor += n_cold

        shared_mask = categories == 3
        n_shared = int(shared_mask.sum())
        if n_shared:
            shared_size = max(4, int(round(self.model.l2_acf * self.l2.lines)))
            lines[shared_mask] = SHARED_BASE + rng.integers(0, shared_size, size=n_shared)

        writes = rng.random(accesses) < model.write_ratio
        if model.mean_gap > 0:
            gaps = (rng.geometric(1.0 / (1.0 + model.mean_gap), size=accesses)
                    - 1).astype(np.int32)
        else:
            # Same dtype as the geometric branch: downstream consumers (the
            # batch engine's vector sums, checkpoint digests of traces) must
            # not see the gap dtype flip with the workload model.
            gaps = np.zeros(accesses, dtype=np.int32)
        self._epoch += 1
        return EpochTrace(lines=lines, writes=writes, gaps=gaps)


def make_threads(
    model: FootprintModel,
    n_threads: int,
    l2: CacheGeometry,
    l3: CacheGeometry,
    seed: int = 0,
) -> list:
    """Build the thread set of a multithreaded benchmark.

    Per-thread footprint scales are drawn so that the across-thread standard
    deviation of the (mean) footprints matches ``model.spatial_sigma``, the
    quantity the paper reports as sigma_s in Table 4.
    """
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")
    rng = np.random.default_rng((seed, zlib.crc32(model.name.encode())))
    mean_acf = (model.l2_acf + model.l3_acf) / 2.0
    rel_sigma = model.spatial_sigma / mean_acf if mean_acf else 0.0
    scales = np.clip(rng.normal(1.0, rel_sigma, size=n_threads), 0.25, 2.5)
    return [
        SyntheticThread(model, tid, l2, l3, seed=seed, spatial_scale=float(s))
        for tid, s in enumerate(scales)
    ]


def _normalised(probabilities: list) -> list:
    total = sum(probabilities)
    if total <= 0:
        raise ValueError("at least one category must have positive probability")
    return [p / total for p in probabilities]
