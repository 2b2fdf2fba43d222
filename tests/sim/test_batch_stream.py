"""The batch kernels stream their epoch in bounded chunks.

The slice-group and general kernels turn an epoch into Python lists only
``repro.sim.batch._CHUNK`` accesses at a time.  Chunks cut the access order
without reordering it, so the result must not depend on where the cuts
fall: with a tiny chunk the cuts land inside partitions (and, for the
general kernel, split every core's latencies into many ``account_batch``
calls), and every epoch must still match the event engine and the default
chunk bit for bit.  The memory test pins what the streaming is for: one
group-kernel epoch's peak allocation grows with its length only by its
numpy arrays, not by a Python object per access.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import SMALL, TINY, CacheGeometry
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.resilience.checkpoint import state_digest
from repro.sim import batch
from repro.sim.batch import (
    GENERAL_KERNEL,
    MERGED_KERNEL,
    PRIVATE_KERNEL,
    SHARED_KERNEL,
    run_epoch_batch,
)
from repro.sim.engine import run_epoch, simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload

#: Four L1 sets, so the group kernel sorts the epoch into four partitions
#: (TINY's single L1 set would leave it in global order).
CONFIG = TINY.with_(l1=CacheGeometry(4, TINY.l1.ways), epochs=3)
#: Prime, so chunk edges fall at every offset within partitions and rounds.
TINY_CHUNK = 7
SEED = 3


def _timers(config, active):
    return {core: CoreTimingModel(config.issue_width,
                                  memory_latency=config.latency.memory)
            for core in active}


@pytest.mark.parametrize("label, config, tier", [
    ("(4:4:1)", CONFIG, MERGED_KERNEL),
    ("(16:1:1)", CONFIG, SHARED_KERNEL),
    ("(1:1:16)", CONFIG, PRIVATE_KERNEL),
    ("(4:4:1)", CONFIG.with_(replacement="plru"), GENERAL_KERNEL),
    # A non-power-of-two issue width makes timing inexact: the general
    # kernel's per-chunk account_batch calls take the scalar loop.
    ("(4:4:1)", CONFIG.with_(issue_width=3), GENERAL_KERNEL),
], ids=["merged", "shared", "private-shared-lines", "general-plru",
        "general-inexact"])
def test_tiny_chunks_match_event_and_default_chunk(label, config, tier,
                                                   monkeypatch):
    """canneal (one shared address space) epochs, run on the event engine,
    the batch engine and the batch engine with a tiny chunk, in lockstep:
    the same tier, state digest and ``cycles`` after every epoch."""
    workload = Workload.from_name("canneal")
    threads = workload.build_threads(config, seed=SEED)
    active = [c for c, t in enumerate(threads) if t is not None]
    n = config.accesses_per_core_per_epoch
    event_sys, default_sys, tiny_sys = (
        CmpSystem(config, static_label=label) for _ in range(3))
    for epoch in range(3):
        traces = {c: threads[c].generate(n) for c in active}
        timer_sets = [_timers(config, active) for _ in range(3)]
        run_epoch(event_sys, traces, timer_sets[0], n)
        assert run_epoch_batch(default_sys, traces, timer_sets[1], n) == tier
        with monkeypatch.context() as patch:
            patch.setattr(batch, "_CHUNK", TINY_CHUNK)
            assert run_epoch_batch(tiny_sys, traces, timer_sets[2], n) == tier
        digests = {state_digest(s) for s in (event_sys, default_sys, tiny_sys)}
        assert len(digests) == 1, f"engines diverged at epoch {epoch}"
        for core in active:
            cycles = {repr(timers[core].cycles) for timers in timer_sets}
            assert len(cycles) == 1, (epoch, core, cycles)
        for system in (event_sys, default_sys, tiny_sys):
            system.end_epoch()


def test_tiny_chunks_morphcache_run_identical(monkeypatch):
    """A whole MorphCache run on canneal (private warm-up, merges, ACFV
    flushes) with a tiny chunk lands on the event engine's run."""
    workload = Workload.from_name("canneal")

    def run(engine):
        system = build_system("morphcache", CONFIG, workload, seed=SEED)
        result = simulate(system, workload, CONFIG, seed=SEED, engine=engine)
        return ([(e.topology_label, e.misses,
                  {c: repr(v) for c, v in e.ipcs.items()})
                 for e in result.epochs], state_digest(system))

    reference = run("event")
    monkeypatch.setattr(batch, "_CHUNK", TINY_CHUNK)
    assert run("batch") == reference


def test_chunked_account_batch_across_the_exact_range_end():
    """The general kernel's per-chunk accounting where the exact range
    ends: the first chunk sums exactly, the second takes the scalar loop
    from the state the first left — the per-access loop's result."""
    gaps = [3, 0, 7, 1, 2, 5, 0, 9]
    lats = [2, 300, 14, 350, 300, 350, 300, 33]
    chunked = CoreTimingModel(4, memory_latency=300)
    scalar = CoreTimingModel(4, memory_latency=300)
    # 2**42 cycles ends the exact range at issue width 4.
    chunked.cycles = scalar.cycles = 2.0 ** 42 - 700

    def bound(first, last):  # account_batch's own exactness bound
        return (chunked.cycles + sum(gaps[first:last]) / 4
                + sum(lats[first:last]))

    assert chunked.batch_summation_exact(bound(0, 4))
    chunked.account_batch(np.array(gaps[:4]), lats[:4])
    assert not chunked.batch_summation_exact(bound(4, 8))
    chunked.account_batch(np.array(gaps[4:]), lats[4:])
    for gap, lat in zip(gaps, lats):
        scalar.account(gap, lat)
    assert repr(chunked.cycles) == repr(scalar.cycles)
    assert chunked.instructions == scalar.instructions


class _Trace:
    """Minimal EpochTrace stand-in with the three arrays the engines read."""

    def __init__(self, lines, writes):
        self.lines = lines
        self.writes = writes
        self.gaps = np.zeros(len(lines), dtype=np.int32)


#: Bytes per extra access one group-kernel epoch may still allocate: its
#: numpy arrays (interleaved lines and writes, partition key, permutation,
#: sort scratch; ~30 B measured here).  Materialising the epoch as Python
#: lists, as before streaming, measured ~126 B per access.
ARRAY_BYTES_PER_ACCESS = 48


def test_group_kernel_peak_memory_bounded_by_chunk():
    """A 4x longer epoch on the same warm merged machine raises the traced
    peak by no more than its numpy arrays: the Python-object part is
    bounded by the chunk, not by the epoch length."""
    config = SMALL
    cores = config.cores
    n = max(64, batch._CHUNK // cores)  # the short epoch fills a chunk
    rng = np.random.default_rng(SEED)

    def traces(length):
        return {c: _Trace(rng.integers(0, 1 << 20, length),
                          rng.random(length) < 0.2) for c in range(cores)}

    system = CmpSystem(config, static_label="(4:4:1)")
    peaks = {}
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        # Warm up under tracing: fill every cache, residency map and
        # directory, so the measured epochs recycle traced objects.
        warm = 4 * n
        assert run_epoch_batch(system, traces(warm),
                               _timers(config, range(cores)),
                               warm) == MERGED_KERNEL
        for length in (n, 4 * n):
            epoch, timers = traces(length), _timers(config, range(cores))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert run_epoch_batch(system, epoch, timers, length) \
                == MERGED_KERNEL
            peaks[length] = tracemalloc.get_traced_memory()[1] - base
            del epoch, timers
    finally:
        if not was_tracing:
            tracemalloc.stop()
    extra_accesses = 3 * n * cores
    assert peaks[4 * n] - peaks[n] \
        <= extra_accesses * ARRAY_BYTES_PER_ACCESS, peaks
