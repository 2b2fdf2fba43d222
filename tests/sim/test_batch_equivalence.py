"""Differential suite: the batch engine is bit-identical to the event engine.

Every test runs the same (scheme, workload, seed) twice — once per engine —
and requires the *exact* same observable run: per-epoch IPCs compared at
``repr`` precision (bit-identical floats, never approx-equal), the same
per-core miss counts, the same topology labels, and the same final
cache-state digest (:func:`repro.resilience.checkpoint.state_digest`, which
hashes every entry, stamp, LRU order, stat and ACFV).  The suite covers all
batch dispatch tiers:

- ``batch-private-percore`` — all-private topologies with disjoint per-core
  address spaces (multiprogrammed mixes);
- ``batch-private`` — all-private with genuinely shared lines (multithreaded
  workloads), exercising coherence and cross-core back-invalidation;
- ``batch-merged`` — multi-slice search groups on the slice-group kernel:
  aggregate per-group residency maps, group-wide LRU victims, duplicate
  tracking and lazy invalidation, all inlined;
- ``batch-shared`` — the same kernel when a single L2 group spans the
  machine (the paper's ``(cores:1:1)`` end of the spectrum);
- ``batch-general`` — batchable hierarchies outside every kernel's
  contract (e.g. PLRU replacement), driven through the real access path;
- ``event`` fallback — schemes without a batchable hierarchy.

Because the group kernel's speedup is the point (BENCH_batch.json), the
dispatch tests below also pin *which* tier each topology lands on — a
silent fall-through to ``batch-general`` fails CI here, not just in the
benchmark job.

A Hypothesis property test drives the all-private tiers with adversarial
random traces (tiny geometry, heavy set collisions, optional sharing) so
the inlined probe/fill/evict sequences are checked against the dict-backed
``CacheSlice`` semantics far outside the synthetic workloads' layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.static_topologies import STATIC_LABELS
from repro.caches.hierarchy import L2, L3
from repro.config import TINY
from repro.core.topology import parse_config_label
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.obs.metrics import MetricsRegistry
from repro.resilience import parse_fault_spec
from repro.resilience.checkpoint import state_digest
from repro.sim.batch import (
    EVENT_FALLBACK,
    GENERAL_KERNEL,
    MERGED_KERNEL,
    PRIVATE_KERNEL,
    PRIVATE_PERCORE,
    SHARED_KERNEL,
    batch_unsupported,
    run_epoch_batch,
)
from repro.sim.engine import run_epoch, simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload
from repro.workloads import MIXES, PARSEC_BENCHMARKS

CONFIG = TINY.with_(epochs=4)
SEED = 3


def _run(scheme, workload, engine, config=CONFIG, seed=SEED, **kwargs):
    system = build_system(scheme, config, workload, seed=seed)
    result = simulate(system, workload, config, seed=seed, engine=engine,
                      **kwargs)
    return result, state_digest(system)


def _assert_identical(scheme, workload, config=CONFIG, seed=SEED, **kwargs):
    (event, event_digest) = _run(scheme, workload, "event", config, seed,
                                 **kwargs)
    (batch, batch_digest) = _run(scheme, workload, "batch", config, seed,
                                 **kwargs)
    assert len(event.epochs) == len(batch.epochs)
    for a, b in zip(event.epochs, batch.epochs):
        assert a.epoch == b.epoch
        assert a.topology_label == b.topology_label
        # repr-level: bit-identical floats, not approx-equal.
        assert {c: repr(v) for c, v in a.ipcs.items()} \
            == {c: repr(v) for c, v in b.ipcs.items()}
        assert a.misses == b.misses
    assert event_digest == batch_digest


@pytest.mark.parametrize("scheme", STATIC_LABELS)
def test_static_topologies_identical(scheme):
    _assert_identical(scheme, Workload.from_mix(MIXES[0]))


def test_morphcache_identical_across_reconfigurations():
    _assert_identical("morphcache", Workload.from_mix(MIXES[0]))


def test_multithreaded_shared_lines_identical():
    # A PARSEC workload shares one address space across all threads, so the
    # private topology must route through the coherence-exact partition
    # kernel — and still match bit for bit.
    name = sorted(PARSEC_BENCHMARKS)[0]
    _assert_identical("(1:1:16)", Workload.from_parsec(name))
    _assert_identical("morphcache", Workload.from_parsec(name))


def test_merged_shared_topologies_shared_lines_identical():
    # The slice-group kernel's hardest differential: a multithreaded
    # workload over multi-slice groups drives remote hits, duplicate
    # copies and lazy invalidation through the aggregate residency maps.
    name = sorted(PARSEC_BENCHMARKS)[0]
    _assert_identical("(4:4:1)", Workload.from_parsec(name))
    _assert_identical("(16:1:1)", Workload.from_parsec(name))


def test_event_fallback_schemes_identical():
    for scheme in ("pipp", "dsr"):
        _assert_identical(scheme, Workload.from_mix(MIXES[0]))


def test_fault_injected_run_identical():
    plan = parse_fault_spec(
        "disable-slice:every=2:level=l3,flip-acfv:at=3:bits=4,seed=7")
    _assert_identical("morphcache", Workload.from_mix(MIXES[1]),
                      fault_plan=plan)
    _assert_identical("(1:1:16)", Workload.from_mix(MIXES[1]),
                      fault_plan=plan)


def test_fault_injected_merged_shared_identical():
    # Faults landing on the group-kernel tiers: offline slices shrink the
    # group search orders, flush their contents mid-run and shift fill
    # placement; the kernel's residency maps must track all of it.
    plan = parse_fault_spec(
        "disable-slice:every=2:level=l3,flip-acfv:at=3:bits=4,seed=7")
    _assert_identical("(4:4:1)", Workload.from_mix(MIXES[1]),
                      fault_plan=plan)
    _assert_identical("(16:1:1)", Workload.from_mix(MIXES[1]),
                      fault_plan=plan)
    l2_plan = parse_fault_spec("disable-slice:every=2:level=l2,seed=11")
    _assert_identical("(4:4:1)", Workload.from_mix(MIXES[1]),
                      fault_plan=l2_plan)


#: A merge -> split -> merge storm: each reinstall invalidates the batch
#: engine's cached residency maps and (merging slices that each hold a
#: copy of a shared line) creates duplicates for lazy invalidation.
STORM_LABELS = ["(1:1:16)", "(4:4:1)", "(2:2:4)", "(1:1:16)",
                "(16:1:1)", "(4:4:1)"]
STORM_TAGS = {"(1:1:16)": PRIVATE_KERNEL, "(4:4:1)": MERGED_KERNEL,
              "(2:2:4)": MERGED_KERNEL, "(16:1:1)": SHARED_KERNEL}


def test_reconfig_storm_identical():
    """Mid-run topology storms stay bit-identical, epoch by epoch.

    Both engines run the same multithreaded traces while the topology is
    reconfigured between every epoch.  Digests are compared after *each*
    epoch (not just at the end) so a divergence names the first bad epoch,
    and every epoch must land on its expected dispatch tier.
    """
    workload = Workload.from_parsec(sorted(PARSEC_BENCHMARKS)[0])
    n = CONFIG.accesses_per_core_per_epoch
    threads = workload.build_threads(CONFIG, seed=SEED)
    active = [c for c, t in enumerate(threads) if t is not None]
    event_sys = CmpSystem(CONFIG, static_label=STORM_LABELS[0])
    batch_sys = CmpSystem(CONFIG, static_label=STORM_LABELS[0])

    for epoch, label in enumerate(STORM_LABELS):
        if epoch:
            groups = parse_config_label(label, CONFIG.cores)
            event_sys.hierarchy.set_topology(*groups)
            batch_sys.hierarchy.set_topology(*groups)
        traces = {c: threads[c].generate(n) for c in active}
        timer_sets = [
            {c: CoreTimingModel(CONFIG.issue_width,
                                memory_latency=CONFIG.latency.memory)
             for c in active}
            for _ in range(2)
        ]
        run_epoch(event_sys, traces, timer_sets[0], n)
        tag = run_epoch_batch(batch_sys, traces, timer_sets[1], n)
        assert tag == STORM_TAGS[label], (epoch, label, tag)
        assert state_digest(event_sys) == state_digest(batch_sys), \
            f"engines diverged at epoch {epoch} ({label})"
        for core in active:
            assert repr(timer_sets[0][core].cycles) \
                == repr(timer_sets[1][core].cycles), (epoch, core)
        event_sys.end_epoch()
        batch_sys.end_epoch()


class _Killed(Exception):
    pass


def test_checkpoint_resume_identical(tmp_path, monkeypatch):
    # Checkpoints are engine-agnostic: a run checkpointed under one engine
    # and killed mid-flight resumes under the other, and every combination
    # lands on the same series and digest as an uninterrupted event run.
    from repro.sim import engine as engine_module

    workload = Workload.from_mix(MIXES[0])
    golden, golden_digest = _run("morphcache", workload, "event")

    original = engine_module.save_checkpoint
    for writer, resumer in (("event", "batch"), ("batch", "event"),
                            ("batch", "batch")):
        path = tmp_path / f"{writer}-{resumer}.ckpt"

        def save_then_kill(p, fingerprint, next_epoch, *args, **kwargs):
            original(p, fingerprint, next_epoch, *args, **kwargs)
            if next_epoch >= 3:
                raise _Killed()

        monkeypatch.setattr(engine_module, "save_checkpoint", save_then_kill)
        system = build_system("morphcache", CONFIG, workload, seed=SEED)
        with pytest.raises(_Killed):
            simulate(system, workload, CONFIG, seed=SEED, engine=writer,
                     checkpoint_path=path, checkpoint_every=1)
        monkeypatch.setattr(engine_module, "save_checkpoint", original)

        resumed, resumed_digest = _run(
            "morphcache", workload, resumer,
            checkpoint_path=path, resume=True)
        assert resumed_digest == golden_digest
        assert [e.misses for e in resumed.epochs] \
            == [e.misses for e in golden.epochs]
        assert [{c: repr(v) for c, v in e.ipcs.items()}
                for e in resumed.epochs] \
            == [{c: repr(v) for c, v in e.ipcs.items()}
                for e in golden.epochs]


def test_checkpoint_resume_inside_merged_epoch_identical(tmp_path, monkeypatch):
    # Same engine cross-product, but on a merged static topology with a
    # multithreaded workload: the resume lands *inside* a slice-group
    # kernel epoch, so the batch engine must rebuild its residency maps
    # from imported checkpoint state (stamps, duplicates, LRU order) and
    # still converge on the uninterrupted event run.
    from repro.sim import engine as engine_module

    workload = Workload.from_parsec(sorted(PARSEC_BENCHMARKS)[0])
    golden, golden_digest = _run("(4:4:1)", workload, "event")

    original = engine_module.save_checkpoint
    for writer, resumer in (("event", "batch"), ("batch", "event"),
                            ("batch", "batch")):
        path = tmp_path / f"merged-{writer}-{resumer}.ckpt"

        def save_then_kill(p, fingerprint, next_epoch, *args, **kwargs):
            original(p, fingerprint, next_epoch, *args, **kwargs)
            if next_epoch >= 3:
                raise _Killed()

        monkeypatch.setattr(engine_module, "save_checkpoint", save_then_kill)
        system = build_system("(4:4:1)", CONFIG, workload, seed=SEED)
        with pytest.raises(_Killed):
            simulate(system, workload, CONFIG, seed=SEED, engine=writer,
                     checkpoint_path=path, checkpoint_every=1)
        monkeypatch.setattr(engine_module, "save_checkpoint", original)

        resumed, resumed_digest = _run(
            "(4:4:1)", workload, resumer,
            checkpoint_path=path, resume=True)
        assert resumed_digest == golden_digest, (writer, resumer)
        assert [{c: repr(v) for c, v in e.ipcs.items()}
                for e in resumed.epochs] \
            == [{c: repr(v) for c, v in e.ipcs.items()}
                for e in golden.epochs]


# -- dispatch: each epoch must take (and report) the right tier --------------

def _epoch_tag(system, workload, config, seed=SEED):
    threads = workload.build_threads(config, seed=seed)
    active = [c for c, t in enumerate(threads) if t is not None]
    n = config.accesses_per_core_per_epoch
    traces = {c: threads[c].generate(n) for c in active}
    timers = {c: CoreTimingModel(config.issue_width,
                                 memory_latency=config.latency.memory)
              for c in active}
    return run_epoch_batch(system, traces, timers, n)


def test_dispatch_private_percore():
    workload = Workload.from_mix(MIXES[0])
    system = build_system("(1:1:16)", CONFIG, workload, seed=SEED)
    assert _epoch_tag(system, workload, CONFIG) == PRIVATE_PERCORE


def test_dispatch_private_kernel_on_shared_lines():
    name = sorted(PARSEC_BENCHMARKS)[0]
    workload = Workload.from_parsec(name)
    system = build_system("(1:1:16)", CONFIG, workload, seed=SEED)
    tags = {_epoch_tag(system, workload, CONFIG) for _ in range(3)}
    assert tags == {PRIVATE_KERNEL}


def test_dispatch_merged_kernel_on_merged_topology():
    # A fall-through to batch-general here silently costs the ~2.4x
    # speedup BENCH_batch.json commits to — so it fails CI here too.
    workload = Workload.from_mix(MIXES[0])
    system = build_system("(4:4:1)", CONFIG, workload, seed=SEED)
    tags = {_epoch_tag(system, workload, CONFIG) for _ in range(3)}
    assert tags == {MERGED_KERNEL}


def test_dispatch_shared_kernel_on_fully_shared_topology():
    workload = Workload.from_mix(MIXES[0])
    system = build_system("(16:1:1)", CONFIG, workload, seed=SEED)
    tags = {_epoch_tag(system, workload, CONFIG) for _ in range(3)}
    assert tags == {SHARED_KERNEL}


def test_dispatch_group_kernel_survives_faulted_slices():
    # Offline slices must not demote merged epochs to batch-general.
    workload = Workload.from_mix(MIXES[0])
    system = build_system("(4:4:1)", CONFIG, workload, seed=SEED)
    system.hierarchy.set_faulted_slices(L3, {0})
    assert _epoch_tag(system, workload, CONFIG) == MERGED_KERNEL
    # A faulted all-private machine loses the private fast path, but the
    # group kernel handles singleton groups — batch-general would be a
    # silent regression.
    system = build_system("(1:1:16)", CONFIG, workload, seed=SEED)
    system.hierarchy.set_faulted_slices(L2, {2})
    assert _epoch_tag(system, workload, CONFIG) == MERGED_KERNEL


def test_dispatch_plru_general_fallback_identical():
    # Non-LRU replacement is outside every specialised kernel's contract:
    # the dispatch must take the real access path — and still match.
    config = CONFIG.with_(replacement="plru")
    workload = Workload.from_mix(MIXES[0])
    system = build_system("(4:4:1)", config, workload, seed=SEED)
    assert _epoch_tag(system, workload, config) == GENERAL_KERNEL
    _assert_identical("(4:4:1)", workload, config=config)


def test_dispatch_event_fallback():
    # PIPP/DSR implement the access protocol with their own
    # organisations: batch_unsupported names the reason and the epoch runs
    # on the event engine.
    workload = Workload.from_mix(MIXES[0])
    for scheme in ("pipp", "dsr"):
        system = build_system(scheme, CONFIG, workload, seed=SEED)
        assert batch_unsupported(system) is not None
        assert _epoch_tag(system, workload, CONFIG) == EVENT_FALLBACK


def test_dispatch_tier_metric_counts_epochs(monkeypatch):
    # The tier counter is the observability hook CI dashboards read; a
    # kernel that stops reporting (or reports the wrong tier) fails here.
    from repro.sim import batch as batch_module

    registry = MetricsRegistry(enabled=True)
    monkeypatch.setattr(batch_module.obs_metrics, "REGISTRY", registry)
    workload = Workload.from_mix(MIXES[0])
    for label, tier in (("(4:4:1)", MERGED_KERNEL),
                        ("(16:1:1)", SHARED_KERNEL),
                        ("(1:1:16)", PRIVATE_PERCORE)):
        system = build_system(label, CONFIG, workload, seed=SEED)
        assert _epoch_tag(system, workload, CONFIG) == tier
    counter = registry.counter("repro_batch_epochs_total", labels=("tier",))
    for tier in (MERGED_KERNEL, SHARED_KERNEL, PRIVATE_PERCORE):
        assert counter.labels(tier=tier).value == 1, tier


# -- property test: random traces through the all-private tiers --------------


class _Trace:
    """Minimal EpochTrace stand-in with the three arrays the engines read."""

    def __init__(self, lines, writes):
        self.lines = np.asarray(lines, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)
        self.gaps = np.zeros(len(lines), dtype=np.int32)


def _access_lists(draw, n_cores, length, shared):
    traces = {}
    # Tiny line universe => heavy set collisions at every level, constant
    # evictions, back-invalidations and (when shared) coherence traffic.
    for core in range(n_cores):
        base = 0 if shared else core * 1000
        lines = draw(st.lists(
            st.integers(min_value=base, max_value=base + 40),
            min_size=length, max_size=length))
        writes = draw(st.lists(st.booleans(),
                               min_size=length, max_size=length))
        traces[core] = _Trace(lines, writes)
    return traces


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shared=st.booleans(), length=st.integers(8, 40))
def test_private_kernels_match_event_on_random_traces(data, shared, length):
    """Adversarial traces: batch == event through the dict-backed slices.

    ``shared=True`` forces overlapping per-core address ranges, driving the
    slice-group kernel's coherence/invalidations; ``shared=False`` lets the
    per-core tier engage.  Both must leave the hierarchy (entries, LRU
    recency, stamps, stats, directory) and the timers bit-identical to the
    event engine's.
    """
    workload = Workload.from_mix(MIXES[0])
    n_cores = TINY.cores
    systems = []
    timer_sets = []
    for _ in range(2):
        system = build_system("(1:1:16)", TINY, workload, seed=SEED)
        timers = {c: CoreTimingModel(TINY.issue_width,
                                     memory_latency=TINY.latency.memory)
                  for c in range(n_cores)}
        systems.append(system)
        timer_sets.append(timers)
    traces = _access_lists(data.draw, n_cores, length, shared)

    run_epoch(systems[0], traces, timer_sets[0], length)
    tag = run_epoch_batch(systems[1], traces, timer_sets[1], length)
    assert tag in (PRIVATE_PERCORE, PRIVATE_KERNEL)
    if shared:
        assert tag == PRIVATE_KERNEL

    assert state_digest(systems[0]) == state_digest(systems[1])
    for core in range(n_cores):
        a, b = timer_sets[0][core], timer_sets[1][core]
        assert repr(a.cycles) == repr(b.cycles)
        assert a.instructions == b.instructions
