"""Cross-module property-based tests on system invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import CacheHierarchy
from repro.config import TINY
from repro.core.acfv import Acfv, AcfvBank
from repro.core.controller import MorphCacheController
from repro.core.topology import TopologyState, parse_config_label
from repro.interconnect.arbiter import ArbiterTree
from repro.metrics import fair_speedup, weighted_speedup
from repro.resilience.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.resilience.guards import validate_topology
from repro.sim.experiment import run_scheme
from repro.sim.workload import Workload
from repro.workloads import mix_by_name


@st.composite
def buddy_partitions(draw, n=8):
    """Random valid buddy partition of n slices."""
    groups = [(i,) for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        candidates = [
            (a, b)
            for a in groups for b in groups
            if a != b and len(a) == len(b) and (min(a) ^ len(a)) == min(b)
        ]
        if not candidates:
            break
        a, b = draw(st.sampled_from(candidates))
        groups.remove(a)
        groups.remove(b)
        groups.append(tuple(sorted(a + b)))
    return sorted(groups, key=min)


@given(buddy_partitions())
@settings(max_examples=30, deadline=None)
def test_arbiter_tree_accepts_every_buddy_partition(groups):
    """Any buddy partition is a legal arbiter configuration, and exactly
    one slice per multi-slice domain wins arbitration."""
    tree = ArbiterTree(8)
    tree.configure_groups(groups)
    acquired = tree.resolve([True] * 8)
    for group in groups:
        winners = sum(acquired[s] for s in group)
        assert winners == (1 if len(group) > 1 else 0)


@given(buddy_partitions(), buddy_partitions())
@settings(max_examples=30, deadline=None)
def test_hierarchy_rejects_or_accepts_partitions_consistently(l2, l3):
    """set_topology either raises (inclusion violation) or installs both
    partitions exactly."""
    config = TINY.with_(cores=8)
    hierarchy = CacheHierarchy(config)
    try:
        hierarchy.set_topology(l2, l3)
    except ValueError:
        return
    assert sorted(hierarchy.l2_groups, key=min) == l2
    assert sorted(hierarchy.l3_groups, key=min) == l3
    hierarchy.check_inclusion()


@given(st.sets(st.integers(0, 100_000), max_size=150),
       st.sets(st.integers(0, 100_000), max_size=150))
@settings(max_examples=40, deadline=None)
def test_acfv_overlap_bounds(tags_a, tags_b):
    """Overlap count never exceeds either population."""
    a, b = Acfv(128), Acfv(128)
    for tag in tags_a:
        a.set(tag)
    for tag in tags_b:
        b.set(tag)
    overlap = a.overlap_ones(b)
    assert overlap <= min(a.ones, b.ones)
    assert 0.0 <= a.overlap_fraction(b) <= 1.0


@given(st.lists(st.tuples(st.sampled_from(["l2", "l3"]), st.integers(0, 3),
                          st.integers(0, 10_000)),
                max_size=200))
@settings(max_examples=30, deadline=None)
def test_bank_utilization_bounded(events):
    """Group utilisation is always within [0, 100) on the saturating scale."""
    bank = AcfvBank(4, 32, 64)
    for level, core, tag in events:
        bank.on_hit(level, core, core, tag)
    for level, lines in (("l2", 64), ("l3", 256)):
        for core in range(4):
            utilisation = bank.group_utilization(level, (core,), lines)
            assert 0.0 <= utilisation < 100.0


@given(st.lists(st.floats(0.1, 4.0), min_size=1, max_size=16),
       st.lists(st.floats(0.1, 4.0), min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_fair_speedup_never_exceeds_mean_speedup(ipcs, alone):
    """FS (harmonic mean) <= WS/N (arithmetic mean) for matched lengths."""
    n = min(len(ipcs), len(alone))
    ipcs, alone = ipcs[:n], alone[:n]
    ws = weighted_speedup(ipcs, alone)
    fs = fair_speedup(ipcs, alone)
    assert fs <= ws / n + 1e-9


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_config_labels_round_trip(x_exp, y_exp, z_exp):
    """(x:y:z) parse -> TopologyState -> config_label round-trips."""
    x, y, z = 1 << x_exp, 1 << y_exp, 1 << z_exp
    if x * y * z != 16:
        return
    label = f"({x}:{y}:{z})"
    l2_groups, l3_groups = parse_config_label(label)
    topo = TopologyState(16)
    topo.set_groups("l3", l3_groups)
    topo.set_groups("l2", l2_groups)
    assert topo.config_label() == label


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 800),
                          st.booleans()),
                min_size=100, max_size=300))
@settings(max_examples=10, deadline=None)
def test_controller_epochs_never_break_inclusion(accesses):
    """Whatever the controller decides, the hierarchy stays inclusive."""
    controller = MorphCacheController(TINY)
    hierarchy = CacheHierarchy(TINY)
    controller.attach(hierarchy)
    for chunk_start in range(0, len(accesses), 100):
        for core, line, write in accesses[chunk_start:chunk_start + 100]:
            hierarchy.access(core, line, write)
        controller.end_epoch()
        hierarchy.check_inclusion()
        controller.topology.check_inclusion()


@st.composite
def fault_plans(draw):
    """Random multi-rule fault plans over every fault kind."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        rules.append(dict(
            kind=kind,
            every=draw(st.integers(1, 4)),
            start=draw(st.integers(0, 2)),
            duration=draw(st.integers(1, 3)),
            level=draw(st.sampled_from(["l2", "l3"])),
        ))
    seed = draw(st.integers(0, 1_000))
    from repro.resilience.faults import FaultRule
    return FaultPlan(rules=tuple(FaultRule(**r) for r in rules), seed=seed)


@given(fault_plans(),
       st.lists(st.tuples(st.integers(0, 15), st.integers(0, 800),
                          st.booleans()),
                min_size=100, max_size=200))
@settings(max_examples=10, deadline=None)
def test_faulted_hierarchy_only_ever_sees_valid_topologies(plan, accesses):
    """Under any fault plan, no invalid grouping reaches the hierarchy and
    inclusion holds at every epoch boundary."""
    from repro.cpu.cmp import CmpSystem
    system = CmpSystem(TINY)
    injector = FaultInjector(plan)
    for epoch in range(4):
        injector.begin_epoch(epoch, system)
        for core, line, write in accesses:
            system.access(core, line, write)
        system.end_epoch()
        validate_topology(TINY.cores, system.hierarchy.l2_groups,
                          system.hierarchy.l3_groups)
        system.hierarchy.check_inclusion()


@given(st.integers(0, 50), st.integers(2, 5))
@settings(max_examples=5, deadline=None)
def test_resume_reproduces_exact_epoch_series(tmp_path_factory, seed, epochs):
    """A checkpointed-and-resumed run equals the uninterrupted run exactly."""
    config = TINY.with_(accesses_per_core_per_epoch=150)
    workload = Workload.from_mix(mix_by_name("MIX 06"))
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    reference = run_scheme("morphcache", workload, config, seed=seed,
                           epochs=epochs, engine="event")
    run_scheme("morphcache", workload, config, seed=seed, epochs=epochs,
               checkpoint_path=path, checkpoint_every=2)
    resumed = run_scheme("morphcache", workload, config, seed=seed,
                         epochs=epochs, checkpoint_path=path, resume=True)
    assert [(e.epoch, e.ipcs, e.misses, e.topology_label)
            for e in resumed.epochs] == \
           [(e.epoch, e.ipcs, e.misses, e.topology_label)
            for e in reference.epochs]
