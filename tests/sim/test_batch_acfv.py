"""Raw ACFV contents are identical across engines, epoch by epoch.

The batch kernels do not notify the observer per hit: they collect each
core's L2/L3 hit lines and flush them into the ACFVs in one vectorised pass
(:meth:`repro.core.acfv.AcfvBank.record_epoch_hits`).  ``state_digest`` and
the run-end checkpoint only see the vectors after the controller's epoch-end
``reset_all``, so this suite compares them where the controller reads them:
after the epoch's accesses and before ``end_epoch``.  Both systems are
driven in lockstep on the same traces (and the same fault schedule); every
epoch must also land on its expected dispatch tier, so a silent fall-through
to a per-hit path cannot make the comparison vacuous.
"""

import pytest

from repro.config import TINY
from repro.cpu.core_model import CoreTimingModel
from repro.resilience import parse_fault_spec
from repro.resilience.faults import FaultInjector
from repro.sim.batch import (
    MERGED_KERNEL,
    PRIVATE_KERNEL,
    PRIVATE_PERCORE,
    run_epoch_batch,
)
from repro.sim.engine import run_epoch
from repro.sim.experiment import build_system
from repro.sim.workload import Workload
from repro.workloads import MIXES

CONFIG = TINY
SEED = 3


def _vectors(system):
    bank = system.controller.bank
    return {(level, core): bank.acfv(level, core).as_int()
            for level in ("l2", "l3") for core in range(bank.n_cores)}


def _assert_acfvs_match(workload, tiers, fault_spec=None):
    """Run ``len(tiers)`` epochs on both engines and compare every vector
    of every core, at both levels, before each epoch boundary."""
    systems = [build_system("morphcache", CONFIG, workload, seed=SEED)
               for _ in range(2)]
    plan = parse_fault_spec(fault_spec) if fault_spec else None
    injectors = [FaultInjector(plan) for _ in systems] if plan else None
    threads = workload.build_threads(CONFIG, seed=SEED)
    active = [c for c, t in enumerate(threads) if t is not None]
    n = CONFIG.accesses_per_core_per_epoch
    event_sys, batch_sys = systems

    for epoch, tier in enumerate(tiers):
        if injectors:
            for injector, system in zip(injectors, systems):
                injector.begin_epoch(epoch, system)
        traces = {c: threads[c].generate(n) for c in active}
        timer_sets = [
            {c: CoreTimingModel(CONFIG.issue_width,
                                memory_latency=CONFIG.latency.memory)
             for c in active}
            for _ in systems
        ]
        run_epoch(event_sys, traces, timer_sets[0], n)
        assert run_epoch_batch(batch_sys, traces, timer_sets[1], n) == tier, \
            epoch
        expected = _vectors(event_sys)
        # Non-trivial at both levels, or the comparison proves nothing.
        for level in ("l2", "l3"):
            assert any(v for (lvl, _), v in expected.items() if lvl == level)
        assert _vectors(batch_sys) == expected, f"epoch {epoch}"
        assert event_sys.end_epoch() == batch_sys.end_epoch(), epoch


def test_percore_tier_acfvs_identical():
    _assert_acfvs_match(Workload.from_mix(MIXES[0]),
                        [PRIVATE_PERCORE, PRIVATE_PERCORE])


def test_private_and_merged_tier_acfvs_identical():
    # canneal shares one address space: the warm-up epoch runs the
    # slice-group kernel on the all-private topology (``batch-private``),
    # and the controller merges at its first boundary, so the next epochs
    # run it on merged groups.
    _assert_acfvs_match(Workload.from_parsec("canneal"),
                        [PRIVATE_KERNEL, MERGED_KERNEL, MERGED_KERNEL])


@pytest.mark.parametrize("workload, tiers", [
    (Workload.from_mix(MIXES[0]), [PRIVATE_PERCORE, PRIVATE_PERCORE]),
    (Workload.from_parsec("canneal"), [PRIVATE_KERNEL, MERGED_KERNEL]),
], ids=["percore", "private-merged"])
def test_flip_acfv_fault_epochs_identical(workload, tiers):
    # Flips land in begin_epoch, before any access; the deferred flush ORs
    # the epoch's hits over the flipped bits exactly as per-hit calls do.
    spec = ("flip-acfv:at=0:bits=24:level=l2:target=1,"
            "flip-acfv:at=1:bits=24:level=l3:target=0,seed=11")
    _assert_acfvs_match(workload, tiers, fault_spec=spec)
