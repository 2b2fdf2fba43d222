"""The slice-group kernel's private-lines mode, checked against the event
engine epoch by epoch.

When no line of the cache or the epoch has two owners
(:func:`repro.sim.batch._private_lines`), the group kernel keeps no L1
directory during the epoch, back-invalidates only the victim owner's L1
and rebuilds the directory at the end.  A multiprogrammed mix on a shared
static takes that mode; a shared address space (canneal) does not; and a
line two cores of a mix both write turns it off while any resident copy
still shows two owners, and the coherence invalidation it causes must
still happen, also when the line lies in an address slot whose owner does
not record its lines.  Every epoch's state digest and per-core cycles must
match the event engine's.
"""

import pytest

from repro.config import TINY
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.resilience.checkpoint import state_digest
from repro.sim import batch
from repro.sim.engine import run_epoch
from repro.sim.workload import Workload
from repro.workloads.trace import EpochTrace

CONFIG = TINY
SEED = 3
SHARED_STATIC = "(16:1:1)"

#: A line outside every thread's address space.
PLANTED = (1 << 50) + 7


@pytest.fixture
def gate(monkeypatch):
    """Record what :func:`batch._private_lines` answers, epoch by epoch."""
    answers = []
    real = batch._private_lines

    def spy(*args):
        answer = real(*args)
        answers.append(answer)
        return answer

    monkeypatch.setattr(batch, "_private_lines", spy)
    return answers


def _write_by_cores_0_and_1(traces, line):
    """Make ``line`` core 0's second-to-last and core 1's last access,
    both writes."""
    for core, index in ((0, -2), (1, -1)):
        trace = traces[core]
        lines = trace.lines.copy()
        writes = trace.writes.copy()
        lines[index] = line
        writes[index] = True
        traces[core] = EpochTrace(lines, writes, trace.gaps)


def _run_epochs(workload_name, epochs, plant=None):
    """Run ``epochs`` epochs of ``workload_name`` on the shared static
    through both engines, requiring identical state after each; returns
    each epoch's coherence invalidations per core."""
    workload = Workload.from_name(workload_name)
    threads = workload.build_threads(CONFIG, seed=SEED)
    active = [core for core, thread in enumerate(threads)
              if thread is not None]
    n = CONFIG.accesses_per_core_per_epoch
    event_sys = CmpSystem(CONFIG, static_label=SHARED_STATIC)
    batch_sys = CmpSystem(CONFIG, static_label=SHARED_STATIC)
    coherence = []
    for epoch in range(epochs):
        traces = {core: threads[core].generate(n) for core in active}
        if plant is not None:
            plant(epoch, traces)
        timer_sets = [
            {core: CoreTimingModel(CONFIG.issue_width,
                                   memory_latency=CONFIG.latency.memory)
             for core in active}
            for _ in range(2)]
        run_epoch(event_sys, traces, timer_sets[0], n)
        tag = batch.run_epoch_batch(batch_sys, traces, timer_sets[1], n)
        assert tag == batch.SHARED_KERNEL, (epoch, tag)
        assert state_digest(event_sys) == state_digest(batch_sys), epoch
        for core in active:
            assert repr(timer_sets[0][core].cycles) \
                == repr(timer_sets[1][core].cycles), (epoch, core)
        counts = [[stats.coherence_invalidations
                   for stats in system.hierarchy.stats.cores.values()]
                  for system in (event_sys, batch_sys)]
        assert counts[0] == counts[1], epoch
        coherence.append(counts[1])
        event_sys.end_epoch()
        batch_sys.end_epoch()
    return coherence


def test_mix_on_shared_static_takes_private_lines_mode(gate):
    _run_epochs("MIX 01", 3)
    assert gate == [True, True, True]


def test_shared_address_space_does_not_take_it(gate):
    _run_epochs("canneal", 3)
    assert gate == [False, False, False]


def test_line_written_by_two_cores_turns_the_mode_off(gate):
    """Core 0 writes the planted line near the end of epoch 1 and core 1
    writes it as its last access: the second write hits core 1's shared
    L2 group and invalidates core 0's L1 copy.  Core 1's L1 copy and core
    0's L2 copy then carry different owners into epoch 2, which keeps the
    mode off there too."""
    def plant(epoch, traces):
        if epoch == 1:
            _write_by_cores_0_and_1(traces, PLANTED)

    coherence = _run_epochs("MIX 01", 3, plant)
    assert gate == [True, False, False]
    assert coherence[0] == [0] * CONFIG.cores
    assert coherence[1][1] >= 1


def test_foreign_write_into_a_claimed_slot_turns_the_mode_off(gate):
    """Core 0 and core 1 both write a line new to the run that lies in
    core 0's own address slot.  Core 0's whole trace stays inside that
    slot, so it claims the slot without recording its lines: the check
    must still see core 1's reference as shared."""
    def plant(epoch, traces):
        if epoch == 1:
            slot = int(traces[0].lines[0]) >> batch._SLOT_BITS
            _write_by_cores_0_and_1(
                traces,
                (slot << batch._SLOT_BITS) + (1 << (batch._SLOT_BITS - 1)))

    coherence = _run_epochs("MIX 01", 3, plant)
    assert gate == [True, False, False]
    assert coherence[1][1] >= 1



def test_owner_map_stays_bounded_by_the_cache(monkeypatch):
    """Cores whose epochs span two address slots record every line they
    reference, and the map keeps lines that have left the cache.  Once it
    holds more lines than the cache can, the next epoch rebuilds it from
    the resident state, so its size is bounded by the cache, not by the
    length of the run."""
    sizes = []
    real = batch._private_lines

    def spy(hier, *args):
        answer = real(hier, *args)
        assert answer
        sizes.append(len(getattr(hier, batch._OWNERS_ATTR)["maps"][0]))
        return answer

    monkeypatch.setattr(batch, "_private_lines", spy)

    def plant(epoch, traces):
        for core, trace in list(traces.items()):
            lines = trace.lines.copy()
            lines[-1] = PLANTED + core
            traces[core] = EpochTrace(lines, trace.writes, trace.gaps)

    _run_epochs("MIX 01", 12, plant)
    capacity = CONFIG.cores * sum(
        geometry.sets * geometry.ways
        for geometry in (CONFIG.l1, CONFIG.l2_slice, CONFIG.l3_slice))
    epoch_lines = CONFIG.cores * CONFIG.accesses_per_core_per_epoch
    assert max(sizes) <= capacity + epoch_lines
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
