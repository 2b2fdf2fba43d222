"""Golden series for the event-fallback baselines (PIPP and DSR).

The batch engine routes PIPP and DSR to the event engine
(:func:`repro.sim.batch.batch_unsupported`), so no differential suite
compares them with anything but themselves.  Their L1s, and DSR's L2/L3
slices, are :class:`~repro.caches.cache.CacheSlice` objects all the same,
so a change to the slice's storage or victim order moves them silently.
``golden_baselines.json`` pins, for each scheme on MIX 01 and canneal
(``TINY.with_(epochs=3)``, seed 7), the per-epoch IPC series (``repr``
strings, full float precision), the per-epoch miss counts and the final
``state_digest``.  Both engines must land on it exactly.

Provenance / recapture: the fixture is the ``event`` run of::

    from repro.config import TINY
    from repro.resilience.checkpoint import state_digest
    from repro.sim.engine import simulate
    from repro.sim.experiment import build_system
    from repro.sim.workload import Workload
    ...  # for scheme in (pipp, dsr), name in (MIX 01, canneal):
    ...  # build_system(scheme, TINY.with_(epochs=3),
    ...  #              Workload.from_name(name, 16), seed=7),
    ...  # simulate(...), record repr(ipc) and misses per core per epoch
    ...  # plus state_digest(system)

Never loosen the comparison.
"""

import json
import pathlib

import pytest

from repro.config import TINY
from repro.resilience.checkpoint import state_digest
from repro.sim.engine import simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_baselines.json").read_text())

SEED = 7
CONFIG = TINY.with_(epochs=3)
CASES = [(scheme, name) for scheme in sorted(GOLDEN)
         for name in sorted(GOLDEN[scheme])]


@pytest.mark.parametrize("engine", ["event", "batch"])
@pytest.mark.parametrize("scheme,name", CASES)
def test_baseline_series_and_digest(scheme, name, engine):
    workload = Workload.from_name(name, CONFIG.cores)
    system = build_system(scheme, CONFIG, workload, seed=SEED)
    result = simulate(system, workload, CONFIG, seed=SEED, engine=engine)

    expected = GOLDEN[scheme][name]
    assert len(result.epochs) == len(expected["epochs"])
    for got, want in zip(result.epochs, expected["epochs"]):
        assert got.epoch == want["epoch"]
        assert {str(c): repr(v) for c, v in got.ipcs.items()} == want["ipcs"]
        assert {str(c): v for c, v in got.misses.items()} == want["misses"]
    assert state_digest(system) == expected["digest"]
