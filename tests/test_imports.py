"""Import layering: what each entry point loads (DESIGN.md, "Import layering").

The service, ``repro worker`` and :class:`~repro.serve.client.ServiceClient`
must not load numpy or the simulator: pool workers run the jobs, so the
service itself only validates, journals and summarises.  Each probe runs in a fresh interpreter and
prints the forbidden modules it ended up with.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.serve.jobs import JOURNAL_FILE, JobSpec
from repro.sim.supervisor import run_supervised

REPO = pathlib.Path(__file__).parents[1]

#: Modules the service and client must never import.
FORBIDDEN = ("numpy", "repro.sim.batch", "repro.caches", "repro.sim.engine",
             "repro.core", "repro.cpu", "repro.workloads.synthetic")

#: Printed by every probe after its work: the forbidden modules loaded.
_REPORT = f"""
import sys
print(sorted(m for m in sys.modules if m in {FORBIDDEN!r}))
"""

#: The whole of ``repro`` the client may load.
CLIENT_MODULES = {"repro", "repro._lazy", "repro.serve", "repro.serve.client",
                  "repro.sim", "repro.sim.seeds"}

TINY_JOB = {"tenant": "alice", "workload": "MIX 01",
            "schemes": ["morphcache", "(16:1:1)"], "preset": "tiny",
            "epochs": 1, "seed": 3, "trace": False}

#: The service's admission -> journal keys -> results -> summary path,
#: run on the recorded journal in argv[1] (the job dir); prints the
#: summary's mean throughputs before the report.
_RESULT_PATH = f"""
import json, pathlib, sys
from repro.serve.app import ServiceConfig, SimulationService
from repro.serve.jobs import Job, JobSpec
from repro.sim.supervisor import inspect_journal

job_dir = pathlib.Path(sys.argv[1])
service = SimulationService(ServiceConfig(state_dir=str(job_dir.parent)))
spec = JobSpec.from_payload({TINY_JOB!r})
job = Job(id="000001-alice", seq=1, spec=spec, job_dir=job_dir, state="done")
summary = inspect_journal(job.journal_path, keys=spec.journal_keys(job_dir))
assert len(summary.completed) == len(spec.schemes), summary.render()
results = service._job_results(job)
print(json.dumps([run["mean_throughput"] for run in results["runs"]]))
"""

#: ``python -m repro <command> --help``, in-process.
_CLI_HELP = """
import runpy, sys
sys.argv = ["repro", "{}", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _probe(code, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code + _REPORT, *args],
                          env=env, cwd=str(REPO), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("code", [
    "import repro.serve.client",
    "import repro.serve.app",
    "from repro.serve import ServiceClient, SimulationService",
    _CLI_HELP.format("serve"),
    _CLI_HELP.format("worker"),
], ids=["client", "app", "serve-package", "serve-help", "worker-help"])
def test_entry_point_imports_no_simulator(code):
    assert _probe(code)[-1] == "[]"


def test_client_loads_only_its_seed_helper():
    code = ("import json, sys, repro.serve.client\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'repro')))\n")
    assert set(json.loads(_probe(code)[-2])) == CLIENT_MODULES


def test_service_result_path_imports_no_simulator(tmp_path):
    # Record a tiny job's journal the way a pool worker writes it.
    job_dir = tmp_path / "jobs" / "000001-alice"
    job_dir.mkdir(parents=True)
    spec = JobSpec.from_payload(TINY_JOB)
    report = run_supervised(spec.to_runspecs(job_dir),
                            journal=job_dir / JOURNAL_FILE)
    assert report.ok
    lines = _probe(_RESULT_PATH, str(job_dir))
    assert lines[-1] == "[]"
    assert json.loads(lines[-2]) == [result.mean_throughput
                                     for result in report.results]


#: A sweep from a light process: its worker reports which simulation
#: modules it had to import itself.
_SWEEP = """
import sys
from repro.config import preset
from repro.sim.parallel import SIMULATION_MODULES, RunSpec
from repro.sim.supervisor import run_supervised
from repro.sim.workload import Workload

def missing(spec):
    return [name for name in SIMULATION_MODULES if name not in sys.modules]

spec = RunSpec(scheme="(16:1:1)", workload=Workload.from_name("MIX 01"),
               config=preset("tiny"))
print(run_supervised([spec, spec], jobs=2, worker=missing).results)
"""


def test_sweep_workers_fork_with_the_simulator_loaded():
    # Any sweep forks its workers after loading the simulator, so a pool
    # does not import it once per worker (custom workers included).
    assert _probe(_SWEEP)[-2] == "[[], []]"


#: The packages whose public names resolve lazily.
PACKAGES = ("repro", "repro.sim", "repro.serve", "repro.resilience",
            "repro.workloads", "repro.baselines")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)
    with pytest.raises(AttributeError):
        module.no_such_name


def test_reexports_are_the_defining_objects():
    import repro
    import repro.sim
    import repro.sim.engine
    import repro.workloads.synthetic
    from repro.sim import parallel, results, seeds

    assert repro.RunResult is repro.sim.RunResult is results.RunResult
    assert repro.sim.engine.RunResult is results.RunResult
    assert repro.sim.engine.ENGINES is results.ENGINES
    assert parallel.derive_seed is seeds.derive_seed
    assert (repro.workloads.synthetic.FootprintModel
            is repro.workloads.FootprintModel)
    assert repro.config is importlib.import_module("repro.config")
