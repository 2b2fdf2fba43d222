"""Tests for the service's job model: validation, round-trips, layout."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.resilience.errors import ConfigError
from repro.serve.app import JOB_PRELOAD
from repro.serve.jobs import (
    Job,
    JobSpec,
    job_id,
    known_schemes,
    read_json,
    spec_record,
    write_json_durable,
)

GOOD = {"tenant": "alice", "workload": "MIX 01"}

REPO = pathlib.Path(__file__).parents[2]

#: Imports the modules named on the command line (as the job forkserver
#: does), then runs one job's simulation path; prints the repro/numpy
#: modules that path still had to import.
_PRELOAD_PROBE = """
import sys

for name in sys.argv[2:]:
    __import__(name)
before = set(sys.modules)

from repro.serve.jobs import JobSpec
from repro.sim.parallel import _run_spec

for scheme in ("morphcache", "(16:1:1)"):
    spec = JobSpec.from_payload(
        {"tenant": "t", "workload": "MIX 01", "scheme": scheme})
    for run in spec.to_runspecs(sys.argv[1]):
        _run_spec(run)
print(" ".join(sorted(name for name in set(sys.modules) - before
                      if name.split(".")[0] in ("repro", "numpy"))))
"""


def _spec(**overrides):
    return JobSpec.from_payload({**GOOD, **overrides})


class TestValidation:
    def test_minimal_payload_defaults(self):
        spec = _spec()
        assert spec.tenant == "alice"
        assert spec.schemes == ("morphcache",)
        assert spec.preset == "tiny"
        assert spec.seed == 1 and spec.engine == "batch"

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            JobSpec.from_payload([1, 2])
        with pytest.raises(ConfigError):
            JobSpec.from_payload(None)

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            _spec(bogus=1)

    @pytest.mark.parametrize("tenant", ["", "a b", "x" * 33, 7, None,
                                        "-leading"])
    def test_bad_tenant(self, tenant):
        with pytest.raises(ConfigError, match="tenant"):
            JobSpec.from_payload({"tenant": tenant, "workload": "MIX 01"})

    def test_bad_workload(self):
        with pytest.raises(ConfigError, match="workload"):
            _spec(workload="quake3")

    def test_scheme_and_schemes_conflict(self):
        with pytest.raises(ConfigError, match="schemes"):
            _spec(scheme="morphcache", schemes=["pipp"])

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="schemes"):
            _spec(schemes=["morphcache", "nope"])
        # A removed scheme is as unknown as a made-up one.
        with pytest.raises(ConfigError, match="schemes"):
            _spec(scheme="ucp")

    def test_scheme_string_becomes_singleton(self):
        assert _spec(scheme="pipp").schemes == ("pipp",)

    @pytest.mark.parametrize("field,value", [
        ("preset", "galactic"), ("epochs", 0), ("epochs", "three"),
        ("seed", 1.5), ("engine", "quantum"), ("jobs", 0), ("retries", -1),
        ("run_timeout", 0), ("max_seconds", -3), ("trace", "yes"),
    ])
    def test_bad_field_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            _spec(**{field: value})

    def test_known_schemes_cover_paper_set(self):
        legal = known_schemes()
        for scheme in ("morphcache", "pipp", "dsr", "(16:1:1)"):
            assert scheme in legal


class TestRoundTrip:
    def test_payload_round_trips(self):
        spec = _spec(schemes=["morphcache", "pipp"], epochs=5, seed=9,
                     engine="event", jobs=2, run_timeout=1.5, retries=2,
                     max_seconds=60.0, trace=False)
        assert JobSpec.from_payload(spec.payload()) == spec

    def test_to_runspecs_and_keys(self, tmp_path):
        spec = _spec(schemes=["morphcache", "pipp"], epochs=2, seed=4)
        specs = spec.to_runspecs(tmp_path)
        assert [s.scheme for s in specs] == ["morphcache", "pipp"]
        assert specs[0].trace_path == str(tmp_path / "trace_0.jsonl")
        # Trace paths are not part of the journal key: recovery rebuilds
        # specs in a (possibly different) job dir and must match the
        # crashed run's journal.
        assert spec.journal_keys(tmp_path) == spec.journal_keys(None)

    def test_runs_default_to_the_batch_engine(self, tmp_path):
        assert [s.engine for s in _spec().to_runspecs(tmp_path)] == ["batch"]
        event = _spec(engine="event").to_runspecs(tmp_path)
        assert [s.engine for s in event] == ["event"]

    def test_trace_off_means_no_trace_paths(self, tmp_path):
        specs = _spec(trace=False).to_runspecs(tmp_path)
        assert all(s.trace_path is None for s in specs)


def test_forkserver_preload_covers_the_job_simulation_path(tmp_path):
    # Job children fork from a forkserver that imported JOB_PRELOAD once;
    # any module the simulation path imports lazily on top of that is
    # paid again by every job.  Traces are on, as for a real job.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", _PRELOAD_PROBE, str(tmp_path), *JOB_PRELOAD],
        env=env, cwd=str(REPO), capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == []
    assert sorted(tmp_path.glob("trace_*.jsonl"))  # the traced path ran


class TestDurableLayout:
    def test_job_id_sorts_by_seq(self):
        ids = [job_id(seq, "t") for seq in (1, 2, 10, 100)]
        assert ids == sorted(ids)

    def test_write_json_durable_round_trips(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_durable(path, {"a": 1})
        write_json_durable(path, {"a": 2})  # atomic replace
        assert read_json(path) == {"a": 2}
        assert not path.with_suffix(".json.tmp").exists()

    def test_spec_record_and_status_payload(self, tmp_path):
        spec = _spec()
        job = Job(id=job_id(3, "alice"), seq=3, spec=spec,
                  job_dir=tmp_path)
        record = spec_record(job)
        assert record["id"] == "000003-alice"
        assert JobSpec.from_payload(record["spec"]) == spec
        job.write_status()
        assert read_json(tmp_path / "status.json")["state"] == "queued"
