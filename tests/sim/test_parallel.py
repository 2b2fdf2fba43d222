"""Tests for the process-parallel sweep runner."""

import pytest

from repro.config import TINY
from repro.resilience.errors import ConfigError
from repro.sim import experiment
from repro.sim.parallel import (
    RunSpec,
    derive_seed,
    prime_alone_ipcs,
    resolve_jobs,
    run_many,
)
from repro.sim.workload import Workload
from repro.workloads import MIXES


def _specs(**fields):
    workload = Workload.from_mix(MIXES[0])
    return [RunSpec(scheme=scheme, workload=workload, config=TINY, seed=11,
                    **fields)
            for scheme in ["(16:1:1)", "(1:1:16)", "(4:4:1)", "morphcache"]]


def test_jobs1_and_jobs4_identical_and_ordered():
    specs = _specs()
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=4)
    # Results in input order under both job counts...
    assert [r.scheme_name for r in serial] == [s.scheme for s in specs]
    assert [r.scheme_name for r in parallel] == [s.scheme for s in specs]
    # ...and the full EpochResult series bit-identical run for run.
    for a, b in zip(serial, parallel):
        assert a.workload_name == b.workload_name
        assert a.epochs == b.epochs


def test_worker_failure_raises():
    workload = Workload.from_mix(MIXES[0])
    good = RunSpec(scheme="(16:1:1)", workload=workload, config=TINY)
    bad = RunSpec(scheme="not-a-scheme", workload=workload, config=TINY)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_many([good, bad, good], jobs=4)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_many([bad], jobs=1)


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit argument wins
    with pytest.raises(ValueError):
        resolve_jobs(0)


def test_resolve_jobs_routes_through_config_error(monkeypatch):
    # Bad values are ConfigError (the config exit code, field named), not a
    # bare ValueError — while staying catchable as ValueError.
    with pytest.raises(ConfigError, match="jobs"):
        resolve_jobs(0)
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ConfigError, match="REPRO_JOBS"):
        resolve_jobs()
    monkeypatch.setenv("REPRO_JOBS", "banana")
    with pytest.raises(ConfigError, match="REPRO_JOBS"):
        resolve_jobs()


def test_derive_seed_stable_and_distinct():
    seeds = [derive_seed(2011, i) for i in range(64)]
    assert seeds == [derive_seed(2011, i) for i in range(64)]  # stable
    assert len(set(seeds)) == 64  # distinct per index
    assert set(seeds).isdisjoint(derive_seed(2012, i) for i in range(64))
    assert all(0 <= s < 2 ** 31 for s in seeds)


def test_prime_alone_ipcs_matches_serial_cache(monkeypatch):
    monkeypatch.setattr(experiment, "_ALONE_CACHE", {})
    primed = prime_alone_ipcs(["mcf", "milc", "mcf"], TINY,
                              seed=3, epochs=2, jobs=2)
    assert set(primed) == {"mcf", "milc"}
    # The pool-computed values are cache hits now, and identical to what a
    # serial alone_ipc() computes from scratch.
    assert experiment.alone_ipc_cached("mcf", TINY, seed=3, epochs=2)
    monkeypatch.setattr(experiment, "_ALONE_CACHE", {})
    for name, ipc in primed.items():
        assert experiment.alone_ipc(name, TINY, seed=3, epochs=2) == ipc


def test_runspec_defaults_to_the_batch_engine():
    assert [s.engine for s in _specs()] == ["batch"] * 4


def test_batch_engine_specs_match_event(monkeypatch):
    event = run_many(_specs(engine="event"), jobs=1)
    batch = run_many(_specs(), jobs=2)
    for a, b in zip(event, batch):
        assert [e.misses for e in a.epochs] == [e.misses for e in b.epochs]
        assert [{c: repr(v) for c, v in e.ipcs.items()} for e in a.epochs] \
            == [{c: repr(v) for c, v in e.ipcs.items()} for e in b.epochs]


def test_many_specs_ordered():
    # More specs than workers exercises the supervisor's throttled
    # submission; order and content must still match the serial run
    # spec-for-spec.
    workload = Workload.from_mix(MIXES[0])
    specs = [RunSpec(scheme="(16:1:1)", workload=workload, config=TINY,
                     seed=seed) for seed in range(9)]
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=3)
    assert [r.mean_throughput for r in serial] \
        == [r.mean_throughput for r in parallel]


def test_run_many_journal_and_resume(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    specs = _specs()
    first = run_many(specs, jobs=2, journal=journal)
    assert journal.exists()
    resumed = run_many(specs, jobs=2, journal=journal, resume=True)
    for a, b in zip(first, resumed):
        assert [{c: repr(v) for c, v in e.ipcs.items()} for e in a.epochs] \
            == [{c: repr(v) for c, v in e.ipcs.items()} for e in b.epochs]


def test_prime_alone_ipcs_salvages_siblings_on_failure(monkeypatch):
    # One benchmark's worker failing must not discard the siblings that
    # completed: they are seeded into the cache before the failure
    # surfaces, so a retried priming pass recomputes only the failed one.
    monkeypatch.setattr(experiment, "_ALONE_CACHE", {})
    real_run_scheme = experiment.run_scheme

    def failing_run_scheme(scheme, workload, config, **kwargs):
        if workload.name == "milc (alone)":
            raise RuntimeError("injected worker failure")
        return real_run_scheme(scheme, workload, config, **kwargs)

    # Workers are forked after the monkeypatch, so they inherit it.
    monkeypatch.setattr(experiment, "run_scheme", failing_run_scheme)
    with pytest.raises(RuntimeError, match="injected worker failure"):
        prime_alone_ipcs(["mcf", "milc", "gcc"], TINY, seed=3, epochs=2,
                         jobs=2)
    assert experiment.alone_ipc_cached("mcf", TINY, 3, 2)
    assert experiment.alone_ipc_cached("gcc", TINY, 3, 2)
    assert not experiment.alone_ipc_cached("milc", TINY, 3, 2)

    # The retried pass recomputes milc only — and matches a from-scratch
    # serial computation exactly.
    monkeypatch.setattr(experiment, "run_scheme", real_run_scheme)
    primed = prime_alone_ipcs(["mcf", "milc", "gcc"], TINY, seed=3, epochs=2,
                              jobs=2)
    monkeypatch.setattr(experiment, "_ALONE_CACHE", {})
    for name, ipc in primed.items():
        assert experiment.alone_ipc(name, TINY, seed=3, epochs=2) == ipc


def test_alone_ipcs_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(experiment, "_ALONE_CACHE", {})
    parallel = experiment.alone_ipcs(["mcf", "milc"], TINY, seed=3, jobs=2)
    monkeypatch.setattr(experiment, "_ALONE_CACHE", {})
    serial = experiment.alone_ipcs(["mcf", "milc"], TINY, seed=3)
    assert parallel == serial
