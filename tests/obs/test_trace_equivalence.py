"""Differential suite: the two engines emit byte-identical trace files.

The trace recorder's contract (see :mod:`repro.obs.trace`) is that tracing
is a pure observation: for the same ``RunSpec`` the event and batch engines
write the *same JSONL file, byte for byte*.  Every test here runs one
(scheme, workload, seed) twice — once per engine — each writing a trace,
and compares raw file bytes (never parsed records, so a formatting or
key-ordering regression cannot hide).  Coverage mirrors the batch dispatch
tiers of ``tests/sim/test_batch_equivalence.py``:

- ``batch-private-percore`` — all-private topology on a multiprogrammed mix;
- ``batch-private`` — all-private with shared lines (multithreaded PARSEC);
- ``batch-general`` — merged/shared topologies, plus morphcache across
  live reconfigurations (the ``reconfig`` records carry ACFV inputs);
- ``event`` fallback — baseline schemes without a batchable hierarchy;

plus fault injection (``fault`` records interleave identically) and a
checkpoint kill + resume (the resumed trace contains exactly the run header
plus the post-resume records, and those bytes match the uninterrupted
golden trace line for line).
"""

import json

import pytest

from repro.baselines.static_topologies import STATIC_LABELS
from repro.config import TINY
from repro.obs.trace import TraceRecorder
from repro.resilience import parse_fault_spec
from repro.sim.engine import simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload
from repro.workloads import MIXES, PARSEC_BENCHMARKS

CONFIG = TINY.with_(epochs=4)
SEED = 3


def _traced_run(scheme, workload, engine, path, config=CONFIG, seed=SEED,
                epoch_digests=False, **kwargs):
    system = build_system(scheme, config, workload, seed=seed)
    with TraceRecorder(path, epoch_digests=epoch_digests) as tracer:
        simulate(system, workload, config, seed=seed, engine=engine,
                 tracer=tracer, **kwargs)
    return path


def _assert_traces_identical(scheme, workload, tmp_path, **kwargs):
    event = _traced_run(scheme, workload, "event",
                        tmp_path / "event.jsonl", **kwargs)
    batch = _traced_run(scheme, workload, "batch",
                        tmp_path / "batch.jsonl", **kwargs)
    event_bytes = event.read_bytes()
    assert event_bytes  # a trace was actually written
    assert event_bytes == batch.read_bytes()
    return event_bytes


@pytest.mark.parametrize("scheme", STATIC_LABELS)
def test_static_topologies_trace_identical(scheme, tmp_path):
    _assert_traces_identical(scheme, Workload.from_mix(MIXES[0]), tmp_path)


def test_morphcache_trace_identical_across_reconfigurations(tmp_path):
    raw = _assert_traces_identical("morphcache", Workload.from_mix(MIXES[0]),
                                   tmp_path)
    kinds = [json.loads(line)["kind"] for line in raw.decode().splitlines()]
    assert kinds[0] == "run-start"
    assert kinds[-1] == "run-end"
    assert kinds.count("epoch") == CONFIG.epochs + 1  # +1 warmup


def test_multithreaded_shared_lines_trace_identical(tmp_path):
    name = sorted(PARSEC_BENCHMARKS)[0]
    for scheme in ("(1:1:16)", "morphcache"):
        subdir = tmp_path / scheme.strip("()").replace(":", "-")
        subdir.mkdir()
        _assert_traces_identical(scheme, Workload.from_parsec(name), subdir)


@pytest.mark.parametrize("scheme", ["pipp", "dsr"])
def test_event_fallback_trace_identical(scheme, tmp_path):
    # Baselines have no hierarchy/controller: the trace degrades gracefully
    # (no stats/topology fields) but stays byte-identical.
    raw = _assert_traces_identical(scheme, Workload.from_mix(MIXES[0]),
                                   tmp_path)
    epoch = next(r for r in map(json.loads, raw.decode().splitlines())
                 if r["kind"] == "epoch")
    assert "stats" not in epoch and "topology" not in epoch


def test_fault_injected_trace_identical(tmp_path):
    plan = parse_fault_spec(
        "disable-slice:every=2:level=l3,flip-acfv:at=3:bits=4,seed=7")
    raw = _assert_traces_identical("morphcache", Workload.from_mix(MIXES[1]),
                                   tmp_path, fault_plan=plan)
    kinds = [json.loads(line)["kind"] for line in raw.decode().splitlines()]
    assert "fault" in kinds  # the plan actually fired, identically


def test_epoch_digests_trace_identical(tmp_path):
    # With per-epoch state digests switched on, even the full cache-state
    # hash sequence matches — this is what localises a mid-run divergence.
    raw = _assert_traces_identical("morphcache", Workload.from_mix(MIXES[0]),
                                   tmp_path, epoch_digests=True)
    epochs = [r for r in map(json.loads, raw.decode().splitlines())
              if r["kind"] == "epoch"]
    assert all("digest" in r for r in epochs)


class _Killed(Exception):
    pass


def test_checkpoint_resume_trace_is_golden_tail(tmp_path, monkeypatch):
    # A resumed run's trace must contain exactly the run header plus the
    # post-resume records: fast-forward replay is silenced (suspended), so
    # no epoch is double-recorded, and the recorded tail is byte-identical
    # to the uninterrupted run's — under either engine.
    from repro.sim import engine as engine_module

    workload = Workload.from_mix(MIXES[0])
    golden = _traced_run("morphcache", workload, "event",
                         tmp_path / "golden.jsonl")
    golden_lines = golden.read_text().splitlines()

    original = engine_module.save_checkpoint
    kill_at = 3

    def save_then_kill(p, fingerprint, next_epoch, *args, **kwargs):
        original(p, fingerprint, next_epoch, *args, **kwargs)
        if next_epoch >= kill_at:
            raise _Killed()

    for writer, resumer in (("event", "batch"), ("batch", "event")):
        ckpt = tmp_path / f"{writer}-{resumer}.ckpt"
        monkeypatch.setattr(engine_module, "save_checkpoint", save_then_kill)
        system = build_system("morphcache", CONFIG, workload, seed=SEED)
        with pytest.raises(_Killed):
            simulate(system, workload, CONFIG, seed=SEED, engine=writer,
                     checkpoint_path=ckpt, checkpoint_every=1)
        monkeypatch.setattr(engine_module, "save_checkpoint", original)

        resumed = _traced_run("morphcache", workload, resumer,
                              tmp_path / f"{writer}-{resumer}.jsonl",
                              checkpoint_path=ckpt, resume=True)
        resumed_lines = resumed.read_text().splitlines()
        expected = [golden_lines[0]] + [
            line for line in golden_lines[1:]
            if json.loads(line).get("epoch", -1) >= kill_at
            or json.loads(line)["kind"] == "run-end"]
        assert resumed_lines == expected
