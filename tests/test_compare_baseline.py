"""Unit tests for the bench-baseline comparator, focused on ``--gate``.

The gate is what turns the bench-smoke CI job from advisory into a
ratchet: the batch engine's merged/shared speedups must stay within the
threshold of the committed ``BENCH_batch.json``.  These tests pin the exit
codes — a gate that stops failing (or a warning that starts failing) is a
CI-semantics regression the benchmark suite itself cannot catch.
"""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_baseline",
    pathlib.Path(__file__).parent.parent / "benchmarks"
    / "compare_baseline.py")
compare_baseline = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_baseline)


BASELINE = {
    "config": "SMALL",
    "speedup": {"merged": 2.4, "shared": 2.5},
    "scaled64": {"speedup": {"merged64": 2.2}},
    "event": {"merged": 90000.0},
}


def _write(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


def _run(tmp_path, fresh, *extra):
    base = _write(tmp_path, "baseline.json", BASELINE)
    got = _write(tmp_path, "fresh.json", fresh)
    return compare_baseline.main(["compare_baseline", str(base), str(got),
                                  *extra])


def test_within_threshold_exits_zero(tmp_path):
    assert _run(tmp_path, BASELINE,
                "--gate", "speedup.merged", "--gate", "speedup.shared") == 0


def test_ungated_regression_warns_but_exits_zero(tmp_path, capsys):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["event"]["merged"] = 1000.0  # -99%: noisy-runner territory
    assert _run(tmp_path, fresh, "--gate", "speedup.merged") == 0
    assert "::warning" in capsys.readouterr().out


def test_gated_regression_fails(tmp_path, capsys):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["speedup"]["merged"] = 1.0  # >20% below 2.4
    assert _run(tmp_path, fresh, "--gate", "speedup.merged") == 1
    assert "::error" in capsys.readouterr().out


def test_gate_tolerates_drop_within_threshold(tmp_path):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["speedup"]["merged"] = 2.0  # -17% < 20% threshold
    assert _run(tmp_path, fresh, "--gate", "speedup.merged") == 0


def test_gated_leaf_missing_from_fresh_fails(tmp_path, capsys):
    fresh = json.loads(json.dumps(BASELINE))
    del fresh["speedup"]["shared"]  # e.g. a renamed topology key
    assert _run(tmp_path, fresh, "--gate", "speedup.shared") == 1
    assert "missing from fresh" in capsys.readouterr().out


def test_gated_leaf_missing_from_baseline_fails(tmp_path, capsys):
    assert _run(tmp_path, BASELINE, "--gate", "speedup.typo") == 1
    assert "not in committed baseline" in capsys.readouterr().out


def test_nested_gate_path_works(tmp_path):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["scaled64"]["speedup"]["merged64"] = 1.0
    assert _run(tmp_path, fresh, "--gate", "scaled64.speedup.merged64") == 1


def test_missing_baseline_file_skips_even_with_gates(tmp_path):
    # First run on a branch that never committed a baseline: nothing to
    # ratchet against, so the gate cannot fire.
    got = _write(tmp_path, "fresh.json", BASELINE)
    assert compare_baseline.main(
        ["compare_baseline", str(tmp_path / "absent.json"), str(got),
         "--gate", "speedup.merged"]) == 0


def test_nested_metadata_leaf_is_not_a_throughput(tmp_path, capsys):
    # ``scaled64.passes`` describes the measurement like a top-level
    # ``passes``; lowering it is not a regression.
    base = json.loads(json.dumps(BASELINE))
    base["scaled64"]["passes"] = 2
    fresh = json.loads(json.dumps(base))
    fresh["scaled64"]["passes"] = 1
    base_path = _write(tmp_path, "baseline.json", base)
    fresh_path = _write(tmp_path, "fresh.json", fresh)
    assert compare_baseline.main(
        ["compare_baseline", str(base_path), str(fresh_path)]) == 0
    assert "::warning" not in capsys.readouterr().out
    assert compare_baseline.compare(base, fresh, "BENCH_batch") == []
