"""Argument and seed plumbing, and the result line."""

import pytest

from perfbench import run, sim
from perfbench.stats import Tally


def test_arguments_parse_the_documented_command_line():
    args = run.parse_args(["--workload", "mix-morph", "--seed", "7",
                           "--seconds", "10", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == (
        "mix-morph", 7, 10.0, 1)
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope", "--seed", "1",
                        "--seconds", "1"])
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "mix-morph", "--seed", "-1",
                        "--seconds", "1"])


def test_input_seeds_follow_the_benchmark_seed():
    assert sim.derive_seeds(3, 4) == sim.derive_seeds(3, 4) == [12, 13, 14,
                                                                 15]
    for count in (2, 4):
        assert len(set(sim.derive_seeds(3, count))) == count
        assert not (set(sim.derive_seeds(3, count))
                    & set(sim.derive_seeds(4, count)))


def test_same_seed_same_outputs_other_seed_other_outputs(monkeypatch):
    monkeypatch.setattr(sim, "PRESET", "tiny")
    first = sim.summarize(*sim.simulate_once("morphcache", "MIX 01", 1, 5,
                                             "batch")[:2])
    again = sim.summarize(*sim.simulate_once("morphcache", "MIX 01", 1, 5,
                                             "batch")[:2])
    other = sim.summarize(*sim.simulate_once("morphcache", "MIX 01", 1, 6,
                                             "batch")[:2])
    reference = sim.reference_run("MIX 01", 1, "morphcache", 5)
    assert first == again == reference
    assert other != first


def test_setup_probe_reports_ready():
    times = sim.setup_seconds(run.ROOT, "mix-morph", 1)
    assert len(times) == sim.SETUP_PROBES and all(t > 0 for t in times)


def test_result_line_names_every_metric_of_the_mode():
    outcome = sim.Outcome(tally=Tally(), metrics={"setup_s": (1.5, "s")},
                          notes=[])
    outcome.tally.record(True)
    line = run.result_line(outcome, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(run.END_TO_END)
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    traced = run.result_line(outcome, trace=True)
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    assert traced["metrics"]["serve.shed"] == {"value": 0.0,
                                               "unit": "count"}


def test_refuses_to_run_without_the_simulator(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "mix-morph", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
