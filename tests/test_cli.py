"""Tests for the CLI and text rendering helpers."""

import pytest

from repro.cli import _workload_from_name, build_parser, main
from repro.render import render_series, render_topology
from repro.resilience.errors import ConfigError


class TestWorkloadParsing:
    def test_mix_names(self):
        assert _workload_from_name("MIX 03").name == "MIX 03"
        assert _workload_from_name("mix 03").name == "MIX 03"

    def test_parsec_name(self):
        workload = _workload_from_name("dedup")
        assert workload.shared_address_space

    def test_alone(self):
        workload = _workload_from_name("alone:gcc")
        assert workload.active_cores == [0]

    def test_unknown_is_typed_config_error(self):
        # The CLI and the service share Workload.from_name, so both reject
        # a bad workload with the same typed error (exit 3 / HTTP 400).
        with pytest.raises(ConfigError, match="workload"):
            _workload_from_name("quake3")


class TestCommands:
    def test_table3(self, capsys):
        assert main(["table3", "--preset", "tiny"]) == 0
        assert "superscalar" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "160.5" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MIX 12" in out
        assert "morphcache" in out

    def test_run_alone(self, capsys):
        code = main(["run", "--workload", "alone:gamess", "--preset", "tiny",
                     "--epochs", "1", "--scheme", "(16:1:1)"])
        assert code == 0
        assert "mean throughput" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_with_faults(self, capsys):
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "2",
                     "--faults", "disable-slice:every=2:level=l3,seed=3"])
        assert code == 0
        assert "fault plan" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        args = ["run", "--workload", "MIX 01", "--preset", "tiny",
                "--epochs", "2", "--checkpoint", path]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_run_with_trace_then_render(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "2", "--trace", trace])
        assert code == 0
        assert "trace written" in capsys.readouterr().out

        assert main(["trace", trace]) == 0
        timeline = capsys.readouterr().out
        assert timeline.startswith("morphcache on MIX 01")
        assert "run end:" in timeline

    def test_run_trace_is_engine_independent(self, tmp_path, capsys):
        # The CLI surface inherits the engines' byte-identical guarantee.
        paths = {}
        for engine in ("event", "batch"):
            paths[engine] = tmp_path / f"{engine}.jsonl"
            assert main(["run", "--workload", "MIX 01", "--preset", "tiny",
                         "--epochs", "2", "--engine", engine,
                         "--trace", str(paths[engine])]) == 0
        capsys.readouterr()
        assert paths["event"].read_bytes() == paths["batch"].read_bytes()

    def test_run_with_metrics_text_and_json(self, tmp_path, capsys):
        text_path = tmp_path / "metrics.prom"
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--metrics", str(text_path)])
        assert code == 0
        assert "metrics written" in capsys.readouterr().out
        text = text_path.read_text()
        assert "# TYPE repro_sim_runs_total counter" in text
        assert 'repro_sim_runs_total{engine="batch"} 1' in text
        assert "repro_batch_epochs_total" in text  # batch is the default

        json_path = tmp_path / "metrics.json"
        assert main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--metrics", str(json_path)]) == 0
        capsys.readouterr()
        import json as json_module
        dump = json_module.loads(json_path.read_text())
        assert dump["repro_sim_runs_total"]["type"] == "counter"

    def test_run_engine_event_selects_the_reference(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--engine", "event",
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert 'repro_sim_runs_total{engine="event"} 1' in text
        assert "repro_batch_epochs_total" not in text

    def test_metrics_registry_disabled_after_run(self, tmp_path, capsys):
        from repro.obs import REGISTRY
        assert main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1",
                     "--metrics", str(tmp_path / "m.prom")]) == 0
        capsys.readouterr()
        assert REGISTRY.enabled is False

    def test_compare_trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        code = main(["compare", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--trace", str(trace_dir)])
        assert code == 0
        assert "traces written" in capsys.readouterr().out
        names = sorted(p.name for p in trace_dir.iterdir())
        assert "morphcache.jsonl" in names
        assert "16-1-1.jsonl" in names  # "(16:1:1)" sanitised
        assert len(names) == 6

    def test_compare_supervised_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        args = ["compare", "--workload", "MIX 01", "--preset", "tiny",
                "--epochs", "1", "--retries", "1", "--sweep-journal", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "sweep: 6/6 runs ok" in first
        # Resuming the finished sweep reruns nothing and prints the same
        # table (modulo the sweep summary's timing line).
        assert main(args + ["--resume-sweep"]) == 0
        resumed = capsys.readouterr().out
        assert "6 resumed from journal" in resumed
        assert resumed.split("sweep:")[0] == first.split("sweep:")[0]

    def test_journal_subcommand_renders_and_jsons(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert main(["compare", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--sweep-journal", journal]) == 0
        capsys.readouterr()
        assert main(["journal", journal]) == 0
        rendered = capsys.readouterr().out
        assert "6/6" in rendered
        assert main(["journal", journal, "--json"]) == 0
        import json as _json
        payload = _json.loads(capsys.readouterr().out)
        assert payload["completed"] == list(range(6))
        assert payload["complete"] is True
        assert {"p50", "p90", "max"} <= set(payload["latency"])

    def test_journal_subcommand_missing_file_exits_6(self, tmp_path, capsys):
        code = main(["journal", str(tmp_path / "absent.jsonl")])
        assert code == 6
        assert "error:" in capsys.readouterr().err


class TestPoolCommands:
    def _admit(self, pool_dir):
        from repro.serve.jobs import JobSpec
        from repro.serve.pool import SharedPool

        pool = SharedPool.ensure(pool_dir, heartbeat=0.2, misses=3)
        return pool.admit(JobSpec.from_payload(
            {"tenant": "cli", "workload": "MIX 01",
             "schemes": ["morphcache"], "preset": "tiny", "epochs": 2,
             "seed": 5, "trace": False}))

    def test_worker_init_drains_a_job(self, tmp_path, capsys):
        pool_dir = str(tmp_path / "pool")
        self._admit(tmp_path / "pool")
        assert main(["worker", "--pool", pool_dir, "--worker-id", "cli-w",
                     "--drain"]) == 0
        assert "1 job(s) completed" in capsys.readouterr().err

    def test_worker_init_creates_an_empty_pool(self, tmp_path, capsys):
        pool_dir = str(tmp_path / "fresh")
        assert main(["worker", "--pool", pool_dir, "--init", "--drain",
                     "--heartbeat", "0.5", "--misses", "2"]) == 0
        from repro.serve.pool import SharedPool
        assert SharedPool.open(pool_dir).config.ttl == 1.0

    def test_worker_against_missing_pool_exits_10(self, tmp_path, capsys):
        code = main(["worker", "--pool", str(tmp_path / "nope"), "--drain"])
        assert code == 10
        assert "error:" in capsys.readouterr().err

    def test_pool_status_renders_and_jsons(self, tmp_path, capsys):
        pool_dir = str(tmp_path / "pool")
        job = self._admit(tmp_path / "pool")
        assert main(["worker", "--pool", pool_dir, "--worker-id", "cli-w",
                     "--drain"]) == 0
        capsys.readouterr()
        assert main(["pool", "status", pool_dir]) == 0
        rendered = capsys.readouterr().out
        assert job.id in rendered
        assert "done" in rendered and "cli-w" in rendered
        assert main(["pool", "status", pool_dir, "--json"]) == 0
        import json as _json
        payload = _json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"done": 1}
        assert payload["reclaims"] == 0
        assert payload["jobs"][0]["worker"] == "cli-w"
        assert payload["workers"][0]["jobs_done"] == 1

    def test_pool_status_of_missing_pool_exits_10(self, tmp_path, capsys):
        code = main(["pool", "status", str(tmp_path / "nope")])
        assert code == 10
        assert "error:" in capsys.readouterr().err

    def test_journal_json_surfaces_the_lease_chain(self, tmp_path, capsys):
        pool_dir = str(tmp_path / "pool")
        job = self._admit(tmp_path / "pool")
        assert main(["worker", "--pool", pool_dir, "--worker-id", "cli-w",
                     "--drain"]) == 0
        capsys.readouterr()
        assert main(["journal", str(job.job_dir / "journal.jsonl"),
                     "--json"]) == 0
        import json as _json
        payload = _json.loads(capsys.readouterr().out)
        assert payload["leases"] == ["1:cli-w"]
        assert payload["adoptions"] == 0


class TestExitCodes:
    def test_bad_fault_spec_exits_3(self, capsys):
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--faults", "not-a-kind:at=0"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_6(self, capsys):
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--resume"])
        assert code == 6

    def test_resume_from_missing_file_exits_6(self, tmp_path, capsys):
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1",
                     "--checkpoint", str(tmp_path / "absent.json"),
                     "--resume"])
        assert code == 6
        assert "no checkpoint" in capsys.readouterr().err

    def test_fault_injected_error_exits_5(self, capsys):
        spec = ",".join(f"disable-slice:at=0:level=l2:target={s}:duration=9"
                        for s in range(16))
        code = main(["run", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--faults", spec])
        assert code == 5

    def test_repro_jobs_zero_exits_config_code(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "0")
        code = main(["compare", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err

    def test_repro_jobs_malformed_exits_config_code(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        code = main(["compare", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1"])
        assert code == 3
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_resume_sweep_without_journal_exits_3(self, capsys):
        code = main(["compare", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1", "--resume-sweep"])
        assert code == 3
        assert "--sweep-journal" in capsys.readouterr().err

    def test_trace_of_missing_file_exits_3(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "absent.jsonl")])
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    def test_trace_of_malformed_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("{not json\n")
        code = main(["trace", str(path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_resume_sweep_from_missing_journal_exits_6(self, tmp_path,
                                                       capsys):
        code = main(["compare", "--workload", "MIX 01", "--preset", "tiny",
                     "--epochs", "1",
                     "--sweep-journal", str(tmp_path / "absent.jsonl"),
                     "--resume-sweep"])
        assert code == 6
        assert "no sweep journal" in capsys.readouterr().err

    def test_exit_codes_are_distinct(self):
        from repro.resilience.errors import (
            CheckpointError, ConfigError, FaultInjectedError, ReproError,
            SweepInterrupted, TopologyInvariantError, WorkerCrashError)
        codes = [cls.exit_code for cls in
                 (ReproError, ConfigError, TopologyInvariantError,
                  FaultInjectedError, CheckpointError, WorkerCrashError,
                  SweepInterrupted)]
        assert len(set(codes)) == len(codes)
        assert all(code != 0 for code in codes)


class TestRendering:
    def test_topology_brackets_groups(self):
        text = render_topology([(0, 1), (2, 3)], [(0, 1, 2, 3)], cores=4)
        assert text.count("[") == 3
        assert "L2" in text and "L3" in text

    def test_series_sparkline(self):
        text = render_series([1.0, 2.0, 3.0], label="x ")
        assert text.startswith("x ")
        assert "1.000" in text and "3.000" in text

    def test_empty_series(self):
        assert render_series([], label="y") == "y"
