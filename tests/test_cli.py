"""CLI entry point."""

import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXIT_USAGE, build_parser, main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig5a" in out and "fig10" in out and "table7" in out


def test_unknown_experiment_rejected(capsys):
    assert main(["figX"]) == 1
    assert "unknown" in capsys.readouterr().err


def test_table7_quiet(capsys):
    assert main(["table7", "--quiet"]) == 0
    assert "table7: PASS" in capsys.readouterr().out


def test_table7_writes_artifact(tmp_path, capsys):
    assert main(["table7", "--out", str(tmp_path)]) == 0
    artifact = tmp_path / "table7.txt"
    assert artifact.exists()
    assert "lulesh_s" in artifact.read_text()


def test_parser_defaults():
    args = build_parser().parse_args(["fig5a"])
    assert args.reps == 2 and args.out is None and not args.quiet


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "list"],
        capture_output=True, text=True, timeout=120,
        cwd=str(pathlib.Path(__file__).resolve().parents[1]),
    )
    assert proc.returncode == 0
    assert "fig9" in proc.stdout


@pytest.mark.slow
def test_fig9_small_run(capsys):
    """A reduced Lulesh grid through the CLI end to end."""
    assert main(["fig9", "--steps", "3", "--reps", "2", "--quiet"]) == 0
    assert "fig9: PASS" in capsys.readouterr().out


def test_baseline_save_and_compare(tmp_path, capsys):
    assert main(["table7", "--quiet", "--save-baseline", str(tmp_path)]) == 0
    assert (tmp_path / "table7.baseline.json").exists()
    assert main(["table7", "--quiet", "--baseline", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline OK" in out


def test_baseline_missing_fails(tmp_path, capsys):
    assert main(["table7", "--quiet", "--baseline", str(tmp_path)]) == 1
    assert "no baseline" in capsys.readouterr().err


def test_parser_jobs_and_cache_defaults():
    args = build_parser().parse_args(["fig5a"])
    assert args.jobs is None and args.cache is False
    args = build_parser().parse_args(["fig5a", "--jobs", "4", "--cache"])
    assert args.jobs == 4 and args.cache


def test_cache_stats_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out and "entries:       0" in out


def test_cache_clear_subcommand(tmp_path, capsys):
    from repro.harness.cache import RunCache, run_key

    cache = RunCache(root=tmp_path)
    cache.put(run_key(p=1, seed=0), {"x": 1})
    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 1 entries" in capsys.readouterr().out
    assert cache.stats()["entries"] == 0


def test_cache_subcommand_rejects_unknown_action():
    with pytest.raises(SystemExit):
        main(["cache", "shrink"])


# -- robustness flags --------------------------------------------------------


def test_parser_robustness_defaults():
    args = build_parser().parse_args(["fig5a"])
    assert args.faults is None and args.on_error == "raise"
    assert args.retries == 0 and args.timeout is None


def test_unreadable_fault_plan_is_usage_error(tmp_path, capsys):
    assert main(["table7", "--faults", str(tmp_path / "nope.json")]) == 1
    assert "cannot read fault plan" in capsys.readouterr().err


def test_malformed_fault_plan_is_usage_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"faults": [{"kind": "meteor"}]}')
    assert main(["table7", "--faults", str(plan)]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_invalid_retries_and_timeout_are_usage_errors(capsys):
    assert main(["table7", "--retries", "-1"]) == 1
    assert "--retries" in capsys.readouterr().err
    assert main(["table7", "--timeout", "0"]) == 1
    assert "--timeout" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["fig5a", "--reps", "0", "--steps", "2"], "--reps"),
    (["fig5a", "--steps", "0"], "--steps"),
    (["fig9", "--steps", "0"], "--steps"),
], ids=["fig5a-reps-0", "fig5a-steps-0", "fig9-steps-0"])
def test_counts_below_one_are_usage_errors(argv, flag, monkeypatch, capsys):
    """Rejected before any sweep point runs, not by a traceback (or, for
    the LULESH grid, a silent run of the default step count)."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr("repro.cli.run_convolution_sweep", no_sweep)
    monkeypatch.setattr("repro.cli.run_lulesh_grid", no_sweep)
    assert main(argv + ["--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {flag} must be >= 1" in err


def test_skipped_sweep_points_exit_nonzero(monkeypatch, tmp_path, capsys):
    """A crashing point under --on-error skip completes the sweep, is
    reported exactly once, and turns the exit code nonzero."""
    from repro.faults import FaultPlan, RankCrash
    from repro.harness.sweeps import ConvolutionSweep
    from repro.machine.catalog import nehalem_cluster
    from repro.workloads.convolution import ConvolutionConfig

    tiny = ConvolutionSweep(
        config=ConvolutionConfig.tiny(steps=3),
        machine=nehalem_cluster(nodes=1),
        process_counts=(1, 2, 4),
        reps=1,
    )
    monkeypatch.setattr("repro.cli.default_convolution_sweep", lambda: tiny)
    plan = tmp_path / "plan.json"
    plan.write_text(FaultPlan((RankCrash(rank=3),)).to_json())

    rc = main(["fig5a", "--quiet", "--reps", "1",
               "--faults", str(plan), "--on-error", "skip"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1 failed point(s)" in err
    assert "convolution p=4 rep=0" in err


def test_fault_plan_flows_into_the_sweep(monkeypatch, capsys, tmp_path):
    """--faults without failures still runs clean and exits 0."""
    from repro.faults import FaultPlan, StragglerRank
    from repro.harness.sweeps import ConvolutionSweep
    from repro.machine.catalog import nehalem_cluster
    from repro.workloads.convolution import ConvolutionConfig

    tiny = ConvolutionSweep(
        config=ConvolutionConfig.tiny(steps=3),
        machine=nehalem_cluster(nodes=1),
        process_counts=(1, 2, 4),
        reps=1,
    )
    monkeypatch.setattr("repro.cli.default_convolution_sweep", lambda: tiny)
    plan = tmp_path / "plan.json"
    plan.write_text(
        FaultPlan((StragglerRank(rank=0, factor=2.0),)).to_json()
    )
    rc = main(["fig5a", "--quiet", "--reps", "1", "--faults", str(plan),
               "--on-error", "skip", "--timeout", "60"])
    out = capsys.readouterr().out
    assert "fig5a:" in out
    assert rc in (0, 2)  # no usage error; pass/fail depends on the check


# -- service subcommands (serve / submit / status) ---------------------------


def test_serve_rejects_bad_workers(capsys):
    assert main(["serve", "--workers", "0"]) == 1
    assert "--workers" in capsys.readouterr().err


def test_submit_unreadable_spec_is_usage_error(tmp_path, capsys):
    assert main(["submit", str(tmp_path / "missing.json")]) == 1
    assert "cannot read spec" in capsys.readouterr().err


def test_submit_unreachable_server_is_usage_error(tmp_path, capsys):
    from tests.service.conftest import tiny_conv_spec

    spec = tmp_path / "job.json"
    spec.write_text(__import__("json").dumps(tiny_conv_spec()))
    rc = main(["submit", str(spec), "--url", "http://127.0.0.1:9"])
    assert rc == 1
    assert "cannot reach" in capsys.readouterr().err


def test_status_unreachable_server_is_usage_error(capsys):
    assert main(["status", "--url", "http://127.0.0.1:9"]) == 1
    assert "cannot reach" in capsys.readouterr().err


def test_submit_and_status_against_live_server(tmp_path, capsys):
    """The thin clients drive a real server end to end."""
    import json

    from repro.service.api import ServiceApp
    from repro.service.server import ServiceServer

    from tests.service.conftest import tiny_conv_spec

    server = ServiceServer(ServiceApp(cache_dir=tmp_path / "cache", workers=1))
    server.start()
    try:
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(tiny_conv_spec()))
        rc = main(["submit", str(spec), "--url", server.url, "--wait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "done" in out
        assert "convolution p=" in out  # streamed progress lines
        job_id = out.split()[1].rstrip(":")

        assert main(["status", job_id, "--url", server.url]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "done"

        # a bare `status` lists jobs; a resubmit is a registry hit
        assert main(["status", "--url", server.url]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert any(j["job_id"] == job_id for j in listing["stored"])
        assert main(["submit", str(spec), "--url", server.url]) == 0
        assert "served from registry" in capsys.readouterr().out

        # unknown job id is a usage error
        assert main(["status", "0" * 64, "--url", server.url]) == 1
    finally:
        server.stop()


# -- workload / scenario subcommands -----------------------------------------


def test_workloads_list_names_the_whole_zoo(capsys):
    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("convolution", "lulesh", "lbm", "halo2d", "taskfarm",
                 "ringpipe", "bucketsort", "sparsegraph"):
        assert name in out


def test_workloads_list_domain_filter_and_json(capsys):
    import json

    assert main(["workloads", "list", "--domain", "zoo", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {
        "halo2d", "taskfarm", "ringpipe", "bucketsort", "sparsegraph"}
    assert all(r["domain"] == "zoo" for r in rows)


def _scenario_doc(**overrides):
    doc = {
        "workload": "ringpipe",
        "params": {"rounds": 1, "blocklen": 16},
        "machine": {"name": "laptop", "cores": 4},
        "process_counts": [1, 2],
        "base_seed": 11,
    }
    doc.update(overrides)
    return doc


def test_scenarios_validate_good_spec_exits_zero(tmp_path, capsys):
    import json

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_scenario_doc()))
    assert main(["scenarios", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "ringpipe" in out and "content_key" in out


def test_scenarios_validate_bad_spec_exits_one(tmp_path, capsys):
    import json

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_scenario_doc()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_doc(proces_counts=[1])))
    assert main(["scenarios", "validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err
    # one bad spec poisons the whole batch
    assert main(["scenarios", "validate", str(good), str(bad)]) == 1


def test_scenarios_validate_missing_file_exits_one(tmp_path, capsys):
    assert main(["scenarios", "validate", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_scenario_end_to_end(tmp_path, capsys):
    import json

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_scenario_doc()))
    out_file = tmp_path / "result.json"
    rc = main(["run", "--scenario", str(path), "--out", str(out_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario ringpipe" in out
    payload = json.loads(out_file.read_text())
    assert payload["kind"] == "scenario"
    assert payload["summary"]["scales"] == [1, 2]


def test_run_scenario_bad_spec_is_usage_error(tmp_path, capsys):
    import json

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_scenario_doc(workload="nope")))
    assert main(["run", "--scenario", str(path)]) == 1
    assert "unknown workload" in capsys.readouterr().err


def test_run_scenario_crash_fault_exits_run_failure(tmp_path, capsys):
    import json

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_scenario_doc(
        process_counts=[2],
        faults={"seed": 1, "faults": [
            {"kind": "crash", "rank": 0, "at_time": 0.0}]})))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "RankFailedError" in capsys.readouterr().err


def test_submit_failed_job_exits_run_failure(tmp_path, capsys, monkeypatch):
    import json

    import repro.service.scheduler as scheduler_mod
    from repro.service.api import ServiceApp
    from repro.service.server import ServiceServer

    from tests.service.conftest import tiny_conv_spec

    def boom(spec, **kwargs):
        raise RuntimeError("simulated worker failure")

    monkeypatch.setattr(scheduler_mod, "execute_job", boom)
    server = ServiceServer(ServiceApp(cache_dir=tmp_path / "cache", workers=1))
    server.start()
    try:
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(tiny_conv_spec()))
        rc = main(["submit", str(spec), "--url", server.url, "--wait"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "failed" in captured.out
        assert "RuntimeError" in captured.err
    finally:
        server.stop()
