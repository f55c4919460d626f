"""Fail-soft sweeps: skipped points, retries, worker death, reporting."""

import os

import pytest

from repro.core.export import scaling_to_json
from repro.errors import RankFailedError
from repro.faults import FaultPlan, RankCrash
from repro.harness.cache import RunCache
from repro.harness.failures import (
    PointFailure,
    SweepFailureReport,
    SweepPointError,
)
from repro.harness.parallel import map_points_failsoft
from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
from repro.harness.scenario import run_scenario
from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.machine.catalog import knl_node, nehalem_cluster
from repro.scenarios import ScenarioSpec
from repro.workloads.convolution import ConvolutionConfig
from repro.workloads.lulesh import LuleshConfig

CRASH_P4 = FaultPlan((RankCrash(rank=3, at_time=0.0),))


def _sweep(**overrides):
    kwargs = dict(
        config=ConvolutionConfig.tiny(steps=3),
        machine=nehalem_cluster(nodes=1),
        process_counts=(1, 2, 4),
        reps=1,
    )
    kwargs.update(overrides)
    return ConvolutionSweep(**kwargs)


# Each entry point on a three-point sweep whose last point crashes (the
# crashed rank is out of range at the two smaller scales), returning the
# failure report; parametrised with the label of the crashed point.
def _conv_crash(**kw):
    return run_convolution_sweep(_sweep(faults=CRASH_P4), **kw).failures


def _lulesh_crash_sweep():
    return LuleshGridSweep(
        config=LuleshConfig(s=4, steps=2),
        machine=knl_node(jitter=0.0),
        grid={1: (1, 2), 8: (1,)},
        reps=1,
        faults=FaultPlan((RankCrash(rank=1, at_time=0.0),)),
    )


def _lulesh_crash(**kw):
    return run_lulesh_grid(_lulesh_crash_sweep(), **kw)[0].failures


def _scenario_crash(**kw):
    spec = ScenarioSpec.from_dict({
        "workload": "taskfarm",
        "params": {"ntasks": 24, "task_flops": 1e5},
        "machine": {"name": "laptop", "cores": 4},
        "process_counts": [1, 2, 4],
        "reps": 1,
        "base_seed": 7,
        "faults": {"seed": 1,
                   "faults": [{"kind": "crash", "rank": 3, "at_time": 0.0}]},
    })
    return run_scenario(spec, **kw)[0].failures


CRASHING_SWEEPS = pytest.mark.parametrize("run, crashed", [
    (_conv_crash, "convolution p=4 rep=0"),
    (_lulesh_crash, "lulesh p=8 t=1 rep=0"),
    (_scenario_crash, "taskfarm p=4 rep=0"),
], ids=["convolution", "lulesh", "scenario"])


# -- map_points_failsoft -----------------------------------------------------


def _square(x):
    return x * x


def _explode_on_two(x):
    if x == 2:
        raise ValueError(f"bad point {x}")
    return x * x


def _die_on_two(x):
    if x == 2:
        os._exit(13)  # simulated segfault: the worker process vanishes
    return x * x


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_points_become_outcomes(jobs):
    outs = list(map_points_failsoft(_explode_on_two, [1, 2, 3], jobs))
    assert [o.ok for o in outs] == [True, False, True]
    assert [o.value for o in outs if o.ok] == [1, 9]
    bad = outs[1]
    assert bad.error_type == "ValueError"
    assert "bad point 2" in bad.message
    assert isinstance(bad.error, ValueError)
    assert "ValueError" in bad.traceback
    assert not bad.worker_died


def test_worker_death_attributed_to_the_dying_point():
    outs = list(map_points_failsoft(_die_on_two, [1, 2, 3], jobs=2))
    assert [o.ok for o in outs] == [True, False, True]
    assert outs[1].worker_died
    assert outs[1].error_type == "WorkerCrash"
    assert [o.value for o in outs if o.ok] == [1, 9]


_FLAKY_DIR_KEY = "flaky_dir"


def _fail_once(task):
    """Fails on its first invocation per marker directory, then succeeds."""
    marker = os.path.join(task[_FLAKY_DIR_KEY], "tried")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient")
    return "recovered"


def test_retries_recover_transient_failures(tmp_path):
    task = {_FLAKY_DIR_KEY: str(tmp_path)}
    (out,) = map_points_failsoft(_fail_once, [task], jobs=1, retries=1)
    assert out.ok and out.value == "recovered"
    assert out.attempts == 2


def test_retries_exhausted_reports_attempts(tmp_path):
    def always(task):
        raise RuntimeError("permanent")

    (out,) = map_points_failsoft(always, [0], jobs=1, retries=2)
    assert not out.ok
    assert out.attempts == 3


def test_invalid_retry_parameters_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        list(map_points_failsoft(_square, [1], jobs=1, retries=-1))
    with pytest.raises(ReproError):
        list(map_points_failsoft(_square, [1], jobs=1, retry_backoff=-0.5))


# -- failure report ----------------------------------------------------------


def test_failure_report_summary_table():
    report = SweepFailureReport()
    assert not report and len(report) == 0
    assert report.summary() == "no failed points"
    report.add(PointFailure("convolution p=4 rep=0", "ValueError", "boom"))
    report.add(PointFailure("convolution p=8 rep=1", "WorkerCrash",
                            "worker process died", worker_died=True))
    assert report and len(report) == 2
    text = report.summary()
    assert "2 failed point(s)" in text
    assert "convolution p=4 rep=0" in text
    assert "worker died" in text


# -- convolution sweep -------------------------------------------------------


def test_skip_mode_completes_and_reports_the_crashed_point():
    sweep = _sweep(faults=CRASH_P4)
    profile = run_convolution_sweep(sweep, on_error="skip")
    # p=1 and p=2 survive (the rank-3 crash is out of range there).
    assert profile.scales() == [1, 2]
    assert len(profile.failures) == 1
    failure = profile.failures.failures[0]
    assert failure.label == "convolution p=4 rep=0"
    assert failure.error_type == "RankFailedError"


@CRASHING_SWEEPS
def test_skip_mode_never_caches_failed_points(tmp_path, run, crashed):
    cache = RunCache(root=tmp_path)
    run(on_error="skip", cache=cache)
    assert cache.stores == 2  # the two survivors only; the crash is absent
    # A warm re-run replays the successes and re-attempts only the crash.
    failures = run(on_error="skip", cache=cache)
    assert cache.hits == 2 and cache.stores == 2
    assert [f.label for f in failures] == [crashed]


def test_raise_mode_reraises_the_original_error():
    with pytest.raises(RankFailedError):
        run_convolution_sweep(_sweep(faults=CRASH_P4), on_error="raise")


def test_skip_results_identical_serial_and_parallel():
    serial = run_convolution_sweep(_sweep(faults=CRASH_P4), on_error="skip")
    parallel = run_convolution_sweep(_sweep(faults=CRASH_P4), on_error="skip",
                                     jobs=2)
    assert scaling_to_json(parallel) == scaling_to_json(serial)
    assert len(parallel.failures) == len(serial.failures) == 1


def test_clean_sweep_has_empty_failure_report():
    profile = run_convolution_sweep(_sweep(), on_error="skip")
    assert profile.failures is not None and not profile.failures


@CRASHING_SWEEPS
def test_progress_lines_mark_failed_points(run, crashed):
    lines = []
    run(on_error="skip", progress=lines.append)
    assert len(lines) == 3
    assert lines[-1].startswith(f"{crashed}: FAILED (RankFailedError: ")
    assert not any("FAILED" in ln for ln in lines[:-1])


def test_unknown_on_error_rejected():
    with pytest.raises(ValueError):
        run_convolution_sweep(_sweep(), on_error="ignore")


# -- lulesh grid -------------------------------------------------------------


def test_lulesh_skip_mode_reports_and_continues():
    analysis, drifts = run_lulesh_grid(_lulesh_crash_sweep(), on_error="skip")
    # Only the p=8 point sees rank 1 and dies.
    assert analysis.process_counts() == [1]
    assert len(analysis.failures) == 1
    assert analysis.failures.failures[0].label == "lulesh p=8 t=1 rep=0"
    assert (8, 1) not in drifts
