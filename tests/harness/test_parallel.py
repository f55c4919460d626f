"""Parallel sweep execution: worker-count resolution, ordered
streaming, and bit-identical serial/parallel results."""

import os

import pytest

from repro.core.export import profile_to_json, scaling_to_json
from repro.errors import ReproError
from repro.harness.parallel import JOBS_ENV, map_points_failsoft, resolve_jobs
from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.machine.catalog import knl_node, nehalem_cluster
from repro.workloads.convolution import ConvolutionConfig
from repro.workloads.lulesh import LuleshConfig


def _tiny_conv_sweep(**overrides):
    kwargs = dict(
        config=ConvolutionConfig.tiny(steps=3),
        machine=nehalem_cluster(nodes=1),
        process_counts=(1, 2, 4),
        reps=2,
    )
    kwargs.update(overrides)
    return ConvolutionSweep(**kwargs)


# -- resolve_jobs -----------------------------------------------------------


def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(None) == 1


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1


def test_resolve_jobs_env_var(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs() == 5
    # An explicit argument overrides the environment.
    assert resolve_jobs(2) == 2


def test_resolve_jobs_zero_means_all_cores(monkeypatch):
    """The automatic default never oversubscribes: it is exactly the
    host's core count, not a multiple of it."""
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    monkeypatch.setenv(JOBS_ENV, "0")
    assert resolve_jobs() == (os.cpu_count() or 1)


def test_resolve_jobs_warns_on_explicit_oversubscription(monkeypatch, capsys):
    """An explicit count beyond the host's cores is honoured (workers
    may block on I/O) but flagged on stderr, so a 0.57×-style
    "speedup" from contention is never silent again."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert resolve_jobs(16) == 16
    assert "oversubscribes" in capsys.readouterr().err
    monkeypatch.setenv(JOBS_ENV, "16")
    assert resolve_jobs() == 16
    assert "oversubscribes" in capsys.readouterr().err


def test_resolve_jobs_no_warning_within_core_count(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert resolve_jobs(4) == 4
    assert capsys.readouterr().err == ""


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    with pytest.raises(ReproError):
        resolve_jobs()


# -- map_points_failsoft: ordering -----------------------------------------


def _square(x):  # module-level: picklable for worker processes
    return x * x


def _values(outcomes):
    outcomes = list(outcomes)
    assert all(o.ok for o in outcomes)
    return [o.value for o in outcomes]


def test_map_points_serial_order():
    assert _values(map_points_failsoft(_square, [3, 1, 2], jobs=1)) == [9, 1, 4]


def test_map_points_parallel_preserves_submission_order():
    xs = list(range(12))
    assert _values(map_points_failsoft(_square, xs, jobs=2)) == [x * x for x in xs]


def test_map_points_single_task_stays_inline():
    assert _values(map_points_failsoft(_square, [7], jobs=8)) == [49]


# -- runner integration -----------------------------------------------------


def test_convolution_parallel_bit_identical_to_serial():
    sweep = _tiny_conv_sweep()
    serial = run_convolution_sweep(sweep, jobs=1)
    parallel = run_convolution_sweep(sweep, jobs=2)
    assert scaling_to_json(parallel) == scaling_to_json(serial)


def test_convolution_parallel_progress_lines_match_serial():
    sweep = _tiny_conv_sweep()
    serial_lines, parallel_lines = [], []
    run_convolution_sweep(sweep, progress=serial_lines.append, jobs=1)
    run_convolution_sweep(sweep, progress=parallel_lines.append, jobs=2)
    assert parallel_lines == serial_lines
    # Canonical order: scales ascending, reps within each scale.
    assert [l.split()[1] for l in serial_lines] == [
        "p=1", "p=1", "p=2", "p=2", "p=4", "p=4"
    ]


def test_convolution_jobs_env_var_used(monkeypatch):
    sweep = _tiny_conv_sweep(process_counts=(1, 2), reps=1)
    serial = run_convolution_sweep(sweep, jobs=1)
    monkeypatch.setenv(JOBS_ENV, "2")
    enved = run_convolution_sweep(sweep)  # jobs=None → env
    assert scaling_to_json(enved) == scaling_to_json(serial)


def test_lulesh_parallel_bit_identical_to_serial():
    sweep = LuleshGridSweep(
        config=LuleshConfig(s=4, steps=2),
        machine=knl_node(jitter=0.0),
        grid={1: (1, 2), 8: (1,)},
        reps=1,
    )
    a_serial, d_serial = run_lulesh_grid(sweep, jobs=1)
    a_par, d_par = run_lulesh_grid(sweep, jobs=2)
    assert d_par == d_serial
    for p in a_serial.process_counts():
        for t in a_serial.thread_counts(p):
            for rs, rp in zip(a_serial.runs(p, t), a_par.runs(p, t)):
                assert profile_to_json(rp) == profile_to_json(rs)


def test_lulesh_parallel_progress_lines_match_serial():
    sweep = LuleshGridSweep(
        config=LuleshConfig(s=4, steps=2),
        machine=knl_node(jitter=0.0),
        grid={1: (1, 2)},
        reps=2,
    )
    serial_lines, parallel_lines = [], []
    run_lulesh_grid(sweep, progress=serial_lines.append, jobs=1)
    run_lulesh_grid(sweep, progress=parallel_lines.append, jobs=2)
    assert parallel_lines == serial_lines
