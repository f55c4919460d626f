"""Job-spec parsing, content addressing, and direct execution."""

from __future__ import annotations

import pytest

from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.service.jobs import (
    JobSpecError,
    build_sweep,
    execute_job,
    parse_job_spec,
)

from tests.service.conftest import tiny_conv_spec, tiny_lulesh_spec


def test_parse_convolution_spec_builds_sweep():
    spec = parse_job_spec(tiny_conv_spec())
    sweep = build_sweep(spec)
    assert isinstance(sweep, ConvolutionSweep)
    assert sweep.process_counts == (1, 2, 4)
    assert sweep.reps == 1
    assert sweep.base_seed == 100


def test_parse_lulesh_spec_builds_sweep():
    spec = parse_job_spec(tiny_lulesh_spec())
    sweep, sides = build_sweep(spec)
    assert isinstance(sweep, LuleshGridSweep)
    assert sorted(sweep.grid) == [1, 8]
    assert sides == {1: 6, 8: 3}


@pytest.mark.parametrize("mutant", [
    {"kind": "nope"},
    {"process_counts": []},
    {"process_counts": [2, 4]},          # p=1 missing → harness rejects
    {"reps": 0},
    {"on_error": "explode"},
    {"retries": -1},
    {"machine": {"name": "cray"}},
    {"workload": {"height": 64}},        # width/steps missing
    {"client": ""},
    {"wall_timeout": -1.0},
    {"engine": "fibers"},
    {"engine": 7},
    {"faults": {"faults": [{"kind": "warp", "rank": 0}]}},
])
def test_bad_convolution_specs_rejected(mutant):
    with pytest.raises(JobSpecError):
        parse_job_spec(tiny_conv_spec(**mutant))


@pytest.mark.parametrize("make, machine", [
    (tiny_lulesh_spec, {"name": "knl", "nodes": 4}),
    (tiny_conv_spec, {"name": "laptop", "jitter": 0.5}),
])
def test_machine_options_the_machine_does_not_take_are_rejected(make, machine):
    """Job machine blocks are validated like scenario machine blocks:
    an option the named machine does not take is an error, not a
    silently ignored field that still changes the content key."""
    with pytest.raises(JobSpecError, match="invalid machine block"):
        parse_job_spec(make(machine=machine))


def test_nehalem_machine_keeps_the_24_node_default():
    spec = parse_job_spec(tiny_conv_spec(machine={"name": "nehalem"}))
    assert build_sweep(spec).machine.nodes == 24


def test_bad_lulesh_grid_rejected():
    with pytest.raises(JobSpecError):
        parse_job_spec(tiny_lulesh_spec(grid={"3": [1]}))  # not a cube


@pytest.mark.parametrize("mutant", [
    {"grid": {"x": [1]}},
    {"grid": {"1": [1, 2], "eight": [1]}},
    {"sides": {"1": 6, "x": 3}},
])
def test_non_integer_lulesh_keys_rejected(mutant):
    """A grid or sides key that is not an integer is a spec error, not
    a bare ValueError from parsing the key."""
    with pytest.raises(JobSpecError, match="key must be an integer"):
        parse_job_spec(tiny_lulesh_spec(**mutant))


def test_non_object_spec_rejected():
    with pytest.raises(JobSpecError):
        parse_job_spec(["kind", "convolution"])


def test_key_is_stable_and_policy_free():
    """The content key hashes the work, not the submitter or policy."""
    a = parse_job_spec(tiny_conv_spec())
    b = parse_job_spec(tiny_conv_spec(client="someone-else", retries=3,
                                      on_error="skip", jobs=2,
                                      engine="threads"))
    assert a.key == b.key
    assert len(a.key) == 64


def test_engine_choice_reaches_the_sweep_but_not_the_key():
    """Both engines give bit-identical results, so the engine is pure
    execution policy: plumbed into the sweep, excluded from the key."""
    spec = parse_job_spec(tiny_conv_spec(engine="threads"))
    assert build_sweep(spec).engine == "threads"
    assert spec.key == parse_job_spec(tiny_conv_spec()).key
    lspec = parse_job_spec(tiny_lulesh_spec(engine="threadfree"))
    lsweep, _ = build_sweep(lspec)
    assert lsweep.engine == "threadfree"
    assert parse_job_spec(tiny_conv_spec()).to_dict()["engine"] is None


def test_key_changes_with_work():
    a = parse_job_spec(tiny_conv_spec())
    b = parse_job_spec(tiny_conv_spec(base_seed=101))
    c = parse_job_spec(tiny_conv_spec(
        faults={"seed": 1, "faults": [
            {"kind": "straggler", "rank": 0, "factor": 2.0}
        ]},
    ))
    assert len({a.key, b.key, c.key}) == 3


def test_process_count_order_is_canonical():
    a = parse_job_spec(tiny_conv_spec(process_counts=[4, 1, 2]))
    b = parse_job_spec(tiny_conv_spec(process_counts=[1, 2, 4]))
    assert a.key == b.key


def test_execute_convolution_matches_direct_run():
    """The service executor is the harness, not a reimplementation."""
    from repro.core.export import scaling_to_json
    from repro.harness.runner import run_convolution_sweep

    spec = parse_job_spec(tiny_conv_spec())
    payload = execute_job(spec)
    direct = run_convolution_sweep(build_sweep(spec))
    assert payload["profile_json"] == scaling_to_json(direct)
    assert payload["failures"] == []
    assert payload["summary"]["speedup"]["1"] == 1.0


def test_execute_lulesh_matches_direct_run():
    import json

    from repro.harness.runner import run_lulesh_grid
    from repro.service.jobs import hybrid_to_points

    spec = parse_job_spec(tiny_lulesh_spec())
    payload = execute_job(spec)
    sweep, sides = build_sweep(spec)
    analysis, drifts = run_lulesh_grid(sweep, sides=sides)
    assert json.dumps(payload["points"]) == json.dumps(hybrid_to_points(analysis))
    assert payload["drifts"] == {
        f"{p},{t}": d for (p, t), d in sorted(drifts.items())
    }


def test_execute_with_progress_lines():
    lines = []
    spec = parse_job_spec(tiny_conv_spec())
    execute_job(spec, progress=lines.append)
    assert len(lines) == 3  # one per (p, rep) point
    assert all(line.startswith("convolution p=") for line in lines)
