"""LULESH's physics once per (config, p) per sweep: skeletons are exact.

Inside a sweep's physics scope, after the first run of a
``(LuleshConfig, p)`` key, :func:`run_lulesh` runs every later point of
that key as a timing skeleton that takes its physics from the scope.
These tests pin that a skeleton is indistinguishable from a run that
computed (profiles, drifts, results, clocks, section events, network and
macro-step counters), that it only engages where the engine's fast-path
admission rule holds, and that the stored physics is copy-safe, free of
failed runs, private to its sweep and gone when the sweep ends.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.export import profile_to_dict
from repro.core.profile import SectionProfile
from repro.errors import RankFailedError
from repro.faults import FaultPlan
from repro.harness.runner import run_lulesh_grid
from repro.harness.sweeps import LuleshGridSweep
from repro.machine.catalog import knl_node
from repro.simmpi.pmpi import Tool
from repro.workloads import lulesh_phases as ph
from repro.workloads import registry
from repro.workloads.lulesh import LuleshBenchmark, LuleshConfig, run_lulesh
from repro.workloads.physics_scope import physics_scope

from tests.simmpi.test_threadfree import _eq

#: A small KNL-style grid: p -> thread counts, at a constant element
#: count (p = 27 is where macro-step captures LULESH rounds).
GRID = {1: (1, 2, 4), 8: (1, 2, 4), 27: (1, 2)}
SIDES = {1: 6, 8: 3, 27: 2}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of one ``lulesh_phases`` kernel (a physics spy)."""
    calls = [0]
    real = ph.eval_eos

    def spy(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ph, "eval_eos", spy)
    return calls


def _point(cfg, p, t, engine, **kw):
    """One grid point as the harness runs it (plugin run + metrics)."""
    plugin = registry.get("lulesh").from_config(cfg)
    run = plugin.run(p, threads=t, machine=knl_node(),
                     seed=1000 * (p * 1000 + t), compute_jitter=0.02,
                     engine=engine, **kw)
    return run, plugin.metrics(run)["energy_drift"]


def _grid(engine, kernel_calls):
    """Run ``GRID`` in the caller's scope (if any).

    Returns ``{(p, t): (run, drift, computed)}``, ``computed`` telling
    whether the point ran the kernels.
    """
    out = {}
    for p, threads in GRID.items():
        cfg = LuleshConfig(s=SIDES[p], steps=2, return_fields=True)
        for t in threads:
            before = kernel_calls[0]
            run, drift = _point(cfg, p, t, engine)
            out[(p, t)] = (run, drift, kernel_calls[0] > before)
    return out


@pytest.mark.parametrize("engine", ["threadfree", "threads"])
def test_skeleton_grid_bit_identical(engine, kernel_calls):
    computed = _grid(engine, kernel_calls)
    with physics_scope():
        skeleton = _grid(engine, kernel_calls)
    for (p, t), (ref, ref_drift, ref_computed) in computed.items():
        run, drift, ran_kernels = skeleton[(p, t)]
        assert ref_computed
        # Only the first thread count of each p computes.
        assert ran_kernels is (t == GRID[p][0])
        assert profile_to_dict(SectionProfile.from_run(run, p=p, threads=t)) \
            == profile_to_dict(SectionProfile.from_run(ref, p=p, threads=t))
        assert drift == ref_drift
        assert _eq(run.results, ref.results)
        assert run.clocks == ref.clocks
        assert run.walltime == ref.walltime
        assert run.section_events == ref.section_events
        assert run.network == ref.network
        assert (run.rounds_captured, run.rounds_replayed, run.deopts) == (
            ref.rounds_captured, ref.rounds_replayed, ref.deopts)
        assert (run.rounds_replayed > 0) is (p == 27 and engine == "threadfree")
        assert (run.collectives_gated, run.collectives_fast,
                run.sched_steps) == (ref.collectives_gated,
                                     ref.collectives_fast, ref.sched_steps)


# -- admission: the skeleton follows the engine's fast-path rule ---------------


class _SendWatcher(Tool):
    def on_send(self, rank, dest, nbytes, tag, t):
        pass


class _EndWatcher(Tool):
    """Hooks only a lifecycle callback: the skeleton stays admitted."""

    def on_rank_end(self, rank, t):
        pass


_LATE = 1e6  # virtual seconds: a fault planned after the run has ended


@pytest.mark.parametrize("kw, computes", [
    ({"faults": FaultPlan.from_dict(
        {"faults": [{"kind": "crash", "rank": 1, "at_time": _LATE}]})}, True),
    ({"faults": FaultPlan.from_dict(
        {"faults": [{"kind": "hang", "rank": 0, "at_time": _LATE}]})}, True),
    ({"tools": (_SendWatcher(),)}, True),
    ({"faults": FaultPlan.from_dict(
        {"seed": 3, "faults": [{"kind": "straggler", "rank": 0,
                                "factor": 2.0}]})}, False),
    ({"tools": (_EndWatcher(),)}, False),
], ids=["crash", "hang", "on_send-tool", "straggler", "rank-end-tool"])
def test_skeleton_admission(kw, computes, kernel_calls):
    cfg = LuleshConfig(s=4, steps=2)
    with physics_scope():
        first = run_lulesh(cfg, 8, threads=1, machine=knl_node(), **kw)
        assert kernel_calls[0] > 0
        before = kernel_calls[0]
        again = run_lulesh(cfg, 8, threads=2, machine=knl_node(), **kw)
        assert (kernel_calls[0] > before) is computes
    assert _eq([{k: v for k, v in r.items() if k != "omp_regions"}
                for r in again.results],
               [{k: v for k, v in r.items() if k != "omp_regions"}
                for r in first.results])


# -- the stored physics ----------------------------------------------------------


class _FailAtEnd(Tool):
    """Fails the run once every rank's body has returned."""

    def __init__(self):
        self.size = None
        self.ended = 0

    def on_rank_begin(self, rank, size, t):
        self.size = size

    def on_rank_end(self, rank, t):
        self.ended += 1
        if self.ended == self.size:
            raise RuntimeError("tool failure after the physics")


def test_failed_run_leaves_no_memo_entry(kernel_calls):
    cfg = LuleshConfig(s=4, steps=1)
    with physics_scope():
        with pytest.raises(RankFailedError):
            run_lulesh(cfg, 8, machine=knl_node(), tools=(_FailAtEnd(),))
        assert kernel_calls[0] > 0
        before = kernel_calls[0]
        run_lulesh(cfg, 8, machine=knl_node())
        assert kernel_calls[0] > before  # nothing stored: this run computes
        before = kernel_calls[0]
        run_lulesh(cfg, 8, threads=2, machine=knl_node())
        assert kernel_calls[0] == before


def test_memo_hands_out_copies(kernel_calls):
    cfg = LuleshConfig(s=4, steps=2, return_fields=True)
    with physics_scope():
        first = run_lulesh(cfg, 8, machine=knl_node())
        want = [r["e_field"].copy() for r in first.results]
        first.results[0]["e_field"][...] = -1.0
        first.results[1]["energy"] = -1.0
        second = run_lulesh(cfg, 8, threads=2, machine=knl_node())
        second.results[0]["e_field"][...] = -2.0
        third = run_lulesh(cfg, 8, threads=4, machine=knl_node())
    for r, field in zip(third.results, want):
        assert np.array_equal(r["e_field"], field)
        assert r["e_field"].flags.writeable
    assert third.results[1]["energy"] == second.results[1]["energy"] > 0


def _computing_points(sweep, kernel_calls):
    """Run ``sweep`` serially; the labels of the points that computed."""
    computed = []
    seen = [kernel_calls[0]]

    def progress(line):
        if kernel_calls[0] > seen[0]:
            computed.append(line.split(":")[0])
        seen[0] = kernel_calls[0]

    run_lulesh_grid(sweep, progress, sides={1: 4, 8: 2, 27: 2, 64: 2},
                    jobs=1, cache=None)
    return computed


def test_second_grid_computes_again_once_per_p(kernel_calls):
    sweep = LuleshGridSweep(config=LuleshConfig(s=4, steps=1),
                            machine=knl_node(),
                            grid={1: (1, 2), 8: (1, 2), 27: (1, 2),
                                  64: (1, 2)})
    want = [f"lulesh p={p} t=1 rep=0" for p in (1, 8, 27, 64)]
    # Each grid is one sweep: the second finds nothing of the first's.
    assert _computing_points(sweep, kernel_calls) == want
    assert _computing_points(sweep, kernel_calls) == want


def test_scope_holds_only_the_latest_key(kernel_calls):
    cfg = LuleshConfig(s=2, steps=1)

    def computes(p, t):
        before = kernel_calls[0]
        run_lulesh(cfg, p, threads=t, machine=knl_node())
        return kernel_calls[0] > before

    with physics_scope():
        assert [computes(1, 1), computes(1, 2)] == [True, False]
        assert [computes(8, 1), computes(8, 2)] == [True, False]
        # p=8 replaced p=1: going back computes again.
        assert [computes(1, 4), computes(1, 8)] == [True, False]


def test_direct_run_computes(kernel_calls):
    cfg = LuleshConfig(s=4, steps=1)
    for t in (1, 2):
        before = kernel_calls[0]
        run_lulesh(cfg, 8, threads=t, machine=knl_node())
        assert kernel_calls[0] > before


def test_two_sweeps_on_two_threads_share_no_entry(kernel_calls):
    """Thread A stores p=8, thread B then runs p=8 and p=1 in its own
    scope; B computes both, and A's entry is still p=8."""
    cfg = LuleshConfig(s=2, steps=1)
    a_stored, b_done = threading.Event(), threading.Event()
    got = {}

    def computes(p, t):
        before = kernel_calls[0]
        run_lulesh(cfg, p, threads=t, machine=knl_node())
        return kernel_calls[0] > before

    def sweep_a():
        with physics_scope():
            got["a1"] = computes(8, 1)
            a_stored.set()
            b_done.wait(timeout=60)
            got["a2"] = computes(8, 2)

    def sweep_b():
        a_stored.wait(timeout=60)
        try:
            with physics_scope():
                got["b"] = [computes(8, 1), computes(8, 2), computes(1, 1)]
        finally:
            b_done.set()

    threads = [threading.Thread(target=sweep_a),
               threading.Thread(target=sweep_b)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    assert got == {"a1": True, "b": [True, False, True], "a2": False}


def test_benchmark_run_goes_through_the_driver(kernel_calls):
    cfg = LuleshConfig(s=4, steps=2)
    with physics_scope():
        run, phys = LuleshBenchmark(cfg).run(8, nthreads=2,
                                             machine=knl_node())
        assert kernel_calls[0] > 0
        before = kernel_calls[0]
        plugin_run = registry.get("lulesh").from_config(cfg).run(
            8, threads=4, machine=knl_node())
        assert kernel_calls[0] == before
    assert LuleshBenchmark(cfg).collect(plugin_run) == phys
