"""LULESH's physics once per (config, p): timing skeletons are exact.

After the first run of a ``(LuleshConfig, p)`` key, :func:`run_lulesh`
runs every later point of that key as a timing skeleton that takes its
physics from :data:`PHYSICS_MEMO`.  These tests pin that a skeleton is
indistinguishable from a run that computed (profiles, drifts, results,
clocks, section events, network and macro-step counters), that it only
engages where the engine's fast-path admission rule holds, and that the
memo stays bounded, copy-safe and free of failed runs.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.export import profile_to_dict
from repro.core.profile import SectionProfile
from repro.errors import RankFailedError
from repro.faults import FaultPlan
from repro.machine.catalog import knl_node
from repro.simmpi.pmpi import Tool
from repro.workloads import lulesh_phases as ph
from repro.workloads import registry
from repro.workloads.lulesh import (
    PHYSICS_MEMO,
    PHYSICS_MEMO_SIZE,
    LuleshBenchmark,
    LuleshConfig,
    PhysicsMemo,
    run_lulesh,
)

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
    PHYSICS_MEMO.clear()
    yield calls
    PHYSICS_MEMO.clear()


def _point(cfg, p, t, engine, **kw):
    """One grid point as the harness runs it (plugin run + metrics)."""
    plugin = registry.get("lulesh").from_config(cfg)
    run = plugin.run(p, threads=t, machine=knl_node(),
                     seed=1000 * (p * 1000 + t), compute_jitter=0.02,
                     engine=engine, **kw)
    return run, plugin.metrics(run)["energy_drift"]


def _grid(engine, kernel_calls, *, clear_each):
    """Run ``GRID``; ``clear_each`` empties the memo before every point.

    Returns ``{(p, t): (run, drift, computed)}``, ``computed`` telling
    whether the point ran the kernels.
    """
    PHYSICS_MEMO.clear()
    out = {}
    for p, threads in GRID.items():
        cfg = LuleshConfig(s=SIDES[p], steps=2, return_fields=True)
        for t in threads:
            if clear_each:
                PHYSICS_MEMO.clear()
            before = kernel_calls[0]
            run, drift = _point(cfg, p, t, engine)
            out[(p, t)] = (run, drift, kernel_calls[0] > before)
    return out


@pytest.mark.parametrize("engine", ["threadfree", "threads"])
def test_skeleton_grid_bit_identical(engine, kernel_calls):
    computed = _grid(engine, kernel_calls, clear_each=True)
    skeleton = _grid(engine, kernel_calls, clear_each=False)
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
    first = run_lulesh(cfg, 8, threads=1, machine=knl_node(), **kw)
    assert kernel_calls[0] > 0
    before = kernel_calls[0]
    again = run_lulesh(cfg, 8, threads=2, machine=knl_node(), **kw)
    assert (kernel_calls[0] > before) is computes
    assert _eq([{k: v for k, v in r.items() if k != "omp_regions"}
                for r in again.results],
               [{k: v for k, v in r.items() if k != "omp_regions"}
                for r in first.results])


# -- the memo -------------------------------------------------------------------------


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
    with pytest.raises(RankFailedError):
        run_lulesh(cfg, 8, machine=knl_node(), tools=(_FailAtEnd(),))
    assert kernel_calls[0] > 0
    assert len(PHYSICS_MEMO) == 0
    before = kernel_calls[0]
    run_lulesh(cfg, 8, machine=knl_node())
    assert kernel_calls[0] > before  # nothing stored: the next run computes


def test_memo_hands_out_copies(kernel_calls):
    cfg = LuleshConfig(s=4, steps=2, return_fields=True)
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


def test_memo_bound_covers_a_paper_grid(kernel_calls):
    assert PHYSICS_MEMO.maxsize == PHYSICS_MEMO_SIZE
    cfg = LuleshConfig(s=2, steps=1)
    for t in (1, 2):
        before = kernel_calls[0]
        for p in (1, 8, 27, 64):  # a paper grid's process counts
            run_lulesh(cfg, p, threads=t, machine=knl_node())
        assert (kernel_calls[0] > before) is (t == 1)
    assert len(PHYSICS_MEMO) == 4

def test_memo_evicts_least_recently_used():
    memo = PhysicsMemo(maxsize=4)
    for p in range(10):
        memo.put(("cfg", p), (p,))
        assert len(memo) <= 4
    assert memo.get(("cfg", 5)) is None
    assert memo.get(("cfg", 6)) == (6,)
    memo.put(("cfg", 10), (10,))  # evicts 7, the least recently used
    assert memo.get(("cfg", 7)) is None
    assert memo.get(("cfg", 6)) == (6,)


def test_memo_concurrent_puts_and_gets():
    memo = PhysicsMemo(maxsize=4)
    errors = []

    def worker(w):
        try:
            for i in range(300):
                key = ("cfg", (w * 7 + i) % 6)
                memo.put(key, (key[1],) * 3)
                got = memo.get(key)
                if got is not None and got != (key[1],) * 3:
                    errors.append((key, got))
                if len(memo) > 4:
                    errors.append(("size", len(memo)))
        except Exception as exc:  # noqa: BLE001 - reported by the assert
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert len(memo) == 4


def test_benchmark_run_goes_through_the_driver(kernel_calls):
    cfg = LuleshConfig(s=4, steps=2)
    run, phys = LuleshBenchmark(cfg).run(8, nthreads=2, machine=knl_node())
    assert kernel_calls[0] > 0
    before = kernel_calls[0]
    plugin_run = registry.get("lulesh").from_config(cfg).run(
        8, threads=4, machine=knl_node())
    assert kernel_calls[0] == before
    assert LuleshBenchmark(cfg).collect(plugin_run) == phys
