"""Differential gate for macro-step capture & replay (docs/tuning.md).

The macro-step layer JITs the thread-free event loop: it records one
steady-state round per rank as a compiled template and replays later
rounds as straight-line clock/RNG arithmetic, deoptimizing back to the
interpreter when a structural guard fails.  Replay consumes the same
RNG draws and emits the same section events as the interpreted path, so
**everything observable must be bit-identical**: results, per-rank
clocks, virtual walltime, network counters, section-event streams and
the derived interval records.  Only the capture/replay/deopt counters
(and ``sched_steps``, which is not part of the contract: replay may
reach the same state through a different number of scheduling steps)
may differ.

The matrix: every zoo workload x {no faults, straggler, hang} x
p in {17, 64, 256}, macro-step on vs off, with the thread-per-rank
oracle closing the triangle at p=17 (the oracle spawns one OS thread
per rank, so larger oracle runs live in the benchmark tier — the
threadfree on/off comparison is the load-bearing one and runs at every
scale).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.timeresolved import intervals_from_run
from repro.errors import SimulationStalledError
from repro.faults.plan import FaultPlan
from repro.machine.catalog import laptop, nehalem_cluster
from repro.simmpi import MAX, SUM, section
from repro.simmpi.engine import run_mpi
from repro.workloads import registry

ZOO = ("halo2d", "taskfarm", "ringpipe", "bucketsort", "sparsegraph")

#: Small but non-degenerate parameterisations; every entry must stay
#: legal at p=17 (prime), 64 and 256.  ringpipe is kept to one ring
#: traversal — at p=256 each traversal is 256 pipelined stages and the
#: matrix runs it six times.
PARAMS = {
    "halo2d": {"ny": 34, "nx": 17, "steps": 3},
    "taskfarm": {"ntasks": 40, "task_flops": 1e5},
    "ringpipe": {"rounds": 1, "blocklen": 16},
    "bucketsort": {"n_local": 48},
    "sparsegraph": {"m": 4, "steps": 5},
}

FAULTS = {
    "none": None,
    "straggler": {"seed": 9, "faults": [
        {"kind": "straggler", "rank": 1, "factor": 3.0}]},
    "hang": {"seed": 9, "faults": [
        {"kind": "hang", "rank": 1, "at_time": 0.0}]},
    # Rank 1 and node 1 exist wherever these run (eight ranks a node).
    "noise_burst": {"seed": 4, "faults": [
        {"kind": "noise_burst", "rank": 1, "mean_delay": 2e-6, "prob": 0.5}]},
    "rank_link": {"seed": 4, "faults": [
        {"kind": "degraded_link", "src": 0, "dst": 1,
         "latency_factor": 3.0, "bandwidth_factor": 0.25},
        {"kind": "degraded_link", "src": 1, "dst": 0,
         "latency_factor": 2.0, "bandwidth_factor": 0.5}]},
    "node_link": {"seed": 4, "faults": [
        {"kind": "degraded_link", "src": 0, "dst": 1, "nodes": True,
         "latency_factor": 4.0, "bandwidth_factor": 0.3},
        {"kind": "degraded_link", "src": 1, "dst": 0, "nodes": True,
         "latency_factor": 4.0, "bandwidth_factor": 0.3}]},
}


def _plugin(name):
    return registry.get(name)(dict(PARAMS[name]))


def _run(name, p, *, macrostep, engine="threadfree", fault="none"):
    plan = FAULTS[fault]
    return _plugin(name).run(
        p,
        machine=laptop(cores=max(2, p)),
        seed=5,
        compute_jitter=0.04,
        noise_floor=1e-7,
        faults=FaultPlan.from_dict(plan) if plan is not None else None,
        engine=engine,
        macrostep=macrostep,
    )


def _eq(a, b):
    """Recursive exact equality that tolerates numpy payloads."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_eq(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_eq(a[k], b[k]) for k in a))
    return a == b


def _assert_observables_identical(name, a, b):
    """Everything the bit-identity contract covers (not sched_steps)."""
    plugin = _plugin(name)
    assert _eq(a.results, b.results)
    assert a.clocks == b.clocks            # exact float equality, per rank
    assert a.walltime == b.walltime
    assert a.network == b.network
    assert a.section_events == b.section_events
    assert plugin.metrics(a) == plugin.metrics(b)
    sections = type(plugin).COMM_SECTIONS
    assert _eq(intervals_from_run(a, sections), intervals_from_run(b, sections))


# -- the completing matrix ----------------------------------------------------


@pytest.mark.parametrize("p", [17, 64, 256])
@pytest.mark.parametrize("fault", ["none", "straggler"])
@pytest.mark.parametrize("name", ZOO)
def test_replay_bit_identical(name, fault, p):
    on = _run(name, p, macrostep=True, fault=fault)
    off = _run(name, p, macrostep=False, fault=fault)
    _assert_observables_identical(name, on, off)
    # Off-mode never touches the capture machinery.
    assert (off.rounds_captured, off.rounds_replayed, off.deopts) == (0, 0, 0)
    if p == 17:
        # Thread-per-rank oracle closes the triangle at the prime scale.
        th = _run(name, p, macrostep=True, engine="threads", fault=fault)
        _assert_observables_identical(name, on, th)


@pytest.mark.parametrize("p", [17, 64, 256])
@pytest.mark.parametrize("name", ZOO)
def test_hang_stalls_identically(name, p):
    """An injected hang must stall replay exactly like the interpreter."""
    waiting = {}
    for ms in (True, False):
        with pytest.raises(SimulationStalledError) as ei:
            _run(name, p, macrostep=ms, fault="hang")
        waiting[ms] = sorted(ei.value.waiting_ranks())
    assert waiting[True] == waiting[False]
    if p == 17:
        with pytest.raises(SimulationStalledError) as ei:
            _run(name, p, macrostep=True, engine="threads", fault="hang")
        assert sorted(ei.value.waiting_ranks()) == waiting[True]


# -- counter semantics --------------------------------------------------------


def test_counters_deterministic_and_replay_engages():
    """Same run twice: identical counters; steady state actually replays."""
    a = _run("halo2d", 64, macrostep=True)
    b = _run("halo2d", 64, macrostep=True)
    assert (a.rounds_captured, a.rounds_replayed, a.deopts) == \
        (b.rounds_captured, b.rounds_replayed, b.deopts)
    assert a.rounds_captured > 0
    assert a.rounds_replayed > 0
    # The scalar-allreduce REDUCE tail is intentionally outside every
    # template: each rank deopts exactly once when the shape changes.
    assert a.deopts > 0
    # sched_steps is *not* part of the bit-identity contract: replay
    # may reach the same state through a different number of scheduling
    # steps.  The test deliberately does not pin it.


def test_fault_scenario_exercises_deopt():
    """The deopt path must fire under fault injection, not just cleanly."""
    res = _run("halo2d", 17, macrostep=True, fault="straggler")
    assert res.rounds_replayed > 0
    assert res.deopts > 0


def test_ineligible_workload_runs_interpreted():
    """taskfarm's tag-dispatched farm never settles into a fixed round —
    capture must decline it (no template, no replay) yet stay correct."""
    res = _run("taskfarm", 17, macrostep=True)
    assert res.rounds_replayed == 0
    _assert_observables_identical(
        "taskfarm", res, _run("taskfarm", 17, macrostep=False))


# -- the collective gate's allreduce ----------------------------------------------


def _allreduce_loop(op, rounds=12):
    """Steady 16-double ``g_Allreduce`` churn inside a section."""

    def gmain(ctx):
        acc = np.arange(16.0) + ctx.rank
        for _ in range(rounds):
            ctx.compute(1e-6)
            out = np.empty_like(acc)
            with section(ctx, "ALLREDUCE"):
                yield from ctx.comm.g_Allreduce(acc, out, op)
            acc = out * 0.5 + ctx.rank
        return acc

    return gmain


@pytest.mark.parametrize("op", [SUM, MAX], ids=["sum", "max"])
@pytest.mark.parametrize("p, fault", [
    (16, "none"),       # power of two: the gate's flat recursive doubling
    (12, "none"),       # not a power of two: the flat executor declines, _Replay
    (16, "straggler"),  # no hang or crash: the gate still resolves fast
    (16, "noise_burst"),
    (16, "rank_link"),
    (16, "node_link"),
    (12, "straggler"),
    (12, "noise_burst"),
    (12, "rank_link"),
    (12, "node_link"),
])
def test_gate_allreduce_matches_interpreter(p, fault, op):
    """The default configuration (analytic gate and macro-step on)
    resolves world allreduce through the collective gate —
    ``coll_analytic._flat_allreduce`` or ``_Replay`` — and must match
    the fully interpreted run bit for bit."""
    plan = FAULTS[fault]
    runs = {}
    for fast in (True, False):
        runs[fast] = run_mpi(
            p, _allreduce_loop(op),
            machine=nehalem_cluster(nodes=-(-p // 8), jitter=0.1),
            seed=3,
            compute_jitter=0.04,
            faults=FaultPlan.from_dict(plan) if plan is not None else None,
            coll_analytic=fast,
            engine="threadfree",
            macrostep=fast,
        )
    on, off = runs[True], runs[False]
    assert on.collectives_fast == on.collectives_gated > 0
    assert off.collectives_fast == 0
    assert _eq(on.results, off.results)
    assert on.clocks == off.clocks
    assert on.walltime == off.walltime
    assert on.network == off.network
    assert on.section_events == off.section_events
