"""The fast paths' admission rule: what keeps a run off them, and what not.

A collective replay (:mod:`repro.simmpi.coll_analytic`) and macro-step
replay (:mod:`repro.simmpi.macrostep`) decline only what their kernels
cannot model: hang / crash faults (``FaultRuntime.has_lifecycle_faults``)
and PMPI tools that watch every message.  Every other fault plan —
stragglers, noise bursts, degraded links per rank pair or per node pair
— runs fast and must stay bit-identical to the interpreted run: results,
clocks, walltime, network counters, section events, plugin metrics and
interval records.  Only the execution counters (``collectives_fast``,
``rounds_*``, ``deopts``, ``sched_steps``) may differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RankFailedError, SimulationStalledError
from repro.faults import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.machine.catalog import nehalem_cluster
from repro.simmpi import SUM, section
from repro.simmpi.coll_analytic import ANALYTIC_ENV
from repro.simmpi.engine import run_mpi
from repro.simmpi.pmpi import Tool

from tests.simmpi.test_macrostep import (
    FAULTS,
    ZOO,
    _assert_observables_identical,
    _plugin,
)

#: Plans the gate used to send down the message path (macro-step also
#: refused both link forms).
ADMITTED = ("straggler", "noise_burst", "rank_link", "node_link")

#: Zoo workloads whose fault-free runs replay macro-step rounds.
REPLAYS = ("halo2d", "ringpipe", "sparsegraph")


def _machine(p):
    # Eight ranks a node, so node-pair links degrade real traffic.
    return nehalem_cluster(nodes=-(-p // 8), jitter=0.1)


def _zoo_run(name, p, plan, *, analytic=True, macrostep=True,
             engine="threadfree"):
    """One zoo run under ``plan`` (a FaultPlan dict)."""
    # Workload.run has no coll_analytic argument; the engine reads the
    # environment switch when it is built.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ANALYTIC_ENV, "1" if analytic else "0")
        return _plugin(name).run(
            p,
            machine=_machine(p),
            seed=5,
            compute_jitter=0.04,
            noise_floor=1e-7,
            faults=FaultPlan.from_dict(plan),
            engine=engine,
            macrostep=macrostep,
        )


# -- the predicate ------------------------------------------------------------


@pytest.mark.parametrize("faults, expected", [
    ([], False),
    ([{"kind": "straggler", "rank": 0, "factor": 2.0}], False),
    ([{"kind": "noise_burst", "rank": 0, "mean_delay": 1e-6}], False),
    ([{"kind": "degraded_link", "src": 0, "dst": 1}], False),
    ([{"kind": "degraded_link", "src": 0, "dst": 1, "nodes": True}], False),
    ([{"kind": "hang", "rank": 3, "at_time": 1.0}], True),
    ([{"kind": "crash", "rank": 0}], True),
    # Out of this run's world: inert, so no delivery point.
    ([{"kind": "hang", "rank": 4}], False),
    ([{"kind": "crash", "rank": 9, "at_time": 0.5}], False),
    ([{"kind": "straggler", "rank": 1, "factor": 2.0},
      {"kind": "hang", "rank": 2, "at_time": 3.0}], True),
], ids=["empty", "straggler", "noise", "rank-link", "node-link", "hang",
        "crash", "hang-out-of-range", "crash-out-of-range", "mixed"])
def test_has_lifecycle_faults(faults, expected):
    plan = FaultPlan.from_dict({"seed": 1, "faults": faults})
    assert FaultRuntime(plan, 4).has_lifecycle_faults is expected


# -- newly admitted plans stay bit-identical ---------------------------------------


@pytest.mark.parametrize("p", [17, 64])
@pytest.mark.parametrize("plan", ADMITTED)
@pytest.mark.parametrize("name", ZOO)
def test_admitted_plans_bit_identical(name, plan, p):
    plan = FAULTS[plan]
    fast = _zoo_run(name, p, plan)
    gate_off = _zoo_run(name, p, plan, analytic=False)
    macro_off = _zoo_run(name, p, plan, macrostep=False)
    _assert_observables_identical(name, fast, gate_off)
    _assert_observables_identical(name, fast, macro_off)
    assert fast.collectives_fast == fast.collectives_gated > 0
    assert gate_off.collectives_fast == 0
    if name in REPLAYS:
        assert fast.rounds_replayed > 0
    assert (macro_off.rounds_captured, macro_off.rounds_replayed,
            macro_off.deopts) == (0, 0, 0)
    if p == 17:
        oracle = _zoo_run(name, p, plan, engine="threads")
        _assert_observables_identical(name, fast, oracle)


# -- what still declines ------------------------------------------------------------


class _SendLog(Tool):
    """Records every send, in dispatch order."""

    def __init__(self):
        self.log = []

    def on_send(self, rank, dest, nbytes, tag, t):
        self.log.append((rank, dest, nbytes, tag, t))


class _RecvLog(Tool):
    """Records every completed receive, in dispatch order."""

    def __init__(self):
        self.log = []

    def on_recv(self, rank, source, nbytes, tag, t):
        self.log.append((rank, source, nbytes, tag, t))


def _tooled_main(ctx):
    c = ctx.comm
    r, p = ctx.rank, c.size
    ctx.compute(1e-6 * (1 + r % 3))
    with section(ctx, "COLL"):
        total = c.allreduce(r + 1, SUM)
        acc = np.empty(4)
        c.Allreduce(np.full(4, float(r)), acc, SUM)
        got = c.alltoall([r * 10 + i for i in range(p)])
    c.send(r, dest=(r + 1) % p, tag=3)
    left = c.recv(source=(r - 1) % p, tag=3)
    return total, float(acc[0]), got, left


@pytest.mark.parametrize("engine", ["threadfree", "threads"])
@pytest.mark.parametrize("tool_type", [_SendLog, _RecvLog],
                         ids=["on_send", "on_recv"])
def test_per_message_tool_keeps_the_message_path(tool_type, engine):
    """A tool that watches every message sees the ranks' own programs:
    no invocation resolves fast, and its log is the one the analytic-off
    run emits."""
    logs, runs = {}, {}
    for fast in (True, False):
        tool = tool_type()
        runs[fast] = run_mpi(8, _tooled_main, machine=_machine(8), seed=2,
                             compute_jitter=0.02, tools=[tool],
                             coll_analytic=fast, engine=engine)
        logs[fast] = tool.log
    on, off = runs[True], runs[False]
    assert on.collectives_gated > 0
    assert on.collectives_fast == 0
    assert logs[True] == logs[False] and logs[True]
    assert on.results == off.results
    assert on.clocks == off.clocks
    assert on.network == off.network
    assert on.section_events == off.section_events


@pytest.mark.parametrize("kind", ["hang", "crash"])
def test_firing_lifecycle_fault_is_gate_blind(kind):
    """A hang stalls, and a crash fails, identically with the analytic
    gate on and off (both take the message path)."""
    plan = {"seed": 1, "faults": [{"kind": kind, "rank": 2, "at_time": 1e-6}]}
    outcome = {}
    for analytic in (True, False):
        with pytest.raises((SimulationStalledError, RankFailedError)) as ei:
            _zoo_run("halo2d", 17, plan, analytic=analytic)
        err = ei.value
        outcome[analytic] = (type(err), sorted(err.waiting_ranks())
                             if kind == "hang" else str(err))
    assert outcome[True] == outcome[False]
