"""Macro-step binds one wrapper set per tracked rank, for the rank's life.

The layer shadows six communicator methods on each tracked rank's own
world communicator when it attaches; engaging and deoptimizing only
change the rank's state.  These tests pin that shape (the same six
function objects while observing and while engaged, none once the rank
is poisoned or the run has returned) and the exact capture / replay /
deopt counters of a program that crosses every guard: the standalone
point-to-point wrappers, the collective choke point and the fused
``g_Sendrecv``.  The counters are the interpreter-equivalence record of
when each call is guarded, recorded or left unrecorded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.machine.catalog import laptop
from repro.simmpi import SUM
from repro.simmpi.engine import run_mpi
from repro.simmpi.macrostep import MacrostepController
from repro.simmpi.sched import g_waitall
from repro.workloads import registry

BOUND = ("Isend", "isend", "Irecv", "irecv", "_collective_entry", "g_Sendrecv")

ROUNDS = 6


def _phases(seen=None, comms=None):
    """Steady phases back to back, each one a new round template.

    Buffer-mode Irecv/Isend, then object-mode irecv/isend (a guard miss
    in the standalone wrappers), an allreduce (a miss at the collective
    choke point), fused g_Sendrecv rounds that each end in an allreduce
    (a collective inside the template), g_Sendrecv rounds on a new tag
    (a miss in the fused replay), and a closing allreduce.
    """

    def gmain(ctx):
        comm = ctx.comm
        if seen is not None:
            jit = ctx.engine._macro.jits[ctx.rank]
        if comms is not None:
            comms.append(comm)
        right = (ctx.rank + 1) % comm.size
        left = (ctx.rank - 1) % comm.size
        buf = np.zeros(4)

        def look():
            if seen is not None:
                seen.append((ctx.rank, jit.engaged,
                             tuple(comm.__dict__.get(n) for n in BOUND)))

        for i in range(ROUNDS):
            ctx.compute(1e-6)
            yield from g_waitall([
                comm.Irecv(buf, source=left, tag=1),
                comm.Isend(np.full(4, float(ctx.rank + i)), dest=right, tag=1),
            ])
            look()
        for i in range(ROUNDS):
            ctx.compute(1e-6)
            reqs = [comm.irecv(source=left, tag=2),
                    comm.isend((ctx.rank, i), dest=right, tag=2)]
            yield from g_waitall(reqs)
            look()
        total = yield from comm.g_allreduce(float(buf[0]), SUM)
        for i in range(ROUNDS):
            ctx.compute(1e-6)
            yield from comm.g_Sendrecv(np.full(4, total + i), right,
                                       buf, left, sendtag=3, recvtag=3)
            total = yield from comm.g_allreduce(float(buf[0]), SUM)
            look()
        for i in range(ROUNDS):
            ctx.compute(1e-6)
            yield from comm.g_Sendrecv(np.full(4, total + i), right,
                                       buf, left, sendtag=4, recvtag=4)
            look()
        return (yield from comm.g_allreduce(float(buf.sum()), SUM))

    return gmain


def _run(main, p=5, macrostep=True):
    return run_mpi(p, main, machine=laptop(cores=p), seed=3,
                   compute_jitter=0.04, noise_floor=1e-7,
                   engine="threadfree", macrostep=macrostep)


def test_one_wrapper_set_for_the_rank_lifetime():
    seen, comms = [], []
    res = _run(_phases(seen, comms))
    assert res.rounds_replayed > 0
    for rank in range(5):
        mine = [(engaged, fns) for r, engaged, fns in seen if r == rank]
        # The rank both observed and replayed along the way ...
        assert {engaged for engaged, _ in mine} == {False, True}
        # ... through the same six function objects, bound once.
        first = mine[0][1]
        assert all(fn is not None for fn in first)
        assert all(all(a is b for a, b in zip(fns, first)) for _, fns in mine)
    # A returned run has released every binding.
    assert len(comms) == 5
    for comm in comms:
        assert not set(BOUND) & set(comm.__dict__)


def test_poisoned_rank_is_unbound(monkeypatch):
    """taskfarm's wildcard receives poison its ranks: no binding stays."""
    left = []
    poison = MacrostepController.poison

    def spy(self, jit):
        poison(self, jit)
        left.append(set(BOUND) & set(jit.comm.__dict__))

    monkeypatch.setattr(MacrostepController, "poison", spy)
    plugin = registry.get("taskfarm")({"ntasks": 40, "task_flops": 1e5})
    res = plugin.run(17, machine=laptop(cores=17), seed=5,
                     engine="threadfree", macrostep=True)
    assert res.rounds_replayed == 0
    assert left and all(not names for names in left)


def test_phase_counters_are_pinned():
    """Every guard fires where the interpreter-equivalent rule says.

    Each rank captures one template per steady phase, deopts at each
    phase change and at the closing allreduce, and replays the rounds
    in between.  A change that moves these numbers
    changes which calls are guarded, recorded or left unrecorded.
    """
    on = _run(_phases())
    off = _run(_phases(), macrostep=False)
    assert on.results == off.results
    assert on.clocks == off.clocks
    assert on.network == off.network
    assert (on.rounds_captured, on.rounds_replayed, on.deopts) == (20, 75, 20)


@pytest.mark.parametrize("fault", [None, "straggler"])
def test_halo2d_p17_counters_are_pinned(fault):
    plan = None if fault is None else FaultPlan.from_dict(
        {"seed": 9, "faults": [{"kind": "straggler", "rank": 1, "factor": 3.0}]})
    plugin = registry.get("halo2d")({"ny": 34, "nx": 17, "steps": 3})
    res = plugin.run(17, machine=laptop(cores=17), seed=5,
                     compute_jitter=0.04, noise_floor=1e-7, faults=plan,
                     engine="threadfree", macrostep=True)
    assert (res.rounds_captured, res.rounds_replayed, res.deopts) == (17, 17, 17)
