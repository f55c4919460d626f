"""Batch channel opening at a world alltoall is invisible on every path.

The collective gate's last arrival opens every channel of a world
``alltoall`` with :meth:`NetworkModel.open_channels` before it resolves
or releases the invocation.  A run must be bit-identical whichever path
carries the pattern — the default (analytic replay), the message path
(``coll_analytic=False``) and the threaded engine, under no faults, a
straggler plan and a link-fault plan (a fault plan keeps every path on
the message pattern) — and identical to a run whose channels all open
lazily on their first draw.  Every assertion is ``==`` on floats on
purpose.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.analysis.timeresolved import intervals_from_run
from repro.faults import DegradedLink, FaultPlan, StragglerRank
from repro.machine.catalog import nehalem_cluster
from repro.simmpi import section
from repro.simmpi.engine import run_mpi
from repro.simmpi.network import NetworkModel

#: Past the machine's 16 KiB eager threshold: rendezvous rows.
_RNDV_ROW = 2100

PATHS = {
    "default": {},
    "message": {"coll_analytic": False},
    "threads": {"engine": "threads"},
}

PLANS = {
    "none": lambda p: None,
    "straggler": lambda p: FaultPlan((StragglerRank(rank=p - 1, factor=1.7),)),
    "link": lambda p: FaultPlan((DegradedLink(
        src=0, dst=1, latency_factor=3.0, bandwidth_factor=0.5),)),
}


def _world_main(ctx):
    """Ring traffic first (those channels are open and partly consumed
    when the alltoalls arrive), then an object and a buffer alltoall,
    then an alltoall on a sub-communicator."""
    c = ctx.comm
    r, p = ctx.rank, c.size
    out = []
    ctx.compute(1e-6 * (1 + r % 5))
    with section(ctx, "RING"):
        for _ in range(3):
            out.append((yield from c.g_sendrecv(
                r, (r + 1) % p, source=(r - 1) % p)))
    with section(ctx, "EXCHANGE"):
        out.append((yield from c.g_alltoall([r * 100 + i for i in range(p)])))
        ctx.compute(1e-6 * ((r * 7) % 3))
        width = _RNDV_ROW if p <= 17 else 4
        recv = np.empty((p, width))
        yield from c.g_Alltoall(np.full((p, width), float(r)), recv)
        out.append(float(recv.sum()))
    with section(ctx, "SUB"):
        sub = yield from c.g_split(r % 2)
        out.append((yield from sub.g_alltoall([r] * sub.size)))
    return out


def _sub_main(ctx):
    """Only a sub-communicator alltoall: the gate never sees it."""
    c = ctx.comm
    r = ctx.rank
    ctx.compute(1e-6 * (1 + r % 3))
    with section(ctx, "EXCHANGE"):
        sub = yield from c.g_split(r % 2)
        return (yield from sub.g_alltoall([r * 10 + i for i in range(sub.size)]))


def _run(main, p, plan, **path):
    return run_mpi(
        p, main,
        machine=nehalem_cluster(nodes=-(-p // 8), jitter=0.1),
        seed=13, compute_jitter=0.05, noise_floor=1e-7,
        faults=plan, **path)


def _observed(res):
    return (res.results, res.clocks, res.walltime, res.network,
            res.section_events,
            intervals_from_run(res, comm_sections=("RING", "EXCHANGE", "SUB")))


class _Spy:
    """Counts the pairs handed to ``open_channels``, per call."""

    def __init__(self, real):
        self.real = real
        self.calls = []

    def __call__(self, model, srcs, dsts):
        srcs, dsts = list(srcs), list(dsts)
        self.calls.append(len(srcs))
        return self.real(model, srcs, dsts)


def _spied_run(main, p, plan, **path):
    spy = _Spy(NetworkModel.open_channels)
    with mock.patch.object(NetworkModel, "open_channels",
                           lambda model, s, d: spy(model, s, d)):
        res = _run(main, p, plan, **path)
    return res, spy.calls


def _lazy_run(main, p, plan):
    with mock.patch.object(NetworkModel, "open_channels",
                           lambda model, s, d: None):
        return _run(main, p, plan)


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("p", [2, 3, 17, 64])
def test_world_alltoall_paths_bit_identical(p, plan):
    fault_plan = PLANS[plan](p)
    want = _observed(_lazy_run(_world_main, p, fault_plan))
    for name, path in PATHS.items():
        res, calls = _spied_run(_world_main, p, fault_plan, **path)
        assert _observed(res) == want, name
        # One batch per world alltoall (object and buffer); the
        # sub-communicator alltoall never reaches the gate.
        assert calls == [p * p, p * p], name


@pytest.mark.parametrize("engine", ["threadfree", "threads"])
def test_sub_communicator_alltoall_opens_lazily(engine):
    want = _observed(_lazy_run(_sub_main, 8, None))
    for path in ({"engine": engine}, {"engine": engine, "coll_analytic": False}):
        res, calls = _spied_run(_sub_main, 8, None, **path)
        assert calls == []
        assert _observed(res) == want
        assert res.network["messages"] > 0
