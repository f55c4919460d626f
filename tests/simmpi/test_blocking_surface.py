"""The blocking MPI spelling against the generator spelling.

Every blocking call is its ``g_*`` twin run by
:func:`~repro.simmpi.sched.drive_blocking`.  This suite pins that down
from the outside: one program written with blocking calls runs on the
thread-per-rank engine, the same program written with ``yield from
g_*`` runs on the thread-free engine, and the two runs must agree
bit for bit — results, per-rank clocks, walltime, network counters and
section events (``==`` on floats throughout).  It also checks that each
blocking ``Communicator`` method takes exactly the parameters of its
``g_*`` twin.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.machine.catalog import nehalem_cluster
from repro.simmpi import (
    MAX,
    SUM,
    Communicator,
    Status,
    g_wait,
    g_waitall,
    g_waitany,
    g_waitsome,
    section,
    waitall,
    waitany,
    waitsome,
)
from repro.simmpi.engine import run_mpi
from tests.simmpi.test_coll_analytic import _all_collectives_main


def _p2p_main(ctx):
    """Point-to-point, waits, persistent requests and split, blocking."""
    c = ctx.comm
    r, p = ctx.rank, c.size
    right, left = (r + 1) % p, (r - 1) % p
    out = []
    with section(ctx, "P2P"):
        c.send(("obj", r), right, tag=1)
        out.append(c.recv(left, 1))
        c.send(r * 2, right, tag=2)
        pst = c.probe(left, 2)
        out.append((pst.source, pst.tag, pst.count))
        st = Status()
        out.append(c.recv(left, 2, status=st))
        out.append((st.source, st.tag))
        out.append(c.sendrecv(("ring", r), right, sendtag=3, source=left,
                              recvtag=3))
        big = c.sendrecv(np.full(4096, float(r)), right, 4, left, 4)
        out.append(float(big.sum()))
        buf = np.empty(8)
        c.Send(np.full(8, float(r)), right, 5)
        c.Recv(buf, left, 5, status=st)
        out.append((float(buf.sum()), st.source, st.tag))
        rbuf = np.empty(4096)
        c.Sendrecv(np.full(4096, float(r)), right, rbuf, left, sendtag=6,
                   recvtag=6)
        out.append(float(rbuf.sum()))
    with section(ctx, "WAITS"):
        ctx.compute(1e-6 * (1 + r % 3))
        reqs = [c.irecv(left, 7), c.isend(r * 1.5, right, 7)]
        out.append(waitany(reqs))
        out.append(waitsome(reqs))
        reqs = [c.irecv(left, 8), c.irecv(left, 9)]
        c.isend("a", right, 9).wait()
        c.isend("b", right, 8).wait()
        out.append(waitall(reqs))
        sbuf, pbuf = np.empty(16), np.empty(16)
        send = c.Send_init(sbuf, right, 10)
        recv = c.Recv_init(pbuf, left, 10)
        for it in range(2):
            sbuf[:] = r + it
            recv.start()
            send.start()
            recv.wait()
            send.wait()
            out.append(float(pbuf.sum()))
    with section(ctx, "SPLIT"):
        sub = c.split(r % 2, key=-r)
        out.append((sub.rank, sub.size, sub.allreduce(r, SUM)))
        out.append(sub.bcast(r, root=0))
    return out


def _blocking_main(ctx):
    return _all_collectives_main(ctx) + _p2p_main(ctx)


def _g_all_collectives_main(ctx):
    """Generator spelling of ``_all_collectives_main``, call for call."""
    c = ctx.comm
    r, p = ctx.rank, c.size
    out = []
    ctx.compute(1e-6 * (1 + r % 5))
    with section(ctx, "COLL"):
        out.append((yield from c.g_allreduce(r + 1, SUM)))
        yield from c.g_barrier()
        out.append((yield from c.g_bcast(
            [r, "payload"] if r == 2 % p else None, root=2 % p)))
        out.append((yield from c.g_reduce(float(r), SUM, root=p - 1)))
        ctx.compute(1e-6 * ((r * 7) % 3))
        out.append((yield from c.g_scan(r, SUM)))
        out.append((yield from c.g_exscan(r, SUM)))
        out.append((yield from c.g_scatter(
            list(range(p)) if r == 0 else None, root=0)))
        out.append((yield from c.g_gather(r * r, root=1 % p)))
        out.append((yield from c.g_allgather((r, r * 2))))
        out.append((yield from c.g_alltoall([r * 100 + i for i in range(p)])))
    with section(ctx, "VECTOR"):
        small = np.full(8, float(r + 1))
        big = np.full(4096, float(r + 1))
        acc = np.empty_like(small)
        yield from c.g_Allreduce(small, acc, SUM)
        out.append(float(acc[0]))
        accb = np.empty_like(big)
        yield from c.g_Allreduce(big, accb, MAX)
        out.append(float(accb[-1]))
        buf = np.arange(16.0) if r == 0 else np.empty(16)
        yield from c.g_Bcast(buf, root=0)
        out.append(float(buf.sum()))
        rec = np.empty(2)
        yield from c.g_Scatter(
            np.arange(2.0 * p) if r == 0 else None, rec, root=0)
        out.append(float(rec[0]))
        gat = np.empty(2 * p) if r == 0 else None
        yield from c.g_Gatherv(rec, gat, [2] * p, root=0)
        if r == 0:
            out.append(float(gat.sum()))
        ag = np.empty((p, 8))
        yield from c.g_Allgather(small, ag)
        out.append(float(ag.sum()))
        a2a = np.empty((p, 1))
        yield from c.g_Alltoall(np.full((p, 1), float(r)), a2a)
        out.append(float(a2a.sum()))
        rsb = np.empty(1)
        yield from c.g_Reduce_scatter_block(
            np.arange(float(p)).reshape(p, 1), rsb, SUM)
        out.append(float(rsb[0]))
    ctx.compute(1e-6)
    return out


def _g_p2p_main(ctx):
    """Generator spelling of ``_p2p_main``, call for call."""
    c = ctx.comm
    r, p = ctx.rank, c.size
    right, left = (r + 1) % p, (r - 1) % p
    out = []
    with section(ctx, "P2P"):
        yield from c.g_send(("obj", r), right, tag=1)
        out.append((yield from c.g_recv(left, 1)))
        yield from c.g_send(r * 2, right, tag=2)
        pst = yield from c.g_probe(left, 2)
        out.append((pst.source, pst.tag, pst.count))
        st = Status()
        out.append((yield from c.g_recv(left, 2, status=st)))
        out.append((st.source, st.tag))
        out.append((yield from c.g_sendrecv(
            ("ring", r), right, sendtag=3, source=left, recvtag=3)))
        big = yield from c.g_sendrecv(np.full(4096, float(r)), right, 4, left, 4)
        out.append(float(big.sum()))
        buf = np.empty(8)
        yield from c.g_Send(np.full(8, float(r)), right, 5)
        yield from c.g_Recv(buf, left, 5, status=st)
        out.append((float(buf.sum()), st.source, st.tag))
        rbuf = np.empty(4096)
        yield from c.g_Sendrecv(np.full(4096, float(r)), right, rbuf, left,
                                sendtag=6, recvtag=6)
        out.append(float(rbuf.sum()))
    with section(ctx, "WAITS"):
        ctx.compute(1e-6 * (1 + r % 3))
        reqs = [c.irecv(left, 7), c.isend(r * 1.5, right, 7)]
        out.append((yield from g_waitany(reqs)))
        out.append((yield from g_waitsome(reqs)))
        reqs = [c.irecv(left, 8), c.irecv(left, 9)]
        yield from g_wait(c.isend("a", right, 9))
        yield from g_wait(c.isend("b", right, 8))
        out.append((yield from g_waitall(reqs)))
        sbuf, pbuf = np.empty(16), np.empty(16)
        send = c.Send_init(sbuf, right, 10)
        recv = c.Recv_init(pbuf, left, 10)
        for it in range(2):
            sbuf[:] = r + it
            rreq = recv.start()
            sreq = send.start()
            yield from g_wait(rreq)
            yield from g_wait(sreq)
            out.append(float(pbuf.sum()))
    with section(ctx, "SPLIT"):
        sub = yield from c.g_split(r % 2, key=-r)
        out.append((sub.rank, sub.size, (yield from sub.g_allreduce(r, SUM))))
        out.append((yield from sub.g_bcast(r, root=0)))
    return out


def _generator_main(ctx):
    return (yield from _g_all_collectives_main(ctx)) + (yield from _g_p2p_main(ctx))


@pytest.mark.parametrize("fast", [True, False], ids=["analytic", "message"])
@pytest.mark.parametrize("p", [2, 3, 17])
def test_blocking_spelling_bit_identical_to_generator_spelling(p, fast):
    kwargs = dict(
        machine=nehalem_cluster(nodes=-(-p // 8), jitter=0.1),
        seed=7,
        compute_jitter=0.05,
        noise_floor=1e-7,
        coll_analytic=fast,
    )
    blocking = run_mpi(p, _blocking_main, engine="threads", **kwargs)
    gen = run_mpi(p, _generator_main, engine="threadfree", **kwargs)
    assert blocking.engine == "threads" and gen.engine == "threadfree"
    assert blocking.results == gen.results
    assert blocking.clocks == gen.clocks  # exact float equality, per rank
    assert blocking.walltime == gen.walltime
    assert blocking.network == gen.network  # message AND byte counters
    assert blocking.section_events == gen.section_events
    assert blocking.collectives_gated == gen.collectives_gated > 0
    assert blocking.collectives_fast == gen.collectives_fast
    assert blocking.sched_steps == gen.sched_steps


def _twins():
    for name, member in vars(Communicator).items():
        twin = vars(Communicator).get("g_" + name)
        if not name.startswith(("_", "g_")) and twin is not None:
            yield name, member, twin


def test_every_blocking_method_has_its_twins_signature():
    twins = list(_twins())
    # send/recv/probe/sendrecv/Send/Recv/Sendrecv, split, 11 object-mode
    # and 13 buffer-mode collectives.
    assert len(twins) == 8 + 11 + 13
    for name, blocking, twin in twins:
        # Only the return annotation may differ: a value vs a generator.
        sig = inspect.signature(blocking).replace(
            return_annotation=inspect.Signature.empty)
        assert sig == inspect.signature(twin), name
        assert blocking.__doc__ and blocking.__doc__.strip(), name
