"""Collective operations over the point-to-point fabric.

Each collective is implemented as the real message pattern an MPI library
would use, so its simulated cost emerges from the same network model as
user traffic:

==============  ==========================================================
barrier          dissemination (ceil(log2 p) rounds)
bcast / Bcast    binomial tree rooted at ``root``
reduce / Reduce  binomial tree (mirror of bcast), canonical combine order
allreduce        recursive doubling (canonical pair order: deterministic,
                 rank-identical float results)
scatter(v)       linear from root — root bottleneck grows with p, which is
                 exactly the SCATTER behaviour in the paper's Figure 5
gather(v)        linear to root (receives posted eagerly, completed in
                 arrival order)
allgather        ring (p−1 steps)
alltoall         pairwise exchange (p−1 sendrecv steps)
scan             linear chain (inclusive prefix)
==============  ==========================================================

Every invocation runs in a private communication sub-context (see
:meth:`~repro.simmpi.comm.Communicator._next_coll_key`), so collectives
can never be confused with each other or with point-to-point traffic.
Within one invocation the message tag encodes the algorithm round.

Each pattern is written **once**, as a per-rank *generator program*
(``_prog_*``) that posts through the communicator into the real fabric
and yields wherever a blocking wait would sit.  Each collective is in
turn written once, as a ``g_*`` function: fault poll, argument checks
and sub-context allocation, then
:func:`repro.simmpi.coll_analytic.g_dispatch`, which either runs the
program as the calling rank's own (the message path) or lets the
engine's collective gate resolve the whole invocation in one batch (the
analytic fast path, ``REPRO_COLL_ANALYTIC``).  Both execute identical
fabric operations in identical order, so simulated results are
bit-identical either way.  The ``Communicator`` methods of the same
names call these; their blocking spellings are the same generators run
by :func:`repro.simmpi.sched.drive_blocking`.  The linear ablation
variants stay blocking and permanently ungated.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

import numpy as np

from repro.errors import CommMismatchError
from repro.simmpi.coll_analytic import g_dispatch as _g_dispatch
from repro.simmpi.reduce_ops import ReduceOp
from repro.simmpi.request import Request, waitall


def _poll_faults(comm) -> None:
    """Deliver due injected hangs/crashes at collective entry.

    The message pattern below reaches the fabric's fault points anyway,
    but single-rank early returns and root-only compute paths would not;
    polling here makes every collective a fault delivery point.
    """
    comm.ctx.engine.fault_poll(comm.ctx)


#: Type alias for a collective program generator.
_Prog = Generator[Request, None, Any]


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def _prog_barrier(comm, ckey: tuple) -> _Prog:
    """Program: dissemination barrier rounds for one rank."""
    p = comm.size
    mask, rnd = 1, 0
    while mask < p:
        dest = (comm.rank + mask) % p
        src = (comm.rank - mask) % p
        sreq = comm._coll_isend(ckey, b"", dest, rnd)
        rreq = comm._coll_irecv(ckey, src, rnd)
        yield rreq
        yield sreq
        mask <<= 1
        rnd += 1


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

def _prog_bcast(comm, ckey: tuple, obj: Any, root: int) -> _Prog:
    """Program: binomial-tree broadcast of a Python object."""
    p = comm.size
    vr = (comm.rank - root) % p
    data = obj if comm.rank == root else None

    mask = 1
    while mask < p:
        if vr & mask:
            src = (vr - mask + root) % p
            rreq = comm._coll_irecv(ckey, src, 0)
            data = yield rreq
            break
        mask <<= 1
    mask >>= 1
    reqs = []
    while mask > 0:
        if vr + mask < p:
            dst = (vr + mask + root) % p
            reqs.append(comm._coll_isend(ckey, data, dst, 0))
        mask >>= 1
    for req in reqs:
        yield req
    return data


def _prog_Bcast(comm, ckey: tuple, buf: np.ndarray, root: int) -> _Prog:
    """Program: binomial-tree broadcast landing in ``buf`` in place."""
    p = comm.size
    vr = (comm.rank - root) % p

    mask = 1
    while mask < p:
        if vr & mask:
            src = (vr - mask + root) % p
            rreq = comm._coll_irecv_into(ckey, buf, src, 0)
            yield rreq
            break
        mask <<= 1
    mask >>= 1
    reqs = []
    while mask > 0:
        if vr + mask < p:
            dst = (vr + mask + root) % p
            reqs.append(comm._coll_isend(ckey, buf, dst, 0))
        mask >>= 1
    for req in reqs:
        yield req


# ---------------------------------------------------------------------------
# reduce / allreduce / scan
# ---------------------------------------------------------------------------

def _prog_reduce(comm, ckey: tuple, obj: Any, op, root: int) -> _Prog:
    """Program: binomial-tree reduction, canonical combine order."""
    p = comm.size
    vr = (comm.rank - root) % p
    result = obj
    mask = 1
    while mask < p:
        if vr & mask == 0:
            peer_vr = vr | mask
            if peer_vr < p:
                rreq = comm._coll_irecv(ckey, (peer_vr + root) % p, 0)
                partial = yield rreq
                result = op(result, partial)
        else:
            peer = ((vr & ~mask) + root) % p
            sreq = comm._coll_isend(ckey, result, peer, 0)
            yield sreq
            return None
        mask <<= 1
    return result if comm.rank == root else None


def _prog_allreduce(comm, ckey: tuple, obj: Any, op) -> _Prog:
    """Program: recursive-doubling allreduce (MPICH's small-message
    algorithm), one fused gated invocation.

    Non-power-of-2 counts use the standard pre/post folding: the first
    ``2*rem`` ranks pair up, evens hand their value to their odd
    neighbour and sit out the doubling, and receive the final result
    back afterwards.  Every combine is applied in canonical pair order
    (lower-rank subtree first), so all ranks compute bit-identical
    floating-point results.

    Compared with reduce-to-0 + bcast this halves the critical-path
    depth (log2 p rounds instead of 2·log2 p) at the cost of more total
    messages — the trade real MPI implementations make for latency-bound
    payloads.
    """
    p = comm.size
    me = comm.rank
    if type(op) is ReduceOp:
        # Skip the __call__ wrapper: one combine per round on every rank.
        op = op.fn
    result = obj
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    ndoubling = pof2.bit_length() - 1
    if me < 2 * rem:
        if me % 2 == 0:
            # Fold into the odd neighbour; rejoin for the result only.
            sreq = comm._coll_isend(ckey, result, me + 1, 0)
            yield sreq
            rreq = comm._coll_irecv(ckey, me + 1, ndoubling + 1)
            result = yield rreq
            return result
        rreq = comm._coll_irecv(ckey, me - 1, 0)
        partial = yield rreq
        result = op(partial, result)
        newrank = me // 2
    else:
        newrank = me - rem
    isend = comm._coll_isend  # hoisted: the doubling loop is hot
    irecv = comm._coll_irecv
    mask = 1
    rnd = 1
    while mask < pof2:
        partner_new = newrank ^ mask
        partner = (
            partner_new * 2 + 1 if partner_new < rem else partner_new + rem
        )
        sreq = isend(ckey, result, partner, rnd)
        rreq = irecv(ckey, partner, rnd)
        partial = yield rreq
        yield sreq
        if partner < me:
            result = op(partial, result)
        else:
            result = op(result, partial)
        mask <<= 1
        rnd += 1
    if me < 2 * rem:
        # Odd rank: return the result to the even neighbour that sat out.
        sreq = comm._coll_isend(ckey, result, me - 1, ndoubling + 1)
        yield sreq
    return result


def _prog_scan(comm, ckey: tuple, obj: Any, op) -> _Prog:
    """Program: inclusive prefix chain step for one rank."""
    result = obj
    if comm.rank > 0:
        rreq = comm._coll_irecv(ckey, comm.rank - 1, 0)
        partial = yield rreq
        result = op(partial, result)
    if comm.rank < comm.size - 1:
        sreq = comm._coll_isend(ckey, result, comm.rank + 1, 0)
        yield sreq
    return result


def _prog_exscan(comm, ckey: tuple, obj: Any, op) -> _Prog:
    """Program: exclusive prefix chain step for one rank."""
    carry = None
    if comm.rank > 0:
        rreq = comm._coll_irecv(ckey, comm.rank - 1, 0)
        carry = yield rreq
    if comm.rank < comm.size - 1:
        forward = obj if carry is None else op(carry, obj)
        sreq = comm._coll_isend(ckey, forward, comm.rank + 1, 0)
        yield sreq
    return carry


# ---------------------------------------------------------------------------
# naive linear variants (ablation baselines)
#
# The benchmark suite compares these against the tree algorithms to
# quantify what algorithmic collectives buy on the modeled network —
# the kind of design-choice ablation DESIGN.md calls out.  These stay
# on the plain threaded message path (never gated): as ablation
# baselines they must measure the engine exactly as shipped.
# ---------------------------------------------------------------------------

def bcast_linear(comm, obj: Any, root: int = 0) -> Any:
    """Root sends to every rank directly: O(p) root serialisation."""
    p = comm.size
    if p == 1:
        return obj
    ckey = comm._next_coll_key()
    if comm.rank == root:
        reqs = [
            comm._coll_isend(ckey, obj, i, 0) for i in range(p) if i != root
        ]
        waitall(reqs)
        return obj
    return comm._coll_irecv(ckey, root, 0).wait()


def reduce_linear(comm, obj: Any, op, root: int = 0) -> Any:
    """Root receives from every rank and combines in rank order."""
    p = comm.size
    if p == 1:
        return obj
    ckey = comm._next_coll_key()
    if comm.rank == root:
        reqs = {i: comm._coll_irecv(ckey, i, 0) for i in range(p) if i != root}
        result = None
        for i in range(p):
            partial = obj if i == root else reqs[i].wait()
            result = partial if result is None else op(result, partial)
        return result
    comm._coll_isend(ckey, obj, root, 0).wait()
    return None


def barrier_central(comm) -> None:
    """Centralised barrier: gather-to-0 then broadcast — O(p) at root."""
    p = comm.size
    if p == 1:
        return
    ckey = comm._next_coll_key()
    if comm.rank == 0:
        reqs = [comm._coll_irecv(ckey, i, 0) for i in range(1, p)]
        waitall(reqs)
        sends = [comm._coll_isend(ckey, b"", i, 1) for i in range(1, p)]
        waitall(sends)
    else:
        comm._coll_isend(ckey, b"", 0, 0).wait()
        comm._coll_irecv(ckey, 0, 1).wait()


# ---------------------------------------------------------------------------
# scatter / gather (object mode, linear)
# ---------------------------------------------------------------------------

def _prog_scatter(comm, ckey: tuple, sendobjs: Optional[Sequence[Any]],
                  root: int) -> _Prog:
    """Program: linear scatter — root fans out, leaves receive once."""
    p = comm.size
    if comm.rank == root:
        if sendobjs is None or len(sendobjs) != p:
            raise CommMismatchError(
                f"scatter root needs a sequence of exactly {p} items, "
                f"got {None if sendobjs is None else len(sendobjs)}"
            )
        reqs = [
            comm._coll_isend(ckey, sendobjs[i], i, 0)
            for i in range(p)
            if i != root
        ]
        for req in reqs:
            yield req
        return sendobjs[root]
    rreq = comm._coll_irecv(ckey, root, 0)
    data = yield rreq
    return data


def _prog_gather(comm, ckey: tuple, obj: Any, root: int) -> _Prog:
    """Program: linear gather — root drains receives in rank order."""
    p = comm.size
    if comm.rank == root:
        reqs = {
            i: comm._coll_irecv(ckey, i, 0) for i in range(p) if i != root
        }
        out: List[Any] = [None] * p
        out[root] = obj
        for i, req in reqs.items():
            out[i] = yield req
        return out
    sreq = comm._coll_isend(ckey, obj, root, 0)
    yield sreq
    return None


def _prog_allgather(comm, ckey: tuple, obj: Any) -> _Prog:
    """Program: ring allgather — p−1 neighbour exchanges."""
    p = comm.size
    out: List[Any] = [None] * p
    out[comm.rank] = obj
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    cur = obj
    for step in range(p - 1):
        sreq = comm._coll_isend(ckey, cur, right, step)
        rreq = comm._coll_irecv(ckey, left, step)
        cur = yield rreq
        yield sreq
        out[(comm.rank - step - 1) % p] = cur
    return out


def _prog_alltoall(comm, ckey: tuple, sendobjs: Sequence[Any]) -> _Prog:
    """Program: pairwise personalised exchange (p−1 sendrecv steps)."""
    p = comm.size
    out: List[Any] = [None] * p
    out[comm.rank] = sendobjs[comm.rank]
    for k in range(1, p):
        dst = (comm.rank + k) % p
        src = (comm.rank - k) % p
        sreq = comm._coll_isend(ckey, sendobjs[dst], dst, k)
        rreq = comm._coll_irecv(ckey, src, k)
        out[src] = yield rreq
        yield sreq
    return out


# ---------------------------------------------------------------------------
# buffer-mode scatter / gather and friends
# ---------------------------------------------------------------------------

def _offsets(counts: Sequence[int]) -> List[int]:
    offs = [0]
    for c in counts:
        offs.append(offs[-1] + int(c))
    return offs


def _prog_Scatterv(comm, ckey: tuple, sendbuf: Optional[np.ndarray],
                   counts: Sequence[int], recvbuf: np.ndarray,
                   root: int) -> _Prog:
    """Program: variable-size linear scatter along axis 0."""
    p = comm.size
    if comm.rank == root:
        sendbuf = np.asarray(sendbuf)
        offs = _offsets(counts)
        if offs[-1] != sendbuf.shape[0]:
            raise CommMismatchError(
                f"Scatterv counts sum to {offs[-1]} but sendbuf has "
                f"{sendbuf.shape[0]} rows"
            )
        reqs = []
        for i in range(p):
            chunk = sendbuf[offs[i] : offs[i + 1]]
            if i == root:
                recvbuf[...] = chunk.reshape(recvbuf.shape)
                comm.ctx.compute(
                    chunk.nbytes / comm.ctx.machine.intra_node.bandwidth
                )
            else:
                reqs.append(comm._coll_isend(ckey, chunk, i, 0))
        for req in reqs:
            yield req
    else:
        rreq = comm._coll_irecv_into(ckey, recvbuf, root, 0)
        yield rreq


def _prog_Gatherv(comm, ckey: tuple, sendbuf: np.ndarray,
                  recvbuf: Optional[np.ndarray], counts: Sequence[int],
                  root: int) -> _Prog:
    """Program: variable-size linear gather along axis 0."""
    p = comm.size
    if comm.rank == root:
        recvbuf = np.asarray(recvbuf)
        offs = _offsets(counts)
        if offs[-1] != recvbuf.shape[0]:
            raise CommMismatchError(
                f"Gatherv counts sum to {offs[-1]} but recvbuf has "
                f"{recvbuf.shape[0]} rows"
            )
        reqs = {}
        for i in range(p):
            if i == root:
                recvbuf[offs[i] : offs[i + 1]] = sendbuf.reshape(
                    recvbuf[offs[i] : offs[i + 1]].shape
                )
                comm.ctx.compute(
                    sendbuf.nbytes / comm.ctx.machine.intra_node.bandwidth
                )
            else:
                reqs[i] = comm._coll_irecv(ckey, i, 0)
        for i, req in reqs.items():
            data = yield req
            recvbuf[offs[i] : offs[i + 1]] = np.asarray(data).reshape(
                recvbuf[offs[i] : offs[i + 1]].shape
            )
    else:
        sreq = comm._coll_isend(ckey, sendbuf, root, 0)
        yield sreq


# ---------------------------------------------------------------------------
# the collectives
#
# Each g_* below is one collective: fault poll, validation and ckey
# allocation, then the program through coll_analytic.g_dispatch.  They
# yield scheduling commands, so the calling rank suspends instead of
# blocking its thread.  Communicator.g_* and the blocking
# Communicator methods (drive_blocking over g_*) both land here.
# ---------------------------------------------------------------------------

def g_barrier(comm) -> _Prog:
    """Dissemination barrier: after it, every rank's clock is >= the
    latest arrival, plus the log-depth message cost."""
    _poll_faults(comm)
    if comm.size == 1:
        return None
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "barrier", ckey, _prog_barrier))


def g_bcast(comm, obj: Any, root: int = 0) -> _Prog:
    """Binomial-tree broadcast of a Python object."""
    _poll_faults(comm)
    if comm.size == 1:
        return obj
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "bcast", ckey, _prog_bcast, (obj, root)))


def g_Bcast(comm, buf: np.ndarray, root: int = 0) -> _Prog:
    """Binomial-tree broadcast filling ``buf`` in place on non-roots."""
    _poll_faults(comm)
    if comm.size == 1:
        return None
    buf = np.asarray(buf)
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "Bcast", ckey, _prog_Bcast, (buf, root)))


def g_reduce(comm, obj: Any, op, root: int = 0) -> _Prog:
    """Binomial-tree reduction to ``root``; returns None elsewhere.

    Partials are combined in a canonical order (lower subtree first), so
    floating-point results are bit-stable across runs.
    """
    _poll_faults(comm)
    if comm.size == 1:
        return obj
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "reduce", ckey, _prog_reduce, (obj, op, root)))


def g_allreduce(comm, obj: Any, op) -> _Prog:
    """Recursive-doubling allreduce: every rank gets an identical result."""
    _poll_faults(comm)
    if comm.size == 1:
        return obj
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "allreduce", ckey, _prog_allreduce, (obj, op)))


def g_Reduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op,
             root: int = 0) -> _Prog:
    """Elementwise buffer reduction into ``recvbuf`` at ``root``."""
    result = yield from g_reduce(comm, np.asarray(sendbuf), op, root)
    if comm.rank == root:
        if recvbuf is None:
            raise CommMismatchError("root must supply recvbuf to Reduce")
        np.asarray(recvbuf)[...] = result
    return None


def g_Allreduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op) -> _Prog:
    """Elementwise buffer reduction with the result everywhere."""
    result = yield from g_allreduce(comm, np.asarray(sendbuf), op)
    np.asarray(recvbuf)[...] = result
    return None


def g_scan(comm, obj: Any, op) -> _Prog:
    """Inclusive prefix reduction along rank order (linear chain)."""
    _poll_faults(comm)
    if comm.size == 1:
        return obj
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "scan", ckey, _prog_scan, (obj, op)))


def g_exscan(comm, obj: Any, op) -> _Prog:
    """Exclusive prefix reduction: rank r gets op over ranks [0, r).

    Rank 0 receives None (MPI leaves its buffer undefined).
    """
    _poll_faults(comm)
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "exscan", ckey, _prog_exscan, (obj, op)))


def g_reduce_scatter_block(comm, sendobjs: Sequence[Any], op) -> _Prog:
    """Reduce ``sendobjs[i]`` across ranks and deliver block i to rank i
    (``MPI_Reduce_scatter_block``): reduce-to-0 of each block followed by
    a linear scatter."""
    p = comm.size
    if len(sendobjs) != p:
        raise CommMismatchError(
            f"reduce_scatter_block needs exactly {p} blocks, got {len(sendobjs)}"
        )
    reduced = []
    for block in sendobjs:
        reduced.append((yield from g_reduce(comm, block, op, root=0)))
    return (yield from g_scatter(comm, reduced if comm.rank == 0 else None, root=0))


def g_scatter(comm, sendobjs: Optional[Sequence[Any]], root: int = 0) -> _Prog:
    """Linear scatter of ``sendobjs[i]`` to rank ``i`` from ``root``."""
    _poll_faults(comm)
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "scatter", ckey, _prog_scatter,
                                   (sendobjs, root)))


def g_gather(comm, obj: Any, root: int = 0) -> _Prog:
    """Linear gather of one object per rank into a list at ``root``."""
    _poll_faults(comm)
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "gather", ckey, _prog_gather, (obj, root)))


def g_allgather(comm, obj: Any) -> _Prog:
    """Ring allgather: p−1 neighbour exchanges."""
    _poll_faults(comm)
    if comm.size == 1:
        return [obj]
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "allgather", ckey, _prog_allgather, (obj,)))


def g_alltoall(comm, sendobjs: Sequence[Any]) -> _Prog:
    """Pairwise personalised exchange."""
    _poll_faults(comm)
    p = comm.size
    if len(sendobjs) != p:
        raise CommMismatchError(
            f"alltoall needs exactly {p} send items, got {len(sendobjs)}"
        )
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(comm, "alltoall", ckey, _prog_alltoall,
                                   (sendobjs,)))


def g_Scatterv(comm, sendbuf: Optional[np.ndarray], counts: Sequence[int],
               recvbuf: np.ndarray, root: int = 0) -> _Prog:
    """Scatter variable-size slices of ``sendbuf`` along axis 0."""
    p = comm.size
    if len(counts) != p:
        raise CommMismatchError(f"Scatterv needs {p} counts, got {len(counts)}")
    recvbuf = np.asarray(recvbuf)
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(
        comm, "Scatterv", ckey, _prog_Scatterv,
        (sendbuf, counts, recvbuf, root),
    ))


def g_Scatter(comm, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray,
              root: int = 0) -> _Prog:
    """Equal-slice scatter along axis 0 (``MPI_Scatter``)."""
    recvbuf = np.asarray(recvbuf)
    p = comm.size
    if comm.rank == root:
        sendbuf = np.asarray(sendbuf)
        if sendbuf.shape[0] % p != 0:
            raise CommMismatchError(
                f"Scatter sendbuf axis 0 ({sendbuf.shape[0]}) not divisible by {p}"
            )
        n = sendbuf.shape[0] // p
    else:
        n = recvbuf.shape[0] if recvbuf.ndim else 1
    return (yield from g_Scatterv(comm, sendbuf, [n] * p, recvbuf, root))


def g_Gatherv(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
              counts: Sequence[int], root: int = 0) -> _Prog:
    """Gather variable-size slices into ``recvbuf`` along axis 0."""
    p = comm.size
    if len(counts) != p:
        raise CommMismatchError(f"Gatherv needs {p} counts, got {len(counts)}")
    sendbuf = np.asarray(sendbuf)
    ckey = comm._next_coll_key()
    return (yield from _g_dispatch(
        comm, "Gatherv", ckey, _prog_Gatherv,
        (sendbuf, recvbuf, counts, root),
    ))


def g_Gather(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
             root: int = 0) -> _Prog:
    """Equal-slice gather along axis 0 (``MPI_Gather``)."""
    sendbuf = np.asarray(sendbuf)
    n = sendbuf.shape[0] if sendbuf.ndim else 1
    return (yield from g_Gatherv(comm, sendbuf, recvbuf, [n] * comm.size, root))


def g_Scan(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op) -> _Prog:
    """Elementwise inclusive prefix reduction into ``recvbuf``."""
    result = yield from g_scan(comm, np.asarray(sendbuf), op)
    np.asarray(recvbuf)[...] = result
    return None


def g_Exscan(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op) -> _Prog:
    """Elementwise exclusive prefix reduction into ``recvbuf``.

    Rank 0's buffer is left untouched (MPI leaves it undefined).
    """
    result = yield from g_exscan(comm, np.asarray(sendbuf), op)
    if result is not None:
        np.asarray(recvbuf)[...] = result
    return None


def g_Reduce_scatter_block(comm, sendbuf: np.ndarray, recvbuf: np.ndarray,
                           op) -> _Prog:
    """Reduce row i of ``sendbuf`` (shape (p, ...)) across ranks and
    deliver it to rank i's ``recvbuf``."""
    p = comm.size
    sendbuf = np.asarray(sendbuf)
    if sendbuf.shape[0] != p:
        raise CommMismatchError(
            f"Reduce_scatter_block sendbuf axis 0 must be {p}, "
            f"got {sendbuf.shape[0]}"
        )
    result = yield from g_reduce_scatter_block(
        comm, [sendbuf[i] for i in range(p)], op
    )
    np.asarray(recvbuf)[...] = np.asarray(result).reshape(np.asarray(recvbuf).shape)
    return None


def g_Allgatherv(comm, sendbuf: np.ndarray, recvbuf: np.ndarray,
                 counts: Sequence[int]) -> _Prog:
    """Variable-size allgather along axis 0 (ring of uneven blocks)."""
    p = comm.size
    if len(counts) != p:
        raise CommMismatchError(f"Allgatherv needs {p} counts, got {len(counts)}")
    recvbuf = np.asarray(recvbuf)
    offs = _offsets(counts)
    if offs[-1] != recvbuf.shape[0]:
        raise CommMismatchError(
            f"Allgatherv counts sum to {offs[-1]} but recvbuf has "
            f"{recvbuf.shape[0]} rows"
        )
    blocks = yield from g_allgather(comm, np.asarray(sendbuf))
    for i, block in enumerate(blocks):
        dst = recvbuf[offs[i] : offs[i + 1]]
        dst[...] = np.asarray(block).reshape(dst.shape)
    return None


def g_Allgather(comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> _Prog:
    """Ring allgather into ``recvbuf`` of shape ``(p, *sendbuf.shape)``."""
    p = comm.size
    sendbuf = np.asarray(sendbuf)
    recvbuf = np.asarray(recvbuf)
    if recvbuf.shape[0] != p:
        raise CommMismatchError(
            f"Allgather recvbuf axis 0 must be {p}, got {recvbuf.shape[0]}"
        )
    blocks = yield from g_allgather(comm, sendbuf)
    for i, block in enumerate(blocks):
        recvbuf[i] = np.asarray(block).reshape(recvbuf[i].shape)
    return None


def g_Alltoall(comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> _Prog:
    """Pairwise all-to-all over rows of ``sendbuf``/``recvbuf``."""
    p = comm.size
    sendbuf = np.asarray(sendbuf)
    recvbuf = np.asarray(recvbuf)
    if sendbuf.shape[0] != p or recvbuf.shape[0] != p:
        raise CommMismatchError(
            f"Alltoall buffers need axis 0 == {p}, got "
            f"{sendbuf.shape[0]} / {recvbuf.shape[0]}"
        )
    rows = yield from g_alltoall(comm, [sendbuf[i] for i in range(p)])
    for i, row in enumerate(rows):
        recvbuf[i] = np.asarray(row).reshape(recvbuf[i].shape)
    return None
