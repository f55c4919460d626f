"""Communicators: groups of ranks with isolated communication contexts.

A :class:`Communicator` couples a *group* (an ordered tuple of world
ranks) with a *context id* (``cid``) that isolates its traffic: messages
sent on one communicator can never match receives on another, and each
collective invocation gets its own sub-context so collectives can never
interfere with point-to-point traffic either — the property real MPI
implements with hidden context ids.

``dup`` and ``split`` are collective and derive the child ``cid``
deterministically from the parent's (every rank of the parent executes
the same sequence of communicator-creating calls, so all members compute
the same id without any engine-side negotiation).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    InvalidCommunicatorError,
    InvalidRankError,
    InvalidTagError,
    RequestError,
)
from repro.simmpi.api import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB, UNDEFINED
from repro.simmpi import collectives as _coll
from repro.simmpi.datatypes import clone_payload, payload_nbytes
from repro.simmpi.request import Request, Status
from repro.simmpi.reduce_ops import ReduceOp, SUM
from repro.simmpi.sched import drive_blocking, g_wait, g_waitall


def _payload(obj: Any) -> Any:
    """What an object-mode send hands the fabric: a plain ndarray live
    (the fabric snapshots it if it outlives the post), anything else as
    a snapshot, whose pickled size is the message size."""
    return obj if type(obj) is np.ndarray else clone_payload(obj)


class Group:
    """An ordered set of world ranks (``MPI_Group`` analogue)."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: Sequence[int]):
        if len(set(ranks)) != len(ranks):
            raise InvalidRankError(f"group has duplicate ranks: {ranks}")
        self.ranks: Tuple[int, ...] = tuple(int(r) for r in ranks)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank_of(self, world_rank: int) -> int:
        """Group-relative rank of a world rank, or UNDEFINED."""
        try:
            return self.ranks.index(world_rank)
        except ValueError:
            return UNDEFINED

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash(self.ranks)

    def __repr__(self) -> str:
        return f"Group({list(self.ranks)})"


class Communicator:
    """The user-facing communication handle (``MPI_Comm`` analogue).

    Lowercase methods move arbitrary Python objects (pickled, like
    mpi4py); capitalised methods move NumPy buffers the caller allocates.
    All ranks are communicator-relative; PROC_NULL is honoured everywhere
    a peer rank is accepted.
    """

    def __init__(self, ctx, group: Group, cid: tuple):
        self.ctx = ctx
        self._group = group
        self.cid = cid
        self.rank = group.rank_of(ctx.rank)
        self.size = group.size
        self._child_seq = 0
        self._coll_seq = 0
        self._freed = False

    # -- construction -------------------------------------------------------------

    @classmethod
    def _world(cls, ctx) -> "Communicator":
        # One world group per run, shared by every rank's communicator.
        return cls(ctx, ctx.engine._world_group, ("w",))

    @property
    def group(self) -> Tuple[int, ...]:
        """World ranks of this communicator, in rank order."""
        return self._group.ranks

    def dup(self) -> "Communicator":
        """Collective duplicate with a fresh isolated context."""
        self._check_alive()
        cid = (*self.cid, "d", self._child_seq)
        self._child_seq += 1
        return Communicator(self.ctx, self._group, cid)

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Collective split by ``color``, ordered by ``(key, old rank)``.

        Ranks passing ``color=UNDEFINED`` receive ``None``.  The member
        lists are agreed through an allgather on the parent, so the call
        carries a real synchronisation cost like its MPI counterpart.
        """
        return drive_blocking(self.ctx, self.g_split(color, key))

    def g_split(self, color: int, key: int = 0):
        """Generator twin of :meth:`split` (``yield from comm.g_split(...)``)."""
        self._check_alive()
        seq = self._child_seq
        self._child_seq += 1
        triple = (color, key, self.rank)
        all_triples = yield from self.g_allgather(triple)
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, r) for (c, k, r) in all_triples if c == color
        )
        world = [self._group.ranks[r] for (_, r) in members]
        cid = (*self.cid, "s", seq, color)
        return Communicator(self.ctx, Group(world), cid)

    def create_cart(self, dims: Sequence[int]) -> "CartComm":
        """Collective creation of a Cartesian communicator
        (``MPI_Cart_create`` with ``reorder=false``, non-periodic).

        ``prod(dims)`` must equal the communicator size (MPI would allow
        excluding ranks; the simulated API keeps everyone in).
        """
        self._check_alive()
        from repro.simmpi.topology import CartGrid

        grid = CartGrid(dims)
        if grid.size != self.size:
            raise InvalidCommunicatorError(
                f"cartesian dims {list(dims)} hold {grid.size} ranks, "
                f"communicator has {self.size}"
            )
        cid = (*self.cid, "cart", self._child_seq)
        self._child_seq += 1
        return CartComm(self.ctx, self._group, cid, grid)

    def free(self) -> None:
        """Mark the communicator unusable (``MPI_Comm_free``)."""
        self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise InvalidCommunicatorError("operation on a freed communicator")

    # -- validation helpers ----------------------------------------------------------

    def _world_rank(self, comm_rank: int) -> int:
        if not 0 <= comm_rank < self.size:
            raise InvalidRankError(
                f"rank {comm_rank} out of range for communicator of size {self.size}"
            )
        return self._group.ranks[comm_rank]

    def _check_peer(self, peer: int) -> None:
        if peer == PROC_NULL:
            return
        if not 0 <= peer < self.size:
            raise InvalidRankError(
                f"peer rank {peer} out of range [0, {self.size}) and not PROC_NULL"
            )

    def _check_source(self, source: int) -> None:
        if source in (PROC_NULL, ANY_SOURCE):
            return
        if not 0 <= source < self.size:
            raise InvalidRankError(
                f"source rank {source} out of range [0, {self.size}) and not a wildcard"
            )

    @staticmethod
    def _check_tag(tag: int, allow_any: bool) -> None:
        if tag == ANY_TAG:
            if allow_any:
                return
            raise InvalidTagError("ANY_TAG is only valid on receives")
        if not 0 <= tag < TAG_UB:
            raise InvalidTagError(f"tag {tag} out of range [0, {TAG_UB})")

    def _comm_source(self, world_source: int) -> int:
        """Translate a matched world source back to a communicator rank."""
        return self._group.rank_of(world_source)

    # -- context keys ------------------------------------------------------------------

    def _p2p_key(self) -> tuple:
        return ("p", self.cid)

    def _next_coll_key(self) -> tuple:
        """Fresh sub-context for one collective invocation.

        All ranks call collectives on a communicator in the same order, so
        each computes the same sequence number locally.
        """
        key = ("c", self.cid, self._coll_seq)
        self._coll_seq += 1
        return key

    # -- point-to-point: object mode ------------------------------------------------------

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking object send."""
        self._check_alive()
        self._check_peer(dest)
        self._check_tag(tag, allow_any=False)
        ctx = self.ctx
        req = Request(ctx, "send", ("isend(dest={}, tag={})", dest, tag))
        if dest == PROC_NULL:
            req.complete(ctx.now)
            return req
        self._post_send(self._p2p_key(), dest, tag, _payload(obj), req)
        return req

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking object send (returns when the message is in flight or,
        for rendezvous sizes, delivered)."""
        drive_blocking(self.ctx, self.g_send(obj, dest, tag))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking object receive."""
        self._check_alive()
        self._check_source(source)
        self._check_tag(tag, allow_any=True)
        ctx = self.ctx
        req = Request(ctx, "recv", ("irecv(source={}, tag={})", source, tag))
        if source == PROC_NULL:
            req.complete(ctx.now, source=PROC_NULL, tag=tag, count=0)
            return req
        world_source = source if source == ANY_SOURCE else self._world_rank(source)
        ctx.engine.fabric.post_recv(ctx, self._p2p_key(), world_source, tag, None, req)
        return req

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking object receive; returns the received object."""
        return drive_blocking(self.ctx, self.g_recv(source, tag, status))

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status:
        """Block until a matching message is pending; return its Status
        without consuming it (``MPI_Probe``)."""
        return drive_blocking(self.ctx, self.g_probe(source, tag))

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[Status]:
        """Non-blocking probe: Status of a visible matching message, or
        None (``MPI_Iprobe``).  A message is visible once its (virtual)
        header has reached this rank."""
        self._check_alive()
        self._check_source(source)
        self._check_tag(tag, allow_any=True)
        ctx = self.ctx
        world_source = source if source == ANY_SOURCE else self._world_rank(source)
        env = ctx.engine.fabric.peek(
            self._p2p_key(), ctx.rank, world_source, tag
        )
        if env is None or env.visible_time > ctx.now:
            return None
        st = Status()
        st.source = self._comm_source(env.src)
        st.tag = env.tag
        st.count = env.element_count()
        return st

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send+receive, deadlock-free like ``MPI_Sendrecv``."""
        return drive_blocking(self.ctx, self.g_sendrecv(
            sendobj, dest, sendtag, source, recvtag, status))

    # -- point-to-point: generator twins -------------------------------------------------
    #
    # The implementations of the blocking calls (``yield from
    # comm.g_recv(...)`` in a generator main; the blocking methods drive
    # these).  The non-blocking posts (isend/irecv/Isend/Irecv/iprobe)
    # need no twins — they never block; wait on their requests with
    # repro.simmpi.sched.g_wait/g_waitall.

    def g_send(self, obj: Any, dest: int, tag: int = 0):
        """Generator twin of :meth:`send`."""
        yield from g_wait(self.isend(obj, dest, tag))

    def g_recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ):
        """Generator twin of :meth:`recv`."""
        req = self.irecv(source, tag)
        data = yield from g_wait(req, status)
        if status is not None and status.source >= 0:
            status.source = self._comm_source(status.source)
        return data

    def g_probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator twin of :meth:`probe`."""
        self._check_alive()
        self._check_source(source)
        self._check_tag(tag, allow_any=True)
        ctx = self.ctx
        req = Request(ctx, "recv", ("probe(source={}, tag={})", source, tag))
        world_source = source if source == ANY_SOURCE else self._world_rank(source)
        ctx.engine.fabric.post_probe(ctx, self._p2p_key(), world_source, tag, req)
        st = Status()
        yield from g_wait(req, st)
        if st.source >= 0:
            st.source = self._comm_source(st.source)
        return st

    def g_sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ):
        """Generator twin of :meth:`sendrecv`."""
        rreq = self.irecv(source, recvtag)
        sreq = self.isend(sendobj, dest, sendtag)
        data = yield from g_wait(rreq, status)
        if status is not None and status.source >= 0:
            status.source = self._comm_source(status.source)
        yield from g_wait(sreq)
        return data

    def g_Send(self, buf: np.ndarray, dest: int, tag: int = 0):
        """Generator twin of :meth:`Send`."""
        yield from g_wait(self.Isend(buf, dest, tag))

    def g_Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ):
        """Generator twin of :meth:`Recv`."""
        req = self.Irecv(buf, source, tag)
        yield from g_wait(req, status)
        if status is not None and status.source >= 0:
            status.source = self._comm_source(status.source)

    def g_Sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        recvbuf: np.ndarray,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        """Generator twin of :meth:`Sendrecv`."""
        rreq = self.Irecv(recvbuf, source, recvtag)
        sreq = self.Isend(sendbuf, dest, sendtag)
        yield from g_waitall([rreq, sreq])

    # -- point-to-point: buffer mode -----------------------------------------------------

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Non-blocking buffer send (the receiver sees the array as it was
        at post time; see the fabric's snapshot rule)."""
        self._check_alive()
        self._check_peer(dest)
        self._check_tag(tag, allow_any=False)
        ctx = self.ctx
        req = Request(ctx, "send", ("Isend(dest={}, tag={})", dest, tag))
        if dest == PROC_NULL:
            req.complete(ctx.now)
            return req
        self._post_send(self._p2p_key(), dest, tag, np.asarray(buf), req)
        return req

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Blocking buffer send."""
        drive_blocking(self.ctx, self.g_Send(buf, dest, tag))

    def Irecv(self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking buffer receive into caller-owned ``buf``."""
        self._check_alive()
        self._check_source(source)
        self._check_tag(tag, allow_any=True)
        ctx = self.ctx
        req = Request(ctx, "recv", ("Irecv(source={}, tag={})", source, tag))
        if source == PROC_NULL:
            req.complete(ctx.now, source=PROC_NULL, tag=tag, count=0)
            return req
        world_source = source if source == ANY_SOURCE else self._world_rank(source)
        ctx.engine.fabric.post_recv(
            ctx, self._p2p_key(), world_source, tag, np.asarray(buf), req
        )
        return req

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> None:
        """Blocking buffer receive."""
        drive_blocking(self.ctx, self.g_Recv(buf, source, tag, status))

    def Sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        recvbuf: np.ndarray,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> None:
        """Combined buffer send+receive."""
        drive_blocking(self.ctx, self.g_Sendrecv(
            sendbuf, dest, recvbuf, source, sendtag, recvtag))

    # -- persistent requests (MPI_Send_init / Recv_init / Start) -----------------------

    def Send_init(self, buf: np.ndarray, dest: int, tag: int = 0) -> "PersistentRequest":
        """Create a persistent send for ``buf`` (re-read at every start).

        The idiomatic MPI pattern for time-step loops: create once,
        ``start()`` every iteration, wait, repeat.
        """
        self._check_alive()
        self._check_peer(dest)
        self._check_tag(tag, allow_any=False)
        return PersistentRequest(self, "send", np.asarray(buf), dest, tag)

    def Recv_init(
        self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> "PersistentRequest":
        """Create a persistent receive into ``buf``."""
        self._check_alive()
        self._check_source(source)
        self._check_tag(tag, allow_any=True)
        return PersistentRequest(self, "recv", np.asarray(buf), source, tag)

    def _post_send(self, ckey: tuple, dest: int, tag: int, payload: Any, req: Request) -> None:
        ctx = self.ctx
        nbytes = payload_nbytes(payload)
        if ctx.engine.tools.wants("on_send"):
            ctx.engine.tools.dispatch("on_send", self.rank, dest, nbytes, tag, ctx.now)
        ctx.engine.fabric.post_send(
            ctx, ckey, self._world_rank(dest), tag, payload, nbytes, req
        )
        if not req.done:
            # Rendezvous: posting cost only; completion comes at match time.
            ctx._advance(ctx.engine.network.o_send)

    # -- collectives (object mode) -----------------------------------------------------

    def barrier(self) -> None:
        """Synchronise all ranks (dissemination algorithm)."""
        drive_blocking(self.ctx, self.g_barrier())

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast an object from ``root``; returns it on every rank."""
        return drive_blocking(self.ctx, self.g_bcast(obj, root))

    def scatter(self, sendobjs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter one object to each rank from a root-side sequence."""
        return drive_blocking(self.ctx, self.g_scatter(sendobjs, root))

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank into a list at ``root``."""
        return drive_blocking(self.ctx, self.g_gather(obj, root))

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one object per rank onto every rank (ring)."""
        return drive_blocking(self.ctx, self.g_allgather(obj))

    def alltoall(self, sendobjs: Sequence[Any]) -> List[Any]:
        """Personalised all-to-all exchange."""
        return drive_blocking(self.ctx, self.g_alltoall(sendobjs))

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (binomial tree); None on non-roots."""
        return drive_blocking(self.ctx, self.g_reduce(obj, op, root))

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Reduce + broadcast; result on every rank."""
        return drive_blocking(self.ctx, self.g_allreduce(obj, op))

    def scan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction in rank order."""
        return drive_blocking(self.ctx, self.g_scan(obj, op))

    def exscan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction; None on rank 0."""
        return drive_blocking(self.ctx, self.g_exscan(obj, op))

    def reduce_scatter_block(self, sendobjs: Sequence[Any], op: ReduceOp = SUM) -> Any:
        """Reduce block i across ranks; deliver it to rank i."""
        return drive_blocking(self.ctx, self.g_reduce_scatter_block(sendobjs, op))

    # -- collectives (buffer mode) --------------------------------------------------------

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """Broadcast ``buf`` in place from ``root`` (binomial tree)."""
        drive_blocking(self.ctx, self.g_Bcast(buf, root))

    def Reduce(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: ReduceOp = SUM, root: int = 0
    ) -> None:
        """Elementwise reduce into ``recvbuf`` at ``root``."""
        drive_blocking(self.ctx, self.g_Reduce(sendbuf, recvbuf, op, root))

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM) -> None:
        """Elementwise reduce with the result on every rank."""
        drive_blocking(self.ctx, self.g_Allreduce(sendbuf, recvbuf, op))

    def Scatter(self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int = 0) -> None:
        """Scatter equal slices of root's ``sendbuf`` (first axis)."""
        drive_blocking(self.ctx, self.g_Scatter(sendbuf, recvbuf, root))

    def Scatterv(
        self,
        sendbuf: Optional[np.ndarray],
        counts: Sequence[int],
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> None:
        """Scatter variable-size slices (counts in elements of axis 0)."""
        drive_blocking(self.ctx, self.g_Scatterv(sendbuf, counts, recvbuf, root))

    def Gather(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int = 0) -> None:
        """Gather equal slices into root's ``recvbuf`` (first axis)."""
        drive_blocking(self.ctx, self.g_Gather(sendbuf, recvbuf, root))

    def Gatherv(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        counts: Sequence[int],
        root: int = 0,
    ) -> None:
        """Gather variable-size slices (counts in elements of axis 0)."""
        drive_blocking(self.ctx, self.g_Gatherv(sendbuf, recvbuf, counts, root))

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """Gather equal blocks onto every rank (ring)."""
        drive_blocking(self.ctx, self.g_Allgather(sendbuf, recvbuf))

    def Allgatherv(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, counts: Sequence[int]
    ) -> None:
        """Gather variable-size blocks onto every rank (axis 0)."""
        drive_blocking(self.ctx, self.g_Allgatherv(sendbuf, recvbuf, counts))

    def Alltoall(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """Personalised all-to-all over equal blocks (pairwise)."""
        drive_blocking(self.ctx, self.g_Alltoall(sendbuf, recvbuf))

    def Scan(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM) -> None:
        """Elementwise inclusive prefix reduction."""
        drive_blocking(self.ctx, self.g_Scan(sendbuf, recvbuf, op))

    def Exscan(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM) -> None:
        """Elementwise exclusive prefix reduction (rank 0 untouched)."""
        drive_blocking(self.ctx, self.g_Exscan(sendbuf, recvbuf, op))

    def Reduce_scatter_block(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM
    ) -> None:
        """Reduce row i across ranks, deliver it to rank i."""
        drive_blocking(self.ctx, self.g_Reduce_scatter_block(sendbuf, recvbuf, op))

    def _collective_entry(self, name: str) -> None:
        self._check_alive()
        ctx = self.ctx
        if ctx.engine.tools.wants("on_collective"):
            ctx.engine.tools.dispatch("on_collective", self.rank, name, self.cid, ctx.now)

    # -- collectives: generator twins ------------------------------------------------------
    #
    # The implementations of the collective methods above, for generator
    # mains (``result = yield from comm.g_allreduce(x)``); the blocking
    # methods drive these, so both spellings share entry bookkeeping,
    # validation and sub-context allocation and are bit-identical.

    def g_barrier(self):
        """Generator twin of :meth:`barrier`."""
        self._collective_entry("barrier")
        return (yield from _coll.g_barrier(self))

    def g_bcast(self, obj: Any, root: int = 0):
        """Generator twin of :meth:`bcast`."""
        self._collective_entry("bcast")
        return (yield from _coll.g_bcast(self, obj, root))

    def g_scatter(self, sendobjs: Optional[Sequence[Any]], root: int = 0):
        """Generator twin of :meth:`scatter`."""
        self._collective_entry("scatter")
        return (yield from _coll.g_scatter(self, sendobjs, root))

    def g_gather(self, obj: Any, root: int = 0):
        """Generator twin of :meth:`gather`."""
        self._collective_entry("gather")
        return (yield from _coll.g_gather(self, obj, root))

    def g_allgather(self, obj: Any):
        """Generator twin of :meth:`allgather`."""
        self._collective_entry("allgather")
        return (yield from _coll.g_allgather(self, obj))

    def g_alltoall(self, sendobjs: Sequence[Any]):
        """Generator twin of :meth:`alltoall`."""
        self._collective_entry("alltoall")
        return (yield from _coll.g_alltoall(self, sendobjs))

    def g_reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0):
        """Generator twin of :meth:`reduce`."""
        self._collective_entry("reduce")
        return (yield from _coll.g_reduce(self, obj, op, root))

    def g_allreduce(self, obj: Any, op: ReduceOp = SUM):
        """Generator twin of :meth:`allreduce`."""
        self._collective_entry("allreduce")
        return (yield from _coll.g_allreduce(self, obj, op))

    def g_scan(self, obj: Any, op: ReduceOp = SUM):
        """Generator twin of :meth:`scan`."""
        self._collective_entry("scan")
        return (yield from _coll.g_scan(self, obj, op))

    def g_exscan(self, obj: Any, op: ReduceOp = SUM):
        """Generator twin of :meth:`exscan`."""
        self._collective_entry("exscan")
        return (yield from _coll.g_exscan(self, obj, op))

    def g_reduce_scatter_block(self, sendobjs: Sequence[Any], op: ReduceOp = SUM):
        """Generator twin of :meth:`reduce_scatter_block`."""
        self._collective_entry("reduce_scatter_block")
        return (yield from _coll.g_reduce_scatter_block(self, sendobjs, op))

    def g_Bcast(self, buf: np.ndarray, root: int = 0):
        """Generator twin of :meth:`Bcast`."""
        self._collective_entry("Bcast")
        yield from _coll.g_Bcast(self, buf, root)

    def g_Reduce(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
        op: ReduceOp = SUM, root: int = 0,
    ):
        """Generator twin of :meth:`Reduce`."""
        self._collective_entry("Reduce")
        yield from _coll.g_Reduce(self, sendbuf, recvbuf, op, root)

    def g_Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM):
        """Generator twin of :meth:`Allreduce`."""
        self._collective_entry("Allreduce")
        yield from _coll.g_Allreduce(self, sendbuf, recvbuf, op)

    def g_Scatter(self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int = 0):
        """Generator twin of :meth:`Scatter`."""
        self._collective_entry("Scatter")
        yield from _coll.g_Scatter(self, sendbuf, recvbuf, root)

    def g_Scatterv(
        self,
        sendbuf: Optional[np.ndarray],
        counts: Sequence[int],
        recvbuf: np.ndarray,
        root: int = 0,
    ):
        """Generator twin of :meth:`Scatterv`."""
        self._collective_entry("Scatterv")
        yield from _coll.g_Scatterv(self, sendbuf, counts, recvbuf, root)

    def g_Gather(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int = 0):
        """Generator twin of :meth:`Gather`."""
        self._collective_entry("Gather")
        yield from _coll.g_Gather(self, sendbuf, recvbuf, root)

    def g_Gatherv(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        counts: Sequence[int],
        root: int = 0,
    ):
        """Generator twin of :meth:`Gatherv`."""
        self._collective_entry("Gatherv")
        yield from _coll.g_Gatherv(self, sendbuf, recvbuf, counts, root)

    def g_Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray):
        """Generator twin of :meth:`Allgather`."""
        self._collective_entry("Allgather")
        yield from _coll.g_Allgather(self, sendbuf, recvbuf)

    def g_Allgatherv(self, sendbuf: np.ndarray, recvbuf: np.ndarray, counts: Sequence[int]):
        """Generator twin of :meth:`Allgatherv`."""
        self._collective_entry("Allgatherv")
        yield from _coll.g_Allgatherv(self, sendbuf, recvbuf, counts)

    def g_Alltoall(self, sendbuf: np.ndarray, recvbuf: np.ndarray):
        """Generator twin of :meth:`Alltoall`."""
        self._collective_entry("Alltoall")
        yield from _coll.g_Alltoall(self, sendbuf, recvbuf)

    def g_Scan(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM):
        """Generator twin of :meth:`Scan`."""
        self._collective_entry("Scan")
        yield from _coll.g_Scan(self, sendbuf, recvbuf, op)

    def g_Exscan(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM):
        """Generator twin of :meth:`Exscan`."""
        self._collective_entry("Exscan")
        yield from _coll.g_Exscan(self, sendbuf, recvbuf, op)

    def g_Reduce_scatter_block(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: ReduceOp = SUM
    ):
        """Generator twin of :meth:`Reduce_scatter_block`."""
        self._collective_entry("Reduce_scatter_block")
        yield from _coll.g_Reduce_scatter_block(self, sendbuf, recvbuf, op)

    # -- internal p2p used by collective algorithms ------------------------------------------

    def _coll_isend(self, ckey: tuple, obj: Any, dest: int, tag: int) -> Request:
        ctx = self.ctx
        req = Request(ctx, "send", ("coll-send(dest={}, tag={})", dest, tag))
        payload = _payload(obj)
        nbytes = payload_nbytes(payload)
        if ctx.engine.tools.wants("on_send"):
            # Collective-internal messages are PMPI-visible sends too.
            ctx.engine.tools.dispatch(
                "on_send", self.rank, dest, nbytes, tag, ctx.now
            )
        ctx.engine.fabric.post_send(
            ctx, ckey, self._world_rank(dest), tag, payload, nbytes, req
        )
        if not req.done:
            ctx._advance(ctx.engine.network.o_send)
        return req

    def _coll_irecv(self, ckey: tuple, source: int, tag: int) -> Request:
        ctx = self.ctx
        req = Request(ctx, "recv", ("coll-recv(source={}, tag={})", source, tag))
        ctx.engine.fabric.post_recv(
            ctx, ckey, self._world_rank(source), tag, None, req
        )
        return req

    def _coll_irecv_into(self, ckey: tuple, buf: np.ndarray, source: int, tag: int) -> Request:
        ctx = self.ctx
        req = Request(ctx, "recv", ("coll-recv-into(source={}, tag={})", source, tag))
        ctx.engine.fabric.post_recv(
            ctx, ckey, self._world_rank(source), tag, np.asarray(buf), req
        )
        return req

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(cid={self.cid}, rank={self.rank}/{self.size})"


class PersistentRequest:
    """A reusable communication handle (``MPI_Send_init`` family).

    ``start()`` posts one instance of the operation and returns the
    live :class:`~repro.simmpi.request.Request`; the handle itself can
    be started again once the previous instance was waited on.  For
    sends the buffer is snapshotted at each start (so the loop can
    update it between iterations); for receives the delivery lands in
    the bound buffer.
    """

    __slots__ = ("comm", "kind", "buf", "peer", "tag", "_active")

    def __init__(self, comm: Communicator, kind: str, buf: np.ndarray,
                 peer: int, tag: int):
        self.comm = comm
        self.kind = kind
        self.buf = buf
        self.peer = peer
        self.tag = tag
        self._active: Optional[Request] = None

    def start(self) -> Request:
        """Post one instance; returns the request to wait on."""
        if self._active is not None and not self._active.done:
            raise RequestError(
                "persistent request started while the previous instance "
                "is still in flight"
            )
        if self.kind == "send":
            self._active = self.comm.Isend(self.buf, self.peer, self.tag)
        else:
            self._active = self.comm.Irecv(self.buf, self.peer, self.tag)
        return self._active

    def wait(self, status: Optional[Status] = None) -> Any:
        """Wait on the active instance."""
        if self._active is None:
            raise RequestError("persistent request waited before start()")
        return self._active.wait(status)

    @property
    def done(self) -> bool:
        """Whether the current instance (if any) has completed."""
        return self._active is not None and self._active.done


class CartComm(Communicator):
    """A communicator with an attached Cartesian topology.

    Adds the ``MPI_Cart_*`` queries; all point-to-point and collective
    operations are inherited unchanged.
    """

    def __init__(self, ctx, group: Group, cid: tuple, grid):
        super().__init__(ctx, group, cid)
        self._grid = grid

    @property
    def dims(self) -> Tuple[int, ...]:
        """Grid extents per dimension."""
        return self._grid.dims

    @property
    def coords(self) -> Tuple[int, ...]:
        """This rank's Cartesian coordinates (``MPI_Cart_coords``)."""
        return self._grid.coords(self.rank)

    def coords_of(self, rank: int) -> Tuple[int, ...]:
        """Coordinates of an arbitrary rank."""
        if not 0 <= rank < self.size:
            raise InvalidRankError(f"rank {rank} outside [0, {self.size})")
        return self._grid.coords(rank)

    def rank_at(self, coords: Sequence[int]) -> int:
        """Rank at ``coords`` (``MPI_Cart_rank``)."""
        return self._grid.rank_of(coords)

    def shift(self, axis: int, disp: int = 1) -> Tuple[int, int]:
        """(source, dest) pair for a shift along ``axis``
        (``MPI_Cart_shift``); PROC_NULL at the non-periodic edges."""
        src = self._grid.shift(self.rank, axis, -disp)
        dst = self._grid.shift(self.rank, axis, +disp)
        return src, dst

    def neighbors(self) -> List[Tuple[int, int, int]]:
        """All face neighbours as (axis, direction, rank) triples."""
        return self._grid.neighbors(self.rank)
