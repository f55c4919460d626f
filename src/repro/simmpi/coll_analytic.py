"""Analytic collective fast path: thread-free resolution of collectives.

Why
---
Every blocking point in the simulator is a two-``threading.Event`` baton
handoff, so a p-rank collective simulated as its full message pattern
costs ~2·p·log2(p) OS context switches even though nothing about the
pattern depends on *which OS thread* computes it.  This module resolves
an entire collective invocation on **one** thread — the last-arriving
rank's — while every other participant pays exactly one park and one
wake.

How bit-identity is guaranteed
------------------------------
The fast path does **not** use a closed-form cost formula that could
drift from the transport.  Instead, every collective algorithm is
written once, as a per-rank *generator program* (see
:mod:`repro.simmpi.collectives`) that posts sends/receives and yields
every request it waits on; the driver performs the wait bookkeeping.
The same program source runs in both modes:

* **message path** (``REPRO_COLL_ANALYTIC=0``): each rank runs its own
  program inside its own ``g_*`` call, posting through its real
  :class:`~repro.simmpi.comm.Communicator` and
  :class:`~repro.simmpi.p2p.MessageFabric` and yielding every pending
  request to the rank's driver (the thread-free event loop, or
  :func:`~repro.simmpi.sched.drive_blocking` for a blocking call);
* **analytic path** (default): the last-arriving rank drives *all* p
  programs with :class:`_Replay`, a miniature of the engines' event
  loop that pops the runnable virtual rank with the smallest
  ``(clock, rank)`` key through the engines' own
  :meth:`~repro.simmpi.sched.ReadyHeap.pop_ready` and runs it until its
  program yields a pending request.
  The replay posts through :class:`_LeanComm`, a transport that keeps
  only the fabric machinery a resolved collective can observe — every
  :class:`~repro.simmpi.network.NetworkModel` state change (jitter
  draw, port reservations, traffic counters), every clock
  advance and every payload clone/delivery, in the identical order.

Because both modes evolve the *same* network-model state, in the
*same* canonical order, against the *same* per-channel jitter RNG
streams, the resulting per-rank exit clocks, payloads, traffic
counters and section timestamps are **bit-identical** — walking the
same algorithm rounds and consuming the same seeded jitter draws,
rather than approximating them.

The collective gate
-------------------
Order must also be pinned at the collective's *boundaries*, so every
gated collective synchronises twice in engine time (never in virtual
time — parking is free on the virtual clock):

* **entry gate**: ranks park until the whole communicator has arrived
  in the same private sub-context (the ``ckey`` minted by
  :meth:`~repro.simmpi.comm.Communicator._next_coll_key`); the last
  arrival releases everyone — or, on the fast path, resolves the whole
  collective first;
* **exit gate**: ranks park after finishing their pattern until every
  pattern is complete, so post-collective user code interleaves
  identically in both modes.

Treating every collective as (engine-)synchronising is behaviour the
MPI standard explicitly permits an implementation; virtual-time costs
are unchanged because parked ranks' clocks never move.

Preconditions
-------------
The gate engages only when the communicator spans every rank of the
job (otherwise outside ranks could interleave port traffic
mid-collective).  Sub-communicators and the linear ablation variants
take the ungated message path unchanged.

The last arrival decides fast or message path: fast when
``engine.coll_analytic`` is on and the engine's one admission rule,
:attr:`~repro.simmpi.engine._EngineBase.admits_fast_paths`, holds (the
rule LULESH's timing skeleton shares).  Only what the replay cannot
model keeps it out: a hang or crash in the :class:`~repro.faults.FaultPlan`
(its delivery point must fire in the owning rank's own scheduling
slot) and a PMPI tool that wants ``on_send`` / ``on_recv``.  Every rank
then runs its own message-path program.  Straggler and noise faults
scale only per-rank compute, and link faults act inside
``NetworkModel.draw``, so those plans resolve fast.

The allreduce specialisation
----------------------------
World ``allreduce`` (and ``Allreduce``, which dispatches as it) is the
synchronising step of most iterative runs, so the last arrival first
offers it to :func:`_flat_allreduce`: the recursive-doubling schedule
executed directly as a flat per-rank state machine, with no generator
programs and no lean transport, under the replay's scheduling rule and
through the same ``draw`` / ``route`` kernels.  It resolves the
invocation only when every rank passes a same-shape, same-dtype numeric
ndarray (at least one dimension) within the eager threshold and names
the same pure built-in reduce op (SUM, PROD, MIN, MAX), p is a power of
two, and the communicator numbers ranks as the world does.  Otherwise
it declines and :class:`_Replay` runs as for every other collective.
Either way the invocation counts as one fast resolution.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heapify, heappop, heappush
from types import FunctionType
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.errors import CommMismatchError, EngineStateError
from repro.simmpi.datatypes import (
    clone_payload,
    deliver_into,
    is_buffer_payload,
    payload_nbytes,
)
from repro.simmpi.reduce_ops import ReduceOp, _max, _min, _prod, _sum
from repro.simmpi.request import Request
from repro.simmpi.sched import YIELD, Park, ReadyHeap

#: Environment switch for the analytic fast path.  On by default;
#: ``0``/``false``/``no``/``off`` reverts every collective to the
#: message-pattern path (results are bit-identical either way).
ANALYTIC_ENV = "REPRO_COLL_ANALYTIC"

#: A collective program: ``factory(comm, ckey, *args)`` returning a
#: generator that yields pending Requests and returns the result.
ProgramFactory = Callable[..., Generator[Request, None, Any]]

#: The reduce functions the flat allreduce trusts to be pure (no
#: argument mutation, so payloads pass between ranks without cloning),
#: each mapped to the ufunc its ndarray branch dispatches to —
#: bit-identical on ndarray operands, minus one Python frame per combine.
_OP_UFUNC = {_sum: np.add, _prod: np.multiply, _min: np.minimum, _max: np.maximum}


#: The case-insensitive words that switch an :func:`env_flag` off.
_FALSY = {"0", "false", "no", "off"}


def env_flag(env: str, value: Optional[str] = None) -> bool:
    """Whether the on-by-default switch ``env`` is on.

    Reads the environment variable ``env`` when ``value`` is None;
    unset or empty means **enabled**, and so does anything but the
    case-insensitive off words ``0``/``false``/``no``/``off``.
    """
    if value is None:
        value = os.environ.get(env)
    if value is None:
        return True
    return value.strip().lower() not in _FALSY


def analytic_enabled(value: Optional[str] = None) -> bool:
    """Whether the analytic fast path is on (``REPRO_COLL_ANALYTIC``,
    read by :func:`env_flag`)."""
    return env_flag(ANALYTIC_ENV, value)


def g_dispatch(comm, kind: str, ckey: tuple, factory: ProgramFactory,
               args: tuple = ()) -> Generator:
    """Entry point of every collective (the ``g_*`` functions).

    Routes through the engine's :class:`CollectiveGate` when the
    preconditions hold, otherwise runs the program as the caller's own
    (the plain message path).  Either way it yields the gate's
    scheduling commands and the program's pending requests to whichever
    driver is resuming the caller — the thread-free engine loop, or
    :func:`~repro.simmpi.sched.drive_blocking` for a blocking call.
    """
    engine = comm.ctx.engine
    gate = engine.coll_gate
    if gate.eligible(comm):
        return (yield from gate.g_run(comm, kind, ckey, factory, args))
    return (yield from factory(comm, ckey, *args))


class _GateEntry:
    """Bookkeeping for one collective invocation crossing the gate."""

    __slots__ = ("kind", "ckey", "size", "comms", "factories", "args",
                 "results", "errors", "mode", "arrived", "exited",
                 "exit_parked")

    def __init__(self, kind: str, ckey: tuple, size: int):
        self.kind = kind
        self.ckey = ckey
        self.size = size
        self.comms: List[Any] = [None] * size
        self.factories: List[Optional[ProgramFactory]] = [None] * size
        self.args: List[tuple] = [()] * size
        self.results: List[Any] = [None] * size
        self.errors: List[Optional[BaseException]] = [None] * size
        #: "fast" once the replay resolved it, "threaded" otherwise.
        self.mode: Optional[str] = None
        self.arrived = 0
        self.exited = 0
        #: Comm ranks parked at the exit gate (threaded mode only).
        self.exit_parked: List[int] = []


class CollectiveGate:
    """Per-engine rendezvous point for gated collective invocations.

    Owns the entry/exit synchronisation and hands whole invocations to
    :class:`_Replay` when the analytic path is enabled.  All methods run
    under the engine baton (exactly one rank thread executes at a
    time), so no locking is needed.
    """

    def __init__(self, engine):
        self.engine = engine
        self._pending: Dict[tuple, _GateEntry] = {}
        #: Collective invocations that crossed the gate.
        self.gated = 0
        #: Invocations resolved thread-free by the analytic replay.
        self.fast = 0

    def eligible(self, comm) -> bool:
        """Gate precondition: the communicator spans the whole job.

        Fault and tool runs cross the gate too (so their engine
        interleaving — and hence their clocks — stays comparable to
        plain runs); the engine's admission rule picks their path.
        """
        engine = self.engine
        return comm.size == engine.n_ranks and comm.size > 1

    def g_run(self, comm, kind: str, ckey: tuple, factory: ProgramFactory,
              args: tuple) -> Generator:
        """Carry one rank through the gated collective ``ckey``.

        A command-yielding generator (see :mod:`repro.simmpi.sched`):
        entry/exit rendezvous are ``Park``/``YIELD`` commands and the
        per-rank pattern's pending requests are yielded through, so the
        same gate source runs under both engines.
        """
        entry = self._pending.get(ckey)
        if entry is None:
            entry = self._pending[ckey] = _GateEntry(kind, ckey, comm.size)
            self.gated += 1
        if entry.kind != kind:
            raise CommMismatchError(
                f"collective mismatch in sub-context {ckey}: this rank "
                f"called {kind!r} but the invocation started as "
                f"{entry.kind!r}"
            )
        rank = comm.rank
        entry.comms[rank] = comm
        entry.factories[rank] = factory
        entry.args[rank] = args
        entry.arrived += 1
        if entry.arrived < entry.size:
            yield Park(
                ("collective gate: {} waiting for {} more rank(s)",
                 kind, entry.size - entry.arrived)
            )
            if entry.mode == "fast":
                return self._finish_fast(entry, rank)
            return (yield from self._g_run_threaded(entry, comm))
        # Last arrival: release (or resolve) the whole invocation.  An
        # alltoall sends on every ordered pair of ranks, so its channels
        # are opened in one batch first (unobservable: see
        # NetworkModel.open_channels).
        engine = self.engine
        if kind == "alltoall":
            ranks = range(entry.size)
            engine.network.open_channels(
                [src for src in ranks for _ in ranks],
                [dst for _ in ranks for dst in ranks])
        if engine.coll_analytic and engine.admits_fast_paths:
            entry.mode = "fast"
            if kind != "allreduce" or not _flat_allreduce(engine, entry):
                _Replay(entry).run()
            self.fast += 1
            self._wake_others(entry, rank)
            yield YIELD
            return self._finish_fast(entry, rank)
        entry.mode = "threaded"
        self._wake_others(entry, rank)
        yield YIELD
        return (yield from self._g_run_threaded(entry, comm))

    # -- internals ---------------------------------------------------------------

    def _wake_others(self, entry: _GateEntry, rank: int) -> None:
        """Mark every other participant runnable again (entry release)."""
        engine = self.engine
        for q in range(entry.size):
            if q != rank:
                engine.make_ready(entry.comms[q].ctx.rank)

    def _finish_fast(self, entry: _GateEntry, rank: int) -> Any:
        """Collect this rank's replayed outcome (fast mode)."""
        entry.exited += 1
        if entry.exited == entry.size:
            self._pending.pop(entry.ckey, None)
        err = entry.errors[rank]
        if err is not None:
            raise err
        return entry.results[rank]

    def _g_run_threaded(self, entry: _GateEntry, comm) -> Generator:
        """Run this rank's own program, then hold the exit gate."""
        rank = comm.rank
        gen = entry.factories[rank](comm, entry.ckey, *entry.args[rank])
        result = yield from gen
        entry.exited += 1
        if entry.exited < entry.size:
            entry.exit_parked.append(rank)
            yield Park(
                ("collective exit gate: {} waiting for {} unfinished rank(s)",
                 entry.kind, entry.size - entry.exited)
            )
        else:
            engine = self.engine
            for q in entry.exit_parked:
                engine.make_ready(entry.comms[q].ctx.rank)
            entry.exit_parked = []
            self._pending.pop(entry.ckey, None)
            yield YIELD
        return result


class _LeanReq:
    """Minimal request for the lean replay transport.

    Carries exactly the surface the wait protocol touches (``done``,
    ``completion_time``, ``data``, the waited mark and the replay's
    waiter index) — no Status, no describe string, no context
    back-reference.  Never escapes the replay: programs only ever see
    the payload the driver sends back in.
    """

    __slots__ = ("done", "completion_time", "data", "waiter", "_waited")

    def __init__(self):
        self.done = False
        self.completion_time = 0.0
        self.data = None
        self.waiter = None
        self._waited = False


class _LeanComm:
    """Drop-in :class:`~repro.simmpi.comm.Communicator` stand-in that
    resolves a program's collective traffic replay-locally.

    The generic replay drives programs through
    :class:`~repro.simmpi.p2p.MessageFabric`, whose per-message cost is
    dominated by machinery a resolved collective cannot exercise: fault
    polling (the gate admits no hang or crash, the only faults with a
    delivery point), PMPI dispatch (nor a tool that wants ``on_send`` /
    ``on_recv``), wildcard matching and probes (collective programs name
    specific source+tag), and thread wakeups (no rank thread runs).
    This class keeps only the state evolution that is observable after
    the collective — every :class:`~repro.simmpi.network.NetworkModel`
    state change (jitter draw, port reservations, traffic
    counters), every clock advance and every payload clone/delivery, in
    the identical order — so the fabric-visible outcome is bit-identical
    while the per-message overhead drops severalfold.  Each message is
    drawn and routed by the network model's own kernels
    (:meth:`~repro.simmpi.network.NetworkModel.draw` / ``route``); the
    matching and completion rules are those of
    ``MessageFabric.post_send`` / ``_complete_pair``.

    Exposes exactly the surface the ``_prog_*`` generators touch —
    ``rank``/``size``/``ctx`` and the ``_coll_*`` posting helpers — so
    the very same program source runs against either transport.
    Matching inside one collective sub-context is specific-(source, tag)
    FIFO, and one gated invocation spans exactly one sub-context, so a
    ``(dst, src, tag)``-keyed table reproduces the full fabric's
    post-order matching exactly (the ``ckey`` argument is common to all
    traffic this instance ever sees).  Collective programs almost never
    reuse a (source, tag) pair before it is matched, so each table slot
    holds the bare envelope/post and is promoted to a deque only on
    collision.
    """

    __slots__ = ("ctx", "rank", "size", "_wr", "_draw", "_route", "_eager",
                 "_intra_bw", "_o_send", "_o_recv", "_sends", "_recvs",
                 "_completed")

    def __init__(self, comm, net, sends, recvs, completed):
        self.ctx = comm.ctx
        self.rank = comm.rank
        self.size = comm.size
        #: comm rank -> world rank (gate precondition: spans the world,
        #: but split() may still have permuted the numbering).
        self._wr = comm._group.ranks
        self._draw = net.draw
        self._route = net.route
        self._eager = net.machine.eager_threshold
        self._intra_bw = net.machine.intra_node.bandwidth
        self._o_send = net.o_send
        self._o_recv = net.o_recv
        self._sends = sends
        self._recvs = recvs
        #: Requests completed by matching since the replay last drained
        #: them — lets the replay wake exactly the programs that became
        #: runnable instead of scanning all p after every segment.
        self._completed = completed

    def _coll_isend(self, ckey, obj, dest, tag) -> _LeanReq:
        """Inline of ``Communicator._coll_isend`` + ``Fabric.post_send``."""
        ctx = self.ctx
        src = ctx.rank
        dst = self._wr[dest]
        if type(obj) is np.ndarray:
            # clone_payload on a plain ndarray is exactly a C-order copy.
            payload = obj.copy()
            nbytes = payload.nbytes
        else:
            payload = clone_payload(obj)
            nbytes = payload_nbytes(payload)
        lat, transfer = self._draw(src, dst, nbytes)
        if src == dst:
            # A self-message is a bare memcpy (see message_timing).
            send_o = recv_o = 0.0
        else:
            send_o = self._o_send
            recv_o = self._o_recv
        depart = ctx._clock
        req = _LeanReq()
        if nbytes > self._eager:
            # Rendezvous: port traffic happens at match time (_complete).
            env = (src, dst, payload, depart, lat, transfer, recv_o, req)
        else:
            arrival = self._route(src, dst, depart + send_o, transfer, lat)[1]
            # ctx._advance(send_overhead + eager copy), then complete —
            # grouped exactly as the fabric sums it (float addition is
            # not associative).
            clock = depart + (send_o + nbytes / self._intra_bw)
            ctx._clock = clock
            req.done = True
            req.completion_time = clock
            env = (payload, arrival, recv_o)
        key = (dst, src, tag)
        recvs = self._recvs
        post = recvs.pop(key, None)
        if post is not None:
            if type(post) is deque:
                first = post.popleft()
                if post:
                    recvs[key] = post
                post = first
            self._complete(env, post[0], post[1], post[2])
        else:
            sends = self._sends
            cur = sends.get(key)
            if cur is None:
                sends[key] = env
            elif type(cur) is deque:
                cur.append(env)
            else:
                sends[key] = deque((cur, env))
        if not req.done:
            # Unfinished (rendezvous) send: charge o_send, as the comm does.
            ctx._clock = depart + self._o_send
        return req

    def _coll_irecv(self, ckey, source, tag, buf=None) -> _LeanReq:
        """Inline of ``Communicator._coll_irecv`` + ``Fabric.post_recv``;
        with ``buf``, of ``_coll_irecv_into``."""
        req = _LeanReq()
        ctx = self.ctx
        key = (ctx.rank, self._wr[source], tag)
        sends = self._sends
        env = sends.pop(key, None)
        if env is not None:
            if type(env) is deque:
                first = env.popleft()
                if env:
                    sends[key] = env
                env = first
            self._complete(env, buf, ctx._clock, req)
        else:
            post = (buf, ctx._clock, req)
            recvs = self._recvs
            cur = recvs.get(key)
            if cur is None:
                recvs[key] = post
            elif type(cur) is deque:
                cur.append(post)
            else:
                recvs[key] = deque((cur, post))
        return req

    def _coll_irecv_into(self, ckey, buf, source, tag) -> _LeanReq:
        """:meth:`_coll_irecv` into ``buf``."""
        return self._coll_irecv(ckey, source, tag, np.asarray(buf))

    def _complete(self, env, buf, post_time, rreq) -> None:
        """Inline of ``MessageFabric._complete_pair`` (sans thread wakes).

        Eager envelopes arrive as ``(payload, arrival, recv_overhead)``
        — their port traffic already happened at post time.  Rendezvous
        envelopes carry the full ``(src, dst, payload, depart, latency,
        transfer, recv_overhead, send_request)`` and are routed here,
        at match time.
        """
        if len(env) == 3:
            data, arrival, recv_o = env
        else:
            src, dst, data, depart, lat, transfer, recv_o, sreq = env
            ser_end, arrival = self._route(
                src, dst, depart if depart >= post_time else post_time,
                transfer, lat,
            )
            if not sreq.done:
                sreq.done = True
                sreq.completion_time = ser_end
                self._completed.append(sreq)
        recv_done = (arrival if arrival >= post_time else post_time) + recv_o
        if buf is not None:
            deliver_into(buf, data)
        else:
            rreq.data = data
        rreq.done = True
        rreq.completion_time = recv_done
        self._completed.append(rreq)


class _ReplayProg:
    """One rank's collective program inside a :class:`_Replay`.

    The scheduling record :meth:`ReadyHeap.pop_ready` reads (``state``,
    ``ctx``), plus the program generator and the lean request it is
    blocked on.
    """

    __slots__ = ("state", "ctx", "gen", "pending")

    def __init__(self, ctx, gen):
        self.state = _Replay._READY
        self.ctx = ctx
        self.gen = gen
        self.pending = None


class _Replay:
    """The engines' event loop, in miniature, for one collective.

    Drives all p generator programs of a gated invocation on the
    resolver's thread, popping through the engines' own
    :meth:`ReadyHeap.pop_ready`: always the runnable virtual rank with
    the smallest ``(virtual clock, world rank)``, run until its program
    yields a request that is still pending.  Every program posts
    through :class:`_LeanComm`, whose jitter draws, port reservations,
    clock advances and payload movement follow the fabric's rules
    through the network model's own kernels, so the replay is an
    order-preserving re-execution, not a model of one.
    """

    _READY, _BLOCKED, _DONE, _FAILED = range(4)

    def __init__(self, entry: _GateEntry):
        self.entry = entry
        self._sends: Dict[tuple, Any] = {}
        self._recvs: Dict[tuple, Any] = {}
        self.completed: List[Any] = []
        net = entry.comms[0].ctx.engine.network
        self.progs = [
            _ReplayProg(comm.ctx, factory(
                _LeanComm(comm, net, self._sends, self._recvs, self.completed),
                entry.ckey, *args))
            for comm, factory, args in zip(entry.comms, entry.factories,
                                           entry.args)
        ]

    def run(self) -> None:
        entry = self.entry
        progs = self.progs
        completed = self.completed
        failures = 0
        # Entries are (clock, world rank, q): the world rank breaks
        # clock ties as in the engine, q indexes the program record.
        heap = ReadyHeap(
            (pr.ctx._clock, pr.ctx.rank, q) for q, pr in enumerate(progs)
        )
        push = heap.push
        pop_ready = heap.pop_ready
        READY, BLOCKED = self._READY, self._BLOCKED
        while True:
            nxt = pop_ready(progs, READY)
            if nxt is None:
                break
            q = nxt[2]
            pr = progs[q]
            ctx = pr.ctx
            # Finish the wait the program blocked on (the bookkeeping
            # Request.wait applies: waited mark, advance to completion).
            req = pr.pending
            if req is not None:
                pr.pending = None
                req._waited = True
                ct = req.completion_time
                if ct > ctx._clock:
                    ctx._clock = ct
                val = req.data
            else:
                val = None
            gen_send = pr.gen.send
            while True:
                try:
                    req = gen_send(val)
                except StopIteration as stop:
                    pr.state = self._DONE
                    entry.results[q] = stop.value
                    break
                except Exception as exc:  # noqa: BLE001 - re-raised per rank
                    pr.state = self._FAILED
                    entry.errors[q] = exc
                    failures += 1
                    break
                if req.done:
                    # Wait on an already-complete request: no block.
                    req._waited = True
                    ct = req.completion_time
                    if ct > ctx._clock:
                        ctx._clock = ct
                    val = req.data
                    continue
                pr.state = BLOCKED
                pr.pending = req
                req.waiter = q
                break
            # A segment may have completed requests other ranks' parked
            # programs were waiting on — exactly like the engine's
            # wake_if_waiting, applied at the baton boundary.  The lean
            # transport reports exactly which requests it completed.
            if completed:
                for dreq in completed:
                    j = dreq.waiter
                    if j is not None:
                        pj = progs[j]
                        if pj.state == BLOCKED:
                            dreq.waiter = None
                            pj.state = READY
                            cj = pj.ctx
                            push((cj._clock, cj.rank, j))
                completed.clear()
        stuck = [pr.ctx.rank for pr in progs if pr.state == BLOCKED]
        if not failures and not stuck and (self._sends or self._recvs):
            leftovers = len(self._sends) + len(self._recvs)
            raise EngineStateError(
                f"analytic replay finished with {leftovers} unmatched "
                "send/recv group(s) — collective programs must be "
                "balanced within their own sub-context"
            )
        if stuck and not failures:
            raise EngineStateError(
                f"analytic replay of {entry.kind!r} stalled with ranks "
                f"{stuck} blocked — collective programs must be closed "
                "over their own sub-context"
            )
        if stuck:
            # A failed program (e.g. a root-side argument error) leaves
            # peers legitimately unmatched; surface the original error
            # on each blocked rank instead of a bogus stall.
            first = next(e for e in entry.errors if e is not None)
            for q, pr in enumerate(progs):
                if pr.state == BLOCKED and entry.errors[q] is None:
                    entry.errors[q] = first


def _flat_allreduce(engine, entry: _GateEntry) -> bool:
    """Resolve one gated ``allreduce`` invocation in a flat event loop.

    The trusted-shape specialisation of :class:`_Replay`: instead of
    driving p ``_prog_allreduce`` generators over :class:`_LeanComm`,
    the known recursive-doubling schedule runs directly, as a per-rank
    (stage, blocked-on-recv) state machine under the same scheduling
    rule (smallest ``(clock, rank)``; a woken rank re-enters at its
    block-time clock and jumps forward on resume).  Each send is drawn
    and routed by the network model's kernels, a send matching a posted
    receive completes it at ``max(arrival, post_time) + o_recv``, and
    combines apply in the program's canonical pair order, so every
    simulated quantity evolves exactly as the replay would evolve it.

    Returns False, leaving everything untouched, unless: every rank
    passes a same-shape, same-dtype numeric ndarray of at least one
    dimension (a 0-d combine yields a NumPy scalar, which travels as a
    pickled object) within the eager threshold; every rank names the
    same pure reduce op; p is a power of two; and the communicator
    numbers ranks as the world does.  True means ``entry.results`` holds
    every rank's result and every rank's clock is final.
    """
    args = entry.args
    a0 = args[0]
    sb0 = a0[0]
    if type(sb0) is not np.ndarray or not sb0.ndim:
        return False
    p = entry.size
    if p & (p - 1):
        # Non-power-of-2 counts add the pre/post folding phases.
        return False
    op0 = a0[1]
    opf = op0.fn if type(op0) is ReduceOp else op0
    # Plain functions hash by identity; a user's callable may not hash.
    ufunc = _OP_UFUNC.get(opf) if type(opf) is FunctionType else None
    if ufunc is None:
        return False
    dtype = sb0.dtype
    if dtype.kind not in "biufc":
        return False
    shape = sb0.shape
    nb = sb0.nbytes
    net = engine.network
    if nb > net.machine.eager_threshold:
        return False
    comms = entry.comms
    if comms[0]._group.ranks != tuple(range(p)):
        return False  # permuted numbering: rank-indexed arrays would lie
    results = [sb0]
    append = results.append
    for q in range(1, p):
        aq = args[q]
        sb = aq[0]
        if (
            type(sb) is not np.ndarray
            or sb.shape != shape
            or sb.dtype != dtype
        ):
            return False
        opq = aq[1]
        if (opq.fn if type(opq) is ReduceOp else opq) is not opf:
            return False
        append(sb)
    # Recursive doubling: stage s pairs rank q with q ^ 2**s.
    nst = p.bit_length() - 1
    osnb = net.o_send + nb / net.machine.intra_node.bandwidth

    ctxs = [comms[q].ctx for q in range(p)]
    clocks = [c._clock for c in ctxs]
    draw = net.draw
    route = net.route
    o_send = net.o_send
    o_recv = net.o_recv
    stg = [0] * p           # next stage per rank
    wstage = [-1] * p       # stage of an unmatched posted receive
    wrd = [0.0] * p         # completion time of a matched receive
    wdata: List[Any] = [None] * p  # payload of a matched receive
    env_a = [[None] * p for _ in range(nst)]  # queued arrival by (stage, src)
    env_d = [[None] * p for _ in range(nst)]  # queued payload by (stage, src)
    heap = [(clocks[q], q) for q in range(p)]
    heapify(heap)
    push = heappush
    while heap:
        q = heappop(heap)[1]
        clk = clocks[q]
        s = stg[q]
        r = results[q]
        partial = wdata[q]
        if partial is not None:
            # Resume the wait the rank blocked on (Request.wait's
            # bookkeeping: jump to the completion stamp, take the data).
            wdata[q] = None
            rd = wrd[q]
            if rd > clk:
                clk = rd
            if q & (1 << s):
                r = ufunc(partial, r)
            else:
                r = ufunc(r, partial)
            s += 1
        while s < nst:
            msk = 1 << s
            ea = env_a[s]
            dst = q ^ msk
            lat, transfer = draw(q, dst, nb)
            arrival = route(q, dst, clk + o_send, transfer, lat)[1]
            clk = clk + osnb
            if wstage[dst] == s:
                # The partner already posted this receive and blocked:
                # complete it at max(arrival, post_time) + o_recv and
                # wake it at its block-time clock.
                wstage[dst] = -1
                pt = clocks[dst]
                wrd[dst] = (arrival if arrival >= pt else pt) + o_recv
                wdata[dst] = r
                push(heap, (pt, dst))
            else:
                ea[q] = arrival
                env_d[s][q] = r
            # -- receive from the same partner (tags are per-stage, so
            # the queue slot is exactly (stage, sender)) --
            a = ea[dst]
            if a is not None:
                ea[dst] = None
                ed = env_d[s]
                data = ed[dst]
                ed[dst] = None
                rd = (a if a >= clk else clk) + o_recv
                if rd > clk:
                    clk = rd
                if q & msk:
                    r = ufunc(data, r)
                else:
                    r = ufunc(r, data)
                s += 1
                continue
            wstage[q] = s
            stg[q] = s
            clocks[q] = clk
            results[q] = r
            break
        else:
            stg[q] = nst
            clocks[q] = clk
            results[q] = r
    entry_results = entry.results
    for q in range(p):
        ctxs[q]._clock = clocks[q]
        entry_results[q] = results[q]
    return True
