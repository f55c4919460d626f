"""Steady-state round capture & replay for the thread-free engine.

Why
---
The thread-free engine (see :mod:`repro.simmpi.engine`) removed the
thread ceiling, but the paper's iterative workloads still pay full
Python dispatch for every event of every round: each ``g_Sendrecv`` is
a four-generator chain, each message walks the comm wrapper, the
fabric, and the network model as separate calls, and each collective
crosses the gate through the same machinery every round even though
the pattern never changes.  The workloads are *steady-state*: after a
warm-up round the sequence of MPI calls a rank makes — kinds, peers,
tags, sizes — repeats exactly, which is the capture-and-replay
structure inference stacks exploit (CUDA-graph style).

How
---
Each rank gets an observation phase and a replay phase:

* **capture** — lightweight wrappers bound on the rank's *own*
  world communicator instance record a token per MPI call:
  ``("S", dest, tag, nbytes)`` / ``("s", ...)`` for buffer/object
  sends, ``("R", source, tag)`` / ``("r", ...)`` for receives, and
  ``("C", name)`` for collectives (recorded at the
  ``_collective_entry`` choke point).  Wildcard receives poison the
  rank — their match depends on arrival order the template cannot
  pin — and an aperiodic rank gives up after a bounded token budget.
* **detect** — when the token stream verifies one full period
  (``tokens[n-L:n] == tokens[n-2L:n-L]``), the last ``L`` tokens
  become the rank's *round template* and each token's world peer is
  precomputed.
* **replay** — lean methods are bound on the communicator instance:
  each call checks its template entry (the structural guard) and then
  posts through the **shared** :class:`~repro.simmpi.p2p.MessageFabric`
  — ``post_send`` / ``post_recv``, the same calls the interpreter
  makes, so queueing, matching and completion have one implementation.
  What replay skips is the interpreter's argument checks, peer
  translation and generator chains, which the template has already
  settled; ``g_Sendrecv`` posts its recv/send pair from one plain
  function and suspends only when the receive is still pending.
  Collectives run interpreted and only stay in
  template sync: the choke-point guard consumes their ``("C", name)``
  token.  Whole collective invocations are the collective gate's job
  (:mod:`repro.simmpi.coll_analytic`), which resolves them the same
  way whether their ranks replay or interpret.
* **deopt** — the moment a guard fails (different call, peer, tag or
  size; a wildcard; a fault firing; the tail of the run) the lean
  bindings are removed, the call is delegated to the interpreter, and
  observation restarts.  Replay therefore *never* has to be rolled
  back: a lean call either matches its template exactly — in which
  case it performs, bit for bit, the state evolution the interpreter
  would have — or it is not executed lean at all.

Because replay posts through the shared fabric, lean and
interpreted ranks interoperate per call: ranks engage and deoptimize
independently, untracked paths (sub-communicators, probes, persistent
requests) simply stay interpreted, and every simulated quantity —
clocks, results, section events, network counters, traces, interval
records — is bit-identical with macro-stepping on or off.  The
differential suite (``tests/simmpi/test_macrostep.py``) enforces this
against both the interpreted thread-free path and the thread-per-rank
oracle.

Fallbacks: PMPI tools that watch per-message or per-collective
events, and runs with fewer than two ranks, never attach the layer at
all.  Every fault plan attaches: link faults act inside
``NetworkModel.draw``, which the fabric calls for replayed and
interpreted posts alike, and hang/crash plans deopt the moment a fault
fires at the fabric's poll.  ``REPRO_MACROSTEP``
/ ``macrostep=`` / ``--macrostep`` switch it (on by default).
"""

from __future__ import annotations

import os
from typing import Any, List, Optional

import numpy as np

from repro.simmpi.api import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.simmpi.comm import Communicator, _payload
from repro.simmpi.datatypes import payload_nbytes
from repro.simmpi.request import Request

#: Environment switch for macro-stepping.  On by default; ``0`` /
#: ``false`` / ``no`` / ``off`` keeps every round on the interpreter
#: (results are bit-identical either way).
MACROSTEP_ENV = "REPRO_MACROSTEP"

_FALSY = {"0", "false", "no", "off"}

#: Token budget before an aperiodic rank gives up observing.
_MAX_TOKENS = 4096
#: Longest per-rank round template considered.
_MAX_PERIOD = 128
#: Re-engagement budget: after this many capture->replay cycles the
#: rank stays on the interpreter (churny phase behaviour).
_MAX_ENGAGEMENTS = 8

#: Names bound on the communicator instance during observation.
_OBS_NAMES = ("Isend", "Irecv", "isend", "irecv", "_collective_entry")
#: Names bound during replay (superset of the observed surface).
_LEAN_NAMES = _OBS_NAMES + ("g_Sendrecv",)


def macrostep_enabled(value: Optional[str] = None) -> bool:
    """Whether steady-state capture & replay is on.

    Reads ``REPRO_MACROSTEP`` when ``value`` is None; unset or empty
    means **enabled**.  Matching is case-insensitive.
    """
    if value is None:
        value = os.environ.get(MACROSTEP_ENV)
    if value is None:
        return True
    return value.strip().lower() not in _FALSY


def eligible(engine) -> bool:
    """Whether this run can macro-step at all.

    PMPI tools that watch per-message or per-collective events need the
    full interpreted path; single-rank runs have nothing to win.  Every
    fault plan is eligible: link factors are applied inside
    ``NetworkModel.draw``, which replay calls like the interpreter;
    straggler and noise faults scale compute the same way on both; and
    hang / crash delivery points are polled at the identical sites, a
    firing fault deoptimizing.
    """
    if engine.n_ranks < 2:
        return False
    tools = engine.tools
    if (
        tools.wants("on_send")
        or tools.wants("on_recv")
        or tools.wants("on_collective")
    ):
        return False
    return True


class _RankJit:
    """Per-rank capture/replay state."""

    __slots__ = (
        "comm",
        "ctx",
        "rank",
        "tokens",
        "template",
        "consts",
        "cursor",
        "wraps",
        "engaged",
        "dead",
        "engagements",
    )

    def __init__(self, comm):
        self.comm = comm
        self.ctx = comm.ctx
        self.rank = comm.ctx.rank
        self.tokens: List[tuple] = []
        self.template: List[tuple] = []
        self.consts: List[Any] = []
        self.cursor = 0
        self.wraps = 0
        self.engaged = False
        self.dead = False
        self.engagements = 0


class MacrostepController:
    """Owns capture, detection, engagement and deopt for every rank.

    Created by ``ThreadFreeEngine._setup`` when the engine is eligible;
    :meth:`collect` folds the per-rank counters into the engine before
    the :class:`~repro.simmpi.engine.RunResult` is built.
    """

    def __init__(self, engine):
        self.engine = engine
        self.jits: List[_RankJit] = []
        #: Round templates captured (one per engagement, summed over
        #: ranks).
        self.captured = 0
        #: Deoptimization events (guard mismatch, fault fired, tail).
        self.deopts = 0

    def attach(self) -> None:
        """Start observing every rank's world communicator."""
        for prog in self.engine._ranks:
            jit = _RankJit(prog.ctx.comm)
            self.jits.append(jit)
            _install_observers(self, jit)

    def collect(self) -> None:
        """Copy the per-rank counters onto the engine (run finalize)."""
        eng = self.engine
        eng.rounds_captured = self.captured
        eng.rounds_replayed = sum(j.wraps for j in self.jits)
        eng.deopts = self.deopts

    def detach(self) -> None:
        """Unbind every rank's observers and lean methods (run release).

        The bound closures and the communicator they are bound on point
        at each other; dropping them lets reference counting free both.
        """
        for jit in self.jits:
            d = jit.comm.__dict__
            for name in _LEAN_NAMES:
                d.pop(name, None)

    # -- capture ---------------------------------------------------------------

    def note(self, jit: _RankJit, tok: tuple) -> None:
        """Record one call token; try to detect a period."""
        toks = jit.tokens
        toks.append(tok)
        n = len(toks)
        if n >= 2:
            lo = n - 1 - _MAX_PERIOD
            if lo < 0:
                lo = 0
            last = toks[-1]
            for i in range(n - 2, lo - 1, -1):
                if toks[i] == last:
                    period = n - 1 - i
                    if 2 * period <= n and (
                        toks[n - period:] == toks[n - 2 * period:n - period]
                    ):
                        self._engage(jit, toks[n - period:])
                    return
        if n >= _MAX_TOKENS:
            self.poison(jit)

    def poison(self, jit: _RankJit) -> None:
        """Give up on this rank for good (wildcards, aperiodic stream)."""
        jit.dead = True
        jit.tokens = []
        d = jit.comm.__dict__
        for name in _LEAN_NAMES:
            d.pop(name, None)

    # -- engage / deopt --------------------------------------------------------

    def _engage(self, jit: _RankJit, template: List[tuple]) -> None:
        """Compile ``template`` and bind the lean methods."""
        consts = _build_consts(self.engine, jit, template)
        if consts is None:
            # The steady pattern itself is ineligible (rendezvous
            # sizes, self-sends, PROC_NULL): replay can never help.
            self.poison(jit)
            return
        jit.template = template
        jit.consts = consts
        jit.cursor = 0
        jit.engaged = True
        jit.engagements += 1
        jit.tokens = []
        self.captured += 1
        d = jit.comm.__dict__
        for name in _OBS_NAMES:
            d.pop(name, None)
        _install_lean(self, jit)

    def deopt(self, jit: _RankJit) -> None:
        """Fall back to the interpreter; restart observation."""
        self.deopts += 1
        jit.engaged = False
        d = jit.comm.__dict__
        for name in _LEAN_NAMES:
            d.pop(name, None)
        if jit.engagements >= _MAX_ENGAGEMENTS:
            jit.dead = True
            return
        jit.tokens = []
        _install_observers(self, jit)


# ---------------------------------------------------------------------------
# observation wrappers
# ---------------------------------------------------------------------------


def _install_observers(ctrl: MacrostepController, jit: _RankJit) -> None:
    """Bind token-recording wrappers on the rank's own communicator.

    Instance attributes shadow the class methods for this rank only;
    other ranks' communicators are untouched.  Each wrapper records its
    token and delegates to the interpreted implementation.
    """
    comm = jit.comm
    note = ctrl.note
    poison = ctrl.poison

    def obs_Isend(buf, dest, tag=0):
        if not jit.dead:
            if dest == PROC_NULL:
                poison(jit)
            else:
                note(jit, ("S", dest, tag, np.asarray(buf).nbytes))
        return Communicator.Isend(comm, buf, dest, tag)

    def obs_isend(obj, dest, tag=0):
        if not jit.dead:
            if dest == PROC_NULL:
                poison(jit)
            else:
                note(jit, ("s", dest, tag, payload_nbytes(obj)))
        return Communicator.isend(comm, obj, dest, tag)

    def obs_Irecv(buf, source=ANY_SOURCE, tag=ANY_TAG):
        if not jit.dead:
            if source == ANY_SOURCE or source == PROC_NULL or tag == ANY_TAG:
                poison(jit)
            else:
                note(jit, ("R", source, tag))
        return Communicator.Irecv(comm, buf, source, tag)

    def obs_irecv(source=ANY_SOURCE, tag=ANY_TAG):
        if not jit.dead:
            if source == ANY_SOURCE or source == PROC_NULL or tag == ANY_TAG:
                poison(jit)
            else:
                note(jit, ("r", source, tag))
        return Communicator.irecv(comm, source, tag)

    def obs_collective_entry(name):
        if not jit.dead:
            note(jit, ("C", name))
        return Communicator._collective_entry(comm, name)

    comm.Isend = obs_Isend
    comm.isend = obs_isend
    comm.Irecv = obs_Irecv
    comm.irecv = obs_irecv
    comm._collective_entry = obs_collective_entry


# ---------------------------------------------------------------------------
# template compilation
# ---------------------------------------------------------------------------


def _build_consts(engine, jit: _RankJit, template: List[tuple]):
    """Each entry's world peer (None for collectives); None if the
    pattern is ineligible."""
    comm = jit.comm
    me = jit.rank
    eager = engine.network.machine.eager_threshold
    ranks = comm._group.ranks
    size = comm.size
    consts: List[Any] = []
    for tok in template:
        kind = tok[0]
        if kind == "C":
            consts.append(None)
            continue
        peer = tok[1]
        if not 0 <= peer < size or (kind in "Ss" and tok[3] > eager):
            return None
        wpeer = ranks[peer]
        if wpeer == me:
            return None
        consts.append(wpeer)
    return consts


# ---------------------------------------------------------------------------
# lean (replay) methods
# ---------------------------------------------------------------------------


def _install_lean(ctrl: MacrostepController, jit: _RankJit) -> None:
    """Bind the replay methods on the rank's communicator.

    Each one checks its template entry and then posts through the
    shared :class:`~repro.simmpi.p2p.MessageFabric` exactly as the
    interpreted call does, minus the argument checks, peer translation
    and generator chains the template has already settled.  The
    differential suite checks bit-identity.
    """
    comm = jit.comm
    ctx = jit.ctx
    fabric = ctrl.engine.fabric
    post_send = fabric.post_send
    post_recv = fabric.post_recv
    pkey = ("p", comm.cid)
    template = jit.template
    consts = jit.consts
    L = len(template)
    deopt = ctrl.deopt
    #: Pooled requests for the fused sendrecv (they never escape it).
    pooled = Request(ctx, "recv", "macrostep replay recv")
    pooled_send = Request(ctx, "send", "macrostep replay send")

    def _advance(n: int) -> None:
        cur = jit.cursor + n
        if cur >= L:
            cur -= L
            jit.wraps += 1
        jit.cursor = cur

    # A post that raises (a hang or crash fault firing at the fabric's
    # poll) deoptimizes before the exception unwinds the rank.

    # -- standalone lean point-to-point (requests escape to the caller) ------

    def lean_Isend(buf, dest, tag=0):
        e = template[jit.cursor]
        sb = np.asarray(buf)
        if (
            e[0] != "S" or e[1] != dest or e[2] != tag
            or e[3] != sb.nbytes or comm._freed
        ):
            deopt(jit)
            return Communicator.Isend(comm, buf, dest, tag)
        dst = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "send", ("Isend(dest={}, tag={})", dest, tag))
        try:
            post_send(ctx, pkey, dst, tag, sb, sb.nbytes, req)
        except BaseException:
            deopt(jit)
            raise
        return req

    def lean_isend(obj, dest, tag=0):
        e = template[jit.cursor]
        if e[0] != "s" or e[1] != dest or e[2] != tag or comm._freed:
            deopt(jit)
            return Communicator.isend(comm, obj, dest, tag)
        payload = _payload(obj)
        nb = payload_nbytes(payload)
        if nb != e[3]:
            deopt(jit)
            # Re-posting through the interpreter would snapshot twice;
            # the snapshot is semantically idempotent, so reuse it.
            return Communicator.isend(comm, payload, dest, tag)
        dst = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "send", ("isend(dest={}, tag={})", dest, tag))
        try:
            post_send(ctx, pkey, dst, tag, payload, nb, req)
        except BaseException:
            deopt(jit)
            raise
        return req

    def lean_Irecv(buf, source=ANY_SOURCE, tag=ANY_TAG):
        e = template[jit.cursor]
        if e[0] != "R" or e[1] != source or e[2] != tag or comm._freed:
            deopt(jit)
            return Communicator.Irecv(comm, buf, source, tag)
        src = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "recv", ("Irecv(source={}, tag={})", source, tag))
        try:
            post_recv(ctx, pkey, src, tag, np.asarray(buf), req)
        except BaseException:
            deopt(jit)
            raise
        return req

    def lean_irecv(source=ANY_SOURCE, tag=ANY_TAG):
        e = template[jit.cursor]
        if e[0] != "r" or e[1] != source or e[2] != tag or comm._freed:
            deopt(jit)
            return Communicator.irecv(comm, source, tag)
        src = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "recv", ("irecv(source={}, tag={})", source, tag))
        try:
            post_recv(ctx, pkey, src, tag, None, req)
        except BaseException:
            deopt(jit)
            raise
        return req

    # -- fused g_Sendrecv ----------------------------------------------------

    def _block_tail(rreq):
        # Suspension tail of a fused sendrecv whose message has not
        # arrived: the driver completes the wait (clock advance, waited
        # mark) exactly as it would for the interpreter's g_waitall.
        yield rreq
        return None

    def lean_g_Sendrecv(sendbuf, dest, recvbuf, source,
                        sendtag=0, recvtag=ANY_TAG):
        # Consumes the adjacent (R, S) token pair the interpreted
        # g_Sendrecv (Irecv-then-Isend) recorded during capture.
        #
        # A plain function, not a generator: ``yield from`` accepts any
        # iterable, so the (dominant) non-blocking completion returns an
        # empty tuple — skipping generator creation, send dispatch and
        # StopIteration unwinding per call — and only a genuinely
        # pending receive returns the tiny _block_tail generator.
        cur = jit.cursor
        nxt = cur + 1
        if nxt == L:
            nxt = 0
        er = template[cur]
        es = template[nxt]
        sb = sendbuf if type(sendbuf) is np.ndarray else np.asarray(sendbuf)
        if (
            er[0] != "R" or er[1] != source or er[2] != recvtag
            or es[0] != "S" or es[1] != dest or es[2] != sendtag
            or es[3] != sb.nbytes or comm._freed
        ):
            deopt(jit)
            return Communicator.g_Sendrecv(
                comm, sendbuf, dest, recvbuf, source, sendtag, recvtag
            )
        src = consts[cur]
        dst = consts[nxt]
        cur += 2
        if cur >= L:
            cur -= L
            jit.wraps += 1
        jit.cursor = cur
        rbuf = recvbuf if type(recvbuf) is np.ndarray else np.asarray(recvbuf)
        rreq = pooled
        rreq.done = False
        rreq._waited = False
        rreq.data = None
        rreq.waiter = None
        pooled_send.done = False
        # Receive half first, as the interpreter posts it.
        try:
            post_recv(ctx, pkey, src, recvtag, rbuf, rreq)
            post_send(ctx, pkey, dst, sendtag, sb, sb.nbytes, pooled_send)
        except BaseException:
            deopt(jit)
            raise
        # Waits: g_waitall([rreq, sreq]).  The eager send completed at
        # the current clock (a clock no-op) — skipped entirely.
        if not rreq.done:
            return _block_tail(rreq)
        ct = rreq.completion_time
        if ct > ctx._clock:
            ctx._clock = ct
        rreq._waited = True
        return ()

    # -- guarded collective choke point --------------------------------------

    def lean_collective_entry(name):
        # Collectives run interpreted but must stay in template sync:
        # consume their "C" token or deoptimize.
        e = template[jit.cursor]
        if e[0] == "C" and e[1] == name:
            _advance(1)
        else:
            deopt(jit)
        return Communicator._collective_entry(comm, name)

    comm.Isend = lean_Isend
    comm.isend = lean_isend
    comm.Irecv = lean_Irecv
    comm.irecv = lean_irecv
    comm.g_Sendrecv = lean_g_Sendrecv
    comm._collective_entry = lean_collective_entry
