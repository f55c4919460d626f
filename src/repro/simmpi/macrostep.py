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
Each tracked rank gets **one** wrapper set, bound on its *own* world
communicator instance when the layer attaches and kept for the rank's
whole life: ``Isend``, ``isend``, ``Irecv``, ``irecv``,
``_collective_entry`` and ``g_Sendrecv``.  Phase changes only flip the
rank's state; nothing is rebound until the rank goes dead or the run
releases it.

* **capture** — while observing, each wrapper records a token per MPI
  call and delegates to the interpreted method:
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
* **replay** — while engaged, each wrapper checks its call against the
  next template entry (the structural guard), advances the cursor and
  calls the **interpreted** method, so queueing, matching and
  completion have one implementation.  Only ``g_Sendrecv`` keeps a
  replay body of its own: it posts its recv/send pair to the shared
  :class:`~repro.simmpi.p2p.MessageFabric` from one plain function,
  skipping the interpreter's argument checks, peer translation and
  generator chains, and suspends only when the receive is still
  pending.  Collectives run interpreted and only stay in template
  sync: the choke-point guard consumes their ``("C", name)`` token.
  Whole collective invocations are the collective gate's job
  (:mod:`repro.simmpi.coll_analytic`), which resolves them the same
  way whether their ranks replay or interpret.
* **deopt** — the moment a guard fails (different call, peer, tag or
  size; a wildcard; a fault firing; the tail of the run) the rank
  leaves the engaged state, the call is delegated to the interpreter
  unrecorded, and observation restarts with the next call.  Replay
  therefore *never* has to be rolled back: a guarded call either
  matches its template exactly — in which case it performs, bit for
  bit, the state evolution the interpreter would have — or it is not
  replayed at all.

Because replay posts through the shared fabric, replaying and
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

from typing import Any, List, Optional

import numpy as np

from repro.simmpi.api import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.simmpi.coll_analytic import env_flag
from repro.simmpi.comm import Communicator
from repro.simmpi.datatypes import payload_nbytes
from repro.simmpi.request import Request

#: Environment switch for macro-stepping.  On by default; ``0`` /
#: ``false`` / ``no`` / ``off`` keeps every round on the interpreter
#: (results are bit-identical either way).
MACROSTEP_ENV = "REPRO_MACROSTEP"

#: Token budget before an aperiodic rank gives up observing.
_MAX_TOKENS = 4096
#: Longest per-rank round template considered.
_MAX_PERIOD = 128
#: Re-engagement budget: after this many capture->replay cycles the
#: rank stays on the interpreter (churny phase behaviour).
_MAX_ENGAGEMENTS = 8

#: The wrapper set bound on each tracked rank's communicator instance.
_BOUND_NAMES = (
    "Isend", "isend", "Irecv", "irecv", "_collective_entry", "g_Sendrecv",
)


def macrostep_enabled(value: Optional[str] = None) -> bool:
    """Whether steady-state capture & replay is on (``REPRO_MACROSTEP``,
    read by :func:`~repro.simmpi.coll_analytic.env_flag`)."""
    return env_flag(MACROSTEP_ENV, value)


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
        "comm", "ctx", "rank", "tokens", "template", "consts", "cursor",
        "wraps", "engaged", "dead", "engagements",
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
            _bind(self, jit)

    def collect(self) -> None:
        """Copy the per-rank counters onto the engine (run finalize)."""
        eng = self.engine
        eng.rounds_captured = self.captured
        eng.rounds_replayed = sum(j.wraps for j in self.jits)
        eng.deopts = self.deopts

    def detach(self) -> None:
        """Unbind every rank's wrapper set (run release).

        The bound closures and the communicator they are bound on point
        at each other; dropping them lets reference counting free both.
        """
        for jit in self.jits:
            _unbind(jit)

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
        _unbind(jit)

    # -- engage / deopt --------------------------------------------------------

    def _engage(self, jit: _RankJit, template: List[tuple]) -> None:
        """Compile ``template`` and switch the rank to replay."""
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

    def deopt(self, jit: _RankJit) -> None:
        """Fall back to the interpreter; restart observation (the
        token stream is already empty: engaging cleared it)."""
        self.deopts += 1
        jit.engaged = False
        if jit.engagements >= _MAX_ENGAGEMENTS:
            self.poison(jit)


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
# the wrapper set
# ---------------------------------------------------------------------------


def _unbind(jit: _RankJit) -> None:
    d = jit.comm.__dict__
    for name in _BOUND_NAMES:
        d.pop(name, None)


def _bind(ctrl: MacrostepController, jit: _RankJit) -> None:
    """Bind the rank's wrapper set on its own communicator, once.

    Instance attributes shadow the class methods for this rank only.
    Each wrapper reads the rank's phase at call time: observing, it
    records its token; engaged, it checks the template entry and
    advances the cursor.  Either way the interpreted method does the
    work, except in the fused ``g_Sendrecv`` replay below.
    """
    comm = jit.comm
    ctx = jit.ctx
    note = ctrl.note
    poison = ctrl.poison
    deopt = ctrl.deopt

    def _advance(tok) -> bool:
        # Engaged guard: step past ``tok`` if it is the next template
        # entry, else deoptimize.
        template = jit.template
        cur = jit.cursor
        if tok != template[cur]:
            deopt(jit)
            return False
        cur += 1
        if cur == len(template):
            cur = 0
            jit.wraps += 1
        jit.cursor = cur
        return True

    def _track(tok, method, *args):
        # One point-to-point post; ``tok`` is None for a call no
        # template can pin (PROC_NULL, wildcards).
        if jit.engaged:
            if comm._freed:
                deopt(jit)
            elif _advance(tok):
                # A post that raises (a hang or crash fault firing at
                # the fabric's poll) deoptimizes before the exception
                # unwinds the rank.
                try:
                    return method(comm, *args)
                except BaseException:
                    deopt(jit)
                    raise
        elif not jit.dead:
            if tok is None:
                poison(jit)
            else:
                note(jit, tok)
        return method(comm, *args)

    def Isend(buf, dest, tag=0):
        tok = None if dest == PROC_NULL else (
            "S", dest, tag, np.asarray(buf).nbytes)
        return _track(tok, Communicator.Isend, buf, dest, tag)

    def isend(obj, dest, tag=0):
        tok = None if dest == PROC_NULL else (
            "s", dest, tag, payload_nbytes(obj))
        return _track(tok, Communicator.isend, obj, dest, tag)

    def Irecv(buf, source=ANY_SOURCE, tag=ANY_TAG):
        tok = None if (
            source == ANY_SOURCE or source == PROC_NULL or tag == ANY_TAG
        ) else ("R", source, tag)
        return _track(tok, Communicator.Irecv, buf, source, tag)

    def irecv(source=ANY_SOURCE, tag=ANY_TAG):
        tok = None if (
            source == ANY_SOURCE or source == PROC_NULL or tag == ANY_TAG
        ) else ("r", source, tag)
        return _track(tok, Communicator.irecv, source, tag)

    def _collective_entry(name):
        # Collectives run interpreted but must stay in template sync:
        # consume their "C" token or deoptimize.
        if jit.engaged:
            _advance(("C", name))
        elif not jit.dead:
            note(jit, ("C", name))
        return Communicator._collective_entry(comm, name)

    # -- fused g_Sendrecv: the one replay body of its own -------------------

    fabric = ctrl.engine.fabric
    post_send = fabric.post_send
    post_recv = fabric.post_recv
    pkey = ("p", comm.cid)
    #: Pooled requests for the fused sendrecv (they never escape it).
    pooled = Request(ctx, "recv", "macrostep replay recv")
    pooled_send = Request(ctx, "send", "macrostep replay send")

    def _block_tail(rreq):
        # Suspension tail of a fused sendrecv whose message has not
        # arrived: the driver completes the wait (clock advance, waited
        # mark) exactly as it would for the interpreter's g_waitall.
        yield rreq
        return None

    def g_Sendrecv(sendbuf, dest, recvbuf, source, sendtag=0, recvtag=ANY_TAG):
        # Engaged, consumes the adjacent (R, S) token pair the
        # interpreted g_Sendrecv (Irecv-then-Isend) recorded during
        # capture.
        #
        # A plain function, not a generator: ``yield from`` accepts any
        # iterable, so the (dominant) non-blocking completion returns an
        # empty tuple — skipping generator creation, send dispatch and
        # StopIteration unwinding per call — and only a genuinely
        # pending receive returns the tiny _block_tail generator.
        if not jit.engaged:
            return Communicator.g_Sendrecv(
                comm, sendbuf, dest, recvbuf, source, sendtag, recvtag
            )
        template = jit.template
        L = len(template)
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
        consts = jit.consts
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

    for fn in (Isend, isend, Irecv, irecv, _collective_entry, g_Sendrecv):
        comm.__dict__[fn.__name__] = fn
