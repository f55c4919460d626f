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
  become the rank's *round template* and per-token constants (world
  peer, queue keys) are precomputed.
* **replay** — lean methods are bound on the communicator instance:
  each call checks its template entry (the structural guard) and then
  runs the *fused* form of the interpreted path — the network model's
  ``draw`` / ``route`` kernels plus the fabric's matching rules,
  inlined, against the **shared** fabric queues (real
  :class:`~repro.simmpi.p2p.Envelope` / ``RecvPost`` objects, the real
  sequence counter).  ``g_Sendrecv`` consumes its recv/send pair in
  one generator; ``g_Allreduce`` is compiled end to end — collective
  gate protocol, recursive-doubling program, and transport in a single
  generator with pooled requests and no payload clones (safe: the
  exit gate bounds every payload's lifetime and the trusted reduce
  ops are pure).
* **deopt** — the moment a guard fails (different call, peer, tag or
  size; a wildcard; a fault firing; the tail of the run) the lean
  bindings are removed, the call is delegated to the interpreter, and
  observation restarts.  Replay therefore *never* has to be rolled
  back: a lean call either matches its template exactly — in which
  case it performs, bit for bit, the state evolution the interpreter
  would have — or it is not executed lean at all.

Because replay operates on the shared fabric store, lean and
interpreted ranks interoperate per call: ranks engage and deoptimize
independently, untracked paths (sub-communicators, probes, persistent
requests) simply stay interpreted, and every simulated quantity —
clocks, results, section events, network counters, traces, interval
records — is bit-identical with macro-stepping on or off.  The
differential suite (``tests/simmpi/test_macrostep.py``) enforces this
against both the interpreted thread-free path and the thread-per-rank
oracle.

Fallbacks (mirroring ``coll_analytic``): link faults (per-message
fault factors), PMPI tools that watch per-message events, and runs
with fewer than two ranks never attach the layer at all; hang/crash
plans attach but deopt the moment a fault fires.  ``REPRO_MACROSTEP``
/ ``macrostep=`` / ``--macrostep`` switch it (on by default).
"""

from __future__ import annotations

import os
from typing import Any, List, Optional

import numpy as np

from heapq import heapify, heappop, heappush

from repro.simmpi.api import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.simmpi.coll_analytic import _GateEntry
from repro.simmpi.collectives import _prog_allreduce
from repro.simmpi.comm import Communicator
from repro.simmpi.datatypes import clone_payload, deliver_into, payload_nbytes
from repro.simmpi.p2p import Envelope, RecvPost
from repro.simmpi.reduce_ops import SUM, ReduceOp, _max, _min, _prod, _sum
from repro.simmpi.request import Request
from repro.simmpi.sched import YIELD, Park

#: Environment switch for macro-stepping.  On by default; ``0`` /
#: ``false`` / ``no`` / ``off`` keeps every round on the interpreter
#: (results are bit-identical either way).
MACROSTEP_ENV = "REPRO_MACROSTEP"

_FALSY = {"0", "false", "no", "off"}

#: Reduce operations the compiled allreduce trusts to be pure (no
#: argument mutation), allowing payload-clone elision.
_PURE_OPS = frozenset({_sum, _prod, _min, _max})

#: The ufunc each pure op's ndarray branch dispatches to — bit-identical
#: on ndarray operands, minus one Python frame per combine.
_OP_UFUNC = {_sum: np.add, _prod: np.multiply, _min: np.minimum, _max: np.maximum}

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
_LEAN_NAMES = _OBS_NAMES + ("g_Sendrecv", "g_Allreduce")


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

    Mirrors the ``coll_analytic`` fallbacks: per-message link-fault
    factors and PMPI tools that watch per-message events need the full
    interpreted path; single-rank runs have nothing to win.  Hang /
    crash / straggler plans *are* eligible — their delivery points are
    polled at the identical sites, and a firing fault deoptimizes.
    """
    if engine.n_ranks < 2:
        return False
    faults = engine._faults
    if faults is not None and faults.has_link_faults:
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
        "plans",
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
        #: Compiled-allreduce plan cache, keyed by the unwrapped reduce
        #: function (depends only on p and this rank — survives
        #: re-engagement).
        self.plans: dict = {}


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
    """Precompute per-entry constants; None if the pattern is ineligible."""
    comm = jit.comm
    me = jit.rank
    eager = engine.network.machine.eager_threshold
    ranks = comm._group.ranks
    size = comm.size
    pkey = ("p", comm.cid)
    kq_recv = (pkey, me)
    consts: List[Any] = []
    for tok in template:
        kind = tok[0]
        if kind == "S" or kind == "s":
            dest, tag, nbytes = tok[1], tok[2], tok[3]
            if not 0 <= dest < size or nbytes > eager:
                return None
            wdst = ranks[dest]
            if wdst == me:
                return None
            consts.append((wdst, (pkey, wdst)))
        elif kind == "R" or kind == "r":
            source = tok[1]
            if not 0 <= source < size:
                return None
            wsrc = ranks[source]
            if wsrc == me:
                return None
            consts.append((wsrc, kq_recv))
        else:  # "C"
            consts.append(None)
    return consts


def _allreduce_plan(me: int, p: int, opf) -> Optional[tuple]:
    """Compile the recursive-doubling schedule for this rank.

    Mirrors ``collectives._prog_allreduce`` exactly: the non-power-of-2
    prefold (even ranks donate, odd ranks fold and stand in), the
    doubling rounds with their canonical combine order, and the odd
    ranks' final result broadcast.  Returns ``(pre, rounds, post)``
    where each communication step names its partner world rank, or
    None when ``opf`` is untrusted.
    """
    if opf not in _PURE_OPS:
        return None
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    ndoubling = pof2.bit_length() - 1
    if me < 2 * rem:
        if me % 2 == 0:
            # Donate to me+1, receive the finished result back.
            return (
                ("even", me + 1, 0, ndoubling + 1),
                (),
                None,
            )
        pre = ("odd", me - 1, 0)
        newrank = me // 2
    else:
        pre = None
        newrank = me - rem
    rounds = []
    mask = 1
    rnd = 1
    while mask < pof2:
        partner_new = newrank ^ mask
        partner = (
            partner_new * 2 + 1 if partner_new < rem else partner_new + rem
        )
        rounds.append((partner, rnd, partner < me))
        mask <<= 1
        rnd += 1
    post = None
    if pre is not None:
        # Odd prefold ranks hand the result back to their even partner.
        post = (me - 1, ndoubling + 1)
    return (pre, tuple(rounds), post)


# ---------------------------------------------------------------------------
# whole-invocation allreduce emulation
# ---------------------------------------------------------------------------


def _emulate_allreduce(ctrl: MacrostepController, entry) -> bool:
    """Resolve one gated allreduce invocation in a flat event loop.

    The trusted-shape twin of ``coll_analytic._Replay``: instead of
    driving p ``_prog_allreduce`` generators over a lean transport, the
    known recursive-doubling schedule is executed directly — an explicit
    per-rank (stage, blocked-on-recv) state machine under the engine's
    exact scheduling rule (smallest ``(clock, rank)``; a woken rank
    re-enters at its *block-time* clock and jumps forward on resume).
    Every simulated quantity evolves in the order the message path
    would produce: each send is drawn and routed by the network model's
    kernels, sends match a posted receive by completing it at
    ``max(arrival, post_time) + o_recv``, and combines apply in
    canonical pair order.  Returns False (caller falls back to the
    threaded per-message path) whenever any structural precondition
    fails; True means the invocation is fully resolved — results in
    ``entry.results``, every rank's real clock advanced to its final
    value, the fabric's sequence counter advanced.
    """
    eng = ctrl.engine
    if eng._faults is not None:
        return False
    p = entry.size
    if p < 2 or p & (p - 1):
        # Non-power-of-2 counts add the pre/post folding phases; those
        # rounds stay on the per-message replay path.
        return False
    args = entry.args
    a0 = args[0]
    op0 = a0[1]
    opf = op0.fn if type(op0) is ReduceOp else op0
    if opf not in _PURE_OPS:
        return False
    sb0 = a0[0]
    if type(sb0) is not np.ndarray:
        return False
    dtype = sb0.dtype
    if dtype.hasobject:
        return False
    shape = sb0.shape
    nb = sb0.nbytes
    net = eng.network
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
    # Both combine operands are always ndarrays here, so each pure op
    # collapses to the ufunc its ndarray branch dispatches to anyway;
    # calling the ufunc directly skips a Python frame per combine.
    opf = _OP_UFUNC[opf]

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
                r = opf(partial, r)
            else:
                r = opf(r, partial)
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
                # wake it at its block-time clock, exactly as
                # wake_if_waiting would.
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
                    r = opf(data, r)
                else:
                    r = opf(r, data)
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
    # One message and one matching attempt per (rank, stage), each
    # burning a fabric sequence number.
    eng.fabric._seq += 2 * p * nst
    return True


# ---------------------------------------------------------------------------
# lean (replay) methods
# ---------------------------------------------------------------------------


def _install_lean(ctrl: MacrostepController, jit: _RankJit) -> None:
    """Bind the fused replay methods on the rank's communicator.

    Every closure below is the fused form of the interpreted fabric
    path it replaces (messages are drawn and routed by the network
    model's kernels); comments name the fabric code each one fuses.
    The differential suite checks bit-identity.
    """
    comm = jit.comm
    ctx = jit.ctx
    eng = ctrl.engine
    gate = eng.coll_gate
    fabric = eng.fabric
    net = eng.network
    sends = fabric._sends
    recvs = fabric._recvs
    draw = net.draw
    route = net.route
    o_send = net.o_send
    o_recv = net.o_recv
    eager = net.machine.eager_threshold
    intra_bw = net.machine.intra_node.bandwidth
    me = jit.rank
    p = comm.size
    wcid = comm.cid
    pkey = ("p", wcid)
    kq_recv = (pkey, me)
    faults = eng._faults
    wake = eng.wake_if_waiting
    template = jit.template
    consts = jit.consts
    L = len(template)
    deopt = ctrl.deopt
    plans = jit.plans
    #: Pooled receive request for the fused ops (never escapes them).
    pooled = Request(ctx, "recv", "macrostep replay recv")

    def _poll():
        # Fault delivery at the identical sites the fabric polls; a
        # firing hang/crash unwinds through the lean generator exactly
        # as it would through the interpreter — after deoptimizing.
        try:
            faults.poll(ctx)
        except BaseException:
            deopt(jit)
            raise

    def _advance(n: int) -> None:
        cur = jit.cursor + n
        if cur >= L:
            cur -= L
            jit.wraps += 1
        jit.cursor = cur

    def _send_eager(dst: int, kqs, tag: int, payload, nb: int,
                    snap: bool = False) -> None:
        """Fused eager ``fabric.post_send``: the network model's
        ``draw`` / ``route``, probe-aware matching, shared-store
        queueing.

        With ``snap`` the payload is the caller's live buffer and is
        snapshotted lazily — only at the points where it escapes this
        call (queued or probed as an Envelope, or handed to an
        object-mode receive).  A send consumed inline by a posted
        buffer receive copies into the destination directly, so the
        interpreter's up-front ``clone_payload`` is pure overhead
        there; the delivered bytes are identical because no user code
        runs between the call and the inline delivery."""
        lat, transfer = draw(me, dst, nb)
        depart = ctx._clock
        arrival = route(me, dst, depart + o_send, transfer, lat)[1]
        # Eager: the sender is freed after the local buffering copy.
        ctx._clock = depart + (o_send + nb / intra_bw)
        seq = fabric._seq + 1
        fabric._seq = seq
        env = None
        consumed = False
        posts = recvs.get(kqs)
        if posts:
            i = 0
            while i < len(posts):
                post = posts[i]
                psrc = post.source
                ptag = post.tag
                if (psrc == ANY_SOURCE or psrc == me) and (
                    ptag == ANY_TAG or ptag == tag
                ):
                    if post.probe:
                        # Blocking probe: complete it, keep the message.
                        if env is None:
                            if snap:
                                payload = clone_payload(payload)
                                snap = False
                            env = Envelope(
                                me, dst, kqs[0], tag, payload, nb, False,
                                depart, lat, transfer, o_recv, arrival,
                                seq, None,
                            )
                        del posts[i]
                        fabric._complete_probe(env, post)
                        continue
                    del posts[i]
                    if not posts:
                        recvs.pop(kqs, None)
                    # Inlined eager _complete_pair.
                    pt = post.post_time
                    recv_done = (
                        arrival if arrival > pt else pt
                    ) + o_recv
                    preq = post.req
                    preq.done = True
                    preq.completion_time = recv_done
                    st = preq.status
                    st.source = me
                    st.tag = tag
                    buf = post.buf
                    if buf is not None:
                        # Exact-fit delivery inline (the dominant case);
                        # deliver_into handles truncation/dtype errors.
                        if (
                            type(payload) is np.ndarray
                            and payload.shape == buf.shape
                            and payload.dtype == buf.dtype
                        ):
                            np.copyto(buf, payload)
                            st.count = payload.size
                        else:
                            st.count = deliver_into(buf, payload)
                    else:
                        st.count = (
                            int(payload.size)
                            if isinstance(payload, np.ndarray)
                            else 1
                        )
                        if snap:
                            payload = clone_payload(payload)
                            snap = False
                        preq.data = payload
                    wake(preq)
                    consumed = True
                    break
                i += 1
            if not posts:
                recvs.pop(kqs, None)
        if not consumed:
            if env is None:
                if snap:
                    payload = clone_payload(payload)
                env = Envelope(
                    me, dst, kqs[0], tag, payload, nb, False, depart,
                    lat, transfer, o_recv, arrival, seq, None,
                )
            q = sends.get(kqs)
            if q is None:
                sends[kqs] = [env]
            else:
                q.append(env)

    def _complete_send_req(req: Request, tag: int) -> None:
        # Mirror post_send's eager req.complete(ctx.now, source, tag).
        req.done = True
        req.completion_time = ctx._clock
        st = req.status
        st.source = me
        st.tag = tag

    def _recv_match(kq, wsrc: int, tag: int):
        """Oldest matching envelope from a specific source, or None.

        Consumes a sequence number either way (the interpreter creates
        the RecvPost — and burns its seq — before matching).
        """
        seq = fabric._seq + 1
        fabric._seq = seq
        envs = sends.get(kq)
        best = None
        if envs:
            for env in envs:
                if env.src == wsrc and env.tag == tag and (
                    best is None or env.seq < best.seq
                ):
                    best = env
            if best is not None:
                envs.remove(best)
                if not envs:
                    del sends[kq]
        return best, seq

    def _recv_inline(req: Request, best: Envelope, kq, wsrc, tag, buf, seq):
        """Complete ``req`` against a matched envelope (any protocol)."""
        if best.rndv:
            # Rendezvous completion reserves ports at match time; the
            # fabric's own routine is the reference — delegate.
            post = RecvPost(me, kq[0], wsrc, tag, buf, ctx._clock, req, seq)
            fabric._complete_pair(best, post)
            return
        arrival = best.arrival
        pt = ctx._clock
        recv_done = (arrival if arrival > pt else pt) + best.recv_overhead
        req.done = True
        req.completion_time = recv_done
        st = req.status
        st.source = best.src
        st.tag = best.tag
        data = best.data
        if buf is not None:
            if (
                type(data) is np.ndarray
                and data.shape == buf.shape
                and data.dtype == buf.dtype
            ):
                np.copyto(buf, data)
                st.count = data.size
            else:
                st.count = deliver_into(buf, data)
        else:
            st.count = (
                int(data.size) if isinstance(data, np.ndarray) else 1
            )
            req.data = data

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
        dst, kqs = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "send", ("Isend(dest={}, tag={})", dest, tag))
        if faults is not None:
            _poll()
        _send_eager(dst, kqs, tag, sb, sb.nbytes, True)
        _complete_send_req(req, tag)
        return req

    def lean_isend(obj, dest, tag=0):
        e = template[jit.cursor]
        if e[0] != "s" or e[1] != dest or e[2] != tag or comm._freed:
            deopt(jit)
            return Communicator.isend(comm, obj, dest, tag)
        payload = clone_payload(obj)
        nb = payload_nbytes(payload)
        if nb != e[3]:
            deopt(jit)
            # Re-posting through the interpreter would clone twice;
            # the clone is semantically idempotent, so reuse it.
            return Communicator.isend(comm, payload, dest, tag)
        dst, kqs = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "send", ("isend(dest={}, tag={})", dest, tag))
        if faults is not None:
            _poll()
        _send_eager(dst, kqs, tag, payload, nb)
        _complete_send_req(req, tag)
        return req

    def lean_Irecv(buf, source=ANY_SOURCE, tag=ANY_TAG):
        e = template[jit.cursor]
        if e[0] != "R" or e[1] != source or e[2] != tag or comm._freed:
            deopt(jit)
            return Communicator.Irecv(comm, buf, source, tag)
        rc = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "recv", ("Irecv(source={}, tag={})", source, tag))
        if faults is not None:
            _poll()
        wsrc = rc[0]
        rbuf = np.asarray(buf)
        best, seq = _recv_match(kq_recv, wsrc, tag)
        if best is not None:
            _recv_inline(req, best, kq_recv, wsrc, tag, rbuf, seq)
        else:
            post = RecvPost(me, pkey, wsrc, tag, rbuf, ctx._clock, req, seq)
            q = recvs.get(kq_recv)
            if q is None:
                recvs[kq_recv] = [post]
            else:
                q.append(post)
        return req

    def lean_irecv(source=ANY_SOURCE, tag=ANY_TAG):
        e = template[jit.cursor]
        if e[0] != "r" or e[1] != source or e[2] != tag or comm._freed:
            deopt(jit)
            return Communicator.irecv(comm, source, tag)
        rc = consts[jit.cursor]
        _advance(1)
        req = Request(ctx, "recv", ("irecv(source={}, tag={})", source, tag))
        if faults is not None:
            _poll()
        wsrc = rc[0]
        best, seq = _recv_match(kq_recv, wsrc, tag)
        if best is not None:
            _recv_inline(req, best, kq_recv, wsrc, tag, None, seq)
        else:
            post = RecvPost(me, pkey, wsrc, tag, None, ctx._clock, req, seq)
            q = recvs.get(kq_recv)
            if q is None:
                recvs[kq_recv] = [post]
            else:
                q.append(post)
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
        rc = consts[cur]
        sc = consts[nxt]
        cur = jit.cursor + 2
        if cur >= L:
            cur -= L
            jit.wraps += 1
        jit.cursor = cur
        # Receive half (posted first, as the interpreter does).
        if faults is not None:
            _poll()
        wsrc = rc[0]
        rbuf = recvbuf if type(recvbuf) is np.ndarray else np.asarray(recvbuf)
        # _recv_match, inlined at its hottest call-site.
        seq = fabric._seq + 1
        fabric._seq = seq
        envs = sends.get(kq_recv)
        best = None
        if envs:
            for env in envs:
                if env.src == wsrc and env.tag == recvtag and (
                    best is None or env.seq < best.seq
                ):
                    best = env
            if best is not None:
                envs.remove(best)
                if not envs:
                    del sends[kq_recv]
        if best is not None and not best.rndv:
            # Eager message already queued: the receive completes
            # inline, so the pooled Request is never observed by
            # anyone — compute the completion stamp directly
            # (_recv_inline's arithmetic) and apply it after the send,
            # exactly where g_waitall would.
            arrival = best.arrival
            pt = ctx._clock
            recv_done = (arrival if arrival > pt else pt) + best.recv_overhead
            d = best.data
            if (
                type(d) is np.ndarray
                and d.shape == rbuf.shape
                and d.dtype == rbuf.dtype
            ):
                np.copyto(rbuf, d)
            else:
                deliver_into(rbuf, d)
            if faults is not None:
                _poll()
            _send_eager(sc[0], sc[1], sendtag, sb, sb.nbytes, True)
            if recv_done > ctx._clock:
                ctx._clock = recv_done
            return ()
        rreq = pooled
        rreq.done = False
        rreq._waited = False
        rreq.data = None
        rreq.waiter = None
        pending = best is None
        if pending:
            post = RecvPost(me, pkey, wsrc, recvtag, rbuf, ctx._clock,
                            rreq, seq)
            q = recvs.get(kq_recv)
            if q is None:
                recvs[kq_recv] = [post]
            else:
                q.append(post)
        else:
            _recv_inline(rreq, best, kq_recv, wsrc, recvtag, rbuf, seq)
        # Send half (snapshotted lazily inside, only if it escapes).
        if faults is not None:
            _poll()
        _send_eager(sc[0], sc[1], sendtag, sb, sb.nbytes, True)
        # Waits: g_waitall([rreq, sreq]).  The eager sreq is complete
        # at a timestamp <= now (a clock no-op) — skipped entirely.
        if pending and not rreq.done:
            return _block_tail(rreq)
        ct = rreq.completion_time
        if ct > ctx._clock:
            ctx._clock = ct
        rreq._waited = True
        return ()

    # -- fused, fully compiled g_Allreduce -----------------------------------

    def lean_g_Allreduce(sendbuf, recvbuf, op=SUM):
        cur = jit.cursor
        e = template[cur]
        if e[0] != "C" or e[1] != "Allreduce" or comm._freed:
            deopt(jit)
            return (yield from Communicator.g_Allreduce(
                comm, sendbuf, recvbuf, op
            ))
        opf = op.fn if type(op) is ReduceOp else op
        plan = plans.get(opf, False)
        if plan is False:
            plan = _allreduce_plan(me, p, opf)
            plans[opf] = plan
        if plan is None:
            # Untrusted reduce op: interpret this invocation; the
            # instance _collective_entry guard consumes the token.
            return (yield from Communicator.g_Allreduce(
                comm, sendbuf, recvbuf, op
            ))
        _advance(1)
        sb = np.asarray(sendbuf)
        if faults is not None:
            _poll()
        # ckey minting (comm._next_coll_key, inlined).
        cseq = comm._coll_seq
        comm._coll_seq = cseq + 1
        ckey = ("c", wcid, cseq)
        # --- entry gate (CollectiveGate.g_run, inlined) ---
        pend = gate._pending
        entry = pend.get(ckey)
        if entry is None:
            entry = pend[ckey] = _GateEntry("Allreduce", ckey, p)
            gate.gated += 1
        if entry.kind != "Allreduce":
            deopt(jit)
            raise _kind_mismatch(ckey, entry.kind)
        entry.comms[me] = comm
        # Register the interpreted program so a mixed-mode last
        # arrival can still resolve the invocation analytically.
        entry.factories[me] = _prog_allreduce
        entry.args[me] = (sb, op)
        entry.arrived += 1
        if entry.arrived < p:
            yield Park(
                ("collective gate: {} waiting for {} more rank(s)",
                 "Allreduce", p - entry.arrived)
            )
            if entry.mode == "fast":
                result = gate._finish_fast(entry, me)
                np.asarray(recvbuf)[...] = result
                return None
        else:
            # Last arrival resolves the invocation (this method is bound
            # only when the analytic path would not replay it).
            if _emulate_allreduce(ctrl, entry):
                # Whole-invocation flat replay: results and final
                # clocks are already in place, so the parked ranks
                # resume through the same fast-mode finish the analytic
                # path uses (interpreted arrivals included — their
                # ``g_run`` park handles mode == "fast" natively).
                entry.mode = "fast"
                gate._wake_others(entry, me)
                yield YIELD
                result = gate._finish_fast(entry, me)
                np.asarray(recvbuf)[...] = result
                return None
            entry.mode = "threaded"
            gate._wake_others(entry, me)
            yield YIELD
        # --- compiled recursive doubling (collectives._prog_allreduce,
        # inlined over the lean transport; no payload clones — the
        # trusted ops are pure and the exit gate bounds every payload's
        # lifetime) ---
        result = sb
        pre, rounds, post_send_c = plan

        def _lsend(dst, tag, payload):
            # Returns the pending rndv request, or None for eager
            # (whose completed-request yield is a clock no-op).
            nb = payload.nbytes
            if nb > eager:
                srq = Request(ctx, "send", "macrostep coll send")
                fabric.post_send(ctx, ckey, dst, tag, payload, nb, srq)
                if not srq.done:
                    ctx._advance(o_send)
                    return srq
                return None
            if faults is not None:
                _poll()
            _send_eager(dst, (ckey, dst), tag, payload, nb)
            return None

        def _lrecv_try(src, tag):
            # Inline-complete a matched receive; None means pending
            # (the caller must post `pooled` and yield it).
            if faults is not None:
                _poll()
            best, seq = _recv_match((ckey, me), src, tag)
            if best is None:
                r = pooled
                r.done = False
                r._waited = False
                r.data = None
                r.waiter = None
                post = RecvPost(me, ckey, src, tag, None, ctx._clock,
                                r, seq)
                kqr = (ckey, me)
                q = recvs.get(kqr)
                if q is None:
                    recvs[kqr] = [post]
                else:
                    q.append(post)
                return None
            if best.rndv:
                r = pooled
                r.done = False
                r._waited = False
                r.data = None
                r.waiter = None
                post = RecvPost(me, ckey, src, tag, None, ctx._clock,
                                r, seq)
                fabric._complete_pair(best, post)
                ct = r.completion_time
                if ct > ctx._clock:
                    ctx._clock = ct
                return (r.data,)
            arrival = best.arrival
            pt = ctx._clock
            recv_done = (arrival if arrival > pt else pt) + best.recv_overhead
            if recv_done > ctx._clock:
                ctx._clock = recv_done
            return (best.data,)

        if pre is not None:
            if pre[0] == "even":
                _, peer, stag, rtag = pre
                srq = _lsend(peer, stag, result)
                if srq is not None:
                    yield srq
                got = _lrecv_try(peer, rtag)
                if got is None:
                    result = yield pooled
                else:
                    result = got[0]
                # Donating even ranks take the finished result and
                # skip the doubling rounds entirely.
                rounds = ()
                post_send_c = None
            else:
                _, peer, rtag = pre
                got = _lrecv_try(peer, rtag)
                if got is None:
                    partial = yield pooled
                else:
                    partial = got[0]
                result = opf(partial, result)
        for peer, tag, partner_first in rounds:
            srq = _lsend(peer, tag, result)
            got = _lrecv_try(peer, tag)
            if got is None:
                partial = yield pooled
            else:
                partial = got[0]
            if srq is not None:
                yield srq
            if partner_first:
                result = opf(partial, result)
            else:
                result = opf(result, partial)
        if post_send_c is not None:
            peer, tag = post_send_c
            srq = _lsend(peer, tag, result)
            if srq is not None:
                yield srq
        # --- exit gate (CollectiveGate._g_run_threaded tail, inlined) ---
        entry.exited += 1
        if entry.exited < p:
            entry.exit_parked.append(me)
            yield Park(
                ("collective exit gate: {} waiting for {} unfinished "
                 "rank(s)", "Allreduce", p - entry.exited)
            )
        else:
            engine_ranks = eng
            for q in entry.exit_parked:
                engine_ranks.make_ready(entry.comms[q].ctx.rank)
            entry.exit_parked = []
            pend.pop(ckey, None)
            yield YIELD
        np.asarray(recvbuf)[...] = result
        return None

    # -- guarded collective choke point --------------------------------------

    def lean_collective_entry(name):
        # Non-compiled collectives run interpreted but must stay in
        # template sync: consume their "C" token or deoptimize.
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
    # The compiled collective binds only when the gate would go
    # threaded; otherwise the analytic fast path owns it and the
    # choke-point guard above keeps the template in sync.
    if not (eng.coll_analytic and faults is None):
        comm.g_Allreduce = lean_g_Allreduce


def _kind_mismatch(ckey, started_as):
    from repro.errors import CommMismatchError

    return CommMismatchError(
        f"collective mismatch in sub-context {ckey}: this rank called "
        f"'Allreduce' but the invocation started as {started_as!r}"
    )
