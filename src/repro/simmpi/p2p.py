"""Point-to-point message fabric: posting, matching, completion.

The fabric owns the unexpected-message and posted-receive queues of every
(communication-context, destination) pair and is the only code that
queues, matches and completes messages on them: interpreted
communicator calls and macro-step's replayed calls
(:mod:`repro.simmpi.macrostep`) both post through
:meth:`MessageFabric.post_send` / :meth:`~MessageFabric.post_recv`.  It
implements MPI matching semantics:

* messages between a (src, dst, context) pair are matched in send-post
  order for a given tag (non-overtaking).  Each (context, destination)
  send queue is kept in post (``seq``) order — envelopes are appended at
  the tail and removed from anywhere — so a specific-source receive
  takes the *first* matching envelope of its queue;
* a receive names a specific source+tag, or wildcards
  :data:`~repro.simmpi.api.ANY_SOURCE` / :data:`~repro.simmpi.api.ANY_TAG`;
  wildcard-source receives pick the candidate with the earliest arrival
  timestamp (ties: lowest source, then post order), which under the
  engine's min-clock scheduling is the message a real run would see first;
* the eager protocol (small messages) lets the sender continue after a
  local copy; the rendezvous protocol (large messages) holds the sender
  until the receiver has posted, which is how real MPI back-pressure
  shows up as "late receiver" time in the paper's sections.

**Snapshot rule.**  A plain ``ndarray`` payload is the sender's live
buffer: the fabric copies it only if it outlives the post — when the
message is queued, seen by a blocking probe, or handed to an
object-mode receive.  A buffer receive that consumes the send inline
copies straight from the sender's buffer; no user code runs in between,
so every receiver sees the bytes of post time.  Any other payload
arrives already snapshotted by the caller
(:func:`~repro.simmpi.datatypes.clone_payload`), because its pickled
size is measured on the snapshot.

All queue manipulation happens inside rank bodies, which every engine
executes one at a time — under the thread-free engine literally on one
thread, under the threaded oracle serialised by its baton — so no
locking is needed anywhere in the fabric.  Completion wakes blocked
ranks through ``engine.wake_if_waiting``, which is engine-neutral: it
flips the waiter's scheduling record to READY on either substrate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MPIError
from repro.simmpi.api import ANY_SOURCE, ANY_TAG
from repro.simmpi.datatypes import clone_payload, deliver_into, is_buffer_payload
from repro.simmpi.network import NetworkModel
from repro.simmpi.request import Request


def _snapshot(data: Any) -> Any:
    """The fabric's own copy of a payload that outlives its post."""
    return clone_payload(data) if type(data) is np.ndarray else data


class Envelope:
    """One posted (possibly unmatched) message."""

    __slots__ = (
        "src",
        "dst",
        "tag",
        "data",
        "nbytes",
        "rndv",
        "depart",
        "latency",
        "transfer",
        "recv_overhead",
        "arrival",
        "seq",
        "send_req",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        data: Any,
        nbytes: int,
        rndv: bool,
        depart: float,
        latency: float,
        transfer: float,
        recv_overhead: float,
        arrival: float,
        seq: int,
        send_req: Optional[Request],
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.data = data
        self.nbytes = nbytes
        self.rndv = rndv
        self.depart = depart
        self.latency = latency
        self.transfer = transfer
        self.recv_overhead = recv_overhead
        self.arrival = arrival
        self.seq = seq
        self.send_req = send_req

    @property
    def visible_time(self) -> float:
        """When a probe can see this message: the eager arrival, or the
        rendezvous *header* arrival (the payload may not have moved yet)."""
        if self.rndv:
            return self.depart + self.latency
        return self.arrival

    def element_count(self) -> int:
        """Element count reported by probes/statuses."""
        return int(self.data.size) if is_buffer_payload(self.data) else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = "rndv" if self.rndv else "eager"
        return (
            f"Envelope({self.src}->{self.dst} tag={self.tag} {proto} "
            f"{self.nbytes}B depart={self.depart:.6g})"
        )


class RecvPost:
    """One posted (possibly unmatched) receive — or a blocking probe.

    A probe post (``probe=True``) completes like a receive but does not
    consume the matched envelope, mirroring ``MPI_Probe``.
    """

    __slots__ = ("dst", "source", "tag", "buf", "post_time", "req", "probe")

    def __init__(
        self,
        dst: int,
        source: int,
        tag: int,
        buf: Optional[np.ndarray],
        post_time: float,
        req: Request,
        probe: bool = False,
    ):
        self.dst = dst
        self.source = source
        self.tag = tag
        self.buf = buf
        self.post_time = post_time
        self.req = req
        self.probe = probe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = "ANY" if self.source == ANY_SOURCE else self.source
        tag = "ANY" if self.tag == ANY_TAG else self.tag
        return f"RecvPost(rank {self.dst} <- {src} tag={tag} t={self.post_time:.6g})"


class MessageFabric:
    """Matching engine shared by every communicator of one simulation."""

    def __init__(self, engine, network: NetworkModel):
        self.engine = engine
        self.network = network
        self._sends: Dict[Tuple[Tuple, int], List[Envelope]] = {}
        self._recvs: Dict[Tuple[Tuple, int], List[RecvPost]] = {}
        self._seq = 0
        self._faults = engine.faults
        self._on_recv = engine.tools.wants("on_recv")
        self._eager = network.machine.eager_threshold
        self._intra_bw = network.machine.intra_node.bandwidth

    def pending_summary(self) -> List[str]:
        """Human-readable dump of unmatched traffic (for deadlock reports)."""
        lines: List[str] = []
        for (ckey, dst), envs in self._sends.items():
            for env in envs:
                lines.append(f"  unmatched send ctx={ckey}: {env!r}")
        for (ckey, dst), posts in self._recvs.items():
            for post in posts:
                lines.append(f"  unmatched recv ctx={ckey}: {post!r}")
        return lines

    # -- posting ----------------------------------------------------------------

    def post_send(
        self,
        ctx,
        ckey: Tuple,
        dst: int,
        tag: int,
        data: Any,
        nbytes: int,
        req: Request,
    ) -> None:
        """Post a message; may complete a pending receive immediately.

        ``req`` is the sender-side request.  An eager send charges the
        sender's overhead and buffering copy and completes ``req`` here;
        a rendezvous send leaves it pending until a receive matches.
        ``data`` follows the module's snapshot rule.
        """
        if self._faults is not None:
            self._faults.poll(ctx)
        src = ctx.rank
        net = self.network
        o_send, latency, transfer, o_recv = net.message_timing(src, dst, nbytes)
        depart = ctx._clock
        self._seq = seq = self._seq + 1
        rndv = nbytes > self._eager
        if rndv:
            arrival = np.inf  # routed once the receiver is known
        else:
            # The payload is serialised through the sender's port (LogGP
            # gap), so consecutive sends from one rank queue up.
            arrival = net.route(src, dst, depart + o_send, transfer, latency)[1]
            # Eager: the sender is free once the message is buffered; the
            # buffering memcpy is charged to the sender's clock.
            ctx._clock = clock = depart + (o_send + nbytes / self._intra_bw)
            req.done = True
            req.completion_time = clock
            st = req.status
            st.source = src
            st.tag = tag
        key = (ckey, dst)
        env = None
        # Match already-posted receives in post order: matching blocking
        # probes complete (without consuming the message) and leave the
        # queue until the first matching receive takes it.
        posts = self._recvs.get(key)
        if posts:
            i = 0
            while i < len(posts):
                post = posts[i]
                psrc = post.source
                ptag = post.tag
                if (psrc != ANY_SOURCE and psrc != src) or (
                    ptag != ANY_TAG and ptag != tag
                ):
                    i += 1
                    continue
                del posts[i]
                if env is None and (rndv or post.probe):
                    env = Envelope(
                        src, dst, tag, _snapshot(data), nbytes, rndv, depart,
                        latency, transfer, o_recv, arrival, seq,
                        req if rndv else None,
                    )
                if post.probe:
                    self._complete_probe(env, post.post_time, post.req)
                    continue
                if not posts:
                    del self._recvs[key]
                buf = post.buf
                if env is not None:
                    self._complete_pair(env, post.post_time, buf, post.req)
                else:
                    # Eager, consumed inline: no envelope is built.
                    pt = post.post_time
                    self._finish(
                        post.req, (arrival if arrival > pt else pt) + o_recv,
                        src, dst, tag, nbytes,
                        data if buf is not None else _snapshot(data), buf,
                    )
                return
            if not posts:
                del self._recvs[key]
        if env is None:
            env = Envelope(
                src, dst, tag, _snapshot(data), nbytes, rndv, depart,
                latency, transfer, o_recv, arrival, seq,
                req if rndv else None,
            )
        envs = self._sends.get(key)
        if envs is None:
            self._sends[key] = [env]
        else:
            envs.append(env)

    def post_recv(
        self,
        ctx,
        ckey: Tuple,
        source: int,
        tag: int,
        buf: Optional[np.ndarray],
        req: Request,
    ) -> None:
        """Post a receive; may complete against an unexpected message."""
        if self._faults is not None:
            self._faults.poll(ctx)
        key = (ckey, ctx.rank)
        envs = self._sends.get(key)
        if envs:
            i = self._match(envs, source, tag)
            if i >= 0:
                env = envs[i]
                del envs[i]
                if not envs:
                    del self._sends[key]
                self._complete_pair(env, ctx._clock, buf, req)
                return
        post = RecvPost(ctx.rank, source, tag, buf, ctx._clock, req)
        posts = self._recvs.get(key)
        if posts is None:
            self._recvs[key] = [post]
        else:
            posts.append(post)

    def post_probe(
        self, ctx, ckey: Tuple, source: int, tag: int, req: Request
    ) -> None:
        """Post a blocking probe: completes when a matching message is
        visible, without consuming it (``MPI_Probe``)."""
        if self._faults is not None:
            self._faults.poll(ctx)
        dst = ctx.rank
        env = self.peek(ckey, dst, source, tag)
        if env is not None:
            self._complete_probe(env, ctx._clock, req)
            return
        self._recvs.setdefault((ckey, dst), []).append(
            RecvPost(dst, source, tag, None, ctx._clock, req, probe=True)
        )

    def peek(
        self, ckey: Tuple, dst: int, source: int, tag: int
    ) -> Optional[Envelope]:
        """Non-consuming lookup of a matching pending message
        (``MPI_Iprobe``'s back end)."""
        envs = self._sends.get((ckey, dst))
        if not envs:
            return None
        i = self._match(envs, source, tag)
        return envs[i] if i >= 0 else None

    @staticmethod
    def _match(envs: List[Envelope], source: int, tag: int) -> int:
        """Index of the envelope a receive for ``(source, tag)`` takes,
        or -1.

        A specific-source receive takes the first match: the queue is in
        post order, so that is the oldest message from that source
        (non-overtaking).  A wildcard-source receive takes the
        earliest-arriving candidate — a rendezvous message counts from
        its departure — ties going to the lowest source, then to the
        earliest post (the strict comparisons keep the first of equals).
        """
        if source != ANY_SOURCE:
            for i, env in enumerate(envs):
                if env.src == source and (tag == ANY_TAG or env.tag == tag):
                    return i
            return -1
        best = -1
        best_t = best_src = 0
        for i, env in enumerate(envs):
            if tag != ANY_TAG and env.tag != tag:
                continue
            t = env.depart if env.rndv else env.arrival
            if best < 0 or t < best_t or (t == best_t and env.src < best_src):
                best, best_t, best_src = i, t, env.src
        return best

    # -- completion ----------------------------------------------------------------

    def _complete_probe(self, env: Envelope, post_time: float, req: Request) -> None:
        t = max(env.visible_time, post_time)
        req.complete(t, source=env.src, tag=env.tag, count=env.element_count())
        self.engine.wake_if_waiting(req)

    def _complete_pair(
        self, env: Envelope, post_time: float, buf: Optional[np.ndarray],
        req: Request,
    ) -> None:
        """Complete a matched (send, recv) pair and wake parked ranks."""
        if env.rndv:
            # Transfer starts once both sides are ready, then serialises
            # through the sender's port before the propagation delay.
            ser_end, arrival = self.network.route(
                env.src, env.dst, max(env.depart, post_time), env.transfer,
                env.latency,
            )
            sreq = env.send_req
            sreq.complete(ser_end, source=env.src, tag=env.tag)
            self.engine.wake_if_waiting(sreq)
        else:
            arrival = env.arrival
        self._finish(
            req, (arrival if arrival > post_time else post_time)
            + env.recv_overhead, env.src, env.dst, env.tag, env.nbytes,
            env.data, buf,
        )

    def _finish(
        self, req: Request, recv_done: float, src: int, dst: int, tag: int,
        nbytes: int, data: Any, buf: Optional[np.ndarray],
    ) -> None:
        """Complete receive ``req`` at ``recv_done`` with a matched payload."""
        req.done = True
        req.completion_time = recv_done
        st = req.status
        st.source = src
        st.tag = tag
        if buf is not None:
            st.count = deliver_into(buf, data)
        else:
            st.count = int(data.size) if is_buffer_payload(data) else 1
            req.data = data
        if self._on_recv:
            self.engine.tools.dispatch("on_recv", dst, src, nbytes, tag, recv_done)
        if req.waiter is not None:
            self.engine.wake_if_waiting(req)

    # -- diagnostics ----------------------------------------------------------------

    def assert_drained(self) -> None:
        """Raise if unmatched traffic remains at finalize (lost messages)."""
        leftovers = self.pending_summary()
        if leftovers:
            raise MPIError(
                "simulation finished with unmatched traffic:\n" + "\n".join(leftovers)
            )
