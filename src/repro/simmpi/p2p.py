"""Point-to-point message fabric: posting, matching, completion.

The fabric owns the unexpected-message and posted-receive queues of every
(communication-context, destination) pair and implements MPI matching
semantics:

* messages between a (src, dst, context) pair are matched in send-post
  order for a given tag (non-overtaking);
* a receive names a specific source+tag, or wildcards
  :data:`~repro.simmpi.api.ANY_SOURCE` / :data:`~repro.simmpi.api.ANY_TAG`;
  wildcard-source receives pick the candidate with the earliest arrival
  timestamp (ties: lowest source, then post order), which under the
  engine's min-clock scheduling is the message a real run would see first;
* the eager protocol (small messages) lets the sender continue after a
  local copy; the rendezvous protocol (large messages) holds the sender
  until the receiver has posted, which is how real MPI back-pressure
  shows up as "late receiver" time in the paper's sections.

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
from repro.simmpi.datatypes import deliver_into, is_buffer_payload
from repro.simmpi.network import NetworkModel
from repro.simmpi.request import Request


class Envelope:
    """One posted (possibly unmatched) message."""

    __slots__ = (
        "src",
        "dst",
        "ckey",
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
        ckey: Tuple,
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
        self.ckey = ckey
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

    __slots__ = (
        "dst", "ckey", "source", "tag", "buf", "post_time", "req", "seq",
        "probe",
    )

    def __init__(
        self,
        dst: int,
        ckey: Tuple,
        source: int,
        tag: int,
        buf: Optional[np.ndarray],
        post_time: float,
        req: Request,
        seq: int,
        probe: bool = False,
    ):
        self.dst = dst
        self.ckey = ckey
        self.source = source
        self.tag = tag
        self.buf = buf
        self.post_time = post_time
        self.req = req
        self.seq = seq
        self.probe = probe

    def matches(self, env: Envelope) -> bool:
        """MPI matching rule between this post and an envelope."""
        if self.source != ANY_SOURCE and self.source != env.src:
            return False
        if self.tag != ANY_TAG and self.tag != env.tag:
            return False
        return True

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

    # -- helpers ----------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

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

        The caller (sender's context) has already advanced its clock by the
        send overhead; ``req`` is the sender-side request.  Eager sends
        complete ``req`` here; rendezvous sends leave it pending until a
        receive matches.
        """
        self.engine.fault_poll(ctx)
        src = ctx.rank
        timing = self.network.message_timing(src, dst, nbytes)
        rndv = nbytes > self.network.machine.eager_threshold
        depart = ctx.now
        if rndv:
            arrival = np.inf  # computed when the receiver is known
        else:
            # The payload is serialised through the sender's port (LogGP
            # gap), so consecutive sends from one rank queue up.
            _, arrival = self.network.route(
                src, dst, depart + timing.send_overhead, timing.transfer,
                timing.latency,
            )
            # Eager: the sender is free once the message is buffered; the
            # buffering memcpy is charged to the sender's clock.
            copy_cost = timing.send_overhead + nbytes / self.network.machine.intra_node.bandwidth
            ctx._advance(copy_cost)
            req.complete(ctx.now, source=src, tag=tag)
        env = Envelope(
            src,
            dst,
            ckey,
            tag,
            data,
            nbytes,
            rndv,
            depart,
            timing.latency,
            timing.transfer,
            timing.recv_overhead,
            arrival,
            self._next_seq(),
            None if not rndv else req,
        )
        # Try to match an already-posted receive.  Blocking probes that
        # match are completed (without consuming the message) and removed
        # before real receives are considered.
        posts = self._recvs.get((ckey, dst))
        if posts:
            remaining = []
            consumed = False
            for post in posts:
                if consumed or not post.matches(env):
                    remaining.append(post)
                elif post.probe:
                    self._complete_probe(env, post)
                else:
                    self._complete_pair(env, post)
                    consumed = True
            if remaining:
                self._recvs[(ckey, dst)] = remaining
            else:
                del self._recvs[(ckey, dst)]
            if consumed:
                return
        self._sends.setdefault((ckey, dst), []).append(env)

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
        self.engine.fault_poll(ctx)
        dst = ctx.rank
        post = RecvPost(dst, ckey, source, tag, buf, ctx.now, req, self._next_seq())
        envs = self._sends.get((ckey, dst))
        if envs:
            match = self._pick_send(envs, post)
            if match is not None:
                envs.remove(match)
                if not envs:
                    del self._sends[(ckey, dst)]
                self._complete_pair(match, post)
                return
        self._recvs.setdefault((ckey, dst), []).append(post)

    def post_probe(
        self, ctx, ckey: Tuple, source: int, tag: int, req: Request
    ) -> None:
        """Post a blocking probe: completes when a matching message is
        visible, without consuming it (``MPI_Probe``)."""
        self.engine.fault_poll(ctx)
        dst = ctx.rank
        post = RecvPost(
            dst, ckey, source, tag, None, ctx.now, req, self._next_seq(),
            probe=True,
        )
        env = self.peek(ckey, dst, source, tag)
        if env is not None:
            self._complete_probe(env, post)
            return
        self._recvs.setdefault((ckey, dst), []).append(post)

    def peek(
        self, ckey: Tuple, dst: int, source: int, tag: int
    ) -> Optional[Envelope]:
        """Non-consuming lookup of a matching pending message
        (``MPI_Iprobe``'s back end)."""
        envs = self._sends.get((ckey, dst))
        if not envs:
            return None
        fake = RecvPost(dst, ckey, source, tag, None, 0.0, None, 0, probe=True)
        return self._pick_send(envs, fake)

    def _complete_probe(self, env: Envelope, post: RecvPost) -> None:
        t = max(env.visible_time, post.post_time)
        post.req.complete(
            t, source=env.src, tag=env.tag, count=env.element_count()
        )
        self.engine.wake_if_waiting(post.req)

    def _pick_send(self, envs: List[Envelope], post: RecvPost) -> Optional[Envelope]:
        """Choose the envelope a receive matches, honouring MPI order.

        Specific-source receives take the oldest matching message from that
        source (non-overtaking).  Wildcard-source receives take the
        earliest-arriving candidate, breaking ties deterministically.
        """
        candidates = [e for e in envs if post.matches(e)]
        if not candidates:
            return None
        if post.source != ANY_SOURCE:
            return min(candidates, key=lambda e: e.seq)
        return min(
            candidates,
            key=lambda e: (e.depart if np.isinf(e.arrival) else e.arrival, e.src, e.seq),
        )

    # -- completion ----------------------------------------------------------------

    def _complete_pair(self, env: Envelope, post: RecvPost) -> None:
        """Complete a matched (send, recv) pair and wake parked ranks."""
        if env.rndv:
            # Transfer starts once both sides are ready, then serialises
            # through the sender's port before the propagation delay.
            t_start = max(env.depart, post.post_time)
            ser_end, arrival = self.network.route(
                env.src, env.dst, t_start, env.transfer, env.latency
            )
            if env.send_req is not None and not env.send_req.done:
                env.send_req.complete(ser_end, source=env.src, tag=env.tag)
                self.engine.wake_if_waiting(env.send_req)
        else:
            arrival = env.arrival
        recv_done = max(arrival, post.post_time) + env.recv_overhead

        if post.buf is not None:
            count = deliver_into(post.buf, env.data)
            post.req.complete(recv_done, source=env.src, tag=env.tag, count=count)
        else:
            count = 1 if not is_buffer_payload(env.data) else int(env.data.size)
            post.req.complete(
                recv_done, source=env.src, tag=env.tag, count=count, data=env.data
            )
            if env.data is None:
                # None payloads are legal object messages; mark done anyway.
                post.req.data = None
        if self.engine.tools.wants("on_recv"):
            self.engine.tools.dispatch(
                "on_recv", env.dst, env.src, env.nbytes, env.tag, recv_done
            )
        self.engine.wake_if_waiting(post.req)

    # -- diagnostics ----------------------------------------------------------------

    def assert_drained(self) -> None:
        """Raise if unmatched traffic remains at finalize (lost messages)."""
        leftovers = self.pending_summary()
        if leftovers:
            raise MPIError(
                "simulation finished with unmatched traffic:\n" + "\n".join(leftovers)
            )
