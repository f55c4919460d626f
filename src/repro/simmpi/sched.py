"""Shared discrete-event scheduling core and the generator wait protocol.

Every scheduler in the simulator picks the runnable program with the
smallest ``(virtual clock, rank)`` key.  There are two of them, and both
pop through :meth:`ReadyHeap.pop_ready`:

* ``_EngineBase._loop``, the one event loop of both engines.  It owns
  the step counter, the failed-rank check, the pop, deadlock detection
  and the step guards; each engine supplies only how one popped rank
  runs (a baton handoff to the rank's thread, or an inline generator
  segment);
* the collective fast path's ``_Replay``, which drives the per-rank
  programs of one collective invocation under the same rule.

The pop rule has two twists:

* entries may go **stale** (the program re-blocked or finished while an
  old entry was still queued) — resolved lazily at pop time;
* a queued clock is only a **lower bound** (clocks are monotonic) — an
  entry whose program has since advanced is requeued at the real clock.

Both schedulers hand ``pop_ready`` their per-program records (``state``
and ``ctx._clock``), so the rule is written once and the collective
replay is a special case of the engine scheduler rather than a
parallel implementation.

The second half of this module is the *generator wait protocol*: rank
bodies and collective programs are written as generators that ``yield``
scheduling commands instead of calling blocking primitives, which lets
one OS thread drive every rank.  A driver resumes the generator and
interprets what it yields:

``Request``
    Wait for the request: block iff still pending, then apply the wait
    bookkeeping — the waited mark, the clock advance to the completion
    stamp — and send the payload back in.
``Park(info)``
    Block with a diagnostic label until an explicit ``make_ready`` (the
    collective gate's entry/exit rendezvous).
``YIELD``
    Re-enter the scheduler at the current clock without blocking.
``WaitAny(requests)``
    Block until any of the requests completes (waitany/waitsome).

Two drivers interpret the commands: ``ThreadFreeEngine._segment``
inline in its event loop, and :func:`drive_blocking`, which maps each
command onto the threaded engine's parking primitives.  Every MPI call
is written once, as a generator; its blocking spelling
(``Request.wait``, ``waitall``, ``comm.recv``, ``comm.allreduce``, ...)
is that generator run by :func:`drive_blocking`.  ``g_wait`` /
``g_waitall`` / ``g_waitany`` / ``g_waitsome`` below are the wait calls,
and :mod:`repro.simmpi.request` derives its blocking waits from them.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.errors import EngineStateError, RequestError

if TYPE_CHECKING:  # request.py imports this module: no run-time import back
    from repro.simmpi.request import Request, Status


class ReadyHeap:
    """Min-``(clock, ..., key)`` heap with lazy stale-entry resolution.

    Entries are tuples whose first element is the virtual clock and
    whose last element is the scheduling key: the index of the entry's
    program record in the list handed to :meth:`pop_ready`.  The pop
    rule is shared by every scheduler in the simulator; see the module
    docstring.

    Entries that share the minimum clock are drained from the heap in
    one pass and served from a FIFO batch on subsequent pops, skipping
    a full sift-down per entry (frequent at t=0 and after collective
    gate releases).  Batched entries are re-validated at serve time
    exactly like heap entries, so staleness semantics are unchanged.
    """

    __slots__ = ("_heap", "_batch")

    def __init__(self, entries=()):
        self._heap: List[Tuple] = list(entries)
        self._batch: deque = deque()
        if self._heap:
            heapq.heapify(self._heap)

    def push(self, entry: Tuple) -> None:
        """Queue ``entry`` (``(clock, ..., key)``) for scheduling."""
        heapq.heappush(self._heap, entry)

    def pop_ready(self, progs, ready) -> Optional[Tuple]:
        """Pop the earliest entry whose program is still runnable.

        ``progs[key]`` is the scheduling record of an entry's key: its
        ``state`` is compared with ``ready`` and its ``ctx._clock`` is
        the real clock.  Entries whose program is no longer ``ready``
        are dropped; entries whose clock moved since queueing are
        requeued at the real clock (the queued clock was a lower bound).
        Returns None when no runnable entry remains.
        """
        heap = self._heap
        batch = self._batch
        heappop, heappush = heapq.heappop, heapq.heappush
        while batch:
            # A batched entry may have gone stale since the drain: a
            # sibling batch entry can run its program first (duplicate
            # queue entries) or advance another program's clock.
            entry = batch.popleft()
            if heap and heap[0] < entry:
                # A wake pushed an earlier (clock, rank) key after the
                # drain; fall back to heap order for correctness.
                batch.appendleft(entry)
                break
            pr = progs[entry[-1]]
            if pr.state != ready:
                continue
            clock = pr.ctx._clock
            if clock != entry[0]:
                heappush(heap, (clock,) + entry[1:])
                continue
            return entry
        while heap:
            entry = heappop(heap)
            pr = progs[entry[-1]]
            if pr.state != ready:
                continue  # stale entry from an earlier READY period
            clock = pr.ctx._clock
            if clock != entry[0]:
                heappush(heap, (clock,) + entry[1:])
                continue
            # Drain every other entry at this exact clock in one pass.
            c0 = entry[0]
            while heap and heap[0][0] == c0:
                batch.append(heappop(heap))
            return entry
        return None

    def __len__(self) -> int:
        return len(self._heap) + len(self._batch)

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._batch)


# -- scheduling commands ---------------------------------------------------------


class Park:
    """Yielded command: block with a diagnostic label until made READY.

    ``info`` may be a plain string or any lazy form accepted by
    :func:`info_text` (hot gates pass ``(template, *args)`` tuples so
    nothing is formatted unless a stall report needs the text).
    """

    __slots__ = ("info",)

    def __init__(self, info):
        self.info = info


class YieldBaton:
    """Yielded command: rejoin the ready queue at the current clock."""

    __slots__ = ()


#: The singleton ``YieldBaton`` command (it carries no state).
YIELD = YieldBaton()


class WaitAny:
    """Yielded command: block until any of ``requests`` completes."""

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[Request]):
        self.requests = requests


# -- diagnostic labels -----------------------------------------------------------


def info_text(info) -> str:
    """Render a block/park label that may be stored lazily.

    Hot paths store labels as ``(template, *args)`` tuples (args that
    carry a ``label``, i.e. Requests, contribute that label) or
    zero-argument callables, and only a stall report pays for the
    formatting.  Plain strings pass through unchanged.
    """
    if type(info) is str:
        return info
    if type(info) is tuple:
        return info[0].format(*(getattr(a, "label", a) for a in info[1:]))
    return info()


def waitany_info(pending: Sequence[Request]) -> Callable[[], str]:
    """Lazy block label for a waitany park (first four request labels)."""
    return lambda: "waiting on any of [{}...]".format(
        ", ".join(r.label for r in pending[:4])
    )


# -- drivers ---------------------------------------------------------------------


def drive_blocking(ctx, gen: Generator) -> Any:
    """Run a command-yielding generator on the calling rank's own thread.

    The threaded-engine driver, and with it the whole blocking MPI API:
    each yielded command maps onto the engine's parking primitives, so
    a ``g_*`` call driven here *is* the blocking call of the same name.
    Parking never moves the virtual clock; a waited Request advances it
    to the completion stamp.  Anything that is not a Park, YIELD or
    WaitAny command is a Request, recognised by its ``completion_time``
    (this module sits below :mod:`repro.simmpi.request`).
    """
    val = None
    try:
        while True:
            cmd = gen.send(val)
            val = None
            tcmd = type(cmd)
            if tcmd is Park:
                # Gate rendezvous: the waker calls engine.make_ready.
                ctx.engine.park_current(ctx._thread, cmd.info)
            elif cmd is YIELD:
                # Rejoin the ready queue at ``now`` and compete with the
                # ranks just woken under the smallest-(clock, rank) rule.
                ctx.engine.yield_current(ctx._thread)
            elif tcmd is WaitAny:
                _park_on_any(ctx, cmd.requests)
            elif hasattr(cmd, "completion_time"):
                if not cmd.done:
                    cmd.waiter = ctx.rank
                    ctx.engine.park_current(ctx._thread, ("waiting on {}", cmd))
                    if not cmd.done:  # pragma: no cover - engine invariant
                        raise EngineStateError(
                            f"rank {ctx.rank} woken but {cmd.label} still pending"
                        )
                cmd._waited = True
                ctx._advance_to(cmd.completion_time)
                val = cmd.data
            else:
                raise EngineStateError(
                    f"generator yielded unsupported value {cmd!r} — "
                    "yield Requests, Park, YIELD or WaitAny"
                )
    except StopIteration as stop:
        return stop.value


def _park_on_any(ctx, requests: Sequence[Request]) -> None:
    """Park the rank until *any* of ``requests`` completes, then clear
    the stale waiter marks on the still-pending siblings."""
    pending = [r for r in requests if not r.done]
    if not pending:
        return
    for r in pending:
        r.waiter = ctx.rank
    ctx.engine.park_current(ctx._thread, waitany_info(pending))
    for r in pending:
        if r.waiter == ctx.rank:
            r.waiter = None
    if not any(r.done for r in requests):  # pragma: no cover - engine invariant
        raise EngineStateError(
            f"rank {ctx.rank} woken from waitany with nothing done"
        )


# -- generator wait twins --------------------------------------------------------


def g_wait(req: Request, status: Optional[Status] = None) -> Generator:
    """Generator twin of :meth:`Request.wait`: ``data = yield from g_wait(r)``.

    The driver performs the wait itself (blocking iff pending) and sends
    the payload back; this helper adds the user-facing double-wait check
    and the Status copy-out, mirroring ``wait()`` exactly.
    """
    if req._waited:
        raise RequestError(f"request {req.label} waited twice")
    data = yield req
    if status is not None:
        status.source = req.status.source
        status.tag = req.status.tag
        status.count = req.status.count
    return data


def g_waitall(
    requests: List[Request], statuses: Optional[List[Status]] = None
) -> Generator:
    """Generator twin of :func:`repro.simmpi.request.waitall`."""
    out = []
    for i, req in enumerate(requests):
        st = statuses[i] if statuses is not None else None
        out.append((yield from g_wait(req, st)))
    return out


def g_waitany(
    requests: List[Request], status: Optional[Status] = None
) -> Generator:
    """Generator twin of :func:`repro.simmpi.request.waitany`."""
    if not requests:
        raise RequestError("waitany needs at least one request")
    candidates = [r for r in requests if r.done and not r._waited]
    if not candidates:
        yield WaitAny(requests)
        candidates = [r for r in requests if r.done and not r._waited]
    req = min(candidates, key=lambda r: r.completion_time)
    data = yield from g_wait(req, status)
    return requests.index(req), data


def g_waitsome(requests: List[Request]) -> Generator:
    """Generator twin of :func:`repro.simmpi.request.waitsome`."""
    if not requests:
        raise RequestError("waitsome needs at least one request")
    if not any(r.done and not r._waited for r in requests):
        yield WaitAny(requests)
    ready = sorted(
        (r for r in requests if r.done and not r._waited),
        key=lambda r: r.completion_time,
    )
    out = []
    for r in ready:
        out.append((requests.index(r), (yield from g_wait(r))))
    return out
