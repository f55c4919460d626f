"""Request and Status handles for non-blocking operations.

A :class:`Request` tracks one in-flight send or receive.  Completion is a
*virtual-time* event: the fabric stamps the request with the timestamp at
which the operation finishes; ``wait()`` advances the caller's clock to at
least that timestamp (and parks the rank thread if the match has not
happened yet).  :class:`Status` mirrors ``MPI_Status`` — source, tag and
element count of the matched message.

The blocking waits here are the generator waits of
:mod:`repro.simmpi.sched` (``g_wait`` and friends) run to completion by
:func:`~repro.simmpi.sched.drive_blocking`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import RequestError
from repro.simmpi.sched import drive_blocking, g_wait, g_waitall, g_waitany, g_waitsome


class Status:
    """Outcome of a completed receive (``MPI_Status`` analogue)."""

    __slots__ = ("source", "tag", "count", "cancelled")

    def __init__(self) -> None:
        self.source: int = -1
        self.tag: int = -1
        self.count: int = 0
        self.cancelled: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Status(source={self.source}, tag={self.tag}, count={self.count})"


class Request:
    """Handle on a non-blocking point-to-point operation.

    Attributes
    ----------
    kind:
        ``"send"`` or ``"recv"``.
    done:
        Whether the operation has (virtually) completed.
    completion_time:
        Virtual timestamp of completion; only valid when ``done``.
    data:
        For object-mode receives, the received object.
    """

    __slots__ = (
        "kind",
        "done",
        "completion_time",
        "data",
        "status",
        "_ctx",
        "_waited",
        "waiter",
        "describe",
    )

    def __init__(self, ctx, kind: str, describe="") -> None:
        self.kind = kind
        self.done = False
        self.completion_time = 0.0
        self.data: Any = None
        self.status = Status()
        self._ctx = ctx
        self._waited = False
        #: Rank currently parked in wait() on this request, if any.
        self.waiter: Optional[int] = None
        #: Description used in deadlock dumps: a plain string, or a
        #: ``(template, *args)`` tuple formatted lazily by :attr:`label`
        #: (hot constructors avoid paying for a string nobody reads).
        self.describe = describe

    @property
    def label(self) -> str:
        """Human-readable description (formats lazy ``describe`` forms)."""
        d = self.describe
        if type(d) is tuple:
            return d[0].format(*d[1:])
        return d

    # -- completion (called by the fabric) ------------------------------------

    def complete(
        self,
        time: float,
        *,
        source: int = -1,
        tag: int = -1,
        count: int = 0,
        data: Any = None,
    ) -> None:
        """Mark the request complete at virtual ``time``."""
        if self.done:
            raise RequestError(f"request {self.label} completed twice")
        self.done = True
        self.completion_time = time
        self.status.source = source
        self.status.tag = tag
        self.status.count = count
        if data is not None:
            self.data = data

    # -- user side --------------------------------------------------------------

    def test(self) -> bool:
        """Non-blocking completion check (no clock effect)."""
        return self.done

    def wait(self, status: Optional[Status] = None) -> Any:
        """Block (in virtual time) until complete; returns received data.

        Advances the caller's clock to the completion timestamp.  Waiting
        twice on the same request is an error, as in MPI.
        """
        return drive_blocking(self._ctx, g_wait(self, status))


def _ctx_of(requests: list[Request]):
    """The waiting rank's context (None for an empty list: never used)."""
    return requests[0]._ctx if requests else None


def waitall(requests: list[Request], statuses: Optional[list[Status]] = None) -> list[Any]:
    """Wait on every request; returns their data in order.

    The caller's clock ends at the max completion time, as a real
    ``MPI_Waitall`` would observe.
    """
    return drive_blocking(_ctx_of(requests), g_waitall(requests, statuses))


def waitany(requests: list[Request], status: Optional[Status] = None):
    """Wait until one request completes; returns ``(index, data)``.

    Among already-completed requests the one with the earliest virtual
    completion time is taken (what a real ``MPI_Waitany`` polling loop
    would observe first).  The chosen request is consumed (waited);
    the others stay pending.
    """
    return drive_blocking(_ctx_of(requests), g_waitany(requests, status))


def waitsome(requests: list[Request]) -> list:
    """Wait until at least one request completes; consume *all* requests
    complete at that virtual instant.  Returns ``[(index, data), ...]``
    sorted by completion time (``MPI_Waitsome``)."""
    return drive_blocking(_ctx_of(requests), g_waitsome(requests))


def testall(requests: list[Request]) -> bool:
    """Non-blocking: True iff every request has completed."""
    return all(r.done for r in requests)
