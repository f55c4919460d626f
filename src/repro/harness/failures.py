"""Structured failure reporting for fail-soft sweeps.

A sweep executed with ``on_error="skip"`` keeps going past crashing
points; everything that went wrong is collected into a
:class:`SweepFailureReport` attached to the sweep's result (and printed
by the CLI as a failure table).  ``on_error="raise"`` converts the first
failing point into a :class:`SweepPointError` carrying the same
information, so the two modes report identically — one as data, one as
an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.errors import ReproError


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that failed after exhausting its retries.

    Attributes
    ----------
    label:
        Human-readable point identity (e.g. ``"convolution p=8 rep=1"``).
    error_type:
        Exception class name of the final attempt (``"WorkerCrash"``
        when the worker process died without raising).
    message:
        Exception message of the final attempt.
    attempts:
        Number of attempts made (1 + retries actually used).
    worker_died:
        True when the worker *process* was lost (segfault, OOM kill)
        rather than the point raising a Python exception.
    traceback:
        Formatted traceback of the final attempt, when one exists.
    """

    label: str
    error_type: str
    message: str
    attempts: int = 1
    worker_died: bool = False
    traceback: str = ""


class SweepPointError(ReproError):
    """A sweep point failed under ``on_error="raise"``.

    Chained from the point's original exception when it survived the
    worker boundary; always carries the :class:`PointFailure` record.
    """

    def __init__(self, failure: PointFailure):
        self.failure = failure
        super().__init__(
            f"sweep point {failure.label} failed after "
            f"{failure.attempts} attempt(s) with "
            f"{failure.error_type}: {failure.message}"
        )


@dataclass
class SweepFailureReport:
    """Every failed point of one fail-soft sweep, in canonical order.

    Falsy when the sweep was clean, so ``if profile.failures:`` reads
    naturally.
    """

    failures: List[PointFailure] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    def __iter__(self):
        return iter(self.failures)

    def add(self, failure: PointFailure) -> None:
        """Append one failed point."""
        self.failures.append(failure)

    def to_payload(self) -> List[Dict[str, Any]]:
        """JSON form of the report for result payloads (empty when clean).

        Every field but the traceback, one dict per failed point.
        """
        return [
            {
                "label": f.label,
                "error_type": f.error_type,
                "message": f.message,
                "attempts": f.attempts,
                "worker_died": f.worker_died,
            }
            for f in self.failures
        ]

    def summary_lines(self) -> List[str]:
        """Aligned table of failures (for logs and the CLI)."""
        if not self.failures:
            return ["no failed points"]
        width = max(len(f.label) for f in self.failures)
        lines = [f"{len(self.failures)} failed point(s):"]
        for f in self.failures:
            origin = "worker died" if f.worker_died else f.error_type
            lines.append(
                f"  {f.label:<{width}}  attempts={f.attempts}  "
                f"{origin}: {f.message}"
            )
        return lines

    def summary(self) -> str:
        """The failure table as one string."""
        return "\n".join(self.summary_lines())
