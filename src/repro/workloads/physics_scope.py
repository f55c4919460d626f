"""One sweep's physics memo: what the latest computing run produced.

Virtual time never depends on what a workload's kernels compute, so a
sweep that reruns one configuration at many points needs the numbers
only once (convolution: the filtered image, whatever ``p``; LULESH: the
physics of one ``(config, p)``).  The memo lives exactly as long as one
sweep: :func:`~repro.harness.parallel.sweep_points`, and nothing else,
opens a :func:`physics_scope` around its point loop, and the scope holds
one entry, the latest key a run stored.  A sweep visits its points key
by key (process counts outermost), so one entry is all it reuses.

Drivers read the entry with :func:`recall` before a run and offer their
result with :func:`remember` after one that computed and returned.
Outside any scope :func:`recall` finds nothing and :func:`remember`
builds and keeps nothing, so a direct run always computes.  The scope is a
context variable: two sweeps on two threads never see each other's
entry, and a closed scope's entry is dropped with it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Hashable, Iterator, Optional


class _Entry:
    """The scope's one slot: the latest stored key and its value."""

    __slots__ = ("key", "value")

    def __init__(self) -> None:
        self.key: Optional[Hashable] = None
        self.value: Any = None


_SCOPE: "ContextVar[Optional[_Entry]]" = ContextVar(
    "repro_physics_scope", default=None)


@contextmanager
def physics_scope() -> Iterator[None]:
    """Open one sweep's memo; closing it drops what it holds."""
    token = _SCOPE.set(_Entry())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def recall(key: Hashable) -> Any:
    """The value stored under ``key`` in the open scope, or None."""
    entry = _SCOPE.get()
    if entry is None or entry.key != key:
        return None
    return entry.value


def remember(key: Hashable, build: Callable[[], Any]) -> None:
    """Make ``key -> build()`` the open scope's entry; outside a scope
    ``build`` is not called."""
    entry = _SCOPE.get()
    if entry is not None:
        entry.key, entry.value = key, build()
