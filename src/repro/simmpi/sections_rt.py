"""Runtime side of the MPI_Section abstraction (Section 4 of the paper).

The paper defines two asynchronous collective calls::

    int MPIX_Section_enter(MPI_Comm comm, const char *label);
    int MPIX_Section_exit (MPI_Comm comm, const char *label);

with the invariants:

* sections are perfectly nested per rank (exit label must match the top
  of the stack);
* every rank of the communicator traverses the same ordered sequence of
  enter/exit events (verified here non-intrusively at finalize, exactly as
  the paper suggests — no synchronization is added on the hot path);
* an implicit ``MPI_MAIN`` section on COMM_WORLD opens at ``MPI_Init``
  and closes at ``MPI_Finalize``;
* tools observe events through the two callbacks of Figure 2 and may use
  the 32-byte ``data`` blob, which the runtime preserves between the
  matching enter and leave.

This module is the *reference implementation* the paper's contribution
list mentions: it "simply manipulates a stack of contexts for each
communicator, calling tool callbacks upon enter and exit events".
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.errors import SectionMismatchError, SectionNestingError, SectionStateError
from repro.simmpi.api import MAX_SECTION_DATA

#: Label of the implicit whole-execution section.
MAIN_LABEL = "MPI_MAIN"


class SectionEvent(NamedTuple):
    """One section enter or exit, as delivered to tools.

    A NamedTuple rather than a dataclass: O(ranks x steps) events are
    created per run, and tuple construction is several times cheaper
    than a frozen dataclass ``__init__`` while keeping immutability,
    field access and value equality.

    Attributes
    ----------
    rank:
        World rank the event happened on.
    comm_id:
        Identifier of the communicator the section is collective over.
    label:
        The user label.
    kind:
        ``"enter"`` or ``"exit"``.
    time:
        Virtual timestamp on the rank.
    path:
        Full label path from the outermost open section to this one
        (including it), e.g. ``("MPI_MAIN", "timeloop", "HALO")``.
    """

    rank: int
    comm_id: tuple
    label: str
    kind: str
    time: float
    path: Tuple[str, ...]


class _Frame:
    """One open section on a rank's stack: label + preserved data blob.

    ``path`` is the full label path down to (and including) this frame,
    precomputed at enter time so the hot enter/exit path never rebuilds
    it from the stack.
    """

    __slots__ = ("label", "data", "path")

    def __init__(self, label: str, path: Tuple[str, ...] = ()):
        self.label = label
        self.data = bytearray(MAX_SECTION_DATA)
        self.path = path


class SectionRuntime:
    """Per-engine section bookkeeping and invariant verification."""

    def __init__(self, engine, validate: bool = True):
        self.engine = engine
        self.validate = validate
        #: Chronological event stream (the raw material of every analysis).
        self.events: List[SectionEvent] = []
        # (comm_id, rank) -> open-frame stack
        self._stacks: Dict[Tuple[tuple, int], List[_Frame]] = {}
        # (comm_id, rank) -> flat (kind, label) log for finalize validation
        self._logs: Dict[Tuple[tuple, int], List[Tuple[str, str]]] = {}
        # (comm_id, rank) -> (stack, log): one probe on the hot path
        # instead of two (the per-key lists are created once and mutated
        # in place, so the pair stays live).
        self._hot: Dict[Tuple[tuple, int], tuple] = {}
        # rank -> [(comm_id, stack), ...] in creation order: the leak
        # check at a rank's finalize reads only that rank's stacks.
        self._rank_stacks: Dict[int, List[Tuple[tuple, List[_Frame]]]] = {}
        # comm_id -> world-rank group (captured on first use for validation)
        self._groups: Dict[tuple, tuple] = {}
        # Ranks whose event recording is suppressed (injected hangs on
        # the thread-free engine); see mute_rank.
        self._muted: set = set()
        self._finalized = False
        # Live per-hook tool lists (registration appends in place), so
        # the hot enter/exit path skips the dispatch machinery entirely
        # when no tool implements the callback.
        by_hook = engine.tools._by_hook
        self._enter_cbs = by_hook["section_enter_cb"]
        self._leave_cbs = by_hook["section_leave_cb"]

    # -- lifecycle ------------------------------------------------------------

    def rank_begin(self, ctx) -> None:
        """Open the implicit MPI_MAIN section (the rank's MPI_Init)."""
        self.engine.tools.dispatch("on_rank_begin", ctx.rank, ctx.size, ctx.now)
        self.enter(ctx, ctx.comm, MAIN_LABEL)

    def rank_end(self, ctx) -> None:
        """Close MPI_MAIN (the rank's MPI_Finalize); checks balance."""
        comm = ctx.comm
        stack = self._stacks.get((comm.cid, ctx.rank), [])
        if not stack or stack[-1].label != MAIN_LABEL:
            open_labels = [f.label for f in stack]
            raise SectionNestingError(
                f"rank {ctx.rank} reached finalize with open sections "
                f"{open_labels} (expected only {MAIN_LABEL!r})"
            )
        self.exit(ctx, comm, MAIN_LABEL)
        self.engine.tools.dispatch("on_rank_end", ctx.rank, ctx.now)
        # Any other communicator with open frames is a leak.
        for cid, st in self._rank_stacks[ctx.rank]:
            if st:
                raise SectionNestingError(
                    f"rank {ctx.rank} leaked open sections "
                    f"{[f.label for f in st]} on communicator {cid}"
                )

    def mute_rank(self, rank: int) -> None:
        """Stop recording section events for ``rank`` (injected hang).

        The thread-free engine delivers a hang by unwinding the rank's
        generator, which runs the ``finally`` blocks of its open ``with
        section(...)`` scopes.  Under the threaded oracle a hung rank
        parks forever with those sections open, so the unwind's exit
        events must not be recorded — muting keeps the event stream
        bit-identical.  The open-frame stacks are deliberately left
        intact: stall diagnostics and partial profiles read them.
        """
        self._muted.add(rank)

    # -- the two calls of Figure 1 ------------------------------------------------

    def enter(self, ctx, comm, label: str) -> None:
        """``MPIX_Section_enter``: non-blocking collective entry."""
        if self._muted and ctx.rank in self._muted:
            return
        if self._finalized:
            raise SectionStateError("section entered after finalize")
        if not label or not isinstance(label, str):
            raise SectionStateError(f"section label must be a non-empty str, got {label!r}")
        cid = comm.cid
        rank = ctx.rank
        key = (cid, rank)
        hot = self._hot.get(key)
        if hot is None:
            stack = self._stacks[key] = []
            log = self._logs[key] = []
            hot = self._hot[key] = (stack, log)
            self._rank_stacks.setdefault(rank, []).append((cid, stack))
            if cid not in self._groups:
                self._groups[cid] = comm.group
        stack, log = hot
        path = (stack[-1].path + (label,)) if stack else (label,)
        frame = _Frame(label, path)
        stack.append(frame)
        log.append(("enter", label))
        now = ctx._clock
        self.events.append(SectionEvent(rank, cid, label, "enter", now, path))
        cbs = self._enter_cbs
        if cbs:
            for tool in cbs:
                tool.section_enter_cb(cid, label, frame.data, rank, now)

    def exit(self, ctx, comm, label: str) -> None:
        """``MPIX_Section_exit``: non-blocking collective exit."""
        if self._muted and ctx.rank in self._muted:
            return
        if self._finalized:
            raise SectionStateError("section exited after finalize")
        cid = comm.cid
        rank = ctx.rank
        hot = self._hot.get((cid, rank))
        stack = hot[0] if hot is not None else None
        if not stack:
            raise SectionNestingError(
                f"rank {rank} exited section {label!r} with an empty stack"
            )
        top = stack[-1]
        if top.label != label:
            raise SectionNestingError(
                f"rank {rank} exited section {label!r} but the innermost "
                f"open section is {top.label!r} — sections must be perfectly nested"
            )
        path = top.path
        stack.pop()
        hot[1].append(("exit", label))
        now = ctx._clock
        self.events.append(
            SectionEvent(rank, cid, label, "exit", now, path)
        )
        cbs = self._leave_cbs
        if cbs:
            for tool in cbs:
                tool.section_leave_cb(cid, label, top.data, rank, now)

    # -- finalize-time collective verification --------------------------------------

    def finalize(self) -> None:
        """Verify the collective invariant: identical logs across each comm.

        The paper requires verification "using non-intrusive synchronization
        primitives which could be selectively enabled"; deferring the check
        to finalize keeps the hot path free of synchronization while still
        guaranteeing tools may assume section agreement.
        """
        self._finalized = True
        if not self.validate:
            return
        by_comm: Dict[tuple, Dict[int, List[Tuple[str, str]]]] = {}
        for (cid, rank), log in self._logs.items():
            by_comm.setdefault(cid, {})[rank] = log
        for cid, per_rank in by_comm.items():
            group = self._groups.get(cid, tuple(sorted(per_rank)))
            reference_rank = group[0]
            reference = per_rank.get(reference_rank, [])
            for rank in group:
                log = per_rank.get(rank, [])
                if log != reference:
                    raise SectionMismatchError(
                        f"communicator {cid}: rank {rank} traversed a different "
                        f"section sequence than rank {reference_rank} "
                        f"({len(log)} vs {len(reference)} events; first divergence at "
                        f"index {_first_divergence(log, reference)}) — "
                        "MPI_Section enter/exit must be collective"
                    )


def _first_divergence(a: List, b: List) -> int:
    """Index of the first differing element between two event logs."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


# ---------------------------------------------------------------------------
# User-facing wrappers (the Figure 1 API)
# ---------------------------------------------------------------------------

def section_enter(ctx, label: str, comm=None) -> None:
    """Enter an MPI_Section labelled ``label`` (Figure 1's
    ``MPIX_Section_enter``).  ``comm`` defaults to COMM_WORLD."""
    comm = comm if comm is not None else ctx.comm
    ctx.engine._sections.enter(ctx, comm, label)


def section_exit(ctx, label: str, comm=None) -> None:
    """Leave an MPI_Section labelled ``label`` (Figure 1's
    ``MPIX_Section_exit``)."""
    comm = comm if comm is not None else ctx.comm
    ctx.engine._sections.exit(ctx, comm, label)


class section:
    """Scope-based helper pairing enter/exit even on exceptions.

    A plain-class context manager rather than ``@contextmanager``: the
    generator machinery costs about a microsecond per use, which at
    O(ranks x steps) scopes per run is measurable against the engine's
    scheduling step.
    """

    __slots__ = ("_ctx", "_label", "_comm")

    def __init__(self, ctx, label: str, comm=None):
        self._ctx = ctx
        self._label = label
        self._comm = comm

    def __enter__(self):
        section_enter(self._ctx, self._label, self._comm)
        return None

    def __exit__(self, exc_type, exc, tb):
        section_exit(self._ctx, self._label, self._comm)
        return False
