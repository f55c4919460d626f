"""Virtual-time execution engines.

The simulator is a sequentialised conservative PDES: exactly one rank
makes progress at any moment, always the READY rank with the smallest
``(virtual clock, rank)`` key (see :class:`repro.simmpi.sched.ReadyHeap`).
That rule gives bit-reproducible runs for a given seed, a deterministic
canonical message-matching order, and trivially race-free shared
bookkeeping (queues, section stacks, stats).  Two engines implement it:

:class:`ThreadFreeEngine` (the default)
    Rank bodies are *generator programs* that ``yield`` scheduling
    commands — pending :class:`~repro.simmpi.request.Request` handles
    and the gate commands of :mod:`repro.simmpi.sched` — and a single
    thread drives all of them as a pure discrete-event loop: zero OS
    threads, zero baton handoffs, zero context switches.  This is what
    makes dense p=1024+ sweeps practical.

:class:`Engine` (the legacy thread-per-rank oracle)
    Each rank is one OS thread and the engine holds a **baton** so that
    exactly one rank thread is ever runnable; every blocking point is a
    pair of ``threading.Event`` waits.  It accepts arbitrary *blocking*
    Python ``main(ctx)`` callables (no generator protocol needed), which
    keeps it the graceful-degradation path for workloads that cannot be
    expressed as generators — and the differential oracle the
    thread-free engine is tested against: every clock, result byte,
    section event and counter must match bit-for-bit.

Selection is by :func:`engine_mode` — the ``engine=`` argument to
:func:`run_mpi`, else ``REPRO_ENGINE``, else thread-free — and degrades
gracefully: a plain callable ``main`` always runs on the threaded
engine, and a generator ``main`` runs under either (the threaded engine
drives it with :func:`~repro.simmpi.sched.drive_blocking`).

Ranks block only when a communication dependency cannot yet be
satisfied — a receive with no matching message, a rendezvous send with
no posted receive.  Pure compute never blocks: a rank charges time to
its private clock and keeps running.  If every live rank is blocked and
no pending event can complete, the run is deadlocked and the engine
raises :class:`~repro.errors.SimulationStalledError` (a
:class:`~repro.errors.DeadlockError`) carrying a structured per-rank
dump and a partial section profile — the simulated analogue of a hung
``mpiexec``, but diagnosable.

Two watchdogs guard against stalls the virtual-time deadlock check
cannot see: a **wall-clock watchdog** (``wall_timeout``) that fires when
a rank runs for too long of *real* time between scheduling points (an
infinite loop in workload code), and a **virtual-clock progress
monitor** (``progress_steps``) that fires when scheduling keeps cycling
without the virtual clock advancing (a zero-cost livelock).  A
:class:`~repro.faults.FaultPlan` can additionally be injected to slow,
delay, degrade, hang or crash ranks deterministically — see
:mod:`repro.faults`.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import (
    EngineStateError,
    RankDiagnostic,
    RankFailedError,
    SimulationStalledError,
)
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.machine.catalog import laptop
from repro.machine.spec import MachineSpec
from repro.simmpi.api import ENGINE_ENV, ENGINE_THREADFREE, ENGINE_THREADS
from repro.simmpi.coll_analytic import CollectiveGate, analytic_enabled
from repro.simmpi.comm import Group
from repro.simmpi.network import NetworkModel
from repro.simmpi.p2p import MessageFabric
from repro.simmpi.pmpi import ToolRegistry
from repro.simmpi.request import Request
from repro.simmpi.sched import (
    YIELD,
    Park,
    ReadyHeap,
    WaitAny,
    drive_blocking,
    info_text,
    waitany_info,
)
from repro.simmpi.sections_rt import SectionEvent, SectionRuntime

# Rank lifecycle states.
NEW = "NEW"
READY = "READY"
RUNNING = "RUNNING"
BLOCKED = "BLOCKED"
#: Parked forever by an injected hang fault; never rescheduled.
HUNG = "HUNG"
DONE = "DONE"
FAILED = "FAILED"
ABORTED = "ABORTED"


class _SimAbort(BaseException):
    """Injected into parked rank threads to unwind them on engine abort.

    Derives from BaseException so workload ``except Exception`` blocks
    cannot swallow it.
    """


class _Hang(BaseException):
    """Unwinds a thread-free rank's generator on an injected hang fault.

    The threaded engine parks a hung rank's thread forever; a generator
    rank has no thread to park, so the fault raises this through the
    rank body instead (after marking the rank ``HUNG`` and muting its
    section recording — see ``ThreadFreeEngine.hang_current``).
    Derives from BaseException so workload ``except Exception`` blocks
    cannot swallow it.
    """


class _Detached:
    """Stands in for the state a finished run has released.

    :meth:`_EngineBase._release` points the engine's components and the
    rank contexts' back-references here.  Any attribute access raises
    :class:`_SimAbort`, so a rank thread that outlived the abort's join
    (the wall-clock watchdog case) and wakes later unwinds like any
    aborted rank on its next MPI call.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        raise _SimAbort(f"{name}: the run has finished")


_DETACHED = _Detached()


def is_generator_main(fn: Callable) -> bool:
    """Whether ``fn`` is a generator main (yields scheduling commands).

    Follows bound methods and ``functools.partial`` wrappers, so
    workload classes can expose generator ``main`` methods.
    """
    return inspect.isgeneratorfunction(fn)


def engine_mode(value: Optional[str] = None) -> str:
    """Resolve the engine selection: explicit > ``REPRO_ENGINE`` > default.

    Returns ``"threadfree"`` or ``"threads"``.  Unset or empty means the
    thread-free engine; anything unrecognised is an error (a typo in an
    engine name must not silently change the execution substrate).
    """
    if value is None:
        value = os.environ.get(ENGINE_ENV)
    if value is None:
        return ENGINE_THREADFREE
    v = value.strip().lower()
    if v in ("", ENGINE_THREADFREE, "thread-free"):
        return ENGINE_THREADFREE
    if v in (ENGINE_THREADS, "threaded"):
        return ENGINE_THREADS
    raise EngineStateError(
        f"unknown {ENGINE_ENV} value {value!r}: expected "
        f"{ENGINE_THREADFREE!r} or {ENGINE_THREADS!r}"
    )


@dataclass
class RunResult:
    """Outcome of one simulated MPI run.

    Attributes
    ----------
    results:
        Per-rank return values of ``main``.
    clocks:
        Final virtual clock of each rank, in seconds.
    walltime:
        Virtual wall time of the job — the max of ``clocks`` (all ranks
        start at t=0, like a real launcher).
    section_events:
        Chronological MPI_Section enter/exit events recorded by the
        runtime (Figure 2's callback stream).
    network:
        Message/byte counters from the network model.
    sched_steps:
        Scheduling-loop iterations the engine performed (one per
        scheduling decision, including lazy re-queues of stale heap
        entries).
    baton_handoffs:
        Times a rank OS thread was actually handed the baton — each one
        is a pair of ``threading.Event`` waits, the threaded engine's
        dominant real-time cost.  Always 0 under the thread-free
        engine, which has no baton.
    collectives_gated:
        Collective invocations that crossed the collective gate (see
        :mod:`repro.simmpi.coll_analytic`).
    collectives_fast:
        Gated invocations the analytic fast path resolved in a batch.
    engine:
        Which engine executed the run (``"threadfree"`` or
        ``"threads"``).  Purely informational: simulated quantities are
        bit-identical across engines.
    rounds_captured:
        Steady-state round templates captured by the macro-step layer
        (rank-rounds, summed over ranks; see
        :mod:`repro.simmpi.macrostep`).  Always 0 off the thread-free
        engine or with ``REPRO_MACROSTEP=0``.
    rounds_replayed:
        Captured round templates replayed as straight-line arithmetic
        (rank-rounds, summed over ranks).
    deopts:
        Times a rank fell back from replay to the interpreter (guard
        mismatch, fault fired, tail of the run).  Purely informational:
        simulated quantities are bit-identical with macro-stepping on
        or off.
    """

    n_ranks: int
    machine: str
    seed: int
    results: List[Any]
    clocks: List[float]
    walltime: float
    section_events: List[SectionEvent]
    network: Dict[str, int] = field(default_factory=dict)
    sched_steps: int = 0
    baton_handoffs: int = 0
    collectives_gated: int = 0
    collectives_fast: int = 0
    engine: str = ENGINE_THREADS
    rounds_captured: int = 0
    rounds_replayed: int = 0
    deopts: int = 0

    def rank_result(self, rank: int) -> Any:
        """Return value of ``main`` on ``rank``."""
        return self.results[rank]


class _RankThread(threading.Thread):
    """One simulated MPI process (threaded engine)."""

    def __init__(self, engine: "Engine", rank: int, fn: Callable, args, kwargs):
        super().__init__(name=f"simmpi-rank-{rank}", daemon=True)
        self.engine = engine
        self.rank = rank
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.state = NEW
        self.go = threading.Event()
        self.result: Any = None
        self.exc: Optional[BaseException] = None
        self.block_info = ""  # str, (template, *args) tuple, or callable
        self.ctx = None  # set by the engine before start

    def run(self) -> None:  # pragma: no cover - exercised via engine runs
        self.go.wait()
        self.go.clear()
        if self.engine._aborting:
            self.state = ABORTED
            self.engine._back.set()
            return
        if self.engine._tracer is not None:
            # Join the engine's trace: fault/watchdog events emitted from
            # this rank thread land under the engine.run span.  The ring
            # buffer append is GIL-atomic and the baton serialises rank
            # threads anyway, so no extra locking is needed.
            obs.install(self.engine._tracer, base=self.engine._trace_base)
        try:
            self.engine._sections.rank_begin(self.ctx)
            self.result = self.fn(self.ctx, *self.args, **self.kwargs)
            self.engine._sections.rank_end(self.ctx)
            self.state = DONE
            self.engine._done_count += 1
        except _SimAbort:
            self.state = ABORTED
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self.exc = exc
            self.state = FAILED
            self.engine._failed.append(self)
        finally:
            self.engine._back.set()


class _RankProgram:
    """One simulated MPI process as a suspended generator (no OS thread).

    Duck-types the scheduling surface of :class:`_RankThread` (``rank``,
    ``state``, ``block_info``, ``ctx``, ``result``, ``exc``) so the
    shared engine bookkeeping — ready heap, wake paths, diagnostics —
    works on either record.
    """

    __slots__ = ("rank", "state", "result", "exc", "block_info", "ctx",
                 "gen", "pending", "pending_any")

    def __init__(self, rank: int):
        self.rank = rank
        self.state = NEW
        self.result: Any = None
        self.exc: Optional[BaseException] = None
        self.block_info = ""
        self.ctx = None
        #: The rank body generator (created in _setup, driven in _segment).
        self.gen = None
        #: Pending Request the program last yielded, if blocked on one.
        self.pending: Optional[Request] = None
        #: Request list of a pending WaitAny command, if blocked on one.
        self.pending_any: Optional[Sequence[Request]] = None


def _rank_body(engine: "ThreadFreeEngine", prog: _RankProgram,
               main: Callable, args, kwargs):
    """Wrap a generator main with the per-rank begin/end protocol.

    A generator function: nothing runs at creation time, so
    ``rank_begin`` fires on the rank's *first scheduling slot* — the
    same moment the threaded engine's rank thread runs it.
    """
    ctx = prog.ctx
    engine._sections.rank_begin(ctx)
    result = yield from main(ctx, *args, **kwargs)
    engine._sections.rank_end(ctx)
    return result


def _as_blocking(main: Callable) -> Callable:
    """Adapt a generator main into a blocking callable (threaded engine)."""

    @wraps(main)
    def blocking(ctx, *args, **kwargs):
        return drive_blocking(ctx, main(ctx, *args, **kwargs))

    return blocking


class _EngineBase:
    """State and scheduling policy shared by both engines.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI processes.
    machine:
        Machine model; defaults to a generic single node wide enough to
        host every rank (useful for algorithm-level tests where timing
        realism is secondary).
    ranks_per_node:
        Placement density; defaults to one rank per physical core.
    seed:
        Root seed for network jitter, compute jitter and workload RNGs.
    compute_jitter:
        Relative sigma of log-normal noise applied to each ``compute()``
        charge (models DVFS / contention variability proportional to the
        work).
    noise_floor:
        Mean of an *additive* exponential noise term per ``compute()``
        call, in seconds (models OS noise quanta — interrupts, scheduler
        preemption — whose size does not shrink with the task).  This
        floor is what makes fine-grained phases lose efficiency at scale:
        as per-step compute shrinks with p, a fixed-size disturbance
        desynchronises neighbours and turns into wait time in coupled
        phases like halo exchanges.
    tools:
        PMPI-style tools whose callbacks observe section events.
    validate_sections:
        Verify at finalize that all ranks of each communicator traversed
        identical section sequences (the paper's collective invariant).
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected into this run
        (stragglers, noise bursts, degraded links, hangs, crashes).
    wall_timeout:
        Wall-clock watchdog: abort with
        :class:`~repro.errors.SimulationStalledError` if a rank runs
        longer than this many *real* seconds between scheduling points
        (None disables).  Catches runaway workload code the virtual-time
        deadlock check cannot see.  The threaded engine can interrupt a
        stuck rank mid-segment; the thread-free engine detects the
        overrun at the next scheduling point, so a segment that never
        returns (an unconditional infinite loop with no simulated
        communication) is only caught under ``REPRO_ENGINE=threads``.
    progress_steps:
        Virtual-clock progress monitor: abort after this many
        consecutive scheduling steps without the scheduled virtual clock
        advancing (None disables).  Catches zero-cost livelocks.
    coll_analytic:
        Analytic collective fast path (see
        :mod:`repro.simmpi.coll_analytic`).  ``None`` (default) follows
        the ``REPRO_COLL_ANALYTIC`` environment variable, which is on
        unless set to ``0``; ``True``/``False`` force it for this
        engine.  Either way simulated results are bit-identical — the
        switch only changes how much *real* time a collective costs.
    macrostep:
        Steady-state round capture & replay (see
        :mod:`repro.simmpi.macrostep`).  ``None`` (default) follows the
        ``REPRO_MACROSTEP`` environment variable, which is on unless
        set to ``0``; ``True``/``False`` force it.  Only the
        thread-free engine macro-steps, and simulated results are
        bit-identical either way — the switch only changes how much
        *real* time a steady-state round costs.
    """

    #: RunResult.engine value; overridden per engine.
    engine_name = ENGINE_THREADS

    def __init__(
        self,
        n_ranks: int,
        machine: Optional[MachineSpec] = None,
        ranks_per_node: Optional[int] = None,
        seed: int = 0,
        compute_jitter: float = 0.0,
        noise_floor: float = 0.0,
        tools: Sequence = (),
        validate_sections: bool = True,
        max_virtual_time: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        wall_timeout: Optional[float] = None,
        progress_steps: Optional[int] = None,
        coll_analytic: Optional[bool] = None,
        macrostep: Optional[bool] = None,
    ):
        if n_ranks < 1:
            raise EngineStateError("need at least one rank")
        if compute_jitter < 0 or noise_floor < 0:
            raise EngineStateError("noise parameters must be >= 0")
        if max_virtual_time is not None and max_virtual_time <= 0:
            raise EngineStateError("max_virtual_time must be positive")
        if wall_timeout is not None and wall_timeout <= 0:
            raise EngineStateError("wall_timeout must be positive")
        if progress_steps is not None and progress_steps < 1:
            raise EngineStateError("progress_steps must be >= 1")
        if machine is None:
            machine = laptop(cores=n_ranks)
        machine.validate_ranks(n_ranks, ranks_per_node)
        self.n_ranks = n_ranks
        self.machine = machine
        self.ranks_per_node = ranks_per_node
        self.seed = seed
        self.compute_jitter = compute_jitter
        self.noise_floor = noise_floor
        #: Runaway guard: abort once every runnable rank is past this
        #: virtual time (None disables).  Catches accidental huge
        #: configurations before they burn real hours.
        self.max_virtual_time = max_virtual_time
        self.fault_plan = faults
        self._faults: Optional[FaultRuntime] = (
            FaultRuntime(faults, n_ranks, machine, ranks_per_node)
            if faults else None
        )
        self.wall_timeout = wall_timeout
        self.progress_steps = progress_steps
        #: Whether eligible collectives resolve via the analytic replay
        #: (bit-identical results either way; see coll_analytic).
        self.coll_analytic = (
            analytic_enabled() if coll_analytic is None else bool(coll_analytic)
        )
        #: Steady-state round capture & replay (thread-free engine only;
        #: see repro.simmpi.macrostep).  None follows REPRO_MACROSTEP.
        from repro.simmpi.macrostep import macrostep_enabled

        self.macrostep = (
            macrostep_enabled() if macrostep is None else bool(macrostep)
        )
        #: Macro-step counters (stay 0 off the thread-free engine).
        self.rounds_captured = 0
        self.rounds_replayed = 0
        self.deopts = 0
        self._macro = None
        self.coll_gate = CollectiveGate(self)
        self.network = NetworkModel(machine, seed=seed, ranks_per_node=ranks_per_node,
                                    faults=self._faults)
        self.tools = ToolRegistry(tools)
        self.fabric = MessageFabric(self, self.network)
        #: The world group, shared by every rank's world communicator.
        self._world_group = Group(range(n_ranks))
        self._sections = SectionRuntime(self, validate=validate_sections)
        #: Per-rank scheduling records (_RankThread or _RankProgram).
        self._ranks: List[Any] = []
        self._back = threading.Event()
        self._aborting = False
        self._started = False
        # Scheduler fast path: a min-heap of (clock, rank) entries for
        # READY ranks plus incremental completion bookkeeping, so each
        # scheduling step costs O(log ranks) instead of rescanning every
        # rank.  Entries may go stale (a rank re-blocks or finishes
        # while an old entry is still queued); staleness is resolved
        # lazily at pop time (see ReadyHeap).  No locking is needed:
        # exactly one rank or the engine loop mutates this state at any
        # moment.
        self._ready = ReadyHeap()
        self._done_count = 0
        self._failed: List[Any] = []
        # Handoff-slimming counters, surfaced via RunResult and the
        # engine.run obs span for perf debugging.
        self.sched_steps = 0
        self.baton_handoffs = 0
        # Join timeout used by the threaded _abort; shortened when the
        # wall-clock watchdog fires (the stuck thread won't join anyway).
        self._join_timeout = 5.0
        # Virtual-clock progress monitor state.
        self._progress_clock = -1.0
        self._stalled_steps = 0
        # Ambient trace shared with rank execution (set in run()).
        self._tracer = None
        self._trace_base: Optional[str] = None

    # -- run skeleton (shared) ---------------------------------------------------

    def run(self, main: Callable, args: tuple = (), kwargs: Optional[dict] = None) -> RunResult:
        """Execute ``main(ctx, *args, **kwargs)`` on every rank.

        Returns once all ranks finished; raises :class:`RankFailedError`
        (first failing rank's exception chained) or
        :class:`DeadlockError`.

        An engine runs once.  When this returns or raises, the run's
        object graph (ranks, contexts, communicators, gate, fabric,
        section runtime, macro-step state) has been detached, so
        reference counting frees it: only the :class:`RunResult`, or the
        exception with its diagnostics and partial profile, stays alive.
        """
        if self._started:
            raise EngineStateError("an Engine instance runs at most once")
        self._started = True
        try:
            return self._run(main, args, kwargs or {})
        finally:
            self._release()

    def _run(self, main: Callable, args: tuple, kwargs: dict) -> RunResult:
        """Set up, schedule and finalize the run (the body of :meth:`run`)."""
        with obs.span("engine.run", layer="engine", ranks=self.n_ranks,
                      machine=self.machine.name, seed=self.seed) as run_span:
            self._tracer = obs.current_tracer()
            if self._tracer is not None:
                self._trace_base = run_span.span_id

            with obs.span("engine.setup", layer="engine"):
                self._setup(main, args, kwargs)

            try:
                with obs.span("engine.schedule", layer="engine"):
                    self._loop()
            except BaseException:
                self._abort()
                raise

            with obs.span("engine.finalize", layer="engine"):
                self.fabric.assert_drained()
                self._sections.finalize()
            if self._macro is not None:
                self._macro.collect()
            clocks = [t.ctx.now for t in self._ranks]
            walltime = max(clocks)
            run_span.set(
                walltime=walltime,
                sched_steps=self.sched_steps,
                baton_handoffs=self.baton_handoffs,
                collectives_gated=self.coll_gate.gated,
                collectives_fast=self.coll_gate.fast,
            )
            return RunResult(
                n_ranks=self.n_ranks,
                machine=self.machine.name,
                seed=self.seed,
                results=[t.result for t in self._ranks],
                clocks=clocks,
                walltime=walltime,
                section_events=self._sections.events,
                network=self.network.stats(),
                sched_steps=self.sched_steps,
                baton_handoffs=self.baton_handoffs,
                collectives_gated=self.coll_gate.gated,
                collectives_fast=self.coll_gate.fast,
                engine=self.engine_name,
                rounds_captured=self.rounds_captured,
                rounds_replayed=self.rounds_replayed,
                deopts=self.deopts,
            )

    def _release(self) -> None:
        """Detach the run's object graph (the last step of :meth:`run`).

        Cuts one edge of every reference cycle a run builds, so the
        engine, its rank records, contexts, communicators and the
        payloads they hold are freed by reference counting as soon as
        nothing outside references them — no cyclic collection needed:

        * engine → gate, fabric, section runtime, macro-step controller,
          rank records and failed list (each of which points back);
        * macro-step's closures bound on each world communicator;
        * each context's engine, rank-record and world-communicator
          references (the communicator points back at its context);
        * each rank record's exception (whose traceback holds the
          record).
        """
        for rec in self._ranks:
            ctx = rec.ctx
            if ctx is not None:
                ctx.engine = ctx._thread = ctx.comm = _DETACHED
            rec.exc = None
        if self._macro is not None:
            self._macro.detach()
            self._macro = None
        self.coll_gate = self.fabric = self._sections = _DETACHED
        self._ranks = []
        self._failed = []

    def _setup(self, main: Callable, args: tuple, kwargs: dict) -> None:
        raise NotImplementedError

    def _runner(self) -> Callable[[Any], None]:
        """How one scheduled rank runs: called once, before the loop."""
        raise NotImplementedError

    def _abort(self) -> None:
        raise NotImplementedError

    def _loop(self) -> None:
        """The event loop of both engines: one iteration per scheduling step.

        The ready heap yields the READY rank with the smallest
        ``(clock, rank)`` — see :class:`~repro.simmpi.sched.ReadyHeap` —
        while DONE / FAILED detection rides on counters updated at the
        transitions themselves, so nothing here is O(ranks).  The engine
        supplies only how the popped rank runs (:meth:`_runner`).  Every
        per-iteration invariant is hoisted into a local; mutable state
        that rank threads append to (the failed list) keeps its
        identity, so reading it through a local stays correct.
        """
        ranks = self._ranks
        failed = self._failed
        n_ranks = self.n_ranks
        guarded = (
            self.max_virtual_time is not None or self.progress_steps is not None
        )
        guard_step = self._guard_step
        pop_ready = self._ready.pop_ready
        run = self._runner()
        steps = 0
        try:
            while True:
                steps += 1
                if failed:
                    t = failed[0]
                    raise RankFailedError(t.rank, t.exc) from t.exc
                entry = pop_ready(ranks, READY)
                if entry is None:
                    if self._done_count == n_ranks:
                        return
                    self._raise_stalled(
                        "deadlock",
                        "simulated MPI deadlock — every rank is blocked:",
                    )
                nxt = ranks[entry[1]]
                if guarded:
                    guard_step(nxt)
                nxt.state = RUNNING
                run(nxt)
        finally:
            # Persist the counter even when the loop exits via an abort
            # path, so stall reports and partial results stay accurate.
            self.sched_steps += steps

    def _guard_step(self, nxt) -> None:
        """Apply the opt-in step guards to the rank about to run.

        ``max_virtual_time`` aborts a runaway run; ``progress_steps``
        counts scheduling steps that do not advance the scheduled
        virtual clock.  Both loops call this only when a guard is set.
        """
        clock = nxt.ctx._clock
        max_virtual_time = self.max_virtual_time
        if max_virtual_time is not None and clock > max_virtual_time:
            raise EngineStateError(
                f"virtual time {clock:.6g}s exceeded the "
                f"max_virtual_time guard ({max_virtual_time:.6g}s) "
                f"on rank {nxt.rank}"
            )
        if self.progress_steps is not None:
            if clock > self._progress_clock:
                self._progress_clock = clock
                self._stalled_steps = 0
            else:
                self._stalled_steps += 1
                if self._stalled_steps > self.progress_steps:
                    self._raise_stalled(
                        "no-progress",
                        f"virtual clock stuck at t={self._progress_clock:.6g}s "
                        f"for {self._stalled_steps} scheduling steps:",
                    )

    # -- diagnostics (shared) ----------------------------------------------------

    def _frame_info(self, record) -> str:
        """Where the rank's program is suspended (thread-free only)."""
        return ""

    def _rank_diagnostics(self) -> List[RankDiagnostic]:
        """Structured per-rank state dumps (for stall reports)."""
        world_cid = self._ranks[0].ctx.comm.cid
        out = []
        for t in self._ranks:
            stack = self._sections._stacks.get((world_cid, t.rank), [])
            out.append(RankDiagnostic(
                rank=t.rank,
                state=t.state,
                clock=t.ctx.now,
                waiting_on=info_text(t.block_info),
                sections=tuple(f.label for f in stack),
                frame=self._frame_info(t),
            ))
        return out

    def _partial_profile(self):
        """Section profile of the run so far, open sections closed now.

        Every open frame gets a synthetic exit at its rank's current
        clock (innermost first, keeping streams balanced), so the
        metrics of an aborted run stay analyzable up to the stall.
        """
        from repro.core.profile import SectionProfile

        events = list(self._sections.events)
        for (cid, rank), stack in self._sections._stacks.items():
            t = self._ranks[rank].ctx.now
            for depth in range(len(stack), 0, -1):
                path = tuple(f.label for f in stack[:depth])
                events.append(SectionEvent(
                    rank, cid, stack[depth - 1].label, "exit", t, path
                ))
        clocks = [t.ctx.now for t in self._ranks]
        return SectionProfile.from_events(
            events, self.n_ranks, max(clocks), seed=self.seed, partial=True,
        )

    def _raise_stalled(self, reason: str, headline: str) -> None:
        """Abort the run with a full diagnostic dump attached."""
        diagnostics = self._rank_diagnostics()
        obs.event(
            "engine.stall", layer="engine", reason=reason,
            blocked=sum(1 for d in diagnostics if d.state == BLOCKED),
            hung=sum(1 for d in diagnostics if d.state == HUNG),
        )
        lines = [headline]
        for d in diagnostics:
            lines.append(
                f"  rank {d.rank}: state={d.state} t={d.clock:.6g}"
                + (f" sections={'/'.join(d.sections)}" if d.sections else "")
                + (f" {d.waiting_on}" if d.waiting_on else "")
                + (f" [{d.frame}]" if d.frame else "")
            )
        lines.extend(self.fabric.pending_summary())
        try:
            partial = self._partial_profile()
        except Exception:  # diagnostics must never mask the stall itself
            partial = None
        raise SimulationStalledError(
            "\n".join(lines),
            reason=reason,
            diagnostics=diagnostics,
            partial_profile=partial,
        )

    # -- wake paths (shared) -----------------------------------------------------

    @property
    def faults(self) -> Optional[FaultRuntime]:
        """This run's fault interpreter (None without a fault plan)."""
        return self._faults

    @property
    def admits_fast_paths(self) -> bool:
        """The one admission rule of the paths that skip work a run
        would otherwise do: the collective gate's replay
        (:mod:`repro.simmpi.coll_analytic`) and LULESH's timing skeleton
        (:mod:`repro.workloads.lulesh`).

        False when a hang or crash applies to a rank of this run (its
        delivery point must fire inside the rank's own work) or when a
        PMPI tool hooks ``on_send`` / ``on_recv`` (it watches every
        message the program posts).  Straggler, noise and link faults
        act on timing only, so they admit.
        """
        faults = self._faults
        if faults is not None and faults.has_lifecycle_faults:
            return False
        tools = self.tools
        return not (tools.wants("on_send") or tools.wants("on_recv"))

    def fault_poll(self, ctx) -> None:
        """Deliver any due hang/crash fault for ``ctx``'s rank.

        Fault points call this: compute charges and communication posts.
        A no-op without an active fault plan.
        """
        if self._faults is not None:
            self._faults.poll(ctx)

    def wake_if_waiting(self, req: Request) -> None:
        """Mark the rank blocked on ``req`` (if any) runnable again.

        A rank blocked on *several* requests (waitany) is woken by the
        first completion; sibling requests completing later may find the
        rank already READY — their stale waiter mark is simply cleared.
        """
        if req.waiter is None:
            return
        t = self._ranks[req.waiter]
        req.waiter = None
        if t.state == BLOCKED:
            t.state = READY
            self._ready.push((t.ctx.now, t.rank))

    def make_ready(self, rank: int) -> None:
        """Mark a blocked rank runnable again (collective-gate release).

        Unlike :meth:`wake_if_waiting` this wakes by rank, not by
        request: gate parks have no request to complete.
        """
        t = self._ranks[rank]
        t.state = READY
        self._ready.push((t.ctx.now, t.rank))


class Engine(_EngineBase):
    """Thread-per-rank baton engine (the differential oracle).

    Runs ``n_ranks`` rank threads to completion under virtual time;
    accepts both blocking callables and generator mains (the latter are
    driven with :func:`~repro.simmpi.sched.drive_blocking`).  See
    :class:`_EngineBase` for the constructor parameters and
    :class:`ThreadFreeEngine` for the default, thread-free execution
    substrate.
    """

    engine_name = ENGINE_THREADS

    # -- scheduling -------------------------------------------------------------

    def _setup(self, main: Callable, args: tuple, kwargs: dict) -> None:
        # Imported here to avoid a module cycle (context imports comm,
        # comm uses collectives, collectives use the context).
        from repro.simmpi.context import RankContext

        fn = _as_blocking(main) if is_generator_main(main) else main
        self._ranks = [
            _RankThread(self, r, fn, args, kwargs)
            for r in range(self.n_ranks)
        ]
        for t in self._ranks:
            t.ctx = RankContext(self, t)
            t.state = READY
            self._ready.push((t.ctx.now, t.rank))
            t.start()

    def _runner(self) -> Callable[[_RankThread], None]:
        return self._handoff

    def _handoff(self, thread: _RankThread) -> None:
        """Hand ``thread`` the baton and wait until it gives it back."""
        self.baton_handoffs += 1
        thread.go.set()
        if not self._back.wait(timeout=self.wall_timeout):
            # Wall-clock watchdog: the rank thread is stuck in real time
            # (runaway workload code).  It cannot be unwound
            # cooperatively, so don't wait for it during the abort.
            self._join_timeout = 0.2
            self._raise_stalled(
                "watchdog-timeout",
                f"wall-clock watchdog expired: rank {thread.rank} held the "
                f"baton for more than {self.wall_timeout:.6g} real "
                "seconds:",
            )
        self._back.clear()

    def _abort(self) -> None:
        """Unwind every live rank thread after a fatal error."""
        self._aborting = True
        for t in self._ranks:
            if t.state in (READY, BLOCKED, HUNG, RUNNING, NEW):
                t.go.set()
        for t in self._ranks:
            t.join(timeout=self._join_timeout)

    # -- rank-side primitives (called from rank threads) -------------------------

    def park_current(self, thread: _RankThread, info) -> None:
        """Give the baton back and sleep until rescheduled.

        Called from the rank's own thread.  On wake, raises
        :class:`_SimAbort` if the engine is tearing the job down.
        """
        thread.state = BLOCKED
        thread.block_info = info
        self._back.set()
        thread.go.wait()
        thread.go.clear()
        if self._aborting:
            raise _SimAbort()
        thread.block_info = ""

    def hang_current(self, thread: _RankThread) -> None:
        """Park the calling rank forever (injected hang fault).

        Called from the rank's own thread.  Unlike :meth:`park_current`
        the rank enters the ``HUNG`` state, which completion events
        never wake — only an engine abort unwinds it.
        """
        thread.state = HUNG
        thread.block_info = f"hung by injected fault at t={thread.ctx.now:.6g}"
        self._back.set()
        thread.go.wait()
        thread.go.clear()
        # The only wake-up a hung rank ever receives is the teardown.
        raise _SimAbort()

    def yield_current(self, thread: _RankThread) -> None:
        """Re-enter the scheduler without blocking on anything.

        The calling rank goes back on the ready heap at its current
        clock and sleeps until the engine picks it again by the usual
        smallest-``(clock, rank)`` rule.  Collective gates use this so
        the rank that releases a gate competes fairly with the ranks it
        just woke instead of keeping the baton.
        """
        thread.state = READY
        self._ready.push((thread.ctx.now, thread.rank))
        self._back.set()
        thread.go.wait()
        thread.go.clear()
        if self._aborting:
            raise _SimAbort()

    def thread_of(self, rank: int) -> _RankThread:
        """The rank thread object for ``rank``."""
        return self._ranks[rank]


class ThreadFreeEngine(_EngineBase):
    """Single-thread generator-driven discrete-event engine (the default).

    Every rank is a suspended generator; the event loop resumes the
    READY rank with the smallest ``(clock, rank)`` key and runs its
    *segment* — generator code up to the next blocking yield — inline.
    A segment yields scheduling commands (pending
    :class:`~repro.simmpi.request.Request` handles, the gate commands of
    :mod:`repro.simmpi.sched`), and the loop performs exactly the wait
    bookkeeping the threaded engine's parking primitives perform, so
    clocks, results, section events and traces are bit-identical to
    :class:`Engine` — with zero OS threads, zero baton handoffs and zero
    context switches (``baton_handoffs`` is always 0 here).

    Requires a generator ``main``; plain blocking callables must run on
    the threaded engine (:func:`run_mpi` falls back automatically).
    """

    engine_name = ENGINE_THREADFREE

    def _setup(self, main: Callable, args: tuple, kwargs: dict) -> None:
        from repro.simmpi.context import RankContext

        if not is_generator_main(main):
            raise EngineStateError(
                "ThreadFreeEngine requires a generator main (a function "
                "that uses 'yield from' for blocking calls); plain "
                "blocking callables run on the threaded engine — use "
                "run_mpi(), which falls back automatically, or set "
                f"{ENGINE_ENV}={ENGINE_THREADS}"
            )
        self._ranks = [_RankProgram(r) for r in range(self.n_ranks)]
        for p in self._ranks:
            p.ctx = RankContext(self, p)
            p.gen = _rank_body(self, p, main, args, kwargs)
            p.state = READY
            self._ready.push((p.ctx.now, p.rank))
        if self.macrostep:
            from repro.simmpi.macrostep import MacrostepController, eligible

            if eligible(self):
                self._macro = MacrostepController(self)
                self._macro.attach()

    def _runner(self) -> Callable[[_RankProgram], None]:
        # Without a watchdog the hot loop calls _segment directly.
        return self._segment if self.wall_timeout is None else self._timed_segment

    def _timed_segment(self, p: _RankProgram) -> None:
        """:meth:`_segment` under the wall-clock watchdog.

        The loop cannot interrupt a segment from the same thread; the
        overrun is detected at the segment boundary (see the
        ``wall_timeout`` docs).
        """
        t0 = time.perf_counter()
        self._segment(p)
        if time.perf_counter() - t0 > self.wall_timeout:
            self._raise_stalled(
                "watchdog-timeout",
                f"wall-clock watchdog expired: rank {p.rank} ran "
                f"for more than {self.wall_timeout:.6g} real seconds "
                "between scheduling points:",
            )

    def _segment(self, p: _RankProgram) -> None:
        """Resume one rank's generator until its next blocking yield.

        Performs, inline, exactly what the threaded engine's primitives
        perform for the corresponding command: ``Request.wait``'s
        bookkeeping for yielded requests, gate parks for ``Park``,
        requeue-at-clock for ``YIELD``, waiter marks for ``WaitAny``.
        """
        ctx = p.ctx
        tracer = self._tracer
        if tracer is not None:
            # Rank code runs on the loop's thread: re-root ambient span
            # parentage under engine.run for the duration of the segment
            # (the threaded engine achieves this via per-thread install).
            scope = obs.swap_scope(self._trace_base)
        try:
            req = p.pending
            if req is not None:
                # Finish the wait the program blocked on.
                p.pending = None
                p.block_info = ""
                req._waited = True
                ct = req.completion_time
                if ct > ctx._clock:
                    ctx._clock = ct
                val = req.data
            else:
                anyreqs = p.pending_any
                if anyreqs is not None:
                    p.pending_any = None
                    p.block_info = ""
                    rank = p.rank
                    woke = False
                    for r in anyreqs:
                        if r.waiter == rank:
                            r.waiter = None
                        if r.done:
                            woke = True
                    if not woke:
                        raise EngineStateError(
                            f"rank {rank} woken from waitany with nothing done"
                        )  # pragma: no cover - engine invariant
                else:
                    p.block_info = ""
                val = None
            gen_send = p.gen.send
            push = self._ready.push
            while True:
                try:
                    cmd = gen_send(val)
                except StopIteration as stop:
                    p.state = DONE
                    p.result = stop.value
                    self._done_count += 1
                    return
                except _Hang:
                    # hang_current already marked the rank HUNG and muted
                    # its section recording; the generator has unwound.
                    return
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    p.exc = exc
                    p.state = FAILED
                    failed = self._failed
                    failed.append(p)
                    return
                if isinstance(cmd, Request):
                    if cmd.done:
                        # Wait on an already-complete request: no block.
                        cmd._waited = True
                        ct = cmd.completion_time
                        if ct > ctx._clock:
                            ctx._clock = ct
                        val = cmd.data
                        continue
                    cmd.waiter = p.rank
                    p.pending = cmd
                    p.state = BLOCKED
                    p.block_info = ("waiting on {}", cmd)
                    return
                if cmd is YIELD:
                    p.state = READY
                    push((ctx._clock, p.rank))
                    return
                tcmd = type(cmd)
                if tcmd is Park:
                    p.state = BLOCKED
                    p.block_info = cmd.info
                    return
                if tcmd is WaitAny:
                    requests = cmd.requests
                    pending = [r for r in requests if not r.done]
                    if not pending:
                        val = None
                        continue
                    rank = p.rank
                    for r in pending:
                        r.waiter = rank
                    p.pending_any = requests
                    p.state = BLOCKED
                    p.block_info = waitany_info(pending)
                    return
                raise EngineStateError(
                    f"rank {p.rank} yielded unsupported value {cmd!r} — "
                    "generator mains may yield Requests, Park, YIELD or "
                    "WaitAny (use the g_* API for blocking operations)"
                )
        finally:
            if tracer is not None:
                obs.restore_scope(scope)

    def _abort(self) -> None:
        """Close every live rank generator after a fatal error."""
        self._aborting = True
        for p in self._ranks:
            gen = p.gen
            if gen is not None:
                try:
                    gen.close()
                except BaseException:  # noqa: BLE001 - teardown best effort
                    pass
            if p.state in (READY, BLOCKED, HUNG, RUNNING, NEW):
                p.state = ABORTED

    # -- rank-side primitives ----------------------------------------------------

    def park_current(self, prog: _RankProgram, info) -> None:
        """Blocking primitives cannot run under the thread-free engine."""
        raise EngineStateError(
            f"rank {prog.rank} hit a blocking call ({info}) outside the "
            "generator protocol — thread-free mains must route blocking "
            "operations through the g_* API (yield from), or run under "
            f"{ENGINE_ENV}={ENGINE_THREADS}"
        )

    def yield_current(self, prog: _RankProgram) -> None:
        """Blocking primitives cannot run under the thread-free engine."""
        self.park_current(prog, "yield")

    def hang_current(self, prog: _RankProgram) -> None:
        """Deliver an injected hang: mark HUNG and unwind the generator.

        The rank's section recording is muted first so the unwind's
        ``with section`` exits leave no trace — matching the threaded
        oracle, whose hung thread parks with its sections still open.
        The open-frame stacks stay intact for stall diagnostics and
        partial profiles.
        """
        prog.state = HUNG
        prog.block_info = f"hung by injected fault at t={prog.ctx.now:.6g}"
        self._sections.mute_rank(prog.rank)
        raise _Hang()

    def _frame_info(self, record) -> str:
        """Innermost suspension point of the rank's generator chain.

        Walks ``gi_yieldfrom`` to the deepest suspended frame — the
        thread-free analogue of the stuck thread's stack tip — so stall
        reports point into workload code (``file:line in name``).
        """
        gen = record.gen
        frame = None
        while gen is not None:
            f = getattr(gen, "gi_frame", None)
            if f is None:
                break
            frame = f
            gen = getattr(gen, "gi_yieldfrom", None)
        if frame is None:
            return ""
        code = frame.f_code
        return f"{os.path.basename(code.co_filename)}:{frame.f_lineno} in {code.co_name}"


def run_mpi(
    n_ranks: int,
    main: Callable,
    *,
    machine: Optional[MachineSpec] = None,
    ranks_per_node: Optional[int] = None,
    seed: int = 0,
    compute_jitter: float = 0.0,
    noise_floor: float = 0.0,
    tools: Sequence = (),
    validate_sections: bool = True,
    max_virtual_time: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    wall_timeout: Optional[float] = None,
    progress_steps: Optional[int] = None,
    coll_analytic: Optional[bool] = None,
    macrostep: Optional[bool] = None,
    engine: Optional[str] = None,
    args: tuple = (),
    kwargs: Optional[dict] = None,
) -> RunResult:
    """One-shot convenience: build an engine and run ``main``.

    This is the moral equivalent of ``mpiexec -n <n_ranks> python main.py``
    on the simulated machine.

    ``engine`` selects the execution substrate (see :func:`engine_mode`):
    ``"threadfree"`` (default) or ``"threads"``; unset follows
    ``REPRO_ENGINE``.  The thread-free engine needs a generator ``main``
    — a plain blocking callable degrades gracefully to the threaded
    engine, and a generator ``main`` runs under either.  Simulated
    results are bit-identical across engines.

    With ``REPRO_TRACE`` set and no trace already active, this call is
    an outermost entry point: it mints the trace and emits the
    self-profiling outputs on return (see :mod:`repro.obs`).
    """
    with obs.env_trace("run_mpi", layer="engine",
                       attrs={"ranks": n_ranks, "seed": seed}):
        mode = engine_mode(engine)
        cls = (
            ThreadFreeEngine
            if mode == ENGINE_THREADFREE and is_generator_main(main)
            else Engine
        )
        eng = cls(
            n_ranks,
            machine=machine,
            ranks_per_node=ranks_per_node,
            seed=seed,
            compute_jitter=compute_jitter,
            noise_floor=noise_floor,
            tools=tools,
            validate_sections=validate_sections,
            max_virtual_time=max_virtual_time,
            faults=faults,
            wall_timeout=wall_timeout,
            progress_steps=progress_steps,
            coll_analytic=coll_analytic,
            macrostep=macrostep,
        )
        return eng.run(main, args=args, kwargs=kwargs)
