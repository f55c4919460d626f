"""Parallel, cached, fail-soft sweep execution.

Every sweep point is an independent, deterministically seeded
simulation (repetition ``r`` at scale ``x`` derives its seed from the
sweep's base seed alone — see :mod:`repro.harness.runner`), so points
can execute on any number of worker processes and still merge into a
result bit-identical to the serial run: the merge happens in canonical
point order, and each point's output depends only on its own inputs.

:func:`sweep_points` is the one point loop every sweep entry point
(:func:`~repro.harness.runner.run_convolution_sweep`,
:func:`~repro.harness.runner.run_lulesh_grid`,
:func:`~repro.harness.scenario.run_scenario`) runs on: it checks the
seed set, replays cached points, fans the rest out with
:func:`map_points_failsoft` and merges in canonical order, emitting the
``progress`` lines and collecting failures.  The map yields outcomes
*in submission order* while later points keep executing in the
background, which is what keeps ``progress`` streams identical between
serial and parallel runs.

The worker count resolves, in priority order: an explicit ``jobs``
argument → the ``REPRO_JOBS`` environment variable → 1 (serial).  A
value of 0 (or any negative) means "all cores".
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro import obs
from repro.errors import ReproError
from repro.harness.cache import RunCache, maybe_default_cache
from repro.harness.failures import (
    PointFailure,
    SweepFailureReport,
    SweepPointError,
)
from repro.workloads.physics_scope import physics_scope

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: ``jobs`` → ``$REPRO_JOBS`` → 1.

    ``jobs <= 0`` (from either source) selects every available core —
    never more: the automatic default is clamped to ``os.cpu_count()``
    because oversubscribing CPU-bound simulation workers only adds
    context-switch overhead (a 1-core host once recorded a 0.57×
    "speedup" at ``--jobs=4`` this way).  An *explicit* positive count
    is honoured even beyond the core count — the pool is still useful
    when workers block on I/O — but oversubscription is reported once
    on stderr so a surprising slowdown is explained.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ReproError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    cores = os.cpu_count() or 1
    if jobs <= 0:
        return cores
    if jobs > cores:
        print(
            f"repro: --jobs={jobs} oversubscribes this host "
            f"({cores} core(s)); CPU-bound sweep workers will contend "
            "and may run slower than a smaller pool",
            file=sys.stderr,
        )
    return jobs


def backoff_delay(
    attempt: int,
    base: float,
    *,
    cap: float = 30.0,
    jitter: float = 0.0,
    rng=None,
) -> float:
    """Exponential backoff with optional jitter for retry ``attempt``.

    ``attempt`` is 1-based (the delay before the second try is
    ``base``); the exponential curve is clamped at ``cap`` seconds so a
    deep retry never sleeps unboundedly.  ``jitter`` spreads the delay
    uniformly into ``[delay, delay * (1 + jitter)]`` using ``rng``
    (a :class:`random.Random`; seeded by callers that need reproducible
    chaos schedules) — jitter is what keeps a herd of requeued jobs
    from thundering back in lockstep.
    """
    if attempt < 1 or base <= 0.0:
        return 0.0
    delay = min(cap, base * (2 ** (attempt - 1)))
    if jitter > 0.0:
        import random as _random

        draw = (rng or _random).random()
        delay *= 1.0 + jitter * draw
    return delay


# ---------------------------------------------------------------------------
# Fail-soft mapping
# ---------------------------------------------------------------------------

@dataclass
class PointOutcome:
    """Result of one fail-soft point execution.

    ``ok`` outcomes carry the point function's return in ``value``;
    failed outcomes carry the final attempt's error identity (and, when
    the exception survived the worker boundary, the exception object
    itself in ``error``).  ``worker_died`` marks loss of the worker
    *process* (segfault, OOM kill) as opposed to a Python exception.
    """

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    worker_died: bool = False
    attempts: int = 1


def _failsoft_call(packed) -> PointOutcome:
    """Run one task with retries, capturing any exception.

    Module-level so it pickles into worker processes.  Exceptions are
    caught *inside* the worker and shipped back as data, so a failed
    point can never poison the pool — only genuine process death can,
    which is exactly what lets the caller tell the two apart.
    """
    fn, task, retries, backoff, ctx = packed
    worker = obs.adopt_context(ctx)
    try:
        with obs.span("worker.task", layer="harness") as sp:
            attempts = 0
            while True:
                attempts += 1
                try:
                    value = fn(task)
                    sp.set(attempts=attempts)
                    return PointOutcome(ok=True, value=value,
                                        attempts=attempts)
                except Exception as exc:  # noqa: BLE001 - reported as data
                    if attempts <= retries:
                        obs.event("worker.retry", layer="harness",
                                  attempt=attempts,
                                  error=type(exc).__name__)
                        if backoff > 0.0:
                            time.sleep(backoff_delay(attempts, backoff))
                        continue
                    sp.set(attempts=attempts, failed=type(exc).__name__)
                    try:  # ship the exception object iff it pickles
                        pickle.dumps(exc)
                        err: Optional[BaseException] = exc
                    except Exception:  # noqa: BLE001 - unpicklable
                        err = None
                    return PointOutcome(
                        ok=False,
                        error=err,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback=_traceback.format_exc(),
                        attempts=attempts,
                    )
    finally:
        obs.release_context(worker)


def _worker_death_outcome(attempts: int = 1) -> PointOutcome:
    return PointOutcome(
        ok=False,
        error_type="WorkerCrash",
        message="worker process died while executing this point "
        "(killed or crashed below Python)",
        worker_died=True,
        attempts=attempts,
    )


def _run_isolated(packed) -> PointOutcome:
    """Execute one packed task in a throwaway single-worker pool.

    Used to attribute worker death to a specific point after a shared
    pool broke: if this pool dies too, the point itself kills its
    process.
    """
    try:
        with ProcessPoolExecutor(max_workers=1) as solo:
            return next(iter(solo.map(_failsoft_call, [packed])))
    except BrokenProcessPool:
        return _worker_death_outcome()


def map_points_failsoft(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: int,
    *,
    retries: int = 0,
    retry_backoff: float = 0.0,
) -> Iterator[PointOutcome]:
    """Yield a :class:`PointOutcome` per task, in task order.

    With ``jobs <= 1`` (or fewer than two tasks) this runs inline;
    otherwise tasks fan out over a process pool.  ``fn`` and every task
    must be picklable (module-level function, dataclass arguments).

    A point that raises (or whose worker process dies) produces a failed
    outcome instead of aborting the map.  Each point gets up to
    ``retries`` re-attempts with exponential backoff starting at
    ``retry_backoff`` seconds.

    Worker death breaks a shared :class:`ProcessPoolExecutor` for every
    in-flight task, so on breakage the not-yet-collected points are
    re-run — the first in an isolated single-worker pool (pinpointing
    the killer), the rest in a fresh shared pool.  Points are pure
    functions of their task, so re-execution is safe.
    """
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")
    if retry_backoff < 0:
        raise ReproError(f"retry_backoff must be >= 0, got {retry_backoff}")
    if jobs <= 1 or len(tasks) <= 1:
        # Inline path: the ambient tracer (if any) is already active, so
        # adopt/release inside _failsoft_call are no-ops and spans flow
        # straight into the parent trace.
        for task in tasks:
            yield _failsoft_call((fn, task, retries, retry_backoff, None))
        return
    ctx = obs.propagation_context()
    packed = [(fn, task, retries, retry_backoff, ctx) for task in tasks]
    n = len(tasks)
    done: list = [None] * n
    next_yield = 0
    pending = list(range(n))
    with obs.span("pool.map", layer="harness",
                  jobs=min(jobs, n), tasks=n, failsoft=True):
        try:
            while pending:
                try:
                    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                        batch = list(pending)
                        for j, out in zip(batch, pool.map(_failsoft_call, [packed[j] for j in batch])):
                            done[j] = out
                            while next_yield < n and done[next_yield] is not None:
                                yield done[next_yield]
                                next_yield += 1
                    pending = [j for j in pending if done[j] is None]
                except BrokenProcessPool:
                    obs.event("pool.broken", layer="harness",
                              pending=len(pending))
                    pending = [j for j in pending if done[j] is None]
                    if pending:
                        j = pending.pop(0)
                        done[j] = _run_isolated(packed[j])
                        while next_yield < n and done[next_yield] is not None:
                            yield done[next_yield]
                            next_yield += 1
        finally:
            tracer = obs.current_tracer()
            if tracer is not None:
                tracer.gather()
    while next_yield < n:
        yield done[next_yield]
        next_yield += 1


# ---------------------------------------------------------------------------
# The sweep point loop
# ---------------------------------------------------------------------------

def _check_seed_collisions(points) -> None:
    """Raise ``ValueError`` if two sweep points derived the same seed.

    ``points`` yields ``(label, seed, task)`` triples; the labels name
    the colliding points in the error so the sweep author can fix the
    base-seed / reps / scale combination.
    """
    seen: Dict[int, str] = {}
    for label, seed, _ in points:
        other = seen.get(seed)
        if other is not None:
            raise ValueError(
                f"seed collision: {label} and {other} both derived seed "
                f"{seed}; their noise streams would be identical. Keep "
                f"reps < 1000 and scales distinct, or change base_seed."
            )
        seen[seed] = label


def sweep_points(
    workload: str,
    points: Sequence[Tuple[str, int, _T]],
    worker: Callable[[_T], Tuple[Any, str]],
    key: Callable[[_T], str],
    encode: Callable[[Any, str], Dict[str, Any]],
    decode: Callable[[Dict[str, Any]], Tuple[Any, str]],
    *,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    on_error: str = "raise",
    retries: int = 0,
    retry_backoff: float = 0.0,
    trace: str,
    **span_fields: Any,
) -> Tuple[List[Tuple[_T, Any]], SweepFailureReport]:
    """Run every point of one sweep; returns ``(done, report)``.

    ``points`` lists ``(label, seed, task)`` in canonical order.  A fresh
    point runs ``worker(task)`` (module-level and picklable), which
    returns ``(value, msg)`` with ``msg`` its progress line; a cached
    one is replayed from ``cache`` under ``key(task)`` through
    ``decode(payload) -> (value, msg)``, the inverse of the
    ``encode(value, msg) -> payload`` that stored it.  ``cache``
    defaults to :func:`~repro.harness.cache.maybe_default_cache`.  Every
    point's progress line is emitted in canonical order, so the stream
    is the same whatever ``jobs`` is and whichever points were cached.

    ``done`` holds ``(task, value)`` for every point that succeeded, in
    canonical order.  A failed point is never cached.  Under
    ``on_error="raise"`` the first one re-raises its error; under
    ``"skip"`` it gets a ``"<label>: FAILED (...)"`` progress line and
    a record in ``report``.  Each point is retried ``retries`` times
    with exponential backoff from ``retry_backoff`` seconds first.

    Two points deriving the same seed raise ``ValueError`` before any
    point runs.  The loop runs inside a ``sweep.run`` span (tagged with
    ``workload`` and ``span_fields``), and ``trace`` names the trace it
    mints when ``REPRO_TRACE`` is set — see :mod:`repro.obs`.

    The loop also runs inside one
    :func:`~repro.workloads.physics_scope.physics_scope`, the only one
    the library opens: a workload whose numbers do not depend on the
    point (the convolution image, LULESH's physics per process count)
    computes them at the first point that runs here and replays them as
    a timing skeleton at later ones, and the memo is gone when the sweep
    returns.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )
    with obs.env_trace(trace, layer="harness"), \
            obs.span("sweep.run", layer="harness", workload=workload,
                     **span_fields) as sweep_span, \
            physics_scope():
        _check_seed_collisions(points)
        if cache is None:
            cache = maybe_default_cache()
        hits: Dict[int, dict] = {}
        keys: List[Optional[str]] = [None] * len(points)
        with obs.span("cache.resolve", layer="cache",
                      enabled=cache is not None, points=len(points)) as csp:
            if cache is not None:
                for i, (_, _, task) in enumerate(points):
                    keys[i] = key(task)
                    payload = cache.get(keys[i])
                    if payload is not None:
                        hits[i] = payload
            csp.set(hits=len(hits))
        sweep_span.set(points=len(points), cache_hits=len(hits))
        fresh = map_points_failsoft(
            worker,
            [task for i, (_, _, task) in enumerate(points) if i not in hits],
            resolve_jobs(jobs),
            retries=retries,
            retry_backoff=retry_backoff,
        )
        done: List[Tuple[_T, Any]] = []
        report = SweepFailureReport()
        for i, (label, _, task) in enumerate(points):
            if i in hits:
                value, msg = decode(hits[i])
            else:
                out = next(fresh)
                if not out.ok:
                    failure = PointFailure(
                        label, out.error_type, out.message, out.attempts,
                        out.worker_died, out.traceback)
                    if on_error == "raise":
                        # the original exception when it survived the
                        # worker boundary, else one naming the point
                        if out.error is not None:
                            raise out.error
                        raise SweepPointError(failure)
                    report.add(failure)
                    if progress is not None:
                        progress(f"{label}: FAILED "
                                 f"({failure.error_type}: {failure.message})")
                    continue
                value, msg = out.value
                if cache is not None:
                    cache.put(keys[i], encode(value, msg))
            done.append((task, value))
            if progress is not None:
                progress(msg)
        return done, report
