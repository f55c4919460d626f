"""The job runner both service worker modes share, and its thread mode.

A job is run by :func:`run_job` and ended by :meth:`_JobRunner.settle`,
whichever mode the service runs in:

* :func:`run_job` is the job body: the job's own :mod:`repro.obs`
  trace, its ``queue.wait`` span, the ``job.execute`` span around
  :func:`~repro.service.jobs.execute_job` (which fans sweep points out
  over :mod:`repro.harness.parallel` with fail-soft / retry / watchdog
  semantics), and an error dict with its traceback when the job raises.
  It returns a picklable outcome, so it runs the same on a worker
  thread here and inside a worker process
  (:mod:`repro.service.supervisor`).
* :meth:`_JobRunner.settle` is every terminal transition — done, failed,
  poisoned, cancelled — and it is persist-first: the registry record,
  then the journal line, then the in-memory state that wakes waiters,
  then the metrics, then the queue forgets the job.  Anyone who
  observes a terminal state finds the record already on disk, so a job
  that crashes yields a *failed-job record*, never a hung client.
* :meth:`_JobRunner._claim_next` is the one claim rule: a job whose
  ``deadline`` passed while it waited in the queue is failed with
  ``DeadlineExceeded`` and never started; any other job is marked
  running and journalled (``claim``) before it runs.

:class:`Scheduler` is the thread mode: ``workers`` daemon threads call
:func:`run_job` directly.  Threads are the right grain here: a job
spends its life inside the harness (which releases the GIL into worker
*processes* when ``jobs > 1``), so the scheduler only needs cheap
concurrency for bookkeeping and blocking.  A thread cannot be killed,
so a running job's deadline is enforced by the engine watchdog alone
(:meth:`~repro.service.jobs.JobSpec.effective_wall_timeout`).

Shutdown is graceful by default: ``stop()`` closes the queue (new
submits refused, queued jobs cancelled-and-recorded), then joins the
workers, which finish their running jobs first — draining, in service
terms.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional, Sequence

from repro import obs
from repro.service.jobs import JobSpec, execute_job
from repro.service.metrics import ServiceMetrics
from repro.service.queue import Job, JobQueue
from repro.service.registry import ExperimentRegistry

logger = logging.getLogger(__name__)

#: How long an idle worker blocks on the queue before re-checking the
#: stop flag (seconds); bounds shutdown latency, not throughput.
_POLL_INTERVAL = 0.1

#: Terminal status → (journal event, metrics counter).
_TERMINAL = {
    "done": ("complete", "jobs_completed"),
    "failed": ("fail", "jobs_failed"),
    "poisoned": ("fail", "jobs_poisoned"),
    "cancelled": ("cancel", "jobs_cancelled"),
}


def run_job(
    spec: JobSpec,
    *,
    submitted_at: float,
    started_at: float,
    want_trace: Callable[[], bool],
    worker: int,
    jobs: Optional[int],
    cache,
    progress: Callable[[str], None],
) -> Dict[str, Any]:
    """Execute one job inside its own trace; returns its outcome.

    The outcome is the keyword arguments of :meth:`_JobRunner.settle`
    (``status``, ``result``, ``error``, ``trace``, ``spans``) and is
    picklable, so a worker process can send it over its pipe.
    ``want_trace`` is asked once the job has run: the Chrome trace is
    only built for a ``?trace=1`` job, done or failed.
    """
    tracer = obs.start_trace(
        "job.run", layer="service",
        attrs={"kind": spec.kind, "job": spec.key[:12], "worker": worker},
    )
    # The queue wait ended the instant the claim stamped started_at —
    # record it from the job's timestamps rather than a span after the
    # fact.
    tracer.record("queue.wait", layer="service", start=submitted_at,
                  duration=max(0.0, started_at - submitted_at))
    result = error = None
    try:
        try:
            with obs.span("job.execute", layer="service", kind=spec.kind):
                # Looked up on this module at call time, so a wrapper
                # installed on ``scheduler.execute_job`` sees every job.
                result = execute_job(spec, jobs=jobs, cache=cache,
                                     progress=progress)
        except BaseException as exc:  # noqa: BLE001 - failure record
            error = {
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
    finally:
        tracer = obs.finish_trace()
    return {
        "status": "failed" if error is not None else "done",
        "result": result,
        "error": error,
        "trace": obs.to_chrome_trace(tracer) if want_trace() else None,
        "spans": [(sp.name, sp.duration) for sp in tracer.spans()
                  if sp.kind == "span"],
    }


class _JobRunner:
    """What both worker modes share: the claim rule and :meth:`settle`.

    Parameters
    ----------
    queue, registry, metrics:
        The shared service singletons.
    workers:
        Concurrent jobs.  Each job may additionally use ``sweep_jobs``
        worker *processes* for its points.
    sweep_jobs:
        Default per-sweep process count passed to the harness (a spec's
        own ``jobs`` field overrides it; None → harness default).
    cache:
        Shared :class:`~repro.harness.cache.RunCache` (or None) given to
        every job, so identical points across different jobs replay
        from disk.
    journal:
        The :class:`~repro.service.journal.JobJournal` (or None).
    """

    def __init__(
        self,
        queue: JobQueue,
        registry: ExperimentRegistry,
        metrics: ServiceMetrics,
        *,
        workers: int = 2,
        sweep_jobs: Optional[int] = None,
        cache=None,
        journal=None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.queue = queue
        self.registry = registry
        self.metrics = metrics
        self.workers = workers
        self.sweep_jobs = sweep_jobs
        self.cache = cache
        self.journal = journal
        self._stop = threading.Event()

    def running_count(self) -> int:
        """Jobs currently executing on a worker."""
        return sum(1 for job in self.queue.jobs() if job.state == "running")

    def settle(self, job: Job, status: str, *, result=None, error=None,
               trace=None, spans=(), counter: Optional[str] = None,
               **journal_fields: Any) -> None:
        """End a job: record, journal line, wake waiters, count, forget.

        ``spans`` (``(name, seconds)`` pairs from the job's trace) feed
        the ``repro_span_seconds`` family; ``counter`` overrides the
        status's metrics counter; ``journal_fields`` ride on the journal
        line.
        """
        for name, seconds in spans:
            self.metrics.observe_span(name, seconds)
        event, default_counter = _TERMINAL[status]
        now = time.time()
        try:
            record = ExperimentRegistry.make_record(
                job, status=status, result=result, error=error,
                finished_at=now)
            if trace is not None:
                record["trace"] = trace
            self.registry.put(record)
            if status in ("failed", "poisoned"):
                journal_fields["error_type"] = error["error_type"]
                if status == "poisoned":
                    journal_fields["poisoned"] = True
                logger.warning("job %s %s: %s: %s", job.key[:12], status,
                               error["error_type"], error["message"])
            if self.journal is not None:
                self.journal.append(event, job.key, **journal_fields)
            if status == "done":
                job.finish(result, at=now)
            elif status == "cancelled":
                job.cancel(error["message"], at=now)
            elif status == "poisoned":
                job.poison(error, at=now)
            else:
                job.fail(error, at=now)
            self.metrics.inc(counter or default_counter)
        finally:
            duration = job.duration()
            if duration is not None:
                self.metrics.observe_latency(duration)
            self.queue.forget(job)

    def _claim_next(self, worker: int, timeout: float) -> Optional[Job]:
        """The next job to run on ``worker``, marked running and journalled.

        A job whose deadline passed while it waited is failed with
        ``DeadlineExceeded`` on the way, without being started.
        """
        while True:
            job = self.queue.next_job(timeout=timeout)
            if job is None:
                return None
            deadline = job.deadline_at()
            if deadline is None or time.time() <= deadline:
                job.mark_running()
                if self.journal is not None:
                    self.journal.append("claim", job.key,
                                        attempt=job.attempts, worker=worker)
                return job
            self.settle(job, "failed", error={
                "error_type": "DeadlineExceeded",
                "message": (f"job spent its whole {job.spec.deadline:.6g}s "
                            "deadline waiting in the queue"),
            })

    def _close_queue(self, preserve_queued: bool) -> None:
        """Refuse new submits and cancel-and-record every queued job.

        ``preserve_queued`` (the SIGTERM graceful-drain path) records
        nothing: the journal's submit lines stay standing, so the next
        server process re-enqueues the jobs.  Waiters of *this* process
        still wake (their connection dies with us).
        """
        for job in self.queue.close():
            if preserve_queued:
                job.cancel("service restarting; job preserved in journal")
            else:
                self.settle(job, "cancelled", error={
                    "error_type": "Cancelled",
                    "message": "service shut down before the job started",
                })


class Scheduler(_JobRunner):
    """Runs queued jobs on a pool of worker threads."""

    _threads: Sequence[threading.Thread] = ()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(i,),
                             name=f"repro-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    def stop(self, drain: bool = True, timeout: Optional[float] = None,
             preserve_queued: bool = False) -> None:
        """Shut the pool down.

        ``drain=True`` (default) cancels *queued* jobs but lets
        *running* jobs finish and persist their records; ``drain=False``
        abandons running jobs too (their threads are daemonic).
        ``preserve_queued``: see :meth:`_JobRunner._close_queue`.
        """
        self._close_queue(preserve_queued)
        self._stop.set()
        if drain:
            for t in self._threads:
                t.join(timeout)
        self._threads = []

    # -- the worker loop ----------------------------------------------------

    def _worker_loop(self, worker: int) -> None:
        # Once stop() has closed the queue nothing is claimable, so the
        # loop ends with the job it is running.
        while not self._stop.is_set():
            job = self._claim_next(worker, _POLL_INTERVAL)
            if job is not None:
                self.settle(job, **run_job(
                    job.spec, submitted_at=job.submitted_at,
                    started_at=job.started_at,
                    want_trace=lambda: job.want_trace, worker=worker,
                    jobs=self.sweep_jobs, cache=self.cache,
                    progress=job.add_progress,
                ))
