"""Supervised multi-process workers: the service's self-healing scheduler.

The thread scheduler (:mod:`repro.service.scheduler`) shares one GIL
across every cold job; this module promotes the PR 1 process-pool idea
into the service itself.  A :class:`WorkerSupervisor` spawns ``workers``
long-lived **worker processes** and supervises them.  How a job is
claimed, run and ended is not this module's: each worker process runs
its job through the same :func:`~repro.service.scheduler.run_job` body
as a thread worker and sends the outcome back over its pipe, and the
supervisor ends every job through the shared persist-first
:meth:`~repro.service.scheduler._JobRunner.settle`.  What is
process-only lives here:

* **dispatch** — one job per worker at a time, claimed by the shared
  claim rule (a job whose deadline passed while queued is failed
  unstarted; any other is journalled ``claim``) before the worker sees
  it;
* **heartbeats** — each worker emits a heartbeat message twice a
  second from a side thread; a busy worker that stops beating for
  ``heartbeat_timeout`` seconds is presumed wedged, killed, and treated
  as a death;
* **death detection** — a worker that disappears (SIGKILL, segfault,
  OOM) is noticed via its closed pipe / exit code; its job is requeued
  with an exponential-backoff-plus-jitter delay and a retry budget, and
  a replacement worker is spawned (``repro_worker_restarts_total``);
* **poison-job circuit breaker** — a job that kills its worker more
  than ``retry_budget`` times is quarantined in the terminal
  ``poisoned`` state instead of grinding the pool forever;
* **running deadlines** — a job still running past its per-job
  ``deadline`` has its worker killed and is failed with
  ``DeadlineExceeded`` (the in-simulation watchdog gets the same bound
  via :meth:`~repro.service.jobs.JobSpec.effective_wall_timeout`; in
  thread mode that watchdog is the only bound, since a thread cannot be
  killed);
* **graceful drain** — ``stop(drain=True)`` stops dispatching, lets
  busy workers finish and persist, then retires the pool; with
  ``preserve_queued`` the still-queued jobs stay journalled for the
  next server process instead of being cancelled.

**Chaos instrumentation.**  Workers honour the
``REPRO_SERVICE_POISON_KEYS`` environment variable — a comma-separated
list of job-key prefixes that make the claiming worker SIGKILL itself.
The chaos tests use it to manufacture deterministic poison jobs and
mid-simulation worker deaths without patching production code paths.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import random
import signal
import threading
import time
from multiprocessing import connection as mpc
from typing import List, Optional

from repro.service.metrics import ServiceMetrics
from repro.service.queue import Job, JobQueue
from repro.service.registry import ExperimentRegistry
from repro.service.scheduler import _JobRunner, run_job

logger = logging.getLogger(__name__)

#: Seconds between worker heartbeat messages.
HEARTBEAT_INTERVAL = 0.5

#: Chaos hook: job-key prefixes that make a claiming worker kill itself.
POISON_ENV = "REPRO_SERVICE_POISON_KEYS"

#: Supervisor loop tick (pipe multiplexing timeout).
_TICK = 0.1


def _poison_prefixes() -> List[str]:
    raw = os.environ.get(POISON_ENV, "").strip()
    return [p for p in raw.split(",") if p] if raw else []


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------

def _worker_main(worker_id: int, conn, cache_root, sweep_jobs) -> None:
    """Entry point of one worker process.

    Receives ``(spec, want_trace, submitted_at, started_at)`` tasks on
    ``conn``, runs each through :func:`~repro.service.scheduler.run_job`
    and sends back ``("start"|"progress"|"outcome"|"hb", ...)``
    messages.  EOF on the pipe (supervisor gone, graceful sentinel)
    exits the loop — a worker can never outlive its server unnoticed.
    """
    from repro.harness.cache import RunCache

    send_lock = threading.Lock()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def beat() -> None:
        while True:
            try:
                send(("hb", worker_id))
            except (OSError, ValueError):
                return
            time.sleep(HEARTBEAT_INTERVAL)

    threading.Thread(target=beat, name=f"repro-hb-{worker_id}",
                     daemon=True).start()
    cache = RunCache(root=cache_root) if cache_root is not None else None
    poison = _poison_prefixes()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:  # graceful retirement sentinel
            return
        spec, want_trace, submitted_at, started_at = task
        key = spec.key
        try:
            send(("start", worker_id, key))
        except (OSError, ValueError):
            return
        if any(key.startswith(p) for p in poison):
            os.kill(os.getpid(), signal.SIGKILL)
        outcome = run_job(
            spec, submitted_at=submitted_at, started_at=started_at,
            want_trace=lambda: want_trace, worker=worker_id,
            jobs=sweep_jobs, cache=cache,
            progress=lambda line: send(("progress", worker_id, key, line)),
        )
        try:
            send(("outcome", worker_id, key, outcome))
        except (OSError, ValueError):
            return  # supervisor vanished mid-result; nothing to report to


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.job: Optional[Job] = None
        self.last_beat = time.time()

    @property
    def busy(self) -> bool:
        return self.job is not None


class WorkerSupervisor(_JobRunner):
    """Runs queued jobs on supervised worker *processes*.

    Drop-in for :class:`~repro.service.scheduler.Scheduler` (the same
    shared runner, ``start`` / ``stop`` / ``running_count`` surface)
    with self-healing semantics on top.  Parameters beyond the
    scheduler's:

    retry_budget:
        Worker deaths a single job may cause before it is poisoned.
    backoff / backoff_cap / jitter:
        Requeue delay curve (see
        :func:`repro.harness.parallel.backoff_delay`).
    heartbeat_timeout:
        Seconds of heartbeat silence after which a busy worker is
        presumed wedged and killed.
    seed:
        Seeds the jitter RNG — chaos tests pin it for reproducible
        recovery schedules.
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
        retry_budget: int = 2,
        backoff: float = 0.25,
        backoff_cap: float = 30.0,
        jitter: float = 0.25,
        heartbeat_timeout: float = 30.0,
        seed: Optional[int] = None,
    ):
        super().__init__(queue, registry, metrics, workers=workers,
                         sweep_jobs=sweep_jobs, cache=cache, journal=journal)
        self.retry_budget = retry_budget
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.heartbeat_timeout = heartbeat_timeout
        self._rng = random.Random(seed)
        self._mp = multiprocessing.get_context("fork")
        self._handles: List[_WorkerHandle] = []
        self._loop: Optional[threading.Thread] = None
        self._draining = threading.Event()
        self._next_worker_id = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker processes and the supervision loop."""
        if self._loop is not None:
            return
        for _ in range(self.workers):
            self._handles.append(self._spawn())
        self._loop = threading.Thread(
            target=self._supervise, name="repro-supervisor", daemon=True)
        self._loop.start()
        # Workers are non-daemon (they spawn their own sweep process
        # pools), so an *unclean* parent exit would block forever in
        # multiprocessing's atexit join while workers wait on recv().
        # This hook — registered after multiprocessing's, so it runs
        # first — kills any still-alive workers on interpreter exit.
        atexit.register(self._atexit_kill)

    def _spawn(self) -> _WorkerHandle:
        wid = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        cache_root = getattr(self.cache, "root", None)
        proc = self._mp.Process(
            target=_worker_main,
            args=(wid, child_conn, cache_root, self.sweep_jobs),
            name=f"repro-worker-{wid}",
        )
        proc.start()
        child_conn.close()  # the parent keeps only its own end
        return _WorkerHandle(wid, proc, parent_conn)

    def stop(self, drain: bool = True, timeout: Optional[float] = None,
             preserve_queued: bool = False) -> None:
        """Shut the pool down.

        ``drain=True`` (default) lets busy workers finish and persist
        their jobs; ``drain=False`` kills them (their jobs stay claimed
        in the journal and replay as orphans).  Queued jobs: see
        :meth:`~repro.service.scheduler._JobRunner._close_queue`.
        """
        self._close_queue(preserve_queued)
        self._draining.set()
        if not drain:
            self._stop.set()
        if self._loop is not None:
            self._loop.join(timeout)
            self._loop = None
        for h in self._handles:
            if not drain and h.process.is_alive():
                h.process.kill()
            h.process.join(timeout=5)
            try:
                h.conn.close()
            except OSError:
                pass
        self._handles = []
        atexit.unregister(self._atexit_kill)

    def _atexit_kill(self) -> None:
        """Last-resort reaper for an interpreter exiting without stop()."""
        self._stop.set()  # no respawns while we reap
        if self._loop is not None:
            self._loop.join(timeout=2)
        for h in self._handles:
            try:
                if h.process.is_alive():
                    h.process.kill()
            except (OSError, AttributeError, ValueError):
                pass

    def worker_pids(self) -> List[int]:
        """Live worker process ids (chaos tests kill these)."""
        return [h.process.pid for h in self._handles
                if h.process.is_alive() and h.process.pid]

    # -- the supervision loop ------------------------------------------------

    def _supervise(self) -> None:
        """Single-threaded pump: messages, deaths, deadlines, dispatch."""
        while True:
            if self._stop.is_set():
                return
            if self._draining.is_set():
                # Drain mode: no new dispatch; exit once workers idle.
                if not any(h.busy for h in self._handles):
                    self._retire_workers()
                    return
            self._pump_messages()
            self._check_workers()
            if not self._draining.is_set():
                self._dispatch()

    def _retire_workers(self) -> None:
        """Send every idle worker its graceful-exit sentinel."""
        for h in self._handles:
            try:
                h.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass

    # -- message handling ----------------------------------------------------

    def _pump_messages(self) -> None:
        conns = {h.conn: h for h in self._handles if h.process is not None}
        if not conns:
            time.sleep(_TICK)
            return
        try:
            ready = mpc.wait(list(conns), timeout=_TICK)
        except OSError:
            return
        for conn in ready:
            h = conns[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # Closed pipe: the worker died (or exited); the reaper
                # in _check_workers handles requeue + respawn.
                continue
            self._handle_message(h, msg)

    def _handle_message(self, h: _WorkerHandle, msg) -> None:
        kind = msg[0]
        if kind in ("hb", "start"):
            h.last_beat = time.time()
            return
        if h.job is None or h.job.key != msg[2]:
            return  # stale message from a job we already reassigned
        if kind == "progress":
            h.last_beat = time.time()
            h.job.add_progress(msg[3])
        elif kind == "outcome":
            job, h.job = h.job, None
            self.settle(job, **msg[3])

    # -- supervision ---------------------------------------------------------

    def _check_workers(self) -> None:
        """Reap dead workers, enforce heartbeats and deadlines."""
        now = time.time()
        for i, h in enumerate(self._handles):
            if h.process.is_alive():
                if h.busy:
                    deadline = h.job.deadline_at()
                    if deadline is not None and now > deadline:
                        job = h.job
                        self._kill_worker(h, f"deadline exceeded after "
                                             f"{job.spec.deadline:.3g}s")
                        self._handles[i] = self._replace(h, error={
                            "error_type": "DeadlineExceeded",
                            "message": f"job exceeded its "
                                       f"{job.spec.deadline:.6g}s deadline "
                                       "and was terminated",
                        })
                        continue
                    if now - h.last_beat > self.heartbeat_timeout:
                        self._kill_worker(
                            h, f"no heartbeat for {self.heartbeat_timeout}s")
                        self._handles[i] = self._replace(h)
                continue
            # Process gone: SIGKILL, segfault, OOM — or clean exit.
            if h.busy or not self._draining.is_set():
                self._handles[i] = self._replace(h)

    def _kill_worker(self, h: _WorkerHandle, why: str) -> None:
        logger.warning("killing worker %d (pid %s): %s",
                       h.worker_id, h.process.pid, why)
        try:
            h.process.kill()
        except (OSError, AttributeError):
            pass
        h.process.join(timeout=5)

    def _replace(self, h: _WorkerHandle, *,
                 error: Optional[dict] = None) -> _WorkerHandle:
        """Respawn a dead worker; fail its victim job with ``error``, or
        else requeue (or poison) it.

        The restart is counted before the victim's terminal record is
        published, so a client woken by that record already sees it.
        """
        h.process.join(timeout=5)
        try:
            h.conn.close()
        except OSError:
            pass
        victim, h.job = h.job, None
        self.metrics.inc("worker_restarts")
        if victim is not None:
            if error is not None:
                self.settle(victim, "failed", error=error)
            else:
                self._requeue_victim(victim)
        replacement = self._spawn()
        logger.warning(
            "worker %d (pid %s, exit %s) replaced by worker %d (pid %s)",
            h.worker_id, h.process.pid, h.process.exitcode,
            replacement.worker_id, replacement.process.pid)
        return replacement

    def _requeue_victim(self, job: Job) -> None:
        """Retry-or-poison a job whose worker process died under it."""
        if job.attempts > self.retry_budget:
            self.settle(job, "poisoned", error={
                "error_type": "PoisonedJob",
                "message": (
                    f"job killed its worker process {job.attempts} times "
                    f"(retry budget {self.retry_budget}); quarantined"),
            })
            return
        delay = 0.0
        if self.backoff > 0.0:
            from repro.harness.parallel import backoff_delay

            delay = backoff_delay(job.attempts, self.backoff,
                                  cap=self.backoff_cap, jitter=self.jitter,
                                  rng=self._rng)
        if self.journal is not None:
            self.journal.append("requeue", job.key, attempt=job.attempts,
                                delay=round(delay, 6), reason="worker died")
        if not self.queue.requeue(job, delay=delay):
            # Shutdown raced the worker death: wake this process's
            # waiters, but leave the journal line standing so the next
            # server replays and finishes the job.
            job.cancel("service stopping; interrupted job preserved "
                       "in journal", at=time.time())
            return
        self.metrics.inc("jobs_requeued")
        logger.warning(
            "job %s requeued after worker death (attempt %d/%d, "
            "backoff %.3fs)", job.key[:12], job.attempts,
            self.retry_budget + 1, delay)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self) -> None:
        for h in self._handles:
            if h.busy or not h.process.is_alive():
                continue
            job = self._claim_next(h.worker_id, 0)
            if job is None:
                return
            h.last_beat = time.time()
            try:
                h.conn.send((job.spec, job.want_trace, job.submitted_at,
                             job.started_at))
            except (OSError, ValueError, BrokenPipeError):
                # Worker died between liveness check and send; the
                # reaper will respawn it — requeue the job right away.
                self._requeue_victim(job)
                continue
            h.job = job
