"""Bounded job queue with admission classes, per-client limits and dedup.

The queue is the service's admission controller.  Policies enforced at
submit time, each surfaced to the HTTP layer as a distinct outcome:

* **backpressure** — the queue is bounded; a submit that would exceed
  ``limit`` raises :class:`QueueFullError` (HTTP 429) instead of letting
  memory and latency grow without bound;
* **admission classes** — every job is ``interactive`` or ``batch``.
  Workers always drain interactive jobs first, and under overload the
  service sheds *batch* work to admit interactive work (see
  :meth:`JobQueue.shed_batch`), so a sweep campaign cannot starve a
  human asking a quick question;
* **per-client fairness** — one client can hold at most ``per_client``
  jobs in flight (queued + running); the next submit raises
  :class:`ClientLimitError` (HTTP 429) so a single chatty client cannot
  starve the rest;
* **deduplication** — a spec whose content key matches an in-flight job
  coalesces onto that job (same job id, no new queue slot), so N
  clients asking the same question cost one simulation.

Jobs move ``queued → running → done | failed | poisoned | cancelled``,
with a ``running → queued`` *requeue* edge taken when a worker process
dies mid-job: the scheduler puts the victim back with an exponential
backoff delay (``not_before``), and :meth:`next_job` skips jobs whose
backoff has not yet expired.  A job whose retry budget is exhausted by
repeated worker deaths is *poisoned* — a terminal state distinct from
``failed`` so operators can tell "the simulation raised" from "this
input kills worker processes".

Every job carries its own ordered progress log (the runner's
``progress`` lines) and a :class:`threading.Event` that waiters block
on, which is what keeps clients from hanging when a job fails.  The
log is stored with the job's registry records, so it is still served
once the queue has forgotten the job.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.service.jobs import JobSpec

#: Terminal job states (the done-event is set exactly once, on entry).
TERMINAL_STATES = ("done", "failed", "poisoned", "cancelled")

#: Admission classes, highest priority first.
ADMISSION_CLASSES = ("interactive", "batch")

#: Cap on retained progress lines per job (oldest dropped beyond this).
MAX_PROGRESS_LINES = 10_000


class QueueFullError(ReproError):
    """The bounded queue is at capacity; the client should back off."""


class ClientLimitError(ReproError):
    """The submitting client already has its maximum jobs in flight."""


def progress_chunk(lines: List[str], dropped: int, after: int,
                   done: bool) -> Dict[str, Any]:
    """``{"lines", "next", "done"}``: a progress log past cursor ``after``.

    ``lines`` is the retained log once its ``dropped`` oldest lines fell
    off the cap; cursors count lines from the start of the whole log.
    """
    start = max(0, after - dropped)
    return {"lines": lines[start:], "next": dropped + len(lines),
            "done": done}


class Job:
    """One tracked job: spec, state machine, progress log, done-event.

    Thread-safe: state transitions and progress appends are serialised
    by the job's own lock; readers get consistent snapshots.
    """

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.key = spec.key
        self.priority = spec.priority
        self._lock = threading.Lock()
        self._done = threading.Event()
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        #: Execution attempts started (claims); drives the retry budget.
        self.attempts = 0
        #: Earliest wall-clock time the job may be claimed (backoff).
        self.not_before = 0.0
        self._progress: List[str] = []
        self._progress_dropped = 0
        #: Submitted with ``?trace=1``: the scheduler attaches the job's
        #: Chrome trace to its terminal registry record.  Sticky under
        #: coalescing — any submitter asking for a trace gets one.
        self.want_trace = False

    # -- transitions (called by the scheduler) ------------------------------

    def mark_running(self) -> None:
        """queued → running (counts one execution attempt)."""
        with self._lock:
            self.state = "running"
            self.attempts += 1
            if self.started_at is None:
                self.started_at = time.time()

    def mark_requeued(self, not_before: float = 0.0) -> None:
        """running → queued: the worker died; try again after backoff."""
        with self._lock:
            self.state = "queued"
            self.not_before = not_before

    def finish(self, result: Dict[str, Any],
               at: Optional[float] = None) -> None:
        """running → done, waking every waiter.

        ``at`` lets the scheduler stamp the job with the same timestamp
        it already persisted in the registry record (persist-first
        ordering: by the time waiters wake, the record is on disk).
        """
        with self._lock:
            self.state = "done"
            self.result = result
            self.finished_at = at if at is not None else time.time()
        self._done.set()

    def fail(self, error: Dict[str, Any],
             at: Optional[float] = None) -> None:
        """running → failed (a record, not a hung client)."""
        with self._lock:
            self.state = "failed"
            self.error = error
            self.finished_at = at if at is not None else time.time()
        self._done.set()

    def poison(self, error: Dict[str, Any],
               at: Optional[float] = None) -> None:
        """→ poisoned: the job killed workers past its retry budget."""
        with self._lock:
            self.state = "poisoned"
            self.error = error
            self.finished_at = at if at is not None else time.time()
        self._done.set()

    def cancel(self, why: str, at: Optional[float] = None) -> None:
        """queued → cancelled (shutdown or load-shedding before a run)."""
        with self._lock:
            self.state = "cancelled"
            self.error = {"error_type": "Cancelled", "message": why}
            self.finished_at = at if at is not None else time.time()
        self._done.set()

    # -- progress -----------------------------------------------------------

    def add_progress(self, line: str) -> None:
        """Append one runner progress line (bounded ring)."""
        with self._lock:
            self._progress.append(line)
            if len(self._progress) > MAX_PROGRESS_LINES:
                self._progress.pop(0)
                self._progress_dropped += 1

    def progress_since(self, after: int) -> Dict[str, Any]:
        """Progress lines with absolute index > ``after``.

        Returns ``{"lines", "next", "done"}`` so a client can poll with
        a cursor and stop once the job is terminal.
        """
        with self._lock:
            return progress_chunk(self._progress, self._progress_dropped,
                                  after, self.state in TERMINAL_STATES)

    def progress_log(self) -> Dict[str, Any]:
        """The retained progress lines and how many older ones were dropped.

        Stored with the job's registry record, so the lines outlive the
        job's place in the queue.
        """
        with self._lock:
            return {"dropped": self._progress_dropped,
                    "lines": list(self._progress)}

    # -- queries ------------------------------------------------------------

    @property
    def done_event(self) -> threading.Event:
        """Set once the job reaches a terminal state."""
        return self._done

    def duration(self) -> Optional[float]:
        """Wall-clock run time of a finished job (None before that)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def deadline_at(self) -> Optional[float]:
        """Absolute wall-clock deadline, or None (no deadline set)."""
        if self.spec.deadline is None:
            return None
        return self.submitted_at + self.spec.deadline

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable status view (no result payload)."""
        with self._lock:
            return {
                "job_id": self.key,
                "kind": self.spec.kind,
                "client": self.spec.client,
                "priority": self.priority,
                "status": self.state,
                "attempts": self.attempts,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "progress_lines": self._progress_dropped + len(self._progress),
                "error": self.error,
            }


class JobQueue:
    """Class-aware FIFO of :class:`Job` records with admission control.

    ``limit`` bounds jobs in flight (queued + running); ``per_client``
    bounds them per submitting client.  Workers pull with
    :meth:`next_job` — interactive before batch, oldest first within a
    class, backoff-delayed jobs skipped.  The queue keeps tracking a job
    until :meth:`forget` (terminal state), so deduplication covers
    running jobs, not just queued ones.
    """

    def __init__(self, limit: int = 64, per_client: int = 8):
        if limit < 1:
            raise ReproError(f"queue limit must be >= 1, got {limit}")
        if per_client < 1:
            raise ReproError(f"per-client limit must be >= 1, got {per_client}")
        self.limit = limit
        self.per_client = per_client
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._fifos: Dict[str, deque] = {
            cls: deque() for cls in ADMISSION_CLASSES
        }
        self._active: Dict[str, Job] = {}    # key → Job (queued or running)
        self._closed = False

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec, want_trace: bool = False) -> tuple:
        """Admit a spec; returns ``(job, created)``.

        ``created`` is False when the spec coalesced onto an identical
        in-flight job.  ``want_trace`` sets the job's sticky trace flag
        before any worker can claim it.  Raises :class:`QueueFullError`
        / :class:`ClientLimitError` on policy violations and
        :class:`ReproError` once the queue is closed for shutdown.
        """
        with self._lock:
            if self._closed:
                raise ReproError("service is shutting down; not accepting jobs")
            existing = self._active.get(spec.key)
            if existing is not None:
                if want_trace:
                    existing.want_trace = True
                return existing, False
            in_flight = len(self._active)
            if in_flight >= self.limit:
                raise QueueFullError(
                    f"queue is full ({in_flight}/{self.limit} jobs in flight)"
                )
            mine = sum(
                1 for j in self._active.values() if j.spec.client == spec.client
            )
            if mine >= self.per_client:
                raise ClientLimitError(
                    f"client {spec.client!r} already has {mine} jobs in "
                    f"flight (limit {self.per_client})"
                )
            job = Job(spec)
            job.want_trace = want_trace
            self._active[job.key] = job
            self._fifos[job.priority].append(job)
            self._not_empty.notify()
            return job, True

    def restore(self, job: Job) -> bool:
        """Re-admit a replayed journal job, bypassing admission limits.

        Replayed work was *already* admitted by a previous process; the
        bounded-queue policy governs new arrivals, not recovery.  False
        when an identical job is somehow already tracked.
        """
        with self._lock:
            if self._closed or job.key in self._active:
                return False
            self._active[job.key] = job
            self._fifos[job.priority].append(job)
            self._not_empty.notify()
            return True

    def shed_batch(self) -> Optional[Job]:
        """Pop the *newest* queued batch job for load-shedding, or None.

        Called by the app when an interactive submit hits a full queue:
        dropping the youngest batch job frees a slot while losing the
        least queue-wait investment.  The caller records/cancels the
        victim (persist-first ordering, like shutdown cancellation).
        """
        with self._lock:
            fifo = self._fifos["batch"]
            if not fifo:
                return None
            job = fifo.pop()
            self._active.pop(job.key, None)
            return job

    # -- worker side --------------------------------------------------------

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next claimable job (blocking up to ``timeout``).

        Interactive before batch; within a class, oldest first.  Jobs
        whose backoff (``not_before``) has not expired are skipped —
        when *only* delayed jobs remain, the wait is capped at the
        earliest backoff expiry so a requeued job is claimed promptly.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                now = time.time()
                soonest: Optional[float] = None
                for cls in ADMISSION_CLASSES:
                    fifo = self._fifos[cls]
                    for _ in range(len(fifo)):
                        job = fifo[0]
                        if job.not_before <= now:
                            fifo.popleft()
                            return job
                        soonest = (job.not_before if soonest is None
                                   else min(soonest, job.not_before))
                        fifo.rotate(-1)
                if self._closed:
                    return None
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    return None
                if soonest is not None:
                    hold = max(0.0, soonest - time.time()) + 1e-3
                    wait = hold if wait is None else min(wait, hold)
                self._not_empty.wait(wait)
                if deadline is not None and time.monotonic() >= deadline:
                    # one last sweep above on the next loop iteration
                    deadline = time.monotonic()

    def requeue(self, job: Job, *, delay: float = 0.0) -> bool:
        """Put a running job back (worker death); claimable after ``delay``.

        False when the queue is already closed — the job cannot be
        re-admitted this process lifetime; the caller decides whether
        it stays journalled for the next one.
        """
        job.mark_requeued(not_before=time.time() + delay)
        with self._lock:
            if self._closed:
                return False
            self._active.setdefault(job.key, job)
            self._fifos[job.priority].append(job)
            self._not_empty.notify()
            return True

    def forget(self, job: Job) -> None:
        """Stop tracking a terminal job (frees its dedup/limit slot)."""
        with self._lock:
            self._active.pop(job.key, None)

    # -- shutdown -----------------------------------------------------------

    def close(self) -> List[Job]:
        """Refuse new submits; drain and return still-queued jobs.

        The returned jobs are *not* cancelled here — the scheduler
        persists each one's cancellation record first and only then
        calls :meth:`Job.cancel` (or, under a journalled graceful drain,
        leaves them pending for the next process), so waiters never
        wake before the registry knows the outcome.
        """
        with self._lock:
            self._closed = True
            drained: List[Job] = []
            for cls in ADMISSION_CLASSES:
                drained.extend(self._fifos[cls])
                self._fifos[cls].clear()
            for job in drained:
                self._active.pop(job.key, None)
            self._not_empty.notify_all()
        return drained

    # -- queries ------------------------------------------------------------

    def get(self, key: str) -> Optional[Job]:
        """The in-flight job with this key, if any."""
        with self._lock:
            return self._active.get(key)

    def depth(self) -> int:
        """Jobs waiting in the FIFOs (not yet running)."""
        with self._lock:
            return sum(len(f) for f in self._fifos.values())

    def depth_by_class(self) -> Dict[str, int]:
        """Queued jobs per admission class."""
        with self._lock:
            return {cls: len(fifo) for cls, fifo in self._fifos.items()}

    def in_flight(self) -> int:
        """Jobs queued or running."""
        with self._lock:
            return len(self._active)

    def jobs(self) -> List[Job]:
        """Every tracked (queued or running) job, oldest first."""
        with self._lock:
            return sorted(self._active.values(), key=lambda j: j.submitted_at)
