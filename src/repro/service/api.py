"""HTTP-agnostic request handling: the service's routing and endpoints.

:class:`ServiceApp` owns the service singletons (queue, scheduler,
registry, metrics, run cache) and maps ``(method, path, query, body)``
to ``(status, headers, body)`` — no sockets involved, so every endpoint
is unit-testable without booting a server.  The thin
:mod:`repro.service.server` wrapper adapts it onto ``http.server``.

Endpoints (all JSON unless noted)::

    GET    /healthz                       liveness
    GET    /metrics                       Prometheus text format
    POST   /api/v1/jobs                   submit a job spec
    GET    /api/v1/jobs                   list jobs (live + registry)
    GET    /api/v1/jobs/{id}              status record
    DELETE /api/v1/jobs/{id}              delete the registry record
    GET    /api/v1/jobs/{id}/result       full result payload
    GET    /api/v1/jobs/{id}/progress     progress lines (?after=N&wait=S)
    GET    /api/v1/jobs/{id}/trace        Chrome trace (submit with ?trace=1)
    GET    /api/v1/jobs/{id}/artifacts/X  derived artifact X

Submission semantics: a spec whose work key matches a *completed*
registry record is answered ``200`` immediately (zero simulations, the
warm path); one matching an *in-flight* job coalesces onto it
(``202``, same job id); a full queue or an over-limit client gets
``429`` with a ``Retry-After`` hint; a malformed spec gets ``400``.

Artifacts are derived on demand from the persisted result — section
profiles round-trip losslessly through :mod:`repro.core.export`, so
report/bound/inflexion generation is exactly the analysis a local
caller would run on the same profile.
"""

from __future__ import annotations

import json
import pathlib
import re
import time
from typing import Any, Dict, Optional, Tuple

from repro.harness.cache import RunCache
from repro.service.jobs import JobSpec, JobSpecError, parse_job_spec
from repro.service.journal import JobJournal
from repro.service.metrics import ServiceMetrics
from repro.service.queue import (ClientLimitError, Job, JobQueue,
                                 QueueFullError, TERMINAL_STATES,
                                 progress_chunk)
from repro.service.registry import ExperimentRegistry
from repro.service.scheduler import Scheduler
from repro.service.supervisor import WorkerSupervisor

#: A response triple: (HTTP status, headers, body bytes).
Response = Tuple[int, Dict[str, str], bytes]

_JOB_PATH = re.compile(
    r"^/api/v1/jobs/(?P<key>[0-9a-f]{64})"
    r"(?:/(?P<sub>result|progress|trace|artifacts/(?P<artifact>[a-z_]+)))?$"
)

#: Longest a progress long-poll may block (seconds).
MAX_PROGRESS_WAIT = 30.0


def _json_response(status: int, payload: Any,
                   extra_headers: Optional[Dict[str, str]] = None) -> Response:
    headers = {"Content-Type": "application/json"}
    if extra_headers:
        headers.update(extra_headers)
    return status, headers, (json.dumps(payload) + "\n").encode("utf-8")


def _text_response(status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> Response:
    return status, {"Content-Type": content_type}, text.encode("utf-8")


def _error(status: int, message: str,
           extra_headers: Optional[Dict[str, str]] = None) -> Response:
    return _json_response(status, {"error": message}, extra_headers)


class ServiceApp:
    """The analysis service: state + request handling, transport-free.

    Construct, :meth:`start`, hand :meth:`handle` to a transport (or
    call it directly in tests), :meth:`close` to drain and stop.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[pathlib.Path] = None,
        queue_limit: int = 64,
        per_client: int = 8,
        workers: int = 2,
        sweep_jobs: Optional[int] = None,
        worker_mode: str = "thread",
        journal_path: Optional[pathlib.Path] = None,
        journal_fsync: bool = True,
        retry_budget: int = 2,
        retry_backoff: float = 0.25,
        heartbeat_timeout: float = 30.0,
        chaos_seed: Optional[int] = None,
    ):
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got {worker_mode!r}")
        root = pathlib.Path(cache_dir) if cache_dir is not None else None
        self.cache = RunCache(root=root)
        self.registry = ExperimentRegistry(
            root=self.cache.root / "registry"
        )
        self.metrics = ServiceMetrics()
        self.queue = JobQueue(limit=queue_limit, per_client=per_client)
        self.journal = JobJournal(
            pathlib.Path(journal_path) if journal_path is not None
            else self.cache.root / "journal.wal",
            fsync=journal_fsync,
        )
        self.worker_mode = worker_mode
        if worker_mode == "process":
            self.scheduler = WorkerSupervisor(
                self.queue, self.registry, self.metrics,
                workers=workers, sweep_jobs=sweep_jobs, cache=self.cache,
                journal=self.journal, retry_budget=retry_budget,
                backoff=retry_backoff, heartbeat_timeout=heartbeat_timeout,
                seed=chaos_seed,
            )
        else:
            self.scheduler = Scheduler(
                self.queue, self.registry, self.metrics,
                workers=workers, sweep_jobs=sweep_jobs, cache=self.cache,
                journal=self.journal,
            )
        self.started_at = time.time()
        #: Filled by the startup replay; exported on /metrics.
        self.replay_stats: Dict[str, Any] = {
            "seconds": 0.0, "replayed": 0, "recovered": 0, "torn": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Replay the journal, re-enqueue orphans, start the worker pool."""
        self._replay_journal()
        self.scheduler.start()

    def close(self, drain: bool = True, preserve_queued: bool = False) -> None:
        """Stop accepting, cancel queued jobs, drain running ones.

        ``preserve_queued`` (the SIGTERM graceful-drain path) leaves
        still-queued jobs journalled for the next server process instead
        of cancelling them on the record.
        """
        self.scheduler.stop(drain=drain, preserve_queued=preserve_queued)
        self.journal.close()

    def _replay_journal(self) -> None:
        """Recover outstanding work from the journal (crash recovery).

        Jobs with a ``submit`` but no terminal line are re-enqueued —
        unless the registry already holds a terminal record for them
        (the crash fell between the registry write and the journal
        line; the registry, written first, wins).  The journal is then
        compacted to just the still-pending submits.
        """
        t0 = time.perf_counter()
        found = self.journal.replay()
        kept = []
        recovered = 0
        for pending in found.pending:
            record = self.registry.get(pending.key)
            if record is not None and record.get("status") in TERMINAL_STATES:
                # Finished (or cancelled) before the crash; the journal
                # just never heard.  Resubmits hit the registry.
                recovered += 1
                continue
            try:
                spec = JobSpec.from_dict(pending.spec)
            except Exception:  # noqa: BLE001 - a bad spec must not kill boot
                continue
            job = Job(spec)
            job.submitted_at = pending.submitted_at or job.submitted_at
            job.attempts = pending.attempts
            if not self.queue.restore(job):
                continue
            kept.append(pending)
            self.metrics.inc("jobs_replayed")
        if found.events or found.torn:
            self.journal.compact(kept)
        self.replay_stats = {
            "seconds": time.perf_counter() - t0,
            "replayed": len(kept),
            "recovered": recovered,
            "torn": found.torn,
        }

    # -- routing ------------------------------------------------------------

    def handle(self, method: str, path: str,
               query: Optional[Dict[str, str]] = None,
               body: bytes = b"") -> Response:
        """Dispatch one request; never raises (errors become responses)."""
        query = query or {}
        try:
            if path == "/healthz" and method == "GET":
                return _json_response(200, {
                    "ok": True,
                    "uptime": time.time() - self.started_at,
                })
            if path == "/metrics" and method == "GET":
                return self._metrics()
            if path == "/api/v1/jobs":
                if method == "POST":
                    return self._submit(body, query)
                if method == "GET":
                    return self._list_jobs()
                return _error(405, f"{method} not allowed on {path}")
            m = _JOB_PATH.match(path)
            if m:
                return self._job_request(method, m, query)
            return _error(404, f"no route for {path}")
        except Exception as exc:  # noqa: BLE001 - the transport must survive
            return _error(500, f"{type(exc).__name__}: {exc}")

    # -- endpoints ----------------------------------------------------------

    def _metrics(self) -> Response:
        reg_stats = self.registry.stats()
        by_class = self.queue.depth_by_class()
        depth_samples = [("", float(self.queue.depth()))]
        depth_samples.extend(
            (f'{{class="{cls}"}}', float(n))
            for cls, n in sorted(by_class.items())
        )
        gauges = {
            "queue_depth": (depth_samples,
                            "Jobs waiting in the queue "
                            "(total and per admission class)."),
            "jobs_running": (float(self.scheduler.running_count()),
                             "Jobs currently executing."),
            "jobs_in_flight": (float(self.queue.in_flight()),
                               "Jobs queued or running."),
            "registry_entries": (float(reg_stats["entries"]),
                                 "Job records persisted in the registry."),
            "journal_replay_seconds": (
                round(float(self.replay_stats["seconds"]), 6),
                "Time the startup journal replay took."),
        }
        text = self.metrics.render_prometheus(
            gauges=gauges, cache_stats=self.cache.stats(),
            registry_stats=reg_stats,
        )
        return _text_response(200, text,
                              content_type="text/plain; version=0.0.4")

    def _submit(self, body: bytes, query: Dict[str, str]) -> Response:
        want_trace = query.get("trace", "") in ("1", "true", "yes")
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.metrics.inc("jobs_rejected")
            return _error(400, f"body is not valid JSON: {exc}")
        try:
            spec = parse_job_spec(data)
        except JobSpecError as exc:
            self.metrics.inc("jobs_rejected")
            return _error(400, str(exc))

        # Warm path: a completed record for the same work is served
        # as-is — zero simulations, the registry acting as a job cache.
        record = self.registry.get(spec.key)
        if record is not None and record.get("status") == "done":
            self.metrics.inc("registry_hits")
            return _json_response(200, {
                "job_id": spec.key,
                "status": "done",
                "cached": True,
                "location": f"/api/v1/jobs/{spec.key}",
            })

        try:
            job, created = self.queue.submit(spec)
        except QueueFullError as exc:
            # Overload: interactive submits may shed the newest queued
            # batch job to free a slot (batch work is retryable; a human
            # waiting on an answer is not).
            if spec.priority == "interactive" and self._shed_one_batch():
                try:
                    job, created = self.queue.submit(spec)
                except (QueueFullError, ClientLimitError) as exc2:
                    self.metrics.inc("jobs_rejected")
                    return _error(429, str(exc2), {"Retry-After": "1"})
            else:
                self.metrics.inc("jobs_rejected")
                return _error(429, str(exc), {"Retry-After": "1"})
        except ClientLimitError as exc:
            self.metrics.inc("jobs_rejected")
            return _error(429, str(exc), {"Retry-After": "1"})
        except Exception as exc:  # queue closed during shutdown
            self.metrics.inc("jobs_rejected")
            return _error(503, str(exc))
        if want_trace:
            job.want_trace = True
        if created:
            # Durable before acknowledged: the submit line hits the
            # journal before the client sees 202, so an accepted job
            # survives any subsequent crash.
            self.journal.append(
                "submit", job.key,
                spec=spec.to_dict(), priority=spec.priority)
            self.metrics.inc("jobs_submitted")
        else:
            self.metrics.inc("jobs_deduplicated")
        return _json_response(202, {
            "job_id": job.key,
            "status": job.state,
            "cached": False,
            "deduplicated": not created,
            "location": f"/api/v1/jobs/{job.key}",
        })

    def _shed_one_batch(self) -> bool:
        """Cancel the newest queued batch job to admit interactive work."""
        victim = self.queue.shed_batch()
        if victim is None:
            return False
        self.scheduler.settle(victim, "cancelled", error={
            "error_type": "Cancelled",
            "message": "batch job shed to admit interactive work under "
                       "overload",
        }, counter="jobs_shed", reason="shed")
        return True

    def _list_jobs(self) -> Response:
        live = {j.key: j.snapshot() for j in self.queue.jobs()}
        stored = [
            r for r in self.registry.list_records()
            if r.get("job_id") not in live
        ]
        return _json_response(200, {
            "live": list(live.values()),
            "stored": stored,
        })

    def _job_request(self, method: str, m, query: Dict[str, str]) -> Response:
        key = m.group("key")
        sub = m.group("sub")
        if sub is None:
            if method == "GET":
                return self._job_status(key)
            if method == "DELETE":
                if self.queue.get(key) is not None:
                    return _error(409, "job is in flight; cannot delete")
                if self.registry.delete(key):
                    return _json_response(200, {"deleted": key})
                return _error(404, f"no job {key}")
            return _error(405, f"{method} not allowed here")
        if method != "GET":
            return _error(405, f"{method} not allowed here")
        if sub == "result":
            return self._job_result(key)
        if sub == "progress":
            return self._job_progress(key, query)
        if sub == "trace":
            return self._job_trace(key)
        return self._job_artifact(key, m.group("artifact"), query)

    def _job_status(self, key: str) -> Response:
        job = self.queue.get(key)
        if job is not None:
            return _json_response(200, job.snapshot())
        record = self.registry.get(key)
        if record is None:
            return _error(404, f"no job {key}")
        summary = {
            k: v for k, v in record.items()
            if k not in ("result", "trace", "progress")
        }
        summary["job_id"] = key
        summary["has_trace"] = "trace" in record
        return _json_response(200, summary)

    def _job_result(self, key: str) -> Response:
        record = self.registry.get(key)
        if record is None:
            if self.queue.get(key) is not None:
                return _error(409, "job has not finished yet")
            return _error(404, f"no job {key}")
        status = record.get("status")
        if status in ("queued", "running"):
            return _error(409, f"job is {status}; poll status until done")
        if status != "done":
            return _json_response(410, {
                "job_id": key,
                "status": status,
                "error": record.get("error"),
            })
        return _json_response(200, {
            "job_id": key,
            "status": "done",
            "duration": record.get("duration"),
            "result": record.get("result"),
        })

    def _job_trace(self, key: str) -> Response:
        """The job's Chrome trace-event document (``?trace=1`` submits).

        Served as plain JSON, directly loadable by ``chrome://tracing``
        and Perfetto.
        """
        record = self.registry.get(key)
        if record is None:
            if self.queue.get(key) is not None:
                return _error(409, "job has not finished yet")
            return _error(404, f"no job {key}")
        trace = record.get("trace")
        if trace is None:
            return _error(404, "job was submitted without ?trace=1; "
                               "resubmit with tracing to capture one")
        return _json_response(200, trace)

    def _job_progress(self, key: str, query: Dict[str, str]) -> Response:
        try:
            after = int(query.get("after", "0"))
            wait = min(float(query.get("wait", "0")), MAX_PROGRESS_WAIT)
        except ValueError:
            return _error(400, "after/wait must be numeric")
        job = self.queue.get(key)
        if job is None:
            record = self.registry.get(key)
            if record is None:
                return _error(404, f"no job {key}")
            log = record.get("progress") or {"dropped": 0, "lines": []}
            return _json_response(200, progress_chunk(
                log["lines"], log["dropped"], after,
                record.get("status") not in ("queued", "running")))
        if wait > 0:
            deadline = time.time() + wait
            while time.time() < deadline:
                chunk = job.progress_since(after)
                if chunk["lines"] or chunk["done"]:
                    return _json_response(200, chunk)
                job.done_event.wait(min(0.05, deadline - time.time()))
        return _json_response(200, job.progress_since(after))

    # -- artifacts ----------------------------------------------------------

    def _job_artifact(self, key: str, name: str, query: Dict[str, str]) -> Response:
        record = self.registry.get(key)
        if record is None or record.get("status") != "done":
            return _error(404, f"no completed job {key}")
        result = record.get("result") or {}
        kind = result.get("kind")
        try:
            if kind == "convolution":
                return self._convolution_artifact(result, name, query)
            if kind == "lulesh":
                return self._lulesh_artifact(result, name, query)
            if kind == "scenario":
                return self._scenario_artifact(result, name, query)
        except Exception as exc:  # noqa: BLE001 - analysis errors are 422s
            return _error(422, f"artifact {name!r} failed: "
                               f"{type(exc).__name__}: {exc}")
        return _error(404, f"job kind {kind!r} has no artifacts")

    @staticmethod
    def _convolution_artifact(result: Dict[str, Any], name: str,
                              query: Dict[str, str]) -> Response:
        from repro.core.analysis import ScalingAnalysis
        from repro.core.export import scaling_from_json
        from repro.tools.reportgen import scaling_report

        if name == "profile":
            return _text_response(200, result["profile_json"],
                                  content_type="application/json")
        profile = scaling_from_json(result["profile_json"])
        if name == "report":
            label = query.get("label")
            return _text_response(
                200, scaling_report(profile, bound_labels=[label] if label else None)
            )
        analysis = ScalingAnalysis(profile)
        if name == "speedup":
            return _json_response(200, {"rows": analysis.speedup_rows()})
        if name == "bounds":
            label = query.get("label", "HALO")
            entries = analysis.bound_table(label)
            return _json_response(200, {
                "label": label,
                "rows": [
                    {"p": e.p, "total_time": e.total_time,
                     "avg_time": e.avg_time, "bound": e.bound}
                    for e in entries
                ],
            })
        return _error(404, f"unknown convolution artifact {name!r} "
                           "(profile | report | speedup | bounds)")

    @staticmethod
    def _scenario_artifact(result: Dict[str, Any], name: str,
                           query: Dict[str, str]) -> Response:
        from repro.core.analysis import ScalingAnalysis
        from repro.core.export import scaling_from_json
        from repro.tools.reportgen import scaling_report

        if name == "profile":
            return _text_response(200, result["profile_json"],
                                  content_type="application/json")
        if name == "metrics":
            return _json_response(200, {"metrics": result["metrics"]})
        profile = scaling_from_json(result["profile_json"])
        if name == "report":
            label = query.get("label")
            return _text_response(
                200, scaling_report(profile, bound_labels=[label] if label else None)
            )
        analysis = ScalingAnalysis(profile)
        if name == "speedup":
            return _json_response(200, {"rows": analysis.speedup_rows()})
        if name == "bounds":
            label = query.get("label")
            if label is None:
                from repro.workloads import registry
                key_sections = registry.get(
                    result["scenario"]["workload"]).KEY_SECTIONS
                label = key_sections[0] if key_sections else "HALO"
            entries = analysis.bound_table(label)
            return _json_response(200, {
                "label": label,
                "rows": [
                    {"p": e.p, "total_time": e.total_time,
                     "avg_time": e.avg_time, "bound": e.bound}
                    for e in entries
                ],
            })
        if name == "efficiency_timeline":
            timeline = result.get("timeline")
            if not query:
                # The precomputed block under the spec's own window
                # config — straight from the registry, zero recompute.
                return _json_response(200, {"timeline": timeline})
            from repro.analysis.timeresolved import (
                DEFAULT_WINDOWS,
                WindowConfig,
                scenario_timeline_from_payload,
            )
            from repro.errors import AnalysisError, InsufficientDataError
            unknown = set(query) - {"windows", "strategy", "rel_tol"}
            if unknown:
                return _error(
                    400, f"unknown timeline parameters {sorted(unknown)} "
                         "(windows | strategy | rel_tol)")
            base = (timeline or {}).get(
                "config", {"strategy": "fixed", "windows": None})
            try:
                windows = int(query.get(
                    "windows", base["windows"] or DEFAULT_WINDOWS))
                rel_tol = float(query.get("rel_tol", "0.05"))
            except ValueError as exc:
                return _error(400, f"bad timeline parameter: {exc}")
            try:
                cfg = WindowConfig(
                    strategy=query.get("strategy", base["strategy"]),
                    windows=windows,
                )
                recomputed = scenario_timeline_from_payload(
                    result, cfg, rel_tol)
            except InsufficientDataError as exc:
                return _error(422, str(exc))
            except AnalysisError as exc:
                return _error(400, str(exc))
            return _json_response(200, {"timeline": recomputed})
        return _error(404, f"unknown scenario artifact {name!r} "
                           "(profile | metrics | report | speedup | bounds | "
                           "efficiency_timeline)")

    @staticmethod
    def _lulesh_artifact(result: Dict[str, Any], name: str,
                         query: Dict[str, str]) -> Response:
        from repro.core.analysis import HybridAnalysis
        from repro.core.export import profile_from_dict

        if name == "profile":
            return _json_response(200, {"points": result["points"],
                                        "drifts": result["drifts"]})
        analysis = HybridAnalysis()
        for point in result["points"]:
            for prof in point["profiles"]:
                analysis.add(point["p"], point["threads"],
                             profile_from_dict(prof))
        if name == "efficiency":
            return _json_response(200, {"rows": analysis.efficiency_surface()})
        if name == "inflexion":
            label = query.get("label", "LagrangeElements")
            p = int(query.get("p", "1"))
            rel_tol = float(query.get("rel_tol", "0.05"))
            hit = analysis.bound_at_inflexion(label, p, rel_tol)
            if hit is None:
                return _json_response(200, {
                    "label": label, "p": p, "inflexion": None,
                })
            point, bound = hit
            return _json_response(200, {
                "label": label,
                "p": p,
                "inflexion": {"threads": point.p, "time": point.time,
                              "exhausted": point.exhausted},
                "bound": bound,
            })
        return _error(404, f"unknown lulesh artifact {name!r} "
                           "(profile | efficiency | inflexion)")
