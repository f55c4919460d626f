"""Trace-ID propagation across process boundaries.

The harness fans sweep points out to worker *processes*; a trace minted
in the parent must come back with the workers' spans stitched in under
the same trace ID.  The service test is the end-to-end version: one
``?trace=1`` job submitted through the HTTP surface, run with
``sweep_jobs=2``, must yield a single trace whose subprocess spans carry
the parent job's trace ID.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.harness.parallel import map_points_failsoft
from repro.service.api import ServiceApp
from tests.service.conftest import tiny_conv_spec


@pytest.fixture(autouse=True)
def _clean_thread_state():
    obs.install(None)
    yield
    obs.install(None)


def _traced_pid(task):
    with obs.span("point.pid", layer="test", task=task):
        return os.getpid()


def test_map_points_stitches_worker_spans_into_parent_trace():
    tracer = obs.start_trace("root", layer="test")
    outcomes = list(map_points_failsoft(_traced_pid, list(range(6)), jobs=2))
    obs.finish_trace()
    assert all(o.ok for o in outcomes)
    pids = [o.value for o in outcomes]
    assert len(set(pids) - {os.getpid()}) >= 1  # really ran out of process
    spans = tracer.spans()
    assert len({s.trace_id for s in spans}) == 1
    worker_spans = [s for s in spans if s.pid != os.getpid()]
    assert {s.name for s in worker_spans} >= {"worker.task", "point.pid"}
    # worker roots hang off the pool.map span's subtree, not off nothing
    parent_ids = {s.span_id for s in spans}
    assert all(s.parent_id in parent_ids or s.parent_id == tracer.root_id
               for s in worker_spans)


def _traced_fail(task):
    with obs.span("point.pid", layer="test", task=task):
        raise RuntimeError(f"point {task} failed")


def test_map_points_failsoft_propagates_too():
    """Failed points' worker spans come home too, marked as failed."""
    tracer = obs.start_trace("root", layer="test")
    outcomes = list(map_points_failsoft(_traced_fail, list(range(4)), jobs=2))
    obs.finish_trace()
    assert not any(o.ok for o in outcomes)
    spans = tracer.spans()
    assert len({s.trace_id for s in spans}) == 1
    tasks = [s for s in spans
             if s.pid != os.getpid() and s.name == "worker.task"]
    assert len(tasks) == 4
    assert all(s.attrs.get("failed") == "RuntimeError" for s in tasks)


def test_untraced_map_points_emits_nothing():
    outcomes = list(map_points_failsoft(_traced_pid, list(range(4)), jobs=2))
    assert len(outcomes) == 4 and all(o.ok for o in outcomes)
    assert obs.current_tracer() is None


def test_service_job_trace_spans_processes(tmp_path):
    """Satellite: a ``--jobs 2`` service sweep yields ONE trace whose
    worker-subprocess spans carry the parent job's trace ID."""
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1, sweep_jobs=2)
    app.start()
    try:
        status, _, body = app.handle(
            "POST", "/api/v1/jobs", {"trace": "1"},
            json.dumps(tiny_conv_spec()).encode())
        assert status == 202
        job_id = json.loads(body)["job_id"]
        job = app.queue.get(job_id)
        assert job.want_trace
        assert job.done_event.wait(120)
        status, _, body = app.handle(
            "GET", f"/api/v1/jobs/{job_id}/trace")
        assert status == 200
        doc = json.loads(body)
        assert obs.validate_chrome_trace(doc) == []
        events = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert len({e["args"]["trace_id"] for e in events}) == 1
        assert len({e["pid"] for e in events}) >= 2  # parent + workers
        names = {e["name"] for e in events}
        assert {"job.run", "queue.wait", "job.execute", "pool.map",
                "worker.task", "point.simulate", "engine.run"} <= names
        # status summary advertises the trace without embedding it
        status, _, body = app.handle("GET", f"/api/v1/jobs/{job_id}")
        summary = json.loads(body)
        assert summary["has_trace"] is True
        assert "trace" not in summary
        # span durations surfaced as Prometheus summaries
        _, _, metrics = app.handle("GET", "/metrics")
        text = metrics.decode()
        assert 'repro_span_seconds_count{span="job.execute"}' in text
        assert 'repro_span_seconds{span="queue.wait",quantile="0.5"}' in text
    finally:
        app.close()


def test_untraced_service_job_has_no_trace(tmp_path):
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1)
    app.start()
    try:
        status, _, body = app.handle(
            "POST", "/api/v1/jobs", {}, json.dumps(tiny_conv_spec()).encode())
        assert status == 202
        job_id = json.loads(body)["job_id"]
        job = app.queue.get(job_id)
        assert job.done_event.wait(120)
        status, _, body = app.handle("GET", f"/api/v1/jobs/{job_id}/trace")
        assert status == 404
        assert "trace=1" in json.loads(body)["error"]
        status, _, body = app.handle("GET", f"/api/v1/jobs/{job_id}")
        assert json.loads(body)["has_trace"] is False
    finally:
        app.close()
