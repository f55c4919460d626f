"""Supervised multi-process workers: healing, poison, deadlines, shedding."""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.service.api import ServiceApp
from repro.service.jobs import parse_job_spec
from repro.service.supervisor import POISON_ENV

from tests.service.conftest import tiny_conv_spec


def _submit(app, spec, query=None):
    status, headers, body = app.handle("POST", "/api/v1/jobs", query or {},
                                       json.dumps(spec).encode())
    return status, json.loads(body)


def _wait_done(app, key, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = app.queue.get(key)
        if job is not None:
            if job.done_event.wait(0.2):
                return job.state
            continue
        record = app.registry.get(key)
        if record is not None and record["status"] not in ("queued", "running"):
            return record["status"]
        time.sleep(0.05)
    raise AssertionError(f"job {key[:12]} not terminal after {timeout}s")


@pytest.fixture
def process_app(tmp_path):
    """A process-mode app with fast recovery knobs; stopped at teardown."""
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=2,
                     worker_mode="process", retry_budget=2,
                     retry_backoff=0.05, chaos_seed=7)
    app.start()
    yield app
    app.close()


def test_process_mode_serves_byte_identical_results(tmp_path):
    spec = tiny_conv_spec(base_seed=41)
    thread_app = ServiceApp(cache_dir=tmp_path / "thread-cache",
                            workers=1, worker_mode="thread")
    process_app = ServiceApp(cache_dir=tmp_path / "process-cache",
                             workers=1, worker_mode="process")
    results = {}
    for name, app in (("thread", thread_app), ("process", process_app)):
        app.start()
        try:
            _, receipt = _submit(app, spec)
            assert _wait_done(app, receipt["job_id"]) == "done"
            record = app.registry.get(receipt["job_id"])
            results[name] = json.dumps(record["result"], sort_keys=True)
        finally:
            app.close()
    assert results["thread"] == results["process"]


def test_process_worker_progress_is_served_after_the_job(tmp_path):
    """Lines a worker process streamed are stored with the terminal
    record and served once the queue has forgotten the job."""
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1,
                     worker_mode="process")
    app.start()
    try:
        _, receipt = _submit(app, tiny_conv_spec(base_seed=43))
        key = receipt["job_id"]
        assert _wait_done(app, key) == "done"
        deadline = time.time() + 30
        while app.queue.get(key) is not None:
            assert time.time() < deadline, "job never left the queue"
            time.sleep(0.01)
        status, _, body = app.handle("GET", f"/api/v1/jobs/{key}/progress",
                                     {"after": "1"})
        chunk = json.loads(body)
        assert status == 200
        assert chunk["next"] == 3 and chunk["done"] is True
        assert len(chunk["lines"]) == 2
        assert all(line.startswith("convolution p=") for line in chunk["lines"])
    finally:
        app.close()


def test_sigkilled_worker_is_replaced_and_job_requeued(process_app):
    app = process_app
    # big enough to still be running when the worker is shot
    spec = tiny_conv_spec(
        workload={"height": 128, "width": 192, "steps": 40},
        process_counts=[1, 2, 4, 8], reps=2, base_seed=11,
    )
    _, receipt = _submit(app, spec)
    key = receipt["job_id"]
    job = app.queue.get(key)
    deadline = time.time() + 30
    victims = []
    while not victims:
        assert time.time() < deadline, "no worker ever claimed the job"
        victims = [h.process.pid for h in app.scheduler._handles
                   if h.job is not None and h.job.key == key]
        time.sleep(0.01)
    os.kill(victims[0], signal.SIGKILL)

    assert _wait_done(app, key) == "done"
    record = app.registry.get(key)
    assert record["status"] == "done"
    assert record["result"]["kind"] == "convolution"
    assert app.metrics.counter("worker_restarts") >= 1
    assert app.metrics.counter("jobs_requeued") >= 1
    assert app.metrics.counter("jobs_completed") == 1
    assert job.attempts >= 2  # the retry is visible in job history


def test_poison_job_trips_circuit_breaker(tmp_path, monkeypatch):
    spec = tiny_conv_spec(base_seed=13)
    key = parse_job_spec(spec).key
    monkeypatch.setenv(POISON_ENV, key[:16])
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1,
                     worker_mode="process", retry_budget=1,
                     retry_backoff=0.02, chaos_seed=3)
    app.start()
    try:
        _, receipt = _submit(app, spec)
        assert receipt["job_id"] == key
        assert _wait_done(app, key) == "poisoned"
        record = app.registry.get(key)
        assert record["status"] == "poisoned"
        assert record["error"]["error_type"] == "PoisonedJob"
        assert app.metrics.counter("jobs_poisoned") == 1
        assert app.metrics.counter("worker_restarts") >= 2
        # the result endpoint reports the quarantine, not a hang
        status, _, body = app.handle("GET", f"/api/v1/jobs/{key}/result")
        assert status == 410
        assert json.loads(body)["status"] == "poisoned"
        # a healthy job still completes on the healed pool
        monkeypatch.delenv(POISON_ENV)
        _, receipt2 = _submit(app, tiny_conv_spec(base_seed=14))
        assert _wait_done(app, receipt2["job_id"]) == "done"
    finally:
        app.close()


def test_supervisor_fails_deadline_expired_queued_job(tmp_path):
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1,
                     worker_mode="process")
    _, receipt = _submit(app, tiny_conv_spec(base_seed=18, deadline=0.01))
    time.sleep(0.05)
    app.start()
    try:
        assert _wait_done(app, receipt["job_id"]) == "failed"
        record = app.registry.get(receipt["job_id"])
        assert record["error"]["error_type"] == "DeadlineExceeded"
    finally:
        app.close()


def test_running_job_past_deadline_is_killed_after_counting_restart(tmp_path):
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1,
                     worker_mode="process")
    app.start()
    try:
        # A finished job first, so the worker is up when the slow one
        # arrives and the deadline expires while it runs, not queued.
        _, warm = _submit(app, tiny_conv_spec(base_seed=21))
        assert _wait_done(app, warm["job_id"]) == "done"
        # Many short points: each run stays far inside the engine
        # watchdog, so only the supervisor's deadline can end the job.
        _, receipt = _submit(app, tiny_conv_spec(base_seed=22, reps=400,
                                                 deadline=1.0))
        key = receipt["job_id"]
        assert _wait_done(app, key) == "failed"
        # Counted before the terminal record was published.
        assert app.metrics.counter("worker_restarts") == 1
        record = app.registry.get(key)
        assert record["error"]["error_type"] == "DeadlineExceeded"
        assert "terminated" in record["error"]["message"]
        _, receipt2 = _submit(app, tiny_conv_spec(base_seed=23))
        assert _wait_done(app, receipt2["job_id"]) == "done"
    finally:
        app.close()


def test_deadline_tightens_the_engine_watchdog():
    spec = parse_job_spec(tiny_conv_spec(wall_timeout=60.0, deadline=5.0))
    assert spec.effective_wall_timeout() == 5.0
    spec = parse_job_spec(tiny_conv_spec(wall_timeout=2.0, deadline=5.0))
    assert spec.effective_wall_timeout() == 2.0
    spec = parse_job_spec(tiny_conv_spec())
    assert spec.effective_wall_timeout() is None


def test_deadline_and_priority_stay_out_of_the_content_key():
    base = parse_job_spec(tiny_conv_spec())
    tuned = parse_job_spec(tiny_conv_spec(priority="interactive",
                                          deadline=30.0))
    assert base.key == tuned.key  # execution policy never forks the cache


def test_interactive_submit_sheds_newest_batch_job(tmp_path):
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1,
                     queue_limit=2, per_client=8)
    _, first = _submit(app, tiny_conv_spec(base_seed=21))
    _, second = _submit(app, tiny_conv_spec(base_seed=22))
    victim = app.queue.get(second["job_id"])
    # a batch submit is refused outright...
    status, _ = _submit(app, tiny_conv_spec(base_seed=23))
    assert status == 429
    # ...but an interactive one sheds the newest batch job and gets in
    status, receipt = _submit(
        app, tiny_conv_spec(base_seed=24, priority="interactive"))
    assert status == 202
    assert victim.state == "cancelled"
    assert "shed" in victim.error["message"]
    assert app.registry.get(second["job_id"])["status"] == "cancelled"
    assert app.metrics.counter("jobs_shed") == 1
    # the survivor (oldest batch) is untouched
    assert app.queue.get(first["job_id"]).state == "queued"
    # with no batch work left to shed, interactive also gets 429
    status, _ = _submit(
        app, tiny_conv_spec(base_seed=25, priority="interactive"))
    status, _ = _submit(
        app, tiny_conv_spec(base_seed=26, priority="interactive"))
    assert status == 429
    app.close()


def test_interactive_jobs_are_claimed_before_batch(tmp_path):
    app = ServiceApp(cache_dir=tmp_path / "cache", workers=1)
    _, batch = _submit(app, tiny_conv_spec(base_seed=31))
    _, inter = _submit(app, tiny_conv_spec(base_seed=32,
                                           priority="interactive"))
    first = app.queue.next_job(timeout=0)
    assert first.key == inter["job_id"]
    second = app.queue.next_job(timeout=0)
    assert second.key == batch["job_id"]
    app.close()


def test_metrics_expose_resilience_families(process_app):
    status, _, body = process_app.handle("GET", "/metrics")
    text = body.decode()
    assert "repro_worker_restarts_total 0" in text
    assert "repro_jobs_requeued_total 0" in text
    assert "repro_jobs_poisoned_total 0" in text
    assert "repro_jobs_shed_total 0" in text
    assert "repro_jobs_replayed_total 0" in text
    assert "repro_journal_replay_seconds" in text
    assert 'repro_queue_depth{class="interactive"} 0' in text
    assert 'repro_queue_depth{class="batch"} 0' in text
    assert "repro_queue_depth 0" in text
    assert "repro_registry_evictions_total 0" in text
