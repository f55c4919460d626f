"""Endpoint behaviour through ServiceApp.handle — no sockets involved."""

from __future__ import annotations

import json

from tests.service.conftest import tiny_conv_spec, tiny_lulesh_spec


def _post(app, spec):
    return app.handle("POST", "/api/v1/jobs", {},
                      json.dumps(spec).encode())


def _body(response):
    return json.loads(response[2].decode())


def test_health(idle_app):
    status, headers, body = idle_app.handle("GET", "/healthz")
    assert status == 200
    assert json.loads(body)["ok"] is True


def test_unknown_route_404(idle_app):
    assert idle_app.handle("GET", "/nope")[0] == 404
    assert idle_app.handle("PUT", "/api/v1/jobs")[0] == 405


def test_submit_bad_json_400(idle_app):
    status, _, body = idle_app.handle("POST", "/api/v1/jobs", {}, b"{nope")
    assert status == 400
    assert "JSON" in json.loads(body)["error"]


def test_submit_bad_spec_400(idle_app):
    resp = _post(idle_app, {"kind": "warp-drive"})
    assert resp[0] == 400
    assert idle_app.metrics.counter("jobs_rejected") == 1


def test_submit_non_integer_lulesh_grid_key_400(idle_app):
    resp = _post(idle_app, {"kind": "lulesh", "workload": {"s": 4, "steps": 1},
                            "grid": {"x": [1]}})
    assert resp[0] == 400
    assert "grid key must be an integer" in _body(resp)["error"]
    assert idle_app.metrics.counter("jobs_rejected") == 1


def test_submit_queues_job(idle_app):
    resp = _post(idle_app, tiny_conv_spec())
    assert resp[0] == 202
    body = _body(resp)
    assert body["status"] == "queued" and len(body["job_id"]) == 64
    status_resp = idle_app.handle("GET", f"/api/v1/jobs/{body['job_id']}")
    assert _body(status_resp)["status"] == "queued"


def test_duplicate_submits_coalesce(idle_app):
    first = _body(_post(idle_app, tiny_conv_spec()))
    second = _body(_post(idle_app, tiny_conv_spec(client="other")))
    assert second["job_id"] == first["job_id"]
    assert second["deduplicated"] is True
    assert idle_app.metrics.counter("jobs_deduplicated") == 1
    assert idle_app.queue.in_flight() == 1


def test_queue_full_429(idle_app):
    # idle_app: queue_limit=4, per_client=2 — fill with 2 clients
    for seed, client in [(1, "a"), (2, "a"), (3, "b"), (4, "b")]:
        assert _post(idle_app, tiny_conv_spec(base_seed=seed,
                                              client=client))[0] == 202
    status, headers, _ = _post(idle_app, tiny_conv_spec(base_seed=5,
                                                        client="c"))
    assert status == 429
    assert headers.get("Retry-After") == "1"


def test_per_client_limit_429(idle_app):
    assert _post(idle_app, tiny_conv_spec(base_seed=1))[0] == 202
    assert _post(idle_app, tiny_conv_spec(base_seed=2))[0] == 202
    resp = _post(idle_app, tiny_conv_spec(base_seed=3))
    assert resp[0] == 429
    assert "client" in _body(resp)["error"]


def test_result_conflict_while_queued(idle_app):
    job_id = _body(_post(idle_app, tiny_conv_spec()))["job_id"]
    assert idle_app.handle("GET", f"/api/v1/jobs/{job_id}/result")[0] == 409


def test_status_of_unknown_job_404(idle_app):
    assert idle_app.handle("GET", f"/api/v1/jobs/{'0' * 64}")[0] == 404
    assert idle_app.handle("GET", f"/api/v1/jobs/{'0' * 64}/result")[0] == 404
    assert idle_app.handle("DELETE", f"/api/v1/jobs/{'0' * 64}")[0] == 404


def test_delete_in_flight_job_409(idle_app):
    job_id = _body(_post(idle_app, tiny_conv_spec()))["job_id"]
    assert idle_app.handle("DELETE", f"/api/v1/jobs/{job_id}")[0] == 409


def test_metrics_exposes_queue_depth(idle_app):
    _post(idle_app, tiny_conv_spec())
    status, headers, body = idle_app.handle("GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode()
    assert "repro_queue_depth 1" in text
    assert "repro_jobs_in_flight 1" in text
    assert "repro_jobs_submitted_total 1" in text


def test_full_job_lifecycle_through_handle(app):
    """submit → poll → result → artifacts, all through the app surface."""
    job_id = _body(_post(app, tiny_conv_spec()))["job_id"]
    for _ in range(600):
        record = _body(app.handle("GET", f"/api/v1/jobs/{job_id}"))
        if record["status"] not in ("queued", "running"):
            break
        import time
        time.sleep(0.01)
    assert record["status"] == "done"
    result = _body(app.handle("GET", f"/api/v1/jobs/{job_id}/result"))
    assert result["result"]["kind"] == "convolution"
    art = app.handle("GET", f"/api/v1/jobs/{job_id}/artifacts/speedup")
    assert art[0] == 200
    rows = _body(art)["rows"]
    assert rows[0] == {"p": 1, "speedup": 1.0, "efficiency": 1.0}
    report = app.handle("GET", f"/api/v1/jobs/{job_id}/artifacts/report")
    assert report[0] == 200
    assert b"scaling report" in report[2]
    bounds = app.handle("GET",
                        f"/api/v1/jobs/{job_id}/artifacts/bounds")
    assert bounds[0] == 200
    assert _body(bounds)["label"] == "HALO"
    assert app.handle(
        "GET", f"/api/v1/jobs/{job_id}/artifacts/nonsense"
    )[0] == 404
    # registry delete works once the job has left the queue
    assert app.handle("DELETE", f"/api/v1/jobs/{job_id}")[0] == 200
    assert app.handle("GET", f"/api/v1/jobs/{job_id}")[0] == 404


def test_jobs_listing_merges_live_and_stored(app):
    job_id = _body(_post(app, tiny_conv_spec()))["job_id"]
    listing = _body(app.handle("GET", "/api/v1/jobs"))
    assert {j["job_id"] for j in listing["live"]} | {
        j["job_id"] for j in listing["stored"]
    } >= {job_id}


def test_stored_progress_survives_a_restart(tmp_path):
    """A new app on the same cache dir serves a finished job's lines from
    its record; a record stored without a progress log serves none."""
    import time

    from repro.service.api import ServiceApp

    cache_dir = tmp_path / "cache"
    first = ServiceApp(cache_dir=cache_dir, workers=1)
    first.start()
    try:
        job_id = _body(_post(first, tiny_conv_spec()))["job_id"]
        for _ in range(600):
            record = first.registry.get(job_id)
            if record is not None and record["status"] == "done":
                break
            time.sleep(0.01)
    finally:
        first.close()
    second = ServiceApp(cache_dir=cache_dir, workers=1)
    try:
        path = f"/api/v1/jobs/{job_id}/progress"
        chunk = _body(second.handle("GET", path, {"after": "0"}))
        assert chunk["next"] == 3 and chunk["done"] is True
        assert [line.split(":")[0] for line in chunk["lines"]] == [
            "convolution p=1 rep=0", "convolution p=2 rep=0",
            "convolution p=4 rep=0"]
        record = second.registry.get(job_id)
        del record["progress"]
        second.registry.put(record)
        assert _body(second.handle("GET", path, {"after": "0"})) == {
            "lines": [], "next": 0, "done": True}
    finally:
        second.close()


def test_job_submitted_before_start_survives_a_crash(tmp_path, monkeypatch):
    """start()'s journal compaction keeps the submit line of a job this
    process accepted before start(), so a crash right after start()
    still replays it."""
    import threading

    from repro.service import scheduler as scheduler_mod
    from repro.service.api import ServiceApp
    from repro.service.journal import JobJournal

    release = threading.Event()

    def held(spec, **kwargs):  # the job stays in flight until released
        release.wait(30)
        raise RuntimeError("released")

    monkeypatch.setattr(scheduler_mod, "execute_job", held)
    cache_dir = tmp_path / "cache"
    app = ServiceApp(cache_dir=cache_dir, workers=1)
    spec = tiny_conv_spec()
    job_id = _body(_post(app, spec))["job_id"]
    app.start()
    try:
        assert app.replay_stats["replayed"] == 0
        assert app.metrics.counter("jobs_replayed") == 0
        # What a restarted process replays if this one died now.
        found = JobJournal(cache_dir / "journal.wal", fsync=False).replay()
        assert [p.key for p in found.pending] == [job_id]
        assert found.pending[0].spec == app.queue.get(job_id).spec.to_dict()
    finally:
        release.set()
        app.close()


def test_traced_submit_is_claimed_with_its_flag(idle_app, monkeypatch):
    """A worker that claims a ``?trace=1`` job the moment it becomes
    claimable already sees the trace flag."""
    import threading

    queue = idle_app.queue
    seen = []
    claimed = threading.Event()

    def worker():
        job = queue.next_job(timeout=10)
        seen.append(job.want_trace)
        claimed.set()

    real_submit = queue.submit

    def submit_then_wait_for_the_claim(*args, **kwargs):
        out = real_submit(*args, **kwargs)
        assert claimed.wait(10)
        return out

    monkeypatch.setattr(queue, "submit", submit_then_wait_for_the_claim)
    thread = threading.Thread(target=worker)
    thread.start()
    status, _, _ = idle_app.handle("POST", "/api/v1/jobs", {"trace": "1"},
                                   json.dumps(tiny_conv_spec()).encode())
    thread.join(10)
    assert status == 202
    assert seen == [True]


def test_coalesced_traced_submit_sets_the_flag(idle_app):
    """A ``?trace=1`` submit coalescing onto a queued untraced job makes
    it traced (the flag is sticky)."""
    first = _body(_post(idle_app, tiny_conv_spec()))
    assert idle_app.queue.get(first["job_id"]).want_trace is False
    status, _, body = idle_app.handle("POST", "/api/v1/jobs", {"trace": "1"},
                                      json.dumps(tiny_conv_spec()).encode())
    assert status == 202 and json.loads(body)["deduplicated"] is True
    assert idle_app.queue.get(first["job_id"]).want_trace is True


def test_malformed_inflexion_query_is_400(idle_app):
    """Non-numeric ``p`` / ``rel_tol`` on the lulesh inflexion artifact
    are the client's mistake (400), as on ``efficiency_timeline``."""
    from repro.service.jobs import parse_job_spec
    from repro.service.queue import Job

    job = Job(parse_job_spec(tiny_lulesh_spec()))
    idle_app.registry.put(idle_app.registry.make_record(
        job, status="done",
        result={"kind": "lulesh", "points": [], "drifts": {}}))
    path = f"/api/v1/jobs/{job.key}/artifacts/inflexion"
    for query in ({"p": "two"}, {"p": "1.5"}, {"rel_tol": "tight"}):
        status, _, body = idle_app.handle("GET", path, query)
        assert status == 400, query
        assert json.loads(body)["error"].startswith("bad inflexion parameter")
