"""End-to-end over live HTTP: byte-identical results, faults, warm cache.

These tests exercise the full stack — ``ServiceClient`` → real socket →
``ServiceServer`` → ``ServiceApp`` → scheduler → harness — and pin the
service's core promise: what the server returns is *byte-identical* to
what a direct call to the harness entry points produces, including under
an injected :class:`~repro.faults.FaultPlan`, and a warm resubmit is
answered from the registry with zero simulations.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.export import scaling_to_json
from repro.errors import ReproError
from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
from repro.service.api import ServiceApp
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import build_sweep, hybrid_to_points, parse_job_spec
from repro.service.server import ServiceServer

from tests.service.conftest import tiny_conv_spec, tiny_lulesh_spec

FAULTY_SPEC_OVERRIDES = {
    "base_seed": 7,
    "faults": {
        "seed": 1,
        "faults": [{"kind": "straggler", "rank": 0, "factor": 2.0}],
    },
}


def test_http_convolution_result_is_byte_identical(server):
    client = ServiceClient(server.url)
    spec = tiny_conv_spec()
    receipt = client.submit(spec)
    record = client.wait(receipt["job_id"], timeout=60)
    assert record["status"] == "done"

    result = client.result(receipt["job_id"])["result"]
    direct = run_convolution_sweep(build_sweep(parse_job_spec(spec)))
    assert result["profile_json"] == scaling_to_json(direct)

    # the profile artifact re-serves the same stored document
    profile = client.artifact(receipt["job_id"], "profile")
    assert profile == json.loads(result["profile_json"])


def test_http_lulesh_result_is_byte_identical(server):
    client = ServiceClient(server.url)
    spec = tiny_lulesh_spec()
    receipt = client.submit(spec)
    record = client.wait(receipt["job_id"], timeout=60)
    assert record["status"] == "done"

    result = client.result(receipt["job_id"])["result"]
    sweep, sides = build_sweep(parse_job_spec(spec))
    analysis, drifts = run_lulesh_grid(sweep, sides=sides)
    assert json.dumps(result["points"]) == json.dumps(hybrid_to_points(analysis))
    assert result["drifts"] == {
        f"{p},{t}": d for (p, t), d in sorted(drifts.items())
    }

    surface = client.artifact(receipt["job_id"], "efficiency")
    assert surface["rows"]


def test_http_faultplan_job_matches_direct_faulted_run(server):
    """A FaultPlan travels through the JSON spec and changes the result
    exactly the way it changes a direct harness call."""
    client = ServiceClient(server.url)
    faulty = tiny_conv_spec(**FAULTY_SPEC_OVERRIDES)
    clean = tiny_conv_spec(base_seed=7)

    faulty_id = client.submit(faulty)["job_id"]
    clean_id = client.submit(clean)["job_id"]
    assert faulty_id != clean_id  # faults are part of the content key
    client.wait(faulty_id, timeout=60)
    client.wait(clean_id, timeout=60)

    faulty_json = client.result(faulty_id)["result"]["profile_json"]
    clean_json = client.result(clean_id)["result"]["profile_json"]
    direct = run_convolution_sweep(build_sweep(parse_job_spec(faulty)))
    assert faulty_json == scaling_to_json(direct)
    assert faulty_json != clean_json  # the straggler left a mark


def test_warm_resubmit_is_served_with_zero_simulations(tmp_path):
    """A second service instance on the same cache dir answers a repeat
    submit straight from the registry — no queue, no workers, no sweep."""
    cache_dir = tmp_path / "cache"
    spec = tiny_conv_spec()

    first = ServiceServer(ServiceApp(cache_dir=cache_dir, workers=1))
    first.start()
    try:
        client = ServiceClient(first.url)
        job_id = client.submit(spec)["job_id"]
        client.wait(job_id, timeout=60)
        original = client.result(job_id)["result"]
    finally:
        first.stop()

    # fresh process-equivalent: new app, new metrics, same disk state
    second_app = ServiceApp(cache_dir=cache_dir, workers=1)
    second = ServiceServer(second_app)
    second.start()
    try:
        client = ServiceClient(second.url)
        receipt = client.submit(spec)
        assert receipt["cached"] is True
        assert receipt["job_id"] == job_id
        served = client.result(job_id)["result"]
        assert served == original
        # nothing was enqueued, scheduled, or simulated on the new app
        assert second_app.metrics.counter("jobs_submitted") == 0
        assert second_app.metrics.counter("jobs_completed") == 0
        assert second_app.metrics.counter("registry_hits") == 1
        assert second_app.queue.in_flight() == 0
        text = client.metrics_text()
        assert "repro_registry_hits_total 1" in text
        assert "repro_jobs_completed_total 0" in text
    finally:
        second.stop()


def test_progress_streams_over_http(server):
    client = ServiceClient(server.url)
    job_id = client.submit(tiny_conv_spec())["job_id"]
    lines = list(client.stream_progress(job_id, poll_wait=2.0))
    assert len(lines) == 3
    assert all(line.startswith("convolution p=") for line in lines)
    assert client.wait(job_id, timeout=60)["status"] == "done"


def test_progress_streams_after_wait(server):
    """A client that starts streaming once the job has finished, and the
    queue has forgotten it, still reads every line from the record."""
    client = ServiceClient(server.url)
    job_id = client.submit(tiny_conv_spec())["job_id"]
    assert client.wait(job_id, timeout=60)["status"] == "done"
    deadline = time.monotonic() + 30
    while server.app.queue.get(job_id) is not None:
        assert time.monotonic() < deadline, "job never left the queue"
        time.sleep(0.01)
    lines = list(client.stream_progress(job_id, poll_wait=0.1))
    assert len(lines) == 3
    assert all(line.startswith("convolution p=") for line in lines)
    tail = client.progress(job_id, after=2)
    assert tail == {"lines": lines[2:], "next": 3, "done": True}
    assert "progress" not in client.status(job_id)


def test_metrics_scrape_is_nonzero_after_traffic(server):
    client = ServiceClient(server.url)
    job_id = client.submit(tiny_conv_spec())["job_id"]
    client.wait(job_id, timeout=60)
    text = client.metrics_text()
    assert "repro_jobs_submitted_total 1" in text
    assert "repro_jobs_completed_total 1" in text
    assert "repro_job_latency_seconds_count 1" in text
    assert 'repro_job_latency_seconds{quantile="0.95"}' in text


def test_client_surfaces_http_errors_with_status(server):
    client = ServiceClient(server.url)
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit({"kind": "warp-drive"})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceClientError) as excinfo:
        client.result("0" * 64)
    assert excinfo.value.status == 404


def test_client_unreachable_server_raises_repro_error():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ReproError):
        client.health()
