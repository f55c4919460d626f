"""Worker-mode parity: thread and process workers run and end jobs alike.

One scenario per worker mode, on one worker: a done job, a failed job
(crash fault plan), ``?trace=1`` done and failed jobs, a job whose
deadline passed while it waited behind the others, and a job still
queued when the service closes.  Each case is checked in both modes,
then the modes are compared: terminal registry records (timestamps and
``duration`` dropped), journal lines (timestamps and worker ids
dropped) and metrics counters must be equal.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service.api import ServiceApp

from tests.service.conftest import tiny_conv_spec

MODES = ("thread", "process")

_CRASH = {"seed": 1, "faults": [{"kind": "crash", "rank": 0, "at_time": 0.0}]}

#: name → (spec, query) of the jobs queued behind a long job, claimed
#: in this order.
_QUEUED = {
    "done": (tiny_conv_spec(base_seed=501), {}),
    "traced_done": (tiny_conv_spec(base_seed=502), {"trace": "1"}),
    "failed": (tiny_conv_spec(base_seed=503, faults=_CRASH), {}),
    "traced_failed": (tiny_conv_spec(base_seed=504, faults=_CRASH),
                      {"trace": "1"}),
    "expired": (tiny_conv_spec(base_seed=505, deadline=0.05), {}),
}


def _long(seed):
    """A job that holds the one worker for about a second."""
    return tiny_conv_spec(workload={"height": 128, "width": 192, "steps": 40},
                          process_counts=[1, 2, 4, 8], reps=2, base_seed=seed)


#: Record fields that differ from run to run (a trace holds pids and
#: clock readings).
_VOLATILE = ("submitted_at", "started_at", "finished_at", "duration",
             "trace")


def _submit(app, spec, query):
    status, _, body = app.handle("POST", "/api/v1/jobs", query,
                                 json.dumps(spec).encode())
    assert status == 202, body
    return json.loads(body)["job_id"]


def _wait_running(job):
    deadline = time.time() + 60
    while job.state != "running":
        assert time.time() < deadline, f"{job.key[:12]} never started"
        time.sleep(0.005)


def _scenario(root, mode):
    """Run every case on one ``mode`` service; return what it left."""
    app = ServiceApp(cache_dir=root / "cache", workers=1, worker_mode=mode)
    app.start()
    keys, jobs = {}, {}

    def submit(name, spec, query=None):
        keys[name] = _submit(app, spec, query or {})
        jobs[name] = app.queue.get(keys[name])

    try:
        submit("busy", _long(506))
        _wait_running(jobs["busy"])
        for name, (spec, query) in _QUEUED.items():
            submit(name, spec, query)
        for job in list(jobs.values()):
            assert job.done_event.wait(60), f"{job.key[:12]} never ended"
        submit("long", _long(508))
        submit("cancelled", tiny_conv_spec(base_seed=507))
        _wait_running(jobs["long"])
    finally:
        app.close()
    journal = [json.loads(line.split(" ", 1)[1])
               for line in app.journal.path.read_text().splitlines()]
    return {
        "keys": keys,
        "states": {name: job.state for name, job in jobs.items()},
        "records": {name: app.registry.get(key)
                    for name, key in keys.items()},
        "journal": journal,
        "metrics": app.metrics.snapshot(),
        "stores": app.registry.stores,
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``runs(mode)``: the scenario's outcome, run once per mode."""
    done = {}

    def get(mode):
        if mode not in done:
            done[mode] = _scenario(tmp_path_factory.mktemp(mode), mode)
        return done[mode]

    return get


def _record(record):
    """A terminal record without its timestamps and its trace."""
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def _journal(events):
    """Each job's journal lines in order, without timestamps or worker
    ids (lines of different jobs interleave as the threads race)."""
    lines = {}
    for e in events:
        lines.setdefault(e.get("key"), []).append(
            {k: v for k, v in e.items() if k not in ("at", "worker")})
    return lines


@pytest.mark.parametrize("worker_mode", MODES)
def test_done_job(runs, worker_mode):
    run = runs(worker_mode)
    record = run["records"]["done"]
    assert run["states"]["done"] == "done"
    assert record["status"] == "done"
    assert record["result"]["kind"] == "convolution"
    assert record["error"] is None
    assert "trace" not in record


@pytest.mark.parametrize("worker_mode", MODES)
def test_failed_job(runs, worker_mode):
    run = runs(worker_mode)
    record = run["records"]["failed"]
    assert run["states"]["failed"] == "failed"
    assert record["status"] == "failed"
    assert record["error"]["error_type"] == "RankFailedError"
    assert "traceback" in record["error"]
    assert "trace" not in record


@pytest.mark.parametrize("worker_mode", MODES)
@pytest.mark.parametrize("case,status", [("traced_done", "done"),
                                         ("traced_failed", "failed")])
def test_traced_job_keeps_its_trace(runs, worker_mode, case, status):
    record = runs(worker_mode)["records"][case]
    assert record["status"] == status
    names = {e["name"] for e in record["trace"]["traceEvents"]
             if e["ph"] in ("X", "i")}
    assert {"job.run", "queue.wait", "job.execute"} <= names


@pytest.mark.parametrize("worker_mode", MODES)
def test_job_queued_past_its_deadline_never_starts(runs, worker_mode):
    run = runs(worker_mode)
    record = run["records"]["expired"]
    assert run["states"]["expired"] == "failed"
    assert record["status"] == "failed"
    assert record["error"]["error_type"] == "DeadlineExceeded"
    assert "waiting in the queue" in record["error"]["message"]
    assert record["started_at"] is None and record["result"] is None
    key = run["keys"]["expired"]
    assert [e["event"] for e in run["journal"]
            if e.get("key") == key] == ["submit", "fail"]


@pytest.mark.parametrize("worker_mode", MODES)
def test_queued_job_is_cancelled_at_close(runs, worker_mode):
    run = runs(worker_mode)
    assert run["states"]["long"] == "done"
    assert run["states"]["cancelled"] == "cancelled"
    record = run["records"]["cancelled"]
    assert record["status"] == "cancelled"
    assert record["error"]["error_type"] == "Cancelled"


@pytest.mark.parametrize("worker_mode", MODES)
def test_only_terminal_records_are_written(runs, worker_mode):
    run = runs(worker_mode)
    assert run["stores"] == len(run["records"])


@pytest.mark.parametrize("worker_mode", MODES)
def test_every_executed_job_records_its_queue_wait(runs, worker_mode):
    spans = runs(worker_mode)["metrics"]["spans"]
    executed = 6  # the busy, done, failed, traced and long jobs
    assert spans["queue.wait"]["count"] == executed
    assert spans["job.execute"]["count"] == executed


def test_terminal_records_match_across_modes(runs):
    thread, process = runs("thread"), runs("process")
    assert thread["keys"] == process["keys"]
    for name in thread["records"]:
        assert (_record(thread["records"][name])
                == _record(process["records"][name])), name


def test_journal_lines_match_across_modes(runs):
    assert (_journal(runs("thread")["journal"])
            == _journal(runs("process")["journal"]))


def test_metrics_counters_match_across_modes(runs):
    assert (runs("thread")["metrics"]["counters"]
            == runs("process")["metrics"]["counters"])
