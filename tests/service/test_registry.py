"""Registry persistence: round-trips, schema gating, corruption, listing."""

from __future__ import annotations

import json

from repro.service.jobs import parse_job_spec
from repro.service.queue import Job
from repro.service.registry import (
    REGISTRY_SCHEMA_VERSION,
    ExperimentRegistry,
)

from tests.harness.test_cache import _flip_payload_digit
from tests.service.conftest import tiny_conv_spec


def _finished_job(seed=100):
    job = Job(parse_job_spec(tiny_conv_spec(base_seed=seed)))
    job.mark_running()
    job.finish({"kind": "convolution", "profile_json": "{}"})
    return job


def test_record_round_trip(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    rec = reg.get(job.key)
    assert rec["status"] == "done"
    assert rec["key"] == job.key
    assert rec["result"]["kind"] == "convolution"
    assert rec["spec"]["kind"] == "convolution"
    assert rec["duration"] >= 0
    assert reg.hits == 1 and reg.stores == 1


def test_miss_and_delete(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    assert reg.get("0" * 64) is None
    assert reg.misses == 1
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    assert reg.delete(job.key)
    assert not reg.delete(job.key)
    assert reg.get(job.key) is None


def test_wrong_schema_is_invisible(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    path = reg.path_for(job.key)
    envelope = json.loads(path.read_text())
    envelope["schema"] = REGISTRY_SCHEMA_VERSION + 1
    path.write_text(json.dumps(envelope))
    assert reg.get(job.key) is None
    assert reg.corrupt == 1


def test_corrupt_json_is_invisible(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    reg.path_for(job.key).write_text("{truncated")
    assert reg.get(job.key) is None
    assert reg.corrupt == 1


def test_listing_is_summary_only_and_sorted(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    first = _finished_job(seed=1)
    second = _finished_job(seed=2)
    second.submitted_at = first.submitted_at + 10  # force ordering
    reg.put(ExperimentRegistry.make_record(first, result=first.result))
    reg.put(ExperimentRegistry.make_record(second, result=second.result))
    records = reg.list_records()
    assert [r["job_id"] for r in records] == [second.key, first.key]
    assert all("result" not in r for r in records)
    assert records[0]["status"] == "done"


def test_stats_counts_entries(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    assert reg.stats()["entries"] == 0
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    stats = reg.stats()
    assert stats["entries"] == 1 and stats["stores"] == 1


def test_registry_dir_is_invisible_to_run_cache(tmp_path):
    """Registry records must not leak into run-cache stats/clear globs."""
    from repro.harness.cache import RunCache

    cache = RunCache(root=tmp_path)
    cache.put("ab" + "0" * 62, {"profile": {}})
    reg = ExperimentRegistry(root=cache.root / "registry")
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    assert cache.stats()["entries"] == 1
    assert cache.clear() == 1
    assert reg.get(job.key) is not None


def test_flipped_record_digit_is_checksum_mismatch(tmp_path, caplog):
    import logging

    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    path = reg.path_for(job.key)
    _flip_payload_digit(path)
    json.loads(path.read_text())  # the bit rot left parseable JSON
    with caplog.at_level(logging.WARNING, logger="repro.service.registry"):
        assert reg.get(job.key) is None
    assert "checksum mismatch" in caplog.text
    assert (reg.corrupt, reg.evictions) == (1, 1)
    assert not path.exists()


def test_truncated_record_is_corrupt(tmp_path):
    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    reg.put(ExperimentRegistry.make_record(job, result=job.result))
    path = reg.path_for(job.key)
    path.write_bytes(path.read_bytes()[:-3])
    assert reg.get(job.key) is None
    assert (reg.corrupt, reg.evictions) == (1, 1)
    assert reg.list_records() == []


def test_old_schema_records_are_unreachable(tmp_path):
    """A record stored before a schema bump is never read or evicted."""
    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    old = tmp_path / job.key[:2] / f"{job.key}.json"
    old.parent.mkdir(parents=True)
    old.write_text(json.dumps({"schema": REGISTRY_SCHEMA_VERSION - 1,
                               "checksum": "0" * 64, "record": {}}))
    assert reg.get(job.key) is None
    assert (reg.misses, reg.corrupt) == (1, 0)
    assert reg.stats()["entries"] == 0 and reg.list_records() == []
    assert old.exists()


def test_concurrent_puts_of_one_key(tmp_path):
    """Two service threads storing the same key never steal tmp files."""
    import sys
    import threading

    reg = ExperimentRegistry(root=tmp_path)
    job = _finished_job()
    record = ExperimentRegistry.make_record(job, result=job.result)
    errors = []

    def store():
        try:
            for _ in range(200):
                reg.put(record)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert reg.get(job.key) == record
    assert [p.name for p in reg.path_for(job.key).parent.iterdir()] == [
        f"{job.key}.json"]
