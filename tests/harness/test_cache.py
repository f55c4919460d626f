"""The persistent run cache: keying, storage, and runner replay."""

import json

import pytest

from repro.core.export import scaling_to_json
from repro.harness.cache import (
    CACHE_DIR_ENV,
    RunCache,
    default_cache_dir,
    maybe_default_cache,
    run_key,
)
from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.machine.catalog import knl_node, nehalem_cluster
from repro.workloads.convolution import ConvolutionConfig
from repro.workloads.lulesh import LuleshConfig


def _sweep(**overrides):
    kwargs = dict(
        config=ConvolutionConfig.tiny(steps=3),
        machine=nehalem_cluster(nodes=1),
        process_counts=(1, 2),
        reps=2,
    )
    kwargs.update(overrides)
    return ConvolutionSweep(**kwargs)


# -- keying -----------------------------------------------------------------


def test_same_inputs_same_key():
    cfg = ConvolutionConfig.tiny(steps=3)
    machine = nehalem_cluster(nodes=1)
    a = run_key(workload="convolution", config=cfg, p=2, seed=7, machine=machine)
    b = run_key(workload="convolution", config=cfg, p=2, seed=7, machine=machine)
    assert a == b


def test_config_change_changes_key():
    machine = nehalem_cluster(nodes=1)
    a = run_key(config=ConvolutionConfig.tiny(steps=3), p=2, seed=7, machine=machine)
    b = run_key(config=ConvolutionConfig.tiny(steps=4), p=2, seed=7, machine=machine)
    assert a != b


def test_seed_change_changes_key():
    cfg = ConvolutionConfig.tiny(steps=3)
    a = run_key(config=cfg, p=2, seed=7)
    b = run_key(config=cfg, p=2, seed=8)
    assert a != b


def test_machine_and_noise_change_key():
    cfg = ConvolutionConfig.tiny(steps=3)
    base = dict(config=cfg, p=2, seed=7, noise_floor=0.0)
    assert run_key(machine=nehalem_cluster(nodes=1), **base) != run_key(
        machine=nehalem_cluster(nodes=2), **base
    )
    assert run_key(**base) != run_key(**dict(base, noise_floor=1e-4))


def test_key_field_names_matter():
    assert run_key(p=2, threads=1) != run_key(p=1, threads=2)


def test_unkeyable_input_rejected():
    with pytest.raises(TypeError):
        run_key(config=object())


# -- store ------------------------------------------------------------------


def test_put_get_roundtrip_and_counters(tmp_path):
    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    assert cache.get(key) is None
    cache.put(key, {"x": 1.5})
    assert cache.get(key) == {"x": 1.5}
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"x": 1})
    cache.path_for(key).write_text("{not json")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_checksum_mismatch_detected_and_evicted(tmp_path, caplog):
    import logging

    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"x": 1})
    path = cache.path_for(key)
    envelope = json.loads(path.read_text())
    envelope["payload"]["x"] = 2  # silent bit rot: payload no longer matches
    path.write_text(json.dumps(envelope))
    with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
        assert cache.get(key) is None
    assert "checksum mismatch" in caplog.text
    assert cache.corrupt == 1
    assert not path.exists()  # evicted, so the point gets recomputed


def test_missing_envelope_is_corrupt(tmp_path):
    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"x": 1})
    # A pre-envelope (schema v1 style) raw payload is treated as corrupt.
    cache.path_for(key).write_text(json.dumps({"x": 1}))
    assert cache.get(key) is None
    assert cache.corrupt == 1
    assert not cache.path_for(key).exists()


def test_corrupt_entry_recomputed_transparently(tmp_path):
    """End to end: a corrupted point is re-simulated, not trusted."""
    sweep = _sweep(process_counts=(1,), reps=1)
    cache = RunCache(root=tmp_path)
    clean = run_convolution_sweep(sweep, cache=cache)
    victim = next(tmp_path.glob("*/*.json"))
    envelope = json.loads(victim.read_text())
    envelope["checksum"] = "0" * 64
    victim.write_text(json.dumps(envelope))
    fresh_cache = RunCache(root=tmp_path)
    replayed = run_convolution_sweep(sweep, cache=fresh_cache)
    assert fresh_cache.corrupt == 1 and fresh_cache.stores == 1
    assert scaling_to_json(replayed) == scaling_to_json(clean)


def test_stats_reports_corrupt_counter(tmp_path):
    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"x": 1})
    cache.path_for(key).write_text("garbage")
    cache.get(key)
    assert cache.stats()["corrupt"] == 1


def test_clear_and_stats(tmp_path):
    cache = RunCache(root=tmp_path)
    for seed in range(3):
        cache.put(run_key(p=1, seed=seed), {"seed": seed})
    stats = cache.stats()
    assert stats["entries"] == 3 and stats["bytes"] > 0
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0


def test_default_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert default_cache_dir() == tmp_path
    assert maybe_default_cache().root == tmp_path
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert maybe_default_cache() is None


# -- runner replay ----------------------------------------------------------


def test_warm_cache_replays_identical_profile(tmp_path):
    sweep = _sweep()
    cache = RunCache(root=tmp_path)
    uncached = run_convolution_sweep(sweep)
    cold = run_convolution_sweep(sweep, cache=cache)
    assert cache.hits == 0 and cache.stores == 4
    warm = run_convolution_sweep(sweep, cache=cache)
    assert cache.hits == 4 and cache.stores == 4
    assert scaling_to_json(cold) == scaling_to_json(uncached)
    assert scaling_to_json(warm) == scaling_to_json(uncached)


def test_warm_cache_progress_lines_match(tmp_path):
    sweep = _sweep()
    cache = RunCache(root=tmp_path)
    cold_lines, warm_lines = [], []
    run_convolution_sweep(sweep, progress=cold_lines.append, cache=cache)
    run_convolution_sweep(sweep, progress=warm_lines.append, cache=cache)
    assert warm_lines == cold_lines


def test_cache_distinguishes_sweep_variants(tmp_path):
    cache = RunCache(root=tmp_path)
    run_convolution_sweep(_sweep(), cache=cache)
    # A different seed re-simulates every point instead of hitting.
    run_convolution_sweep(_sweep(base_seed=999), cache=cache)
    assert cache.hits == 0 and cache.stores == 8


def test_growing_reps_hits_existing_points(tmp_path):
    cache = RunCache(root=tmp_path)
    run_convolution_sweep(_sweep(reps=1), cache=cache)
    assert cache.stores == 2
    run_convolution_sweep(_sweep(reps=2), cache=cache)
    # The first repetition of each scale replays; only rep 1 simulates.
    assert cache.hits == 2 and cache.stores == 4


def test_lulesh_warm_cache_replay(tmp_path):
    sweep = LuleshGridSweep(
        config=LuleshConfig(s=4, steps=2),
        machine=knl_node(jitter=0.0),
        grid={1: (1, 2)},
        reps=1,
    )
    cache = RunCache(root=tmp_path)
    a_cold, d_cold = run_lulesh_grid(sweep, cache=cache)
    a_warm, d_warm = run_lulesh_grid(sweep, cache=cache)
    assert cache.hits == 2
    assert d_warm == d_cold
    for p in a_cold.process_counts():
        for t in a_cold.thread_counts(p):
            assert [r.walltime for r in a_warm.runs(p, t)] == [
                r.walltime for r in a_cold.runs(p, t)
            ]


def test_runner_uses_env_cache_by_default(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    sweep = _sweep(process_counts=(1,), reps=1)
    run_convolution_sweep(sweep)
    stored = list(tmp_path.glob("*/*.json"))
    assert len(stored) == 1
    envelope = json.loads(stored[0].read_text())
    assert "checksum" in envelope
    payload = envelope["payload"]
    assert "profile" in payload and "msg" in payload


# -- stored-bytes verification ----------------------------------------------


def _flip_payload_digit(path):
    """Rewrite one digit inside the stored payload bytes (still valid JSON)."""
    raw = bytearray(path.read_bytes())
    start = raw.index(b'"payload":') + len(b'"payload":')
    i = next(i for i in range(start, len(raw)) if chr(raw[i]).isdigit())
    raw[i] = ord("7") if raw[i] != ord("7") else ord("3")
    path.write_bytes(bytes(raw))


def test_envelope_wraps_payload_bytes_verbatim(tmp_path):
    import hashlib

    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    payload = {"z": [1.5, None], "a": {"t": 0.1}}
    cache.put(key, payload)
    raw = cache.path_for(key).read_bytes()
    body = json.dumps(payload, separators=(",", ":")).encode()
    checksum = hashlib.sha256(body).hexdigest()
    assert raw == b'{"checksum":"' + checksum.encode() + b'","payload":' + body + b"}"
    assert cache.get(key) == payload
    assert list(cache.get(key)) == ["z", "a"]  # key order survives


def test_flipped_payload_digit_is_checksum_mismatch(tmp_path, caplog):
    import logging

    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"walltime": 12.345, "ranks": [3, 4]})
    path = cache.path_for(key)
    _flip_payload_digit(path)
    json.loads(path.read_text())  # the bit rot left parseable JSON
    with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
        assert cache.get(key) is None
    assert "checksum mismatch" in caplog.text
    assert (cache.corrupt, cache.misses) == (1, 1)
    assert not path.exists()


def test_truncated_file_is_corrupt(tmp_path):
    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"walltime": 12.345, "ranks": [3, 4]})
    path = cache.path_for(key)
    path.write_bytes(path.read_bytes()[:-5])
    assert cache.get(key) is None
    assert cache.corrupt == 1
    assert not path.exists()


def test_reformatted_envelope_is_checksum_mismatch(tmp_path):
    """The checksum covers the bytes as written, not a re-rendering."""
    from repro.harness.cache import CorruptEntry, read_envelope

    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"x": 1})
    path = cache.path_for(key)
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    with pytest.raises(CorruptEntry, match="checksum mismatch"):
        read_envelope(path)


def test_schema_bump_leaves_old_entries_unreachable(tmp_path, monkeypatch):
    import repro.harness.cache as cache_mod

    cache = RunCache(root=tmp_path)
    key = run_key(p=1, seed=0)
    cache.put(key, {"x": 1})
    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION",
                        cache_mod.CACHE_SCHEMA_VERSION + 1)
    assert cache.get(run_key(p=1, seed=0)) is None
    assert (cache.misses, cache.corrupt) == (1, 0)
    assert cache.path_for(key).exists()
