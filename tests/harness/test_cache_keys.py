"""Run-cache keys and payload fields are pinned to literal values.

Every other key test compares keys with each other, so a change that
re-keys *every* point at once (a renamed ``run_key`` field, a reordered
config, a new default) would pass them all while turning every user's
warm cache cold.  These literals were computed once and must only change
together with :data:`repro.harness.cache.CACHE_SCHEMA_VERSION`.

Each test also runs the one-point sweep through a fresh cache, checking
that the entry point stores its point under exactly that key and with
exactly the pinned payload fields.
"""

from __future__ import annotations

from repro.harness.cache import RunCache
from repro.harness.runner import (
    _conv_point_key,
    _lulesh_point_key,
    run_convolution_sweep,
    run_lulesh_grid,
)
from repro.harness.scenario import run_scenario, scenario_point_key
from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.machine.catalog import knl_node, nehalem_cluster
from repro.scenarios import ScenarioSpec
from repro.workloads.convolution import ConvolutionConfig
from repro.workloads.lulesh import LuleshConfig

CONV_KEY = "2e5128a34e3718d51b5f0af2efd619b8d3a57ea37b77983f00845c1fcaab23f9"
LULESH_KEY = "7a0314f3cc1016c1fbc4df3e573102b43fe6aa6f084b99d831ad9ba275bdea53"
SCENARIO_KEY = "2fdb0edf5b3be36af4060b0a46e89532c993cdd9805e46cac6ab77acf24fe292"


def _stored_fields(cache: RunCache, key: str):
    payload = cache.get(key)
    assert payload is not None, "the sweep stored no point under the key"
    return sorted(payload)


def test_convolution_point_key_is_pinned(tmp_path):
    sweep = ConvolutionSweep(
        config=ConvolutionConfig.tiny(steps=3),
        machine=nehalem_cluster(nodes=1),
        process_counts=(1,),
        reps=1,
    )
    key = _conv_point_key(sweep, 1, 0, sweep.base_seed + 1000)
    assert key == CONV_KEY
    cache = RunCache(root=tmp_path)
    run_convolution_sweep(sweep, cache=cache)
    assert _stored_fields(cache, key) == ["msg", "profile"]


def test_lulesh_point_key_is_pinned(tmp_path):
    sweep = LuleshGridSweep(
        config=LuleshConfig(s=4, steps=2),
        machine=knl_node(jitter=0.0),
        grid={1: (2,)},
        reps=1,
    )
    seed = sweep.base_seed + 1000 * (1 * 1000 + 2)
    key = _lulesh_point_key(sweep, sweep.config, 1, 2, 0, seed)
    assert key == LULESH_KEY
    cache = RunCache(root=tmp_path)
    run_lulesh_grid(sweep, cache=cache)
    assert _stored_fields(cache, key) == ["drift", "msg", "profile"]


def test_scenario_point_key_is_pinned(tmp_path):
    spec = ScenarioSpec.from_dict({
        "workload": "ringpipe",
        "params": {"rounds": 1, "blocklen": 16},
        "machine": {"name": "laptop", "cores": 4},
        "process_counts": [2],
        "reps": 1,
        "base_seed": 11,
    })
    key = scenario_point_key(spec, 2, 0, 11 + 2000)
    assert key == SCENARIO_KEY
    cache = RunCache(root=tmp_path)
    run_scenario(spec, cache=cache)
    assert _stored_fields(cache, key) == [
        "intervals", "metrics", "msg", "profile"]
