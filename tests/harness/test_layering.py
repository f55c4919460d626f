"""The harness is a layer below the service: it never imports it.

The service runs jobs on the harness, so a harness import of
``repro.service`` would be a cycle held apart only by import order.
A fresh interpreter imports every harness module and builds a scenario
payload, then reports which service modules got loaded: none may.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    import repro.harness

    for mod in pkgutil.iter_modules(repro.harness.__path__):
        importlib.import_module("repro.harness." + mod.name)

    from repro.harness.scenario import run_scenario, scenario_payload
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.from_dict({
        "workload": "taskfarm",
        "params": {"ntasks": 8, "task_flops": 1e5},
        "machine": {"name": "laptop", "cores": 4},
        "process_counts": [1, 2],
        "reps": 1,
        "base_seed": 7,
    })
    payload = scenario_payload(spec, *run_scenario(spec, cache=None))
    assert payload["kind"] == "scenario"
    print(sorted(name for name in sys.modules
                 if name == "repro.service" or name.startswith("repro.service.")))
""")


def test_harness_never_loads_the_service_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_JOBS", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
