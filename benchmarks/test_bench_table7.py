"""Figure 7 (table) — Lulesh strong-scaling configurations.

The invariant table itself, plus a live verification that running the
proxy at each configuration really holds the global element count at
110 592 and produces identical physics across decompositions.
"""

import numpy as np

from repro.harness import experiments as E
from repro.machine.catalog import knl_node
from repro.workloads.lulesh import (
    LuleshConfig,
    LuleshWorkload,
    lulesh_strong_scaling_configs,
)

from benchmarks.conftest import save_artifact


def test_table7(benchmark):
    result = benchmark(E.table7)
    save_artifact("table7", result.render())
    assert result.passed, result.checks


def test_table7_configurations_run_and_agree(benchmark):
    """The first two Figure 7 configurations produce bitwise-identical
    energy fields (48^3 global mesh, 3 steps) — the strong-scaling
    invariant is physical, not just arithmetical."""
    configs = benchmark(lulesh_strong_scaling_configs)[:2]  # (1, 48), (8, 24)
    fields = []
    for p, s in configs:
        bench = LuleshWorkload.from_config(
            LuleshConfig(s=s, steps=3, return_fields=True))
        phys = bench.collect(bench.run(p, machine=knl_node(jitter=0.0)))
        assert phys.energy_drift < 1e-12
        fields.append(phys.energy_field)
    assert fields[0].shape == fields[1].shape == (48, 48, 48)
    assert np.array_equal(fields[0], fields[1])
