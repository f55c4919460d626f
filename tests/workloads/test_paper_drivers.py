"""The paper workloads' one driver: ``run`` is ``run_mpi`` over ``main``.

Convolution, LULESH and LBM are each one registered plugin class whose
``run`` adds only its staging to the class's own per-rank ``main``:
the input image in modeled storage for convolution, the thread count
and the one-node placement for LULESH, nothing for LBM.  These tests
pin that everything else a caller passes (faults, noise floor,
placement, macro-step switch, seed, jitter, machine) reaches the engine
unchanged, by comparing the driver against a bare ``run_mpi`` bit for
bit, and pin what ``collect`` assembles for LBM.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import OversubscriptionError
from repro.faults import FaultPlan
from repro.machine.catalog import knl_node, nehalem_cluster
from repro.simmpi.engine import run_mpi
from repro.simmpi.mio import ModeledStorage
from repro.workloads import registry
from repro.workloads.convolution import (
    ConvolutionConfig,
    ConvolutionWorkload,
    input_image,
)
from repro.workloads.lbm import LBMConfig, LBMWorkload
from repro.workloads.lulesh import LuleshConfig, LuleshWorkload

from tests.simmpi.test_threadfree import _eq

STRAGGLER = FaultPlan.from_dict(
    {"seed": 3, "faults": [{"kind": "straggler", "rank": 1, "factor": 1.8}]})


def _conv_staging(plugin, p, threads):
    cfg = plugin.to_config()
    storage = ModeledStorage()
    storage._data[plugin.INPUT_KEY] = input_image(
        cfg.height, cfg.width, cfg.channels, cfg.image_seed)
    return (storage,), None


def _lulesh_staging(plugin, p, threads):
    return (threads, None), p


def _lbm_staging(plugin, p, threads):
    return (), None


#: name -> (plugin, machine, p, threads, staging);
#: ``staging(plugin, p, threads)`` gives ``main``'s extra arguments and
#: the driver's default ``ranks_per_node``.  LULESH runs on (four) KNL
#: nodes, the paper's machine for it.
CASES = {
    "convolution": (
        ConvolutionWorkload.from_config(
            ConvolutionConfig(height=24, width=16, steps=3)),
        nehalem_cluster(nodes=4, jitter=0.05), 4, 1, _conv_staging),
    "lulesh": (
        LuleshWorkload.from_config(LuleshConfig(s=3, steps=2)),
        replace(knl_node(jitter=0.05), nodes=4), 8, 2, _lulesh_staging),
    "lbm": (
        LBMWorkload.from_config(LBMConfig(ny=12, nx=10, steps=4)),
        nehalem_cluster(nodes=4, jitter=0.05), 4, 1, _lbm_staging),
}


@pytest.mark.parametrize("ranks_per_node", [None, 2],
                         ids=["default-placement", "two-per-node"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_is_run_mpi_over_main(name, ranks_per_node):
    plugin, machine, p, threads, staging = CASES[name]
    assert registry.get(name) is type(plugin)
    kw = dict(machine=machine, seed=11,
              compute_jitter=0.02, noise_floor=40e-6, faults=STRAGGLER,
              macrostep=False)
    got = plugin.run(p, threads=threads, ranks_per_node=ranks_per_node, **kw)
    args, default_rpn = staging(plugin, p, threads)
    want = run_mpi(
        p, plugin.main, args=args,
        ranks_per_node=default_rpn if ranks_per_node is None
        else ranks_per_node,
        **kw)
    assert _eq(got.results, want.results)
    assert got.clocks == want.clocks
    assert got.walltime == want.walltime
    assert got.section_events == want.section_events
    assert got.network == want.network


@pytest.mark.parametrize("name", sorted(CASES))
def test_faults_and_placement_reach_the_engine(name):
    """The comparison above can tell: a straggler and a placement each
    move the driver's clocks."""
    plugin, machine, p, threads, _ = CASES[name]
    kw = dict(machine=machine, seed=11, threads=threads)
    base = plugin.run(p, **kw).clocks
    assert plugin.run(p, faults=STRAGGLER, **kw).clocks != base
    assert plugin.run(p, ranks_per_node=2, **kw).clocks != base


def test_lulesh_places_every_rank_on_one_node_by_default():
    """Below a node's core count the one-node default places ranks as
    the engine would; above it the run is refused rather than spread."""
    bench = LuleshWorkload.from_config(LuleshConfig(s=2, steps=1))
    machine = nehalem_cluster(nodes=4, jitter=0.0)
    with pytest.raises(OversubscriptionError, match="27 ranks per node"):
        bench.run(27, machine=machine)
    assert bench.run(27, machine=machine, ranks_per_node=8).n_ranks == 27


@pytest.mark.parametrize("p", [1, 3])
def test_lbm_collect_assembles_the_global_summary(p):
    cfg = LBMConfig(ny=12, nx=10, steps=6)
    plugin = LBMWorkload.from_config(cfg)
    res = plugin.run(p, machine=nehalem_cluster(nodes=1, jitter=0.0))
    parts = res.results
    got = plugin.collect(res)
    assert list(got) == ["mass", "initial_mass", "mass_drift", "momentum_x",
                         "ux_profile", "f"]
    assert got["mass"] == sum(r["mass"] for r in parts)
    assert got["initial_mass"] == sum(r["initial_mass"] for r in parts)
    assert got["mass_drift"] == (abs(got["mass"] - got["initial_mass"])
                                 / got["initial_mass"])
    assert got["mass_drift"] < 1e-13
    assert plugin.metrics(res) == {"mass_drift": got["mass_drift"]}
    assert got["momentum_x"] == sum(r["momentum_x"] for r in parts)
    assert got["momentum_x"] > 0
    assert got["ux_profile"].shape == (cfg.ny,)
    assert np.array_equal(
        got["ux_profile"], np.concatenate([r["ux_profile"] for r in parts]))
    assert got["f"].shape == (9, cfg.ny, cfg.nx)
    assert np.array_equal(
        got["f"], np.concatenate([r["f"] for r in parts], axis=1))
    # Decomposition invariance: the field and profile of one rank.
    serial = plugin.collect(
        plugin.run(1, machine=nehalem_cluster(nodes=1, jitter=0.0)))
    assert np.array_equal(got["f"], serial["f"])
    assert np.array_equal(got["ux_profile"], serial["ux_profile"])
