"""Paper-scale smoke validation (marked slow; run explicitly with
``pytest -m slow``).

Demonstrates that the substrate genuinely sustains the paper's extreme
configurations — 456 ranks on the 57-node Nehalem model, and the full
110 592-element Lulesh mesh at 64 ranks — not just the scaled-down
defaults.
"""

import numpy as np
import pytest

from repro.core.profile import SectionProfile
from repro.machine.catalog import knl_node, nehalem_cluster
from repro.workloads.convolution import (
    ConvolutionConfig,
    ConvolutionWorkload,
    sequential_convolution,
)
from repro.workloads.images import image_checksum, make_image
from repro.workloads.lulesh import LuleshConfig, LuleshWorkload

pytestmark = pytest.mark.slow


def test_456_ranks_convolution_correct_and_comm_dominated():
    cfg = ConvolutionConfig(height=576, width=864, steps=25)
    bench = ConvolutionWorkload.from_config(cfg)
    res = bench.run(
        456,
        machine=nehalem_cluster(nodes=57),
        seed=7,
        compute_jitter=0.02,
        noise_floor=120e-6,
    )
    ref = sequential_convolution(
        make_image(cfg.height, cfg.width, cfg.channels, seed=cfg.image_seed),
        cfg.steps,
    )
    assert image_checksum(res.rank_result(0)) == image_checksum(ref)
    prof = SectionProfile.from_run(res)
    # At the paper's extreme scale communication clearly dominates compute.
    assert prof.total("HALO") > prof.total("CONVOLVE")


def test_full_lulesh_mesh_at_64_ranks():
    bench = LuleshWorkload.from_config(
        LuleshConfig(s=12, steps=5, return_fields=False))
    run = bench.run(64, threads=4, machine=knl_node())
    phys = bench.collect(run)
    assert phys.energy_drift < 1e-12
    assert run.n_ranks == 64
    prof = SectionProfile.from_run(run)
    assert prof.total("timeloop") / prof.total("MPI_MAIN") > 0.9
