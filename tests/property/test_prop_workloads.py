"""Property-based workload invariants over randomized configurations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.catalog import knl_node, nehalem_cluster
from repro.workloads.convolution import (
    ConvolutionConfig,
    ConvolutionWorkload,
    sequential_convolution,
)
from repro.workloads.images import make_image
from repro.workloads.lbm import LBMConfig, LBMWorkload
from repro.workloads.lulesh import LuleshConfig, LuleshWorkload

SMALL = dict(max_examples=6, deadline=None)


@given(
    st.integers(min_value=5, max_value=24),   # height
    st.integers(min_value=4, max_value=20),   # width
    st.integers(min_value=1, max_value=5),    # steps
    st.integers(min_value=1, max_value=5),    # ranks
    st.integers(min_value=0, max_value=10_000),
)
@settings(**SMALL)
def test_convolution_equals_sequential_for_any_config(h, w, steps, p, seed):
    if h < p:
        p = h  # at least one row per rank
    cfg = ConvolutionConfig(height=h, width=w, steps=steps, image_seed=seed)
    ref = sequential_convolution(
        make_image(h, w, cfg.channels, seed=seed), steps
    )
    res = ConvolutionWorkload.from_config(cfg).run(
        p, machine=nehalem_cluster(nodes=1, jitter=0.0), compute_jitter=0.015
    )
    assert np.array_equal(res.rank_result(0), ref)


@given(
    st.integers(min_value=2, max_value=4),   # per-rank side at p=8
    st.integers(min_value=1, max_value=4),   # steps
    st.floats(min_value=1.0, max_value=5.0),  # spike energy
)
@settings(**SMALL)
def test_lulesh_invariance_and_conservation_random_configs(s8, steps, spike):
    common = dict(steps=steps, spike=spike, return_fields=True)
    b1 = LuleshWorkload.from_config(LuleshConfig(s=2 * s8, **common))
    r1 = b1.collect(b1.run(1, machine=knl_node(jitter=0.0)))
    b8 = LuleshWorkload.from_config(LuleshConfig(s=s8, **common))
    r8 = b8.collect(b8.run(8, machine=knl_node(jitter=0.0)))
    assert np.array_equal(r1.energy_field, r8.energy_field)
    assert r1.energy_drift < 1e-12
    assert r8.energy_drift < 1e-12


@given(
    st.integers(min_value=4, max_value=10),   # ny
    st.integers(min_value=4, max_value=10),   # nx
    st.integers(min_value=1, max_value=8),    # steps
    st.floats(min_value=0.55, max_value=1.8),  # tau
    st.integers(min_value=1, max_value=3),    # ranks
)
@settings(**SMALL)
def test_lbm_mass_conserved_for_any_config(ny, nx, steps, tau, p):
    if ny < p:
        p = ny
    cfg = LBMConfig(ny=ny, nx=nx, steps=steps, tau=tau)
    bench = LBMWorkload.from_config(cfg)
    summary = bench.collect(
        bench.run(p, machine=nehalem_cluster(nodes=1, jitter=0.0)))
    assert summary["mass_drift"] < 1e-12
    assert np.isfinite(summary["f"]).all()
