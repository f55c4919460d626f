"""D2Q9 lattice-Boltzmann workload: physics invariants + sections."""

import numpy as np
import pytest

from repro.core.profile import SectionProfile
from repro.errors import ReproError
from repro.machine.catalog import nehalem_cluster
from repro.workloads.lbm import (
    EX,
    EY,
    OPP,
    W,
    LBMConfig,
    LBMWorkload,
    equilibrium,
    moments,
)


def test_lattice_constants_consistent():
    assert W.sum() == pytest.approx(1.0)
    assert (W * EX).sum() == pytest.approx(0.0)
    assert (W * EY).sum() == pytest.approx(0.0)
    # OPP really reverses every link
    for k in range(9):
        assert EX[OPP[k]] == -EX[k]
        assert EY[OPP[k]] == -EY[k]


def test_equilibrium_moments_roundtrip():
    rng = np.random.default_rng(0)
    rho = 1.0 + 0.1 * rng.random((5, 7))
    ux = 0.05 * (rng.random((5, 7)) - 0.5)
    uy = 0.05 * (rng.random((5, 7)) - 0.5)
    feq = equilibrium(rho, ux, uy)
    r2, ux2, uy2 = moments(feq)
    assert np.allclose(r2, rho)
    assert np.allclose(ux2, ux, atol=1e-3)
    assert np.allclose(uy2, uy, atol=1e-3)


def test_config_validation():
    with pytest.raises(ReproError):
        LBMConfig(ny=2)
    with pytest.raises(ReproError):
        LBMConfig(tau=0.5)
    with pytest.raises(ReproError):
        LBMConfig(steps=0)


@pytest.fixture(scope="module")
def small_run():
    bench = LBMWorkload.from_config(LBMConfig(ny=16, nx=20, steps=30))
    res = bench.run(2, machine=nehalem_cluster(nodes=1, jitter=0.0))
    return res, bench.collect(res)


def test_mass_conserved(small_run):
    _, summary = small_run
    assert summary["mass_drift"] < 1e-13


def test_flow_develops_in_force_direction(small_run):
    _, summary = small_run
    assert summary["momentum_x"] > 0


def test_velocity_profile_poiseuille_shape():
    bench = LBMWorkload.from_config(LBMConfig(ny=16, nx=12, steps=400))
    summary = bench.collect(
        bench.run(1, machine=nehalem_cluster(nodes=1, jitter=0.0)))
    prof = summary["ux_profile"]
    # channel flow: maximum near the centre, near-zero at the walls,
    # symmetric about the mid-plane
    centre = len(prof) // 2
    assert abs(int(np.argmax(prof)) - centre) <= 1  # peak at the mid-plane
    assert prof[centre] >= 0.999 * max(prof)
    assert prof[0] < 0.35 * prof[centre]
    assert np.allclose(prof, prof[::-1], rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("p", [2, 4])
def test_decomposition_invariance_bitwise(p):
    cfg = LBMConfig(ny=16, nx=20, steps=12)
    mach = nehalem_cluster(nodes=1, jitter=0.0)
    bench = LBMWorkload.from_config(cfg)
    ref = bench.collect(bench.run(1, machine=mach))
    par = bench.collect(bench.run(p, machine=mach))
    assert np.array_equal(ref["f"], par["f"])


def test_sections_recorded():
    bench = LBMWorkload.from_config(LBMConfig.tiny(steps=5))
    res = bench.run(2, machine=nehalem_cluster(nodes=1, jitter=0.0))
    prof = SectionProfile.from_run(res)
    assert {"INIT", "COLLIDE", "HALO", "STREAM", "MACRO"} <= set(prof.labels())
    assert prof.count("COLLIDE") == 2 * 5
    assert prof.count("INIT") == 2


def test_collide_and_stream_dominate_execution():
    """Collision and streaming are the two heavy phases (as in real LBM
    codes); moment computation stays secondary."""
    bench = LBMWorkload.from_config(LBMConfig(ny=32, nx=32, steps=10))
    res = bench.run(1, machine=nehalem_cluster(nodes=1, jitter=0.0))
    prof = SectionProfile.from_run(res)
    heavy = prof.percent_of_execution("COLLIDE") + prof.percent_of_execution("STREAM")
    assert heavy > 55.0
    assert prof.total("COLLIDE") > prof.total("MACRO")
    assert prof.total("COLLIDE") > 0.4 * prof.total("STREAM")


def test_strong_scaling_speedup():
    cfg = LBMConfig(ny=64, nx=64, steps=15)
    mach = nehalem_cluster(nodes=1, jitter=0.0)
    t1 = LBMWorkload.from_config(cfg).run(1, machine=mach).walltime
    t8 = LBMWorkload.from_config(cfg).run(8, machine=mach).walltime
    assert t8 < t1 / 3


def test_run_deterministic():
    cfg = LBMConfig.tiny()
    mach = nehalem_cluster(nodes=1)
    bench = LBMWorkload.from_config(cfg)
    r1 = bench.run(3, machine=mach, seed=4, compute_jitter=0.05)
    r2 = bench.run(3, machine=mach, seed=4, compute_jitter=0.05)
    assert r1.clocks == r2.clocks
    assert bench.collect(r1)["mass"] == bench.collect(r2)["mass"]
