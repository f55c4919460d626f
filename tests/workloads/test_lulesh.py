"""LULESH benchmark driver: configs, sections, conservation, invariance."""

import numpy as np
import pytest

from repro.core.profile import SectionProfile
from repro.errors import ReproError
from repro.machine.catalog import knl_node
from repro.workloads import lulesh_phases as ph
from repro.workloads.lulesh import (
    PAPER_TOTAL_ELEMENTS,
    LuleshBenchmark,
    LuleshConfig,
    lulesh_strong_scaling_configs,
)

#: The 21 labels the benchmark instruments (excluding MPI_MAIN).
EXPECTED_SECTIONS = {
    "timeloop",
    "LagrangeNodal",
    "CommSBN",
    "CalcForceForNodes",
    "IntegrateStressForElems",
    "CalcHourglassControlForElems",
    "CalcAccelerationForNodes",
    "ApplyAccelerationBC",
    "CalcVelocityForNodes",
    "CalcPositionForNodes",
    "LagrangeElements",
    "CalcLagrangeElements",
    "CalcKinematicsForElems",
    "CalcQForElems",
    "CommMonoQ",
    "ApplyMaterialPropertiesForElems",
    "EvalEOSForElems",
    "CommEnergy",
    "UpdateVolumesForElems",
    "CalcTimeConstraintsForElems",
    "CommDt",
}


def test_twenty_one_sections_as_in_paper():
    assert len(EXPECTED_SECTIONS) == 21


def test_strong_scaling_configs_match_figure7():
    configs = lulesh_strong_scaling_configs()
    assert configs == [(1, 48), (8, 24), (27, 16), (64, 12)]
    for p, s in configs:
        assert p * s**3 == PAPER_TOTAL_ELEMENTS


def test_strong_scaling_configs_reject_impossible():
    with pytest.raises(ReproError):
        lulesh_strong_scaling_configs(process_counts=(4,))  # not a cube
    with pytest.raises(ReproError):
        lulesh_strong_scaling_configs(1000, process_counts=(27,))


def test_config_validation():
    with pytest.raises(ReproError):
        LuleshConfig(s=1)
    with pytest.raises(ReproError):
        LuleshConfig(steps=0)
    assert LuleshConfig(s=8).with_side(4).s == 4


@pytest.fixture(scope="module")
def small_run():
    bench = LuleshBenchmark(LuleshConfig(s=6, steps=4, return_fields=True))
    run, phys = bench.run(8, nthreads=2, machine=knl_node(jitter=0.0))
    return bench, run, phys


def test_all_sections_recorded(small_run):
    _, run, _ = small_run
    prof = SectionProfile.from_run(run)
    assert set(prof.labels()) == EXPECTED_SECTIONS | {"MPI_MAIN"}


def test_timeloop_dominates_main(small_run):
    """The paper: 'the timeloop section was accounting for 99% of the
    main function time'."""
    _, run, _ = small_run
    prof = SectionProfile.from_run(run)
    assert prof.total("timeloop") / prof.total("MPI_MAIN") > 0.95


def test_lagrange_phases_dominate_timeloop(small_run):
    _, run, _ = small_run
    prof = SectionProfile.from_run(run)
    lagrange = prof.total("LagrangeNodal") + prof.total("LagrangeElements")
    assert lagrange / prof.total("timeloop") > 0.8


def test_energy_conserved(small_run):
    _, _, phys = small_run
    assert phys.energy_drift < 1e-12


def test_energy_field_assembled(small_run):
    _, _, phys = small_run
    assert phys.energy_field.shape == (12, 12, 12)
    # spike has diffused but mass stays near the origin corner
    assert phys.energy_field[0, 0, 0] > phys.energy_field[-1, -1, -1]


def test_decomposition_invariance_p1_vs_p8():
    common = dict(steps=4, return_fields=True)
    r1 = LuleshBenchmark(LuleshConfig(s=8, **common)).run(
        1, machine=knl_node(jitter=0.0)
    )[1]
    r8 = LuleshBenchmark(LuleshConfig(s=4, **common)).run(
        8, machine=knl_node(jitter=0.0)
    )[1]
    assert np.array_equal(r1.energy_field, r8.energy_field)


def test_decomposition_invariance_p8_vs_p27():
    common = dict(steps=3, return_fields=True)
    r8 = LuleshBenchmark(LuleshConfig(s=6, **common)).run(
        8, machine=knl_node(jitter=0.0)
    )[1]
    r27 = LuleshBenchmark(LuleshConfig(s=4, **common)).run(
        27, machine=knl_node(jitter=0.0)
    )[1]
    assert np.array_equal(r8.energy_field, r27.energy_field)


def test_thread_count_does_not_change_physics(monkeypatch):
    # The premise of the physics memo, so both runs must compute: they
    # run outside any sweep's scope, and a kernel spy counts the calls.
    calls = []
    real = ph.eval_eos
    monkeypatch.setattr(ph, "eval_eos",
                        lambda *a: calls.append(1) or real(*a))
    cfg = LuleshConfig(s=6, steps=4, return_fields=True)
    fields = []
    for t in (1, 16):
        before = len(calls)
        fields.append(LuleshBenchmark(cfg).run(
            1, nthreads=t, machine=knl_node(jitter=0.0))[1].energy_field)
        assert len(calls) > before
    assert np.array_equal(fields[0], fields[1])


def test_dt_adapts_globally(small_run):
    _, run, phys = small_run
    assert phys.final_dt > 0
    dts = {r["dt"] for r in run.results}
    assert len(dts) == 1  # allreduce agreement


def test_non_cube_process_count_fails():
    from repro.errors import RankFailedError, MPIError

    bench = LuleshBenchmark(LuleshConfig(s=4, steps=1))
    with pytest.raises(RankFailedError) as ei:
        bench.run(6, machine=knl_node())
    assert isinstance(ei.value.original, MPIError)


def test_omp_regions_executed(small_run):
    _, run, _ = small_run
    # 12 parallel regions per step × 4 steps
    assert all(r["omp_regions"] == 48 for r in run.results)
