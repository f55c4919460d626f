"""A rank-0 straggler's end-to-end signature: inflexion shift + imbalance.

The acceptance scenario for the fault subsystem: injecting a 2x
compute slowdown on rank 0 must (a) visibly move the convolution HALO
inflexion point — the straggler floods HALO with imbalance wait that
then *shrinks* as rank 0's compute share shrinks, pushing the inflexion
past the sampled range — and (b) show up in the per-instance
entry-imbalance metrics of Section 4's jitter analysis.
"""

import pytest

from repro.core.inflexion import find_inflexion
from repro.core.jitter import analyze_jitter
from repro.core.profile import SectionProfile
from repro.faults import FaultPlan, StragglerRank
from repro.harness.runner import run_convolution_sweep
from repro.harness.sweeps import ConvolutionSweep
from repro.machine.catalog import nehalem_cluster
from repro.tools.trace import TraceTool
from repro.workloads.convolution import ConvolutionConfig, ConvolutionWorkload

STRAGGLER = FaultPlan((StragglerRank(rank=0, factor=2.0),))


def _sweep(faults=None):
    return ConvolutionSweep(
        config=ConvolutionConfig(height=96, width=128, steps=25),
        machine=nehalem_cluster(nodes=2, jitter=0.05),
        process_counts=(1, 2, 4, 8, 16),
        reps=2,
        compute_jitter=0.01,
        noise_floor=20e-6,
        faults=faults,
    )


@pytest.fixture(scope="module")
def clean():
    return run_convolution_sweep(_sweep())


@pytest.fixture(scope="module")
def straggled():
    return run_convolution_sweep(_sweep(STRAGGLER))


def _halo_inflexion(profile):
    xs, ts = profile.avg_series("HALO")
    pairs = [(x, t) for x, t in zip(xs, ts) if t > 0]
    return find_inflexion([x for x, _ in pairs], [t for _, t in pairs], 0.05)


def test_straggler_slows_every_scale(clean, straggled):
    for p in clean.scales():
        assert straggled.mean_walltime(p) > clean.mean_walltime(p)


def test_straggler_shifts_the_halo_inflexion(clean, straggled):
    """Clean runs hit the HALO inflexion immediately (jitter accumulation
    makes HALO grow past p=2); the straggler moves it later — HALO is now
    dominated by rank 0's entry lag, which decays as 1/p."""
    clean_pt = _halo_inflexion(clean)
    assert clean_pt is not None and clean_pt.p == 2

    straggled_pt = _halo_inflexion(straggled)
    assert straggled_pt is None or straggled_pt.p > clean_pt.p


def test_straggler_inflates_halo_wait_at_small_p(clean, straggled):
    """The mechanism behind the shift: at p=2 the straggled HALO is pure
    imbalance wait, far above the clean run's transfer time."""
    assert straggled.mean_avg_per_process("HALO", 2) > (
        3.0 * clean.mean_avg_per_process("HALO", 2)
    )


# -- entry-imbalance metrics -------------------------------------------------


def _traced_run(faults):
    tool = TraceTool(label_filter=lambda lab: lab == "HALO")
    bench = ConvolutionWorkload.from_config(
        ConvolutionConfig(height=96, width=128, steps=25))
    res = bench.run(4, machine=nehalem_cluster(nodes=1, jitter=0.05),
                    seed=3, compute_jitter=0.015, tools=(tool,),
                    faults=faults)
    return analyze_jitter(tool.coarse_view()), SectionProfile.from_run(res)


def test_straggler_shows_in_entry_imbalance_metrics():
    clean_rep, clean_prof = _traced_run(None)
    slow_rep, slow_prof = _traced_run(STRAGGLER)

    # Per-instance entry spread into HALO explodes: the peers post their
    # halos on time, rank 0 arrives a compute-step late, every step.
    assert slow_rep.mean_entry_imbalance > 4.0 * clean_rep.mean_entry_imbalance

    # And the per-rank compute totals name the culprit: rank 0 spends
    # ~2x the compute time of any peer (vs near-parity when clean).
    slow_rt = slow_prof.rank_times("CONVOLVE")
    peers = [t for r, t in slow_rt.items() if r != 0]
    assert slow_rt[0] == pytest.approx(2.0 * max(peers), rel=0.1)
    clean_rt = clean_prof.rank_times("CONVOLVE")
    assert max(clean_rt.values()) < 1.1 * min(clean_rt.values())
