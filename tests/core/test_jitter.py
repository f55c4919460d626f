"""Jitter-accumulation analysis."""

import numpy as np
import pytest

from repro.core.jitter import JitterReport, analyze_jitter
from repro.core.metrics import SectionInstanceTiming
from repro.errors import InsufficientDataError
from repro.machine.catalog import nehalem_cluster
from repro.tools import TraceTool
from repro.workloads.convolution import ConvolutionConfig, ConvolutionWorkload


def _inst(occ, t_ins, dur=1.0, label="s"):
    inst = SectionInstanceTiming(label, ("w",), occ)
    inst.t_in = {r: t for r, t in enumerate(t_ins)}
    inst.t_out = {r: t + dur for r, t in enumerate(t_ins)}
    return inst


def test_synchronised_loop_flat_drift():
    insts = [_inst(i, [10.0 * i, 10.0 * i + 0.1]) for i in range(8)]
    rep = analyze_jitter(insts)
    assert rep.mean_entry_imbalance == pytest.approx(0.1)
    assert rep.drift_ratio == pytest.approx(1.0)
    assert not rep.accumulating


def test_random_walk_desync_detected():
    rng = np.random.default_rng(0)
    lateness = np.cumsum(np.abs(rng.normal(0, 0.05, size=32)))  # grows
    insts = [_inst(i, [10.0 * i, 10.0 * i + lateness[i]]) for i in range(32)]
    rep = analyze_jitter(insts)
    assert rep.drift_ratio > 2.0
    assert rep.accumulating


def test_jitter_fraction_bounds():
    insts = [_inst(i, [0.0 + 5 * i, 0.5 + 5 * i], dur=1.0) for i in range(4)]
    rep = analyze_jitter(insts)
    assert 0.0 <= rep.jitter_fraction <= 1.0
    # span 1.5, mean Tsection 1.25 → imbalance 0.25 per instance
    assert rep.mean_imbalance == pytest.approx(0.25)


def test_validation():
    with pytest.raises(InsufficientDataError):
        analyze_jitter([_inst(0, [0.0])])
    mixed = [_inst(i, [0.0, 0.1]) for i in range(3)] + [
        _inst(3, [0.0, 0.1], label="other")
    ]
    with pytest.raises(InsufficientDataError):
        analyze_jitter(mixed)


def test_zero_head_infinite_drift():
    insts = [_inst(i, [0.0 + i, 0.0 + i]) for i in range(4)]
    insts += [_inst(4, [10.0, 10.5])]
    rep = analyze_jitter(insts)
    assert rep.drift_ratio == np.inf
    assert rep.accumulating


def test_on_real_convolution_halo():
    """The paper's hypothesis on our simulated data: with an OS-noise
    floor, the HALO section's entry stagger is persistent across the
    time-step loop (jitter the shrunken compute can no longer hide)."""
    tool = TraceTool(label_filter=lambda lab: lab == "HALO")
    bench = ConvolutionWorkload.from_config(
        ConvolutionConfig(height=64, width=96, steps=40))
    bench.run(
        8,
        machine=nehalem_cluster(nodes=1, jitter=0.05),
        compute_jitter=0.05,
        noise_floor=100e-6,
        tools=[tool],
        seed=5,
    )
    insts = tool.coarse_view()
    rep = analyze_jitter(insts)
    assert rep.instances == 40
    assert rep.mean_entry_imbalance > 0
    assert rep.jitter_fraction > 0.2  # imbalance is a first-order cost
