"""The convolution image once per sweep: timing skeletons are exact.

Inside a sweep's physics scope the first run of a
:class:`ConvolutionConfig` that computes stores rank 0's filtered image;
every later run of the config is a timing skeleton that filters nothing.
These tests pin that a skeleton is indistinguishable from a run that
computed (image, clocks, section events, network, macro-step and
scheduling counters, profile), that it only engages where the engine's
fast-path admission rule holds, and that the stored image is copy-safe,
free of failed runs and gone when its sweep ends.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.core.export import profile_to_dict
from repro.core.profile import SectionProfile
from repro.errors import RankFailedError
from repro.faults import FaultPlan
from repro.harness.runner import run_convolution_sweep
from repro.harness.sweeps import ConvolutionSweep
from repro.machine.catalog import nehalem_cluster
from repro.simmpi.pmpi import Tool
from repro.workloads import convolution as conv
from repro.workloads import registry
from repro.workloads.convolution import (
    ConvolutionBenchmark,
    ConvolutionConfig,
    sequential_convolution,
)
from repro.workloads.images import make_image
from repro.workloads.physics_scope import physics_scope

from tests.simmpi.test_threadfree import _eq

PROCESS_COUNTS = (1, 2, 3, 5, 8)


def _cfg(overlap=False, steps=4):
    return ConvolutionConfig(height=48, width=64, steps=steps,
                             overlap_halo=overlap)


def _reference(cfg):
    img = make_image(cfg.height, cfg.width, cfg.channels,
                     seed=cfg.image_seed)
    return sequential_convolution(img, cfg.steps)


@pytest.fixture
def filter_calls(monkeypatch):
    """Counts the convolution's ``mean_filter_3x3`` calls (a spy)."""
    calls = [0]
    real = conv.mean_filter_3x3

    def spy(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(conv, "mean_filter_3x3", spy)
    return calls


def _point(cfg, p, engine, **kw):
    """One sweep point as the harness runs it (plugin run)."""
    plugin = registry.get("convolution").from_config(cfg)
    return plugin.run(p, machine=nehalem_cluster(nodes=2), ranks_per_node=4,
                      seed=100 + 1000 * p, compute_jitter=0.02,
                      noise_floor=50e-6, engine=engine, **kw)


def _points(cfg, engine, filter_calls):
    """``{p: (run, computed)}`` over ``PROCESS_COUNTS``."""
    out = {}
    for p in PROCESS_COUNTS:
        before = filter_calls[0]
        run = _point(cfg, p, engine)
        out[p] = (run, filter_calls[0] > before)
    return out


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("engine", ["threadfree", "threads"])
def test_skeleton_sweep_bit_identical(engine, overlap, filter_calls):
    cfg = _cfg(overlap)
    computed = _points(cfg, engine, filter_calls)
    with physics_scope():
        skeleton = _points(cfg, engine, filter_calls)
    want = _reference(cfg)
    for p, (ref, ref_computed) in computed.items():
        run, ran_filter = skeleton[p]
        assert ref_computed
        # Only the sweep's first point filters.
        assert ran_filter is (p == PROCESS_COUNTS[0])
        assert np.array_equal(run.results[0], want)
        assert _eq(run.results, ref.results)
        assert run.clocks == ref.clocks
        assert run.walltime == ref.walltime
        assert run.section_events == ref.section_events
        assert run.network == ref.network
        assert (run.rounds_captured, run.rounds_replayed, run.deopts) == (
            ref.rounds_captured, ref.rounds_replayed, ref.deopts)
        assert (run.collectives_gated, run.collectives_fast,
                run.sched_steps) == (ref.collectives_gated,
                                     ref.collectives_fast, ref.sched_steps)
        assert profile_to_dict(SectionProfile.from_run(run, p=p)) \
            == profile_to_dict(SectionProfile.from_run(ref, p=p))


# -- the sweep: one computing run, nothing left behind ---------------------------


def _sweep(**kw):
    base = dict(config=_cfg(steps=3), machine=nehalem_cluster(nodes=2),
                process_counts=(1, 2, 4, 8), reps=2, ranks_per_node=4)
    base.update(kw)
    return ConvolutionSweep(**base)


def _computing_points(sweep, filter_calls):
    """Run ``sweep`` serially; the labels of the points that filtered."""
    computed = []
    seen = [filter_calls[0]]

    def progress(line):
        if filter_calls[0] > seen[0]:
            computed.append(line.split(":")[0])
        seen[0] = filter_calls[0]

    run_convolution_sweep(sweep, progress, jobs=1, cache=None)
    return computed


def test_one_computing_run_per_sweep(filter_calls):
    sweep = _sweep()
    # A second sweep in the same process computes again: the image does
    # not outlive the sweep that filtered it.
    for _ in range(2):
        assert _computing_points(sweep, filter_calls) == [
            "convolution p=1 rep=0"]


def test_weak_scaling_sweep_computes_at_every_p(filter_calls):
    sweep = _sweep(weak=True)
    assert _computing_points(sweep, filter_calls) == [
        f"convolution p={p} rep=0" for p in sweep.process_counts]


def test_nothing_survives_the_sweep(monkeypatch, filter_calls):
    stored = []
    real = conv.remember

    def keep(key, build):
        def build_and_watch():
            image = build()
            stored.append(weakref.ref(image))
            return image
        real(key, build_and_watch)

    monkeypatch.setattr(conv, "remember", keep)
    run_convolution_sweep(_sweep(), jobs=1, cache=None)
    assert len(stored) == 1
    assert stored[0]() is None
    # Outside the sweep a run finds nothing and computes.
    before = filter_calls[0]
    ConvolutionBenchmark(_cfg(steps=3)).run(2, machine=nehalem_cluster(nodes=1))
    assert filter_calls[0] > before


def test_direct_run_computes(filter_calls):
    for p in (1, 2):
        before = filter_calls[0]
        ConvolutionBenchmark(_cfg()).run(p, machine=nehalem_cluster(nodes=1))
        assert filter_calls[0] > before


# -- admission: the skeleton follows the engine's fast-path rule ---------------


class _SendWatcher(Tool):
    def on_send(self, rank, dest, nbytes, tag, t):
        pass


class _EndWatcher(Tool):
    """Hooks only a lifecycle callback: the skeleton stays admitted."""

    def on_rank_end(self, rank, t):
        pass


_LATE = 1e6  # virtual seconds: a fault planned after the run has ended


@pytest.mark.parametrize("kw, computes", [
    ({"faults": FaultPlan.from_dict(
        {"faults": [{"kind": "crash", "rank": 1, "at_time": _LATE}]})}, True),
    ({"faults": FaultPlan.from_dict(
        {"faults": [{"kind": "hang", "rank": 0, "at_time": _LATE}]})}, True),
    ({"tools": (_SendWatcher(),)}, True),
    ({"faults": FaultPlan.from_dict(
        {"seed": 3, "faults": [{"kind": "straggler", "rank": 0,
                                "factor": 2.0}]})}, False),
    ({"tools": (_EndWatcher(),)}, False),
], ids=["crash", "hang", "on_send-tool", "straggler", "rank-end-tool"])
@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
def test_skeleton_admission(overlap, kw, computes, filter_calls):
    cfg = _cfg(overlap)
    with physics_scope():
        first = _point(cfg, 2, None, **kw)
        assert filter_calls[0] > 0
        before = filter_calls[0]
        again = _point(cfg, 5, None, **kw)
        assert (filter_calls[0] > before) is computes
    assert np.array_equal(again.results[0], first.results[0])
    assert np.array_equal(again.results[0], _reference(cfg))


# -- the stored image -------------------------------------------------------------


class _FailAtEnd(Tool):
    """Fails the run once every rank's body has returned."""

    def __init__(self):
        self.size = None
        self.ended = 0

    def on_rank_begin(self, rank, size, t):
        self.size = size

    def on_rank_end(self, rank, t):
        self.ended += 1
        if self.ended == self.size:
            raise RuntimeError("tool failure after the filter")


def test_failed_first_run_stores_nothing(filter_calls):
    cfg = _cfg()
    with physics_scope():
        with pytest.raises(RankFailedError):
            _point(cfg, 2, None, tools=(_FailAtEnd(),))
        assert filter_calls[0] > 0
        before = filter_calls[0]
        _point(cfg, 3, None)
        assert filter_calls[0] > before  # nothing stored: this run computes
        before = filter_calls[0]
        _point(cfg, 5, None)
        assert filter_calls[0] == before


def test_writes_into_returned_images_do_not_reach_later_points(filter_calls):
    cfg = _cfg()
    want = _reference(cfg)
    with physics_scope():
        for p in PROCESS_COUNTS:
            run = _point(cfg, p, None)
            image = run.results[0]
            assert image.flags.writeable
            assert np.array_equal(image, want), p
            image[...] = -float(p)
    assert filter_calls[0] > 0
