"""Differential bit-identity suite for the analytic collective fast path.

The contract of :mod:`repro.simmpi.coll_analytic` is absolute: with the
fast path on or off, a run's per-rank clocks, walltime, ``main`` return
values, network byte/message counters and section-event stream must be
**bit-identical** — not approximately equal.  Every assertion here is
``==`` on floats on purpose.

Covered: all collectives (object and vector/buffer variants), object
payloads above and below the rendezvous threshold, network jitter,
compute jitter and noise-floor draws, several seeds, odd/non-power-of-2
and large rank counts, explicit ``coll_analytic=`` engine arguments and
the ``REPRO_COLL_ANALYTIC`` environment switch, and the lifecycle-fault
fallback that forces the message path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan, RankCrash, RankHang
from repro.machine.catalog import laptop, nehalem_cluster
from repro.simmpi import SUM, MAX, section
from repro.simmpi.coll_analytic import ANALYTIC_ENV, analytic_enabled
from repro.simmpi.engine import Engine, run_mpi


def _all_collectives_main(ctx):
    """Exercise every collective, mixing compute between them so entry
    clocks are rank-skewed and jitter streams are mid-consumption."""
    c = ctx.comm
    r, p = ctx.rank, c.size
    out = []
    ctx.compute(1e-6 * (1 + r % 5))  # skew arrivals
    with section(ctx, "COLL"):
        out.append(c.allreduce(r + 1, SUM))
        c.barrier()
        out.append(c.bcast([r, "payload"] if r == 2 % p else None, root=2 % p))
        out.append(c.reduce(float(r), SUM, root=p - 1))
        ctx.compute(1e-6 * ((r * 7) % 3))
        out.append(c.scan(r, SUM))
        out.append(c.exscan(r, SUM))
        out.append(c.scatter(list(range(p)) if r == 0 else None, root=0))
        out.append(c.gather(r * r, root=1 % p))
        out.append(c.allgather((r, r * 2)))
        out.append(c.alltoall([r * 100 + i for i in range(p)]))
    with section(ctx, "VECTOR"):
        small = np.full(8, float(r + 1))
        big = np.full(4096, float(r + 1))  # > eager threshold: rendezvous
        acc = np.empty_like(small)
        c.Allreduce(small, acc, SUM)
        out.append(float(acc[0]))
        accb = np.empty_like(big)
        c.Allreduce(big, accb, MAX)
        out.append(float(accb[-1]))
        buf = np.arange(16.0) if r == 0 else np.empty(16)
        c.Bcast(buf, root=0)
        out.append(float(buf.sum()))
        rec = np.empty(2)
        c.Scatter(np.arange(2.0 * p) if r == 0 else None, rec, root=0)
        out.append(float(rec[0]))
        gat = np.empty(2 * p) if r == 0 else None
        c.Gatherv(rec, gat, [2] * p, root=0)
        if r == 0:
            out.append(float(gat.sum()))
        ag = np.empty((p, 8))
        c.Allgather(small, ag)
        out.append(float(ag.sum()))
        a2a = np.empty((p, 1))
        c.Alltoall(np.full((p, 1), float(r)), a2a)
        out.append(float(a2a.sum()))
        rsb = np.empty(1)
        c.Reduce_scatter_block(np.arange(float(p)).reshape(p, 1), rsb, SUM)
        out.append(float(rsb[0]))
    ctx.compute(1e-6)
    return out


def _run(p, fast, seed, machine=None):
    return run_mpi(
        p,
        _all_collectives_main,
        machine=machine or nehalem_cluster(nodes=-(-p // 8), jitter=0.1),
        seed=seed,
        compute_jitter=0.05,
        noise_floor=1e-7,
        coll_analytic=fast,
    )


def _assert_bit_identical(on, off):
    assert on.results == off.results
    assert on.clocks == off.clocks  # exact float equality, per rank
    assert on.walltime == off.walltime
    assert on.network == off.network  # message AND byte counters
    assert on.section_events == off.section_events


@pytest.mark.parametrize("p", [2, 3, 8, 17, 64])
def test_fast_path_bit_identical_all_collectives(p):
    on = _run(p, fast=True, seed=7)
    off = _run(p, fast=False, seed=7)
    _assert_bit_identical(on, off)
    assert on.collectives_gated == off.collectives_gated > 0
    assert on.collectives_fast == on.collectives_gated
    assert off.collectives_fast == 0
    # The point of the exercise: the fast path resolves each collective
    # with ~2p handoffs instead of ~2p·log2(p)+ thread switches.
    assert on.baton_handoffs < off.baton_handoffs


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_fast_path_bit_identical_across_seeds(seed):
    _assert_bit_identical(
        _run(8, fast=True, seed=seed), _run(8, fast=False, seed=seed)
    )


def test_fast_path_bit_identical_on_quiet_machine():
    """No jitter anywhere: the degenerate all-deterministic case."""
    mach = laptop(cores=4)
    on = run_mpi(4, _all_collectives_main, machine=mach, seed=0,
                 coll_analytic=True)
    off = run_mpi(4, _all_collectives_main, machine=mach, seed=0,
                  coll_analytic=False)
    _assert_bit_identical(on, off)


def test_fault_plan_forces_message_path():
    """A plan with a hang or crash must disable the analytic replay
    (delivery points have to fire on the owning rank's thread) while the
    gate still engages, keeping clocks comparable to fault-free runs."""
    base = _run(4, fast=True, seed=7,
                machine=nehalem_cluster(nodes=1, jitter=0.1))
    for fault in (RankHang(rank=0, at_time=1e6),
                  RankCrash(rank=0, at_time=1e6)):
        plan = FaultPlan((fault,), seed=3)
        res = run_mpi(4, _all_collectives_main,
                      machine=nehalem_cluster(nodes=1, jitter=0.1), seed=7,
                      compute_jitter=0.05, noise_floor=1e-7, faults=plan,
                      coll_analytic=True)
        assert res.collectives_gated > 0
        assert res.collectives_fast == 0
        # ... and a fault that never fires still matches the fault-free run.
        assert res.clocks == base.clocks


def test_subcommunicator_collectives_not_gated():
    """Collectives on a communicator smaller than the world stay on the
    plain threaded path (outside ranks could interleave traffic)."""

    def main(ctx):
        c = ctx.comm
        sub = c.split(color=ctx.rank % 2, key=ctx.rank)
        val = sub.allreduce(ctx.rank, SUM)
        c.barrier()
        return val

    res = run_mpi(4, main, coll_analytic=True)
    # split()'s own allgather + the final barrier are world-spanning and
    # gated; the sub-communicator allreduce must not be.
    assert res.collectives_fast == res.collectives_gated
    # Even ranks sum to 0+2, odd ranks to 1+3 — within the halves only.
    assert res.results == [2, 4, 2, 4]


def test_env_switch_parsing(monkeypatch):
    """``REPRO_COLL_ANALYTIC`` is on unless explicitly falsy."""
    assert analytic_enabled(None) in (True, False)  # env-dependent
    for off_value in ("0", "false", "FALSE", " no ", "off"):
        assert analytic_enabled(off_value) is False
    for on_value in ("1", "true", "yes", "on", "", "anything"):
        assert analytic_enabled(on_value) is True
    monkeypatch.delenv(ANALYTIC_ENV, raising=False)
    assert Engine(2).coll_analytic is True
    monkeypatch.setenv(ANALYTIC_ENV, "0")
    assert Engine(2).coll_analytic is False
    # An explicit engine argument beats the environment.
    assert Engine(2, coll_analytic=True).coll_analytic is True
    monkeypatch.setenv(ANALYTIC_ENV, "1")
    assert Engine(2, coll_analytic=False).coll_analytic is False


def test_env_switch_bit_identity(monkeypatch):
    """The environment path (no engine argument) is bit-identical too."""
    monkeypatch.setenv(ANALYTIC_ENV, "1")
    on = run_mpi(5, _all_collectives_main,
                 machine=nehalem_cluster(nodes=1, jitter=0.1), seed=2,
                 compute_jitter=0.02)
    assert on.collectives_fast > 0
    monkeypatch.setenv(ANALYTIC_ENV, "0")
    off = run_mpi(5, _all_collectives_main,
                  machine=nehalem_cluster(nodes=1, jitter=0.1), seed=2,
                  compute_jitter=0.02)
    assert off.collectives_fast == 0
    _assert_bit_identical(on, off)


def test_fast_path_repeatable():
    """Same seed, same mode, twice: byte-for-byte repeatable (the gate
    introduces no hidden scheduling nondeterminism)."""
    a = _run(8, fast=True, seed=13)
    b = _run(8, fast=True, seed=13)
    _assert_bit_identical(a, b)
    assert a.sched_steps == b.sched_steps
    assert a.baton_handoffs == b.baton_handoffs


def test_counters_surface_in_run_result():
    res = _run(2, fast=True, seed=0)
    assert res.sched_steps >= res.baton_handoffs > 0
    assert res.collectives_gated >= res.collectives_fast > 0

