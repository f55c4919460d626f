"""Steady-state benchmarks of the default fast paths.

Not a paper artifact — these track the perf trajectory of the
thread-free engine's fast paths (the collective gate's replay in
``repro.simmpi.coll_analytic`` and macro-step capture & replay in
``repro.simmpi.macrostep``) across PRs, merged under the
``"macrostep"`` key of the shared ``benchmarks/results/BENCH_engine.json``
(schema 3).

Configurations
--------------
The allreduce-heavy gates (p=1024, perf smoke, p=4096) compare the
default configuration — ``coll_analytic`` and macro-step both on, where
the gate's flat recursive-doubling executor resolves each world
allreduce on its last arrival — against the fully interpreted one (both
off: every rank runs its own recursive-doubling program message by
message).  The halo2d gate toggles macro-step only.

Metrics
-------
The fast paths resolve whole collective invocations without per-rank
ready-heap pops, so the raw ``sched_steps`` counter *shrinks*.
Throughput is therefore reported as **equivalent scheduling steps per
second**: the interpreted path's step count divided by each mode's
wall-clock — i.e. how fast each mode retires the *same* simulated work.
The equivalent-steps ratio equals the wall-clock ratio by construction
and is the acceptance number.

Bars
----
* allreduce-heavy p=1024: >= 3x equivalent sched-steps/s (full mode).
* halo2d p=256 steady state: slope of wall-clock vs step count —
  measured between 24 and 96 Jacobi sweeps, which cancels startup,
  capture rounds and the REDUCE tail.  The gated ratio is the median
  over 9 interleaved (macro-step on, off) slope pairs.  The honest
  measured ratio is ~1.3x (the workload's own numpy, the section
  runtime and generator resumption bound it; see docs/tuning.md),
  recorded as such with a 1.25x floor asserted.
* p=4096 smoke: the default configuration completes at the largest
  scale and the artifact records the counters (``macrostep_p4096.txt``).

``REPRO_BENCH_FAST=1`` shrinks shapes and relaxes bars;
``REPRO_PERF_SMOKE=1`` enables the CI regression gate, which fails on
a >30% drop of the default-over-interpreted speedup against the
committed baseline.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.machine.catalog import nehalem_cluster
from repro.simmpi import SUM
from repro.simmpi.engine import run_mpi
from repro.workloads import registry

from benchmarks.conftest import FAST_MODE, merge_json_artifact, save_artifact

PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "").strip() not in ("", "0")


def _machine(p):
    return nehalem_cluster(nodes=-(-p // 8), jitter=0.1)


def _allreduce_heavy(rounds):
    """Latency-bound 16-double Allreduce churn (the canonical shape)."""

    def gmain(ctx):
        acc = np.zeros(16)
        for _ in range(rounds):
            ctx.compute(1e-6)
            out = np.empty_like(acc)
            yield from ctx.comm.g_Allreduce(acc + ctx.rank, out, SUM)
            acc = out
        return float(acc[0])

    return gmain


def _best_of(reps, p, gmain, fast):
    """Best-of-N wall-clock (min rides out shared-host noise) + result.

    ``fast`` is the default configuration (collective gate replay and
    macro-step both on); otherwise both are off and every rank
    interprets its own program.
    """
    t_best, r_best = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_mpi(p, gmain, machine=_machine(p), seed=3,
                      coll_analytic=fast, engine="threadfree",
                      macrostep=fast)
        dt = time.perf_counter() - t0
        if t_best is None or dt < t_best:
            t_best, r_best = dt, res
    return t_best, r_best


def _eq(a, b):
    """Recursive exact equality that tolerates numpy payloads."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_eq(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_eq(a[k], b[k]) for k in a))
    return a == b


def _assert_identical(on, off):
    """The bit-identity contract (sched_steps deliberately excluded)."""
    assert on.clocks == off.clocks
    assert _eq(on.results, off.results)
    assert on.walltime == off.walltime
    assert on.network == off.network
    assert on.section_events == off.section_events


def test_macrostep_allreduce_heavy_p1024():
    """Acceptance: >= 3x equivalent sched-steps/s at p=1024 (full mode)."""
    p = 128 if FAST_MODE else 1024
    rounds = 24 if FAST_MODE else 48
    reps = 2 if FAST_MODE else 3
    gmain = _allreduce_heavy(rounds)

    t_on, r_on = _best_of(reps, p, gmain, fast=True)
    t_off, r_off = _best_of(reps, p, gmain, fast=False)
    _assert_identical(r_on, r_off)
    assert r_on.rounds_captured > 0
    assert r_on.rounds_replayed > 0
    # The gate resolves each invocation on its last arrival: fewer raw
    # heap pops than the interpreter for the same simulated work.
    assert r_on.sched_steps < r_off.sched_steps
    assert r_on.collectives_fast == r_on.collectives_gated == rounds

    ratio = t_off / t_on                      # == equivalent-steps ratio
    merge_json_artifact("BENCH_engine", {"schema": 3, "macrostep": {
        "mode": "fast" if FAST_MODE else "full",
        "allreduce_heavy": {
            "configuration_macrostep": "coll_analytic and macrostep on",
            "configuration_interpreted": "coll_analytic and macrostep off",
            "ranks": p,
            "rounds": rounds,
            "wallclock_interpreted_s": t_off,
            "wallclock_macrostep_s": t_on,
            "equiv_sched_steps_per_sec_interpreted": r_off.sched_steps / t_off,
            "equiv_sched_steps_per_sec_macrostep": r_off.sched_steps / t_on,
            "speedup": ratio,
            "sched_steps_interpreted": r_off.sched_steps,
            "sched_steps_macrostep": r_on.sched_steps,
            "rounds_captured": r_on.rounds_captured,
            "rounds_replayed": r_on.rounds_replayed,
            "deopts": r_on.deopts,
        },
    }})
    if FAST_MODE:
        assert ratio > 1.5
    else:
        # The PR acceptance criterion: >= 3x at p=1024.
        assert ratio >= 3.0


def _halo_wall(p, steps, macrostep):
    """Wall-clock of one threadfree halo2d run of ``steps`` sweeps."""
    plugin = registry.get("halo2d")({"steps": steps})
    t0 = time.perf_counter()
    plugin.run(p, machine=_machine(p), seed=3,
               engine="threadfree", macrostep=macrostep)
    return time.perf_counter() - t0


def _halo_slope_pairs(p, steps_lo, steps_hi, pairs):
    """Interleaved per-step steady-state costs, one (on, off) per pair.

    Each slope is the difference quotient (T(hi) - T(lo)) / (hi - lo),
    which cancels everything that happens once per run — engine setup,
    the capture rounds, the REDUCE tail — leaving the marginal cost of
    one steady-state Jacobi sweep.  Within a pair the four runs go in
    ABBA order (lo: A then B, hi: B then A), and A alternates between
    pairs, so a host that speeds up or slows down during the pair
    charges both modes alike.
    """
    out = []
    for i in range(pairs):
        a, b = (True, False) if i % 2 == 0 else (False, True)
        t_lo = {a: _halo_wall(p, steps_lo, a), b: _halo_wall(p, steps_lo, b)}
        t_hi = {b: _halo_wall(p, steps_hi, b), a: _halo_wall(p, steps_hi, a)}
        out.append(tuple((t_hi[m] - t_lo[m]) / (steps_hi - steps_lo)
                         for m in (True, False)))
    return out


def test_macrostep_halo2d_p256_steady_state():
    """halo2d p=256: steady-state per-sweep cost, replay vs interpreter.

    The honest number: replay wins ~1.3x on the marginal sweep.  The
    remaining time is shared floor — the workload's own numpy halo
    assembly, section events and generator resumption — which replay
    cannot remove (docs/tuning.md quantifies the split).  The gated
    ratio is the median over interleaved (on, off) slope pairs: a
    single min-of-N timing per mode let one noisy run swing the ratio
    across the floor.  The asserted floor is deliberately below the
    measured ratio; the recorded artifact carries the real value.
    """
    p = 64 if FAST_MODE else 256
    lo, hi = (12, 36) if FAST_MODE else (24, 96)
    pairs = 9

    slope_pairs = _halo_slope_pairs(p, lo, hi, pairs)
    ratios = sorted(off / on for on, off in slope_pairs)
    ratio = statistics.median(ratios)

    # Replay must stay bit-identical on the exact benchmark shape.
    plugin = registry.get("halo2d")({"steps": lo})
    on = plugin.run(p, machine=_machine(p), seed=3,
                    engine="threadfree", macrostep=True)
    off = plugin.run(p, machine=_machine(p), seed=3,
                     engine="threadfree", macrostep=False)
    _assert_identical(on, off)
    assert on.rounds_replayed > 0

    merge_json_artifact("BENCH_engine", {"schema": 3, "macrostep_halo2d": {
        "mode": "fast" if FAST_MODE else "full",
        "ranks": p,
        "steps_lo": lo,
        "steps_hi": hi,
        "pairs": pairs,
        "steady_state_s_per_step_interpreted": statistics.median(
            off for _, off in slope_pairs),
        "steady_state_s_per_step_macrostep": statistics.median(
            on for on, _ in slope_pairs),
        "steady_state_speedup": ratio,
        "steady_state_speedup_pairs": ratios,
        "target_speedup": 2.0,
        "note": "median of interleaved (on, off) slope pairs; shared floor "
                "(workload numpy, sections, generator resumption) bounds "
                "the measured ratio near 1.3x; see docs/tuning.md",
    }})
    if not FAST_MODE:
        assert ratio >= 1.25


def test_macrostep_p4096_smoke():
    """p=4096 default-configuration smoke: the largest-scale claim.

    Always runs at p=4096 — a smaller fast-mode p would smoke a
    different claim.  Asserts completion, engagement and bit-exact
    global reduction; wall-clock is recorded, not asserted.
    """
    p = 4096
    rounds = 5
    gmain = _allreduce_heavy(rounds)
    t0 = time.perf_counter()
    res = run_mpi(p, gmain, machine=_machine(p), seed=3,
                  engine="threadfree", coll_analytic=True, macrostep=True)
    elapsed = time.perf_counter() - t0
    assert res.engine == "threadfree"
    assert len(res.results) == p
    assert res.rounds_captured == p
    assert res.rounds_replayed > 0
    # The allreduce chain must leave every rank with the same bitwise
    # value (exact equality across modes is the differential suite's
    # job at smaller p; the smoke proves scale).
    assert all(r == res.results[0] for r in res.results)
    assert res.results[0] > 0.0
    lines = [
        f"default configuration: p={p} allreduce-heavy smoke",
        f"  rounds:            {rounds} Allreduce(16 doubles) + compute",
        f"  wall-clock:        {elapsed:8.3f} s",
        f"  scheduling steps:  {res.sched_steps}",
        f"  collectives fast:  {res.collectives_fast}/{res.collectives_gated}",
        f"  rounds captured:   {res.rounds_captured}",
        f"  rounds replayed:   {res.rounds_replayed}",
        f"  deopts:            {res.deopts}",
        f"  virtual walltime:  {res.walltime:8.6f} s",
    ]
    save_artifact("macrostep_p4096", "\n".join(lines))


#: Committed speedup of the default configuration over the fully
#: interpreted one on the perf-smoke shape (p=256, 24 rounds, best-of-3)
#: on the reference host.  The CI gate fails when the
#: measured speedup drops more than 30% below it — a relative bar, so
#: absolute host speed cancels out of the comparison.
PERF_SMOKE_BASELINE_SPEEDUP = 2.6


def test_perf_smoke_macrostep_regression():
    """CI regression gate: default-path speedup within 30% of the baseline."""
    if not PERF_SMOKE:
        import pytest

        pytest.skip("set REPRO_PERF_SMOKE=1 to run the regression gate")
    p, rounds = 256, 24
    gmain = _allreduce_heavy(rounds)
    t_on, r_on = _best_of(3, p, gmain, fast=True)
    t_off, r_off = _best_of(3, p, gmain, fast=False)
    _assert_identical(r_on, r_off)
    speedup = t_off / t_on
    floor = PERF_SMOKE_BASELINE_SPEEDUP * 0.7
    assert speedup >= floor, (
        f"default-path speedup regressed: {speedup:.2f}x measured, "
        f"floor {floor:.2f}x (baseline {PERF_SMOKE_BASELINE_SPEEDUP}x - 30%)"
    )
