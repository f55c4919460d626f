"""Engine/collective microbenchmarks for the analytic fast path.

Not a paper artifact — these track the perf trajectory of the engine
itself across PRs.  The suite measures, per collective, the baton
handoffs and wall-clock of the analytic fast path against the threaded
message path (results are bit-identical, so the ratio is pure overhead
reduction), plus raw scheduling-step throughput, and merges everything
under the ``"coll_fastpath"`` key of the shared machine-readable
``benchmarks/results/BENCH_engine.json`` (the thread-free engine sweep
in ``test_bench_engine.py`` owns the ``"threadfree"`` key).

Fast mode: set ``REPRO_BENCH_FAST=1`` (the CI bench-smoke job does) to
shrink rank counts and repetition so the whole file finishes in tens of
seconds; the JSON schema is identical either way, with the mode
recorded in the payload.

The headline acceptance number lives in
``test_allreduce_heavy_speedup_p128``: an allreduce-heavy run at p=128
must be >= 3x faster wall-clock with the fast path on (fast mode runs
the same shape at a smaller p with a relaxed bar, full mode enforces
the 3x/p=128 criterion and records it in ``coll_fastpath_p128.txt``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.machine.catalog import nehalem_cluster
from repro.simmpi import SUM
from repro.simmpi.engine import run_mpi

from benchmarks.conftest import FAST_MODE, merge_json_artifact, save_artifact


#: (collective label, per-rank body) — one gated invocation per call.
_COLLECTIVES = {
    "barrier": lambda ctx: ctx.comm.barrier(),
    "bcast": lambda ctx: ctx.comm.bcast(b"x" * 256 if ctx.rank == 0 else None),
    "reduce": lambda ctx: ctx.comm.reduce(float(ctx.rank), SUM),
    "allreduce": lambda ctx: ctx.comm.allreduce(ctx.rank, SUM),
    "scan": lambda ctx: ctx.comm.scan(ctx.rank, SUM),
    "exscan": lambda ctx: ctx.comm.exscan(ctx.rank, SUM),
    "scatter": lambda ctx: ctx.comm.scatter(
        list(range(ctx.comm.size)) if ctx.rank == 0 else None),
    "gather": lambda ctx: ctx.comm.gather(ctx.rank),
    "allgather": lambda ctx: ctx.comm.allgather(ctx.rank),
    "alltoall": lambda ctx: ctx.comm.alltoall(
        [ctx.rank] * ctx.comm.size),
}


def _machine(p):
    return nehalem_cluster(nodes=-(-p // 8), jitter=0.1)


def _time_mode(p, body, iters, fast, reps=None):
    """Best-of-N wall-clock + counters of ``iters`` invocations.

    Single-shot timing of a few-millisecond run is dominated by host
    noise — it is what recorded the spurious ``reduce`` ratio of 0.44
    in schema 2.  The minimum over ``reps`` repetitions is the stable
    estimator of the true cost; results are seed-deterministic, so any
    repetition's RunResult stands for all of them.
    """
    if reps is None:
        reps = 2 if FAST_MODE else 3

    def main(ctx):
        for _ in range(iters):
            body(ctx)

    best_t, best_r = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_mpi(p, main, machine=_machine(p), seed=1, coll_analytic=fast)
        dt = time.perf_counter() - t0
        if best_t is None or dt < best_t:
            best_t, best_r = dt, res
    return best_t, best_r


def test_collective_handoffs_and_fastpath_ratio():
    """Per-collective: handoffs/invocation and fast-vs-message ratio,
    persisted as BENCH_engine.json for cross-PR tracking."""
    p = 16 if FAST_MODE else 64
    iters = 3 if FAST_MODE else 5
    per_coll = {}
    for name, body in _COLLECTIVES.items():
        t_fast, r_fast = _time_mode(p, body, iters, fast=True)
        t_msg, r_msg = _time_mode(p, body, iters, fast=False)
        assert r_fast.clocks == r_msg.clocks  # the differential contract
        assert r_fast.network == r_msg.network
        per_coll[name] = {
            "handoffs_fast": r_fast.baton_handoffs / iters,
            "handoffs_message": r_msg.baton_handoffs / iters,
            "sched_steps_fast": r_fast.sched_steps / iters,
            "sched_steps_message": r_msg.sched_steps / iters,
            "wallclock_ratio_message_over_fast": t_msg / t_fast,
        }
        # The structural win the fast path exists for: ~2p handoffs
        # instead of the pattern's full park/wake traffic.
        assert r_fast.baton_handoffs < r_msg.baton_handoffs

    # Raw scheduling throughput on a handoff-heavy workload.
    def churn(ctx):
        for i in range(10):
            ctx.comm.barrier()

    t0 = time.perf_counter()
    res = run_mpi(p, churn, machine=_machine(p), seed=0, coll_analytic=False)
    steps_per_sec = res.sched_steps / (time.perf_counter() - t0)

    doc = {
        "mode": "fast" if FAST_MODE else "full",
        "ranks": p,
        "iterations": iters,
        "sched_steps_per_sec_message_path": steps_per_sec,
        "collectives": per_coll,
    }
    merge_json_artifact("BENCH_engine", {"schema": 3, "coll_fastpath": doc})


def test_allreduce_heavy_speedup_p128():
    """Acceptance: >= 3x wall-clock at p=128 on an allreduce-heavy run."""
    p = 32 if FAST_MODE else 128
    rounds = 10 if FAST_MODE else 40

    def main(ctx):
        # 16 doubles: a small, latency-bound reduction — the regime the
        # paper's workloads live in, and the one where per-message
        # engine overhead (not payload movement) dominates wall-clock.
        acc = np.zeros(16)
        for _ in range(rounds):
            ctx.compute(1e-6)
            out = np.empty_like(acc)
            ctx.comm.Allreduce(acc + ctx.rank, out, SUM)
            acc = out
        return float(acc[0])

    t_fast, r_fast = _time_mode(p, lambda ctx: None, 0, fast=True)  # warmup
    del t_fast, r_fast

    def bench(fast, reps=2 if FAST_MODE else 5):
        # Best-of-N: shared CI hosts show ±50% wall-clock noise between
        # repetitions; the minimum is the stable estimator of the true
        # cost.  Results are seed-deterministic, so any rep's RunResult
        # stands for all of them.
        t_best, r_best = None, None
        for _ in range(reps):
            t0 = time.perf_counter()
            res = run_mpi(p, main, machine=_machine(p), seed=4,
                          coll_analytic=fast)
            dt = time.perf_counter() - t0
            if t_best is None or dt < t_best:
                t_best, r_best = dt, res
        return t_best, r_best

    t_on, on = bench(fast=True)
    t_off, off = bench(fast=False)
    assert on.clocks == off.clocks
    assert on.results == off.results
    speedup = t_off / t_on
    lines = [
        f"analytic collective fast path: allreduce-heavy run at p={p}",
        f"  rounds:               {rounds} Allreduce(16 doubles) + compute",
        f"  message path:         {t_off:8.3f} s  "
        f"({off.baton_handoffs} baton handoffs)",
        f"  fast path:            {t_on:8.3f} s  "
        f"({on.baton_handoffs} baton handoffs)",
        f"  wall-clock speedup:   {speedup:8.2f} x",
        f"  handoff reduction:    "
        f"{off.baton_handoffs / on.baton_handoffs:8.2f} x",
        "  clocks/results bit-identical: yes",
    ]
    save_artifact("coll_fastpath_p128", "\n".join(lines))
    if FAST_MODE:
        assert speedup > 1.5
    else:
        # The PR acceptance criterion: >= 3x at p=128.
        assert speedup >= 3.0
