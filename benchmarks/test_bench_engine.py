"""Simulator microbenchmarks: the substrate's own throughput.

Not a paper artifact — these measure the reproduction's usability
envelope (simulated messages/second, rank-count scaling, section event
rate), which bounds how large a sweep the harness can run.

The second half of the file benchmarks the thread-free engine against
the threaded oracle: a rank-count sweep of wall-clock ratios (merged
under the ``"threadfree"`` key of ``BENCH_engine.json``), the p=128
allreduce-heavy acceptance scenario (well ahead of the baton), and a
p=1024 smoke proving the thread-per-rank ceiling no longer applies
(``threadfree_p1024.txt``).  ``REPRO_BENCH_FAST=1`` shrinks the sweep
and relaxes the bars, but the p=1024 smoke always runs at p=1024 —
that number *is* the claim being smoked.
"""

import time

import numpy as np

from repro.machine.catalog import laptop, nehalem_cluster
from repro.simmpi import SUM
from repro.simmpi.engine import run_mpi
from repro.simmpi.sections_rt import section

from benchmarks.conftest import FAST_MODE, merge_json_artifact, save_artifact



def test_engine_p2p_message_throughput(benchmark):
    """Ping-pong churn: 2 ranks, 200 eager messages each way."""

    def main(ctx):
        peer = 1 - ctx.rank
        for i in range(200):
            if ctx.rank == 0:
                ctx.comm.send(i, dest=peer)
                ctx.comm.recv(source=peer)
            else:
                ctx.comm.recv(source=peer)
                ctx.comm.send(i, dest=peer)

    benchmark(lambda: run_mpi(2, main, machine=laptop(2)))


def test_engine_rank_scaling_barrier(benchmark):
    """64 ranks × 10 dissemination barriers: scheduler switch cost."""

    def main(ctx):
        for _ in range(10):
            ctx.comm.barrier()

    benchmark(lambda: run_mpi(64, main, machine=nehalem_cluster(nodes=8)))


def test_engine_rendezvous_bulk_transfer(benchmark):
    """Large-payload rendezvous path including the payload copies."""
    data = np.zeros(250_000)

    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.Send(data, dest=1)
        else:
            buf = np.empty_like(data)
            ctx.comm.Recv(buf, source=0)

    benchmark(lambda: run_mpi(2, main, machine=laptop(2)))


def test_section_event_rate(benchmark):
    """Cost of the section runtime itself: 2 000 enter/exit pairs."""

    def main(ctx):
        for _ in range(2000):
            with section(ctx, "hot"):
                pass

    benchmark(lambda: run_mpi(1, main, machine=laptop(2)))


# ---------------------------------------------------------------------------
# Thread-free vs threaded engine
# ---------------------------------------------------------------------------


def _machine(p):
    return nehalem_cluster(nodes=-(-p // 8), jitter=0.1)


def _allreduce_heavy(rounds):
    """Generator main: latency-bound 16-double Allreduce churn.

    The same shape as the collective fast path's acceptance scenario,
    but expressed through the generator API so it runs natively on both
    engines (the threaded oracle drives it with ``drive_blocking``).
    """

    def gmain(ctx):
        acc = np.zeros(16)
        for _ in range(rounds):
            ctx.compute(1e-6)
            out = np.empty_like(acc)
            yield from ctx.comm.g_Allreduce(acc + ctx.rank, out, SUM)
            acc = out
        return float(acc[0])

    return gmain


def _best_of(reps, p, gmain, engine):
    """Best-of-N wall-clock (min rides out shared-host noise) + result.

    ``macrostep=False``: this file benchmarks the *interpreted*
    substrates against each other (the sched_steps parity assertions
    depend on it); the macro-step layer has its own benchmark file,
    ``test_bench_macrostep.py``.
    """
    t_best, r_best = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_mpi(p, gmain, machine=_machine(p), seed=3,
                      coll_analytic=False, engine=engine, macrostep=False)
        dt = time.perf_counter() - t0
        if t_best is None or dt < t_best:
            t_best, r_best = dt, res
    return t_best, r_best


def test_engine_ratio_p_sweep():
    """Threaded-vs-threadfree wall-clock ratio across rank counts.

    Every point re-proves the differential contract (identical clocks
    and scheduling steps, zero handoffs thread-free) before its ratio is
    trusted; the ratios land under ``"threadfree"`` in
    ``BENCH_engine.json`` for cross-PR tracking.
    """
    ps = (8, 32) if FAST_MODE else (16, 64, 256, 1024)
    rounds = 6 if FAST_MODE else 8
    reps = 1 if FAST_MODE else 2
    gmain = _allreduce_heavy(rounds)
    sweep = {}
    for p in ps:
        t_tf, r_tf = _best_of(reps, p, gmain, "threadfree")
        t_th, r_th = _best_of(reps, p, gmain, "threads")
        assert r_tf.clocks == r_th.clocks  # the differential contract
        assert r_tf.sched_steps == r_th.sched_steps
        assert r_tf.baton_handoffs == 0
        sweep[str(p)] = {
            "wallclock_threadfree_s": t_tf,
            "wallclock_threaded_s": t_th,
            "wallclock_ratio_threaded_over_threadfree": t_th / t_tf,
            "baton_handoffs_threaded": r_th.baton_handoffs,
            "sched_steps": r_tf.sched_steps,
            "sched_steps_per_sec_threadfree": r_tf.sched_steps / t_tf,
        }
    merge_json_artifact("BENCH_engine", {
        "schema": 3,
        "threadfree": {
            "mode": "fast" if FAST_MODE else "full",
            "rounds": rounds,
            "p_sweep": sweep,
        },
    })


def test_allreduce_heavy_threadfree_speedup_p128():
    """Acceptance: thread-free well ahead at p=128, zero baton handoffs."""
    p = 32 if FAST_MODE else 128
    rounds = 10 if FAST_MODE else 40
    reps = 2 if FAST_MODE else 5
    gmain = _allreduce_heavy(rounds)

    t_tf, r_tf = _best_of(reps, p, gmain, "threadfree")
    t_th, r_th = _best_of(reps, p, gmain, "threads")
    assert r_tf.clocks == r_th.clocks
    assert r_tf.results == r_th.results
    assert r_tf.baton_handoffs == 0
    speedup = t_th / t_tf
    merge_json_artifact("BENCH_engine", {
        "schema": 3,
        "threadfree_acceptance_p128": {
            "mode": "fast" if FAST_MODE else "full",
            "ranks": p,
            "rounds": rounds,
            "wallclock_threadfree_s": t_tf,
            "wallclock_threaded_s": t_th,
            "wallclock_speedup": speedup,
            "baton_handoffs_threadfree": r_tf.baton_handoffs,
            "baton_handoffs_threaded": r_th.baton_handoffs,
        },
    })
    if FAST_MODE:
        assert speedup > 1.2
    else:
        # Originally >= 2x (measured 2.77x).  The ready-heap equal-clock
        # batch drain sped up *both* engines but the threaded oracle
        # disproportionately (threaded 1.94 s -> 1.12 s, thread-free
        # 0.70 s -> 0.58 s on the reference host), compressing the
        # ratio to ~1.9x; the floor is re-based to track the claim that
        # thread-free stays well ahead, not the oracle's old slowness.
        assert speedup >= 1.6


def test_threadfree_p1024_smoke():
    """p=1024 through the full message path on one thread.

    Pathological under thread-per-rank (1024 OS threads, ~60k baton
    handoffs for a handful of allreduce rounds); routine as a pure
    discrete-event run.  Always exercises p=1024 — a smaller fast-mode
    p would smoke a different claim.
    """
    p = 1024
    rounds = 4 if FAST_MODE else 8
    gmain = _allreduce_heavy(rounds)
    t0 = time.perf_counter()
    res = run_mpi(p, gmain, machine=_machine(p), seed=3,
                  coll_analytic=False, engine="threadfree", macrostep=False)
    elapsed = time.perf_counter() - t0
    assert res.engine == "threadfree"
    assert res.baton_handoffs == 0
    assert len(res.results) == p
    lines = [
        f"thread-free engine: p={p} allreduce-heavy message-path run",
        f"  rounds:            {rounds} Allreduce(16 doubles) + compute",
        f"  wall-clock:        {elapsed:8.3f} s",
        f"  scheduling steps:  {res.sched_steps}",
        f"  steps/second:      {res.sched_steps / elapsed:10.0f}",
        "  baton handoffs:    0 (single-thread discrete-event loop)",
        f"  virtual walltime:  {res.walltime:8.6f} s",
    ]
    save_artifact("threadfree_p1024", "\n".join(lines))
