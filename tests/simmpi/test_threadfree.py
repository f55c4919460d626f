"""Differential suite: thread-free engine vs the thread-per-rank oracle.

The thread-free engine's contract is absolute: for the same program the
single-thread generator event loop and the legacy threaded baton engine
must produce **bit-identical** simulated results — per-rank clocks,
walltime, ``main`` return values, network byte/message counters,
section-event streams, collective gate counters, and even the number of
scheduling steps.  Every float assertion here is ``==`` on purpose.

Covered: a main exercising every collective (object and buffer modes),
point-to-point and waitany traffic, real workloads (convolution,
Lulesh, LBM), fault plans (stragglers, noise bursts, crashes, hangs),
odd/large rank counts up to a p=1024 smoke, engine selection (argument,
``REPRO_ENGINE``, graceful sync-main fallback), generator-frame stall
diagnostics, structural trace equivalence, and the cache/service
key-neutrality of the engine choice.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.export import profile_to_json
from repro.core.profile import SectionProfile
from repro.errors import (
    EngineStateError,
    InjectedFaultError,
    RankFailedError,
    SimulationStalledError,
)
from repro.faults import (
    FaultPlan,
    NoiseBurst,
    RankCrash,
    RankHang,
    StragglerRank,
)
from repro.machine.catalog import laptop, nehalem_cluster
from repro.simmpi import (
    ENGINE_ENV,
    MAX,
    SUM,
    g_wait,
    g_waitany,
    section,
)
from repro.simmpi.engine import (
    Engine,
    ThreadFreeEngine,
    engine_mode,
    is_generator_main,
    run_mpi,
)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _g_everything_main(ctx):
    """One generator main exercising every communication shape.

    Written once as a generator and run on both engines: the threaded
    oracle drives it through the blocking adapter, the thread-free
    engine natively — so any divergence is the engine's fault, not the
    program's.
    """
    c = ctx.comm
    r, p = ctx.rank, c.size
    out = []
    ctx.compute(1e-6 * (1 + r % 5))  # skew arrivals
    with section(ctx, "COLL"):
        out.append((yield from c.g_allreduce(r + 1, SUM)))
        yield from c.g_barrier()
        out.append((yield from c.g_bcast(
            [r, "payload"] if r == 2 % p else None, root=2 % p)))
        out.append((yield from c.g_reduce(float(r), SUM, root=p - 1)))
        ctx.compute(1e-6 * ((r * 7) % 3))
        out.append((yield from c.g_scan(r, SUM)))
        out.append((yield from c.g_exscan(r, SUM)))
        out.append((yield from c.g_scatter(
            list(range(p)) if r == 0 else None, root=0)))
        out.append((yield from c.g_gather(r * r, root=1 % p)))
        out.append((yield from c.g_allgather((r, r * 2))))
        out.append((yield from c.g_alltoall([r * 100 + i for i in range(p)])))
    with section(ctx, "P2P"):
        right, left = (r + 1) % p, (r - 1) % p
        out.append((yield from c.g_sendrecv(
            ("ring", r), right, sendtag=5, source=left, recvtag=5)))
        sreq = c.isend(r * 1.5, right, 9)
        rreq = c.irecv(left, 9)
        idx = yield from g_waitany([rreq, sreq])
        other = sreq if idx == 0 else rreq
        yield from g_wait(other)
        out.append(rreq.data)
    with section(ctx, "VECTOR"):
        small = np.full(8, float(r + 1))
        big = np.full(4096, float(r + 1))  # > eager threshold: rendezvous
        acc = np.empty_like(small)
        yield from c.g_Allreduce(small, acc, SUM)
        out.append(float(acc[0]))
        accb = np.empty_like(big)
        yield from c.g_Allreduce(big, accb, MAX)
        out.append(float(accb[-1]))
        buf = np.arange(16.0) if r == 0 else np.empty(16)
        yield from c.g_Bcast(buf, root=0)
        out.append(float(buf.sum()))
        rec = np.empty(2)
        yield from c.g_Scatter(
            np.arange(2.0 * p) if r == 0 else None, rec, root=0)
        out.append(float(rec[0]))
        gat = np.empty(2 * p) if r == 0 else None
        yield from c.g_Gatherv(rec, gat, [2] * p, root=0)
        if r == 0:
            out.append(float(gat.sum()))
        ag = np.empty((p, 8))
        yield from c.g_Allgather(small, ag)
        out.append(float(ag.sum()))
        a2a = np.empty((p, 1))
        yield from c.g_Alltoall(np.full((p, 1), float(r)), a2a)
        out.append(float(a2a.sum()))
    ctx.compute(1e-6)
    return out


def _g_stepper_main(ctx):
    """Compute/allreduce loop: the fault-injection target."""
    for _ in range(10):
        ctx.compute(seconds=0.02)
        yield from ctx.comm.g_allreduce(ctx.rank, SUM)
    yield from ctx.comm.g_barrier()
    return ctx.now


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


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


def _assert_bit_identical(tf, th):
    """The whole contract, field by field; ``==`` on floats throughout."""
    assert _eq(tf.results, th.results)
    assert tf.clocks == th.clocks          # exact float equality, per rank
    assert tf.walltime == th.walltime
    assert tf.network == th.network        # message AND byte counters
    assert tf.section_events == th.section_events
    assert tf.collectives_gated == th.collectives_gated
    assert tf.collectives_fast == th.collectives_fast
    assert tf.sched_steps == th.sched_steps
    assert tf.engine == "threadfree" and th.engine == "threads"
    assert tf.baton_handoffs == 0          # the point of the exercise


def _both(p, main, **kwargs):
    """Run ``main`` at ``p`` ranks on both engines; (threadfree, threads)."""
    kwargs.setdefault("machine", laptop(cores=max(2, p)))
    kwargs.setdefault("seed", 0)
    tf = run_mpi(p, main, engine="threadfree", **kwargs)
    th = run_mpi(p, main, engine="threads", **kwargs)
    return tf, th


# ---------------------------------------------------------------------------
# Full-surface bit identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 8, 17, 64, 128])
def test_everything_main_bit_identical(p):
    tf, th = _both(
        p,
        _g_everything_main,
        machine=nehalem_cluster(nodes=-(-p // 8), jitter=0.1),
        seed=7,
        compute_jitter=0.05,
        noise_floor=1e-7,
    )
    _assert_bit_identical(tf, th)
    assert th.baton_handoffs > 0


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_bit_identical_across_seeds(seed):
    tf, th = _both(8, _g_everything_main, seed=seed, compute_jitter=0.03)
    _assert_bit_identical(tf, th)


def test_message_path_collectives_bit_identical():
    """With the analytic fast path off, collectives run as real
    point-to-point algorithms — the scheduler-heaviest configuration."""
    tf, th = _both(8, _g_everything_main, coll_analytic=False,
                   machine=nehalem_cluster(nodes=1, jitter=0.1), seed=3)
    _assert_bit_identical(tf, th)
    assert tf.collectives_fast == 0


def test_p1024_smoke_completes_thread_free():
    def main(ctx):
        total = yield from ctx.comm.g_allreduce(1, SUM)
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        token = yield from ctx.comm.g_sendrecv(
            ctx.rank, right, sendtag=1, source=left, recvtag=1)
        return total, token

    res = run_mpi(1024, main, machine=laptop(cores=1024),
                  engine="threadfree")
    assert res.engine == "threadfree"
    assert res.baton_handoffs == 0
    assert res.results == [(1024, (r - 1) % 1024) for r in range(1024)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def test_convolution_workload_bit_identical():
    from repro.workloads.convolution import ConvolutionConfig, ConvolutionWorkload

    bench = ConvolutionWorkload.from_config(
        ConvolutionConfig(height=64, width=96, steps=5))
    kw = dict(machine=nehalem_cluster(nodes=1, jitter=0.1), seed=4,
              compute_jitter=0.02, noise_floor=1e-6)
    tf = bench.run(4, engine="threadfree", **kw)
    th = bench.run(4, engine="threads", **kw)
    _assert_bit_identical(tf, th)


def test_lulesh_workload_bit_identical():
    from repro.workloads.lulesh import LuleshConfig, LuleshWorkload

    bench = LuleshWorkload.from_config(LuleshConfig(s=6, steps=2))
    tf = bench.run(8, threads=2, seed=9, compute_jitter=0.01,
                   engine="threadfree")
    th = bench.run(8, threads=2, seed=9, compute_jitter=0.01,
                   engine="threads")
    _assert_bit_identical(tf, th)
    assert bench.collect(tf).energy_drift == bench.collect(th).energy_drift


def test_lbm_workload_bit_identical():
    from repro.workloads.lbm import LBMConfig, LBMWorkload

    bench = LBMWorkload.from_config(LBMConfig(ny=16, nx=20, steps=8))
    tf = bench.run(4, machine=laptop(cores=4), seed=2,
                   compute_jitter=0.02, engine="threadfree")
    th = bench.run(4, machine=laptop(cores=4), seed=2,
                   compute_jitter=0.02, engine="threads")
    _assert_bit_identical(tf, th)
    assert _eq(bench.collect(tf), bench.collect(th))


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


def test_straggler_and_noise_bit_identical():
    plan = FaultPlan(
        (StragglerRank(rank=0, factor=1.7),
         NoiseBurst(rank=1, mean_delay=1e-4, prob=0.8)),
        seed=11,
    )
    tf, th = _both(4, _g_stepper_main, faults=plan, compute_jitter=0.05,
                   machine=nehalem_cluster(nodes=1, jitter=0.1), seed=5)
    _assert_bit_identical(tf, th)


def test_crash_identical_failure_on_both_engines():
    plan = FaultPlan((RankCrash(rank=1, at_time=0.05),))
    errs = []
    for engine in ("threadfree", "threads"):
        with pytest.raises(RankFailedError) as ei:
            run_mpi(2, _g_stepper_main, machine=laptop(cores=2),
                    faults=plan, engine=engine)
        errs.append(ei.value)
    tf_err, th_err = errs
    assert tf_err.rank == th_err.rank == 1
    assert isinstance(tf_err.original, InjectedFaultError)
    assert str(tf_err.original) == str(th_err.original)  # same virtual time


def test_hang_identical_stall_on_both_engines():
    plan = FaultPlan((RankHang(rank=1, at_time=0.05),))
    errs = []
    for engine in ("threadfree", "threads"):
        with pytest.raises(SimulationStalledError) as ei:
            run_mpi(2, _g_stepper_main, machine=laptop(cores=2),
                    faults=plan, engine=engine)
        errs.append(ei.value)
    tf_err, th_err = errs
    assert tf_err.reason == th_err.reason == "deadlock"
    assert tf_err.waiting_ranks() == th_err.waiting_ranks()
    for d_tf, d_th in zip(tf_err.diagnostics, th_err.diagnostics):
        assert d_tf.rank == d_th.rank
        assert d_tf.state == d_th.state
        assert d_tf.clock == d_th.clock
        assert d_tf.waiting_on == d_th.waiting_on
        assert d_tf.sections == d_th.sections
    # Partial profiles (with the hung rank's sections synthetically
    # closed) export byte-identically.
    assert (profile_to_json(tf_err.partial_profile)
            == profile_to_json(th_err.partial_profile))


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


def test_engine_mode_parsing(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert engine_mode() == "threadfree"            # default
    assert engine_mode("threads") == "threads"
    assert engine_mode("threaded") == "threads"
    assert engine_mode("thread-free") == "threadfree"
    monkeypatch.setenv(ENGINE_ENV, "threads")
    assert engine_mode() == "threads"
    assert engine_mode("threadfree") == "threadfree"  # argument beats env
    monkeypatch.setenv(ENGINE_ENV, "coroutines")
    with pytest.raises(EngineStateError):
        engine_mode()
    with pytest.raises(EngineStateError):
        engine_mode("fibers")


def test_env_selects_engine(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "threads")
    th = run_mpi(2, _g_stepper_main, machine=laptop(cores=2))
    assert th.engine == "threads" and th.baton_handoffs > 0
    monkeypatch.setenv(ENGINE_ENV, "threadfree")
    tf = run_mpi(2, _g_stepper_main, machine=laptop(cores=2))
    assert tf.engine == "threadfree" and tf.baton_handoffs == 0
    _assert_bit_identical(tf, th)


def test_sync_main_falls_back_to_threads():
    """Plain blocking mains keep working under the default mode."""

    def main(ctx):
        return ctx.comm.allreduce(ctx.rank, SUM)

    assert not is_generator_main(main)
    res = run_mpi(2, main, machine=laptop(cores=2), engine="threadfree")
    assert res.engine == "threads"          # graceful degradation
    assert res.results == [1, 1]


def test_thread_free_engine_rejects_sync_main_directly():
    eng = ThreadFreeEngine(2, machine=laptop(cores=2))
    with pytest.raises(EngineStateError, match="generator"):
        eng.run(lambda ctx: None)


def test_blocking_call_inside_generator_main_is_an_error():
    """A generator main that sneaks in a blocking call cannot run on the
    event loop; the error names the g_* escape hatch."""

    def main(ctx):
        ctx.comm.barrier()      # blocking, not g_barrier
        yield from ctx.comm.g_barrier()

    with pytest.raises(RankFailedError) as ei:
        run_mpi(2, main, machine=laptop(cores=2), engine="threadfree")
    assert isinstance(ei.value.original, EngineStateError)
    assert "g_*" in str(ei.value.original)
    # The same program is fine on the threaded oracle.
    res = run_mpi(2, main, machine=laptop(cores=2), engine="threads")
    assert res.engine == "threads"


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_deadlock_diagnostics_carry_generator_frames():
    def main(ctx):
        with section(ctx, "STEP"):
            yield from ctx.comm.g_recv(source=1 - ctx.rank)

    with pytest.raises(SimulationStalledError) as ei:
        run_mpi(2, main, machine=laptop(cores=2), engine="threadfree")
    err = ei.value
    assert err.reason == "deadlock"
    assert sorted(err.waiting_ranks()) == [0, 1]
    for d in err.diagnostics:
        assert d.state == "BLOCKED"
        assert d.sections[-1] == "STEP"
        assert re.fullmatch(r"\S+\.py:\d+ in \w+", d.frame)
    assert any(d.frame for d in err.diagnostics)
    # The frame reaches the rendered report too.
    assert ".py:" in str(err)


def test_threaded_deadlock_diagnostics_have_no_frames():
    def main(ctx):
        ctx.comm.recv(source=1 - ctx.rank)

    with pytest.raises(SimulationStalledError) as ei:
        run_mpi(2, main, machine=laptop(cores=2), engine="threads")
    assert all(d.frame == "" for d in ei.value.diagnostics)


def test_watchdog_catches_runaway_generator_segment():
    def main(ctx):
        if ctx.rank == 0:
            import time

            deadline = time.perf_counter() + 0.8
            while time.perf_counter() < deadline:  # never reaches a yield
                pass
        yield from ctx.comm.g_barrier()

    with pytest.raises(SimulationStalledError) as ei:
        run_mpi(2, main, machine=laptop(cores=2), engine="threadfree",
                wall_timeout=0.2)
    assert ei.value.reason == "watchdog-timeout"
    assert "rank 0" in str(ei.value)


def test_deadlock_partial_profiles_identical_across_engines():
    def main(ctx):
        with section(ctx, "STEP"):
            ctx.compute(seconds=0.01 * (ctx.rank + 1))
            yield from ctx.comm.g_recv(source=1 - ctx.rank)

    profs = []
    for engine in ("threadfree", "threads"):
        with pytest.raises(SimulationStalledError) as ei:
            run_mpi(2, main, machine=laptop(cores=2), engine=engine)
        profs.append(profile_to_json(ei.value.partial_profile))
    assert profs[0] == profs[1]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_trace_spans_structurally_equivalent():
    """Span *structure* (names, layers, parentage shape) matches across
    engines; wall-clock timings and thread names legitimately differ."""
    from repro import obs

    def shape(spans):
        by_id = {s.span_id: s for s in spans}

        def path(s):
            names = []
            while s is not None:
                names.append(s.name)
                s = by_id.get(s.parent_id)
            return tuple(reversed(names))

        return sorted((path(s), s.layer, s.kind) for s in spans)

    shapes = []
    for engine in ("threadfree", "threads"):
        tracer = obs.start_trace("diff", layer="test")
        try:
            run_mpi(2, _g_stepper_main, machine=laptop(cores=2),
                    engine=engine)
        finally:
            obs.finish_trace()
        shapes.append(shape(tracer.spans()))
    assert shapes[0] == shapes[1]


# ---------------------------------------------------------------------------
# Cache neutrality
# ---------------------------------------------------------------------------


def test_sweep_point_cache_keys_ignore_engine():
    from dataclasses import replace

    from repro.harness.runner import _conv_point_key
    from repro.harness.sweeps import default_convolution_sweep

    a = default_convolution_sweep()
    b = replace(a, engine="threads")
    c = replace(a, engine="threadfree")
    keys = {_conv_point_key(s, 4, 0, 123) for s in (a, b, c)}
    assert len(keys) == 1
