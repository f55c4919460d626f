"""A finished run is freed by reference counting, not by the cyclic GC.

When ``run()`` returns or raises, the engine detaches the run's object
graph (see ``_EngineBase._release``).  With the cyclic collector
disabled, a weak reference to the engine must therefore be dead as soon
as ``run_mpi`` returns — while its RunResult, which may hold rank
communicators, is still alive — or as soon as the exception it raised
is dropped; and a full collection must then find nothing to free.

Each case runs once to warm lazy imports and caches (whose one-time
garbage is not the run's), then once more under the check.
"""

from __future__ import annotations

import gc
import json
import threading
import time
import weakref

import numpy as np
import pytest

from repro.errors import RankFailedError, SimulationStalledError
from repro.faults.plan import FaultPlan, RankCrash, StragglerRank
from repro.machine.catalog import laptop
from repro.service.api import ServiceApp
from repro.simmpi import section
from repro.simmpi.engine import _EngineBase, run_mpi
from repro.simmpi.pmpi import Tool
from repro.simmpi.sched import YIELD

P = 8
STEPS = 12


@pytest.fixture
def no_gc():
    """Cyclic GC off for the test body, starting from a clean heap."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cyclic_garbage() -> list:
    """Type names of the objects only a cyclic collection would free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        names = sorted(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    gc.collect()
    return names


# -- rank programs (generator mains: both engines run them) ------------------
#
# Rank 0 records weak references to its engine in ``refs`` and to its
# thread in ``threads`` (a rank thread holds its engine), so a test can
# wait for a rank thread that outlived the abort.


def _note(ctx, refs, threads):
    if ctx.rank == 0:
        refs.append(weakref.ref(ctx.engine))
        threads.append(weakref.ref(threading.current_thread()))


def _steady(ctx, refs, threads):
    """Halo ring + allreduce rounds (macro-step captures them), then a
    split; returns a payload and the sub-communicator."""
    _note(ctx, refs, threads)
    comm = ctx.comm
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    out = np.full(64, float(ctx.rank))
    halo = np.empty(64)
    with section(ctx, "STEP"):
        for _ in range(STEPS):
            ctx.compute(seconds=1e-5)
            yield from comm.g_Sendrecv(out, right, halo, left, 0, 0)
            total = np.zeros(4)
            yield from comm.g_Allreduce(np.ones(4), total)
    sub = yield from comm.g_split(comm.rank % 2)
    yield from sub.g_allreduce(ctx.rank)
    return halo.copy(), sub


def _deadlock(ctx, refs, threads):
    _note(ctx, refs, threads)
    with section(ctx, "STUCK"):
        yield from ctx.comm.g_recv(source=(ctx.rank + 1) % ctx.size)


def _livelock(ctx, refs, threads):
    _note(ctx, refs, threads)
    while True:  # re-enters the scheduler without advancing the clock
        yield YIELD


def _sleeper(ctx, refs, threads):
    _note(ctx, refs, threads)
    if ctx.rank == 0:
        time.sleep(1.0)  # far past wall_timeout, and past the abort's join
    yield from ctx.comm.g_barrier()


class _Watcher(Tool):
    """A PMPI tool on sections and sends (sends turn off fast paths)."""

    def __init__(self):
        self.calls = 0

    def section_enter_cb(self, comm_id, label, data, rank, t):
        self.calls += 1

    def on_send(self, rank, dest, nbytes, tag, t):
        self.calls += 1


CASES = {
    # id: (main, run_mpi keyword arguments, expected exception)
    "macro-analytic": (_steady, dict(macrostep=True, coll_analytic=True), None),
    "macro-messages": (_steady, dict(macrostep=True, coll_analytic=False), None),
    "interp-analytic": (_steady, dict(macrostep=False, coll_analytic=True), None),
    "interp-messages": (_steady, dict(macrostep=False, coll_analytic=False), None),
    "straggler": (_steady, dict(faults=FaultPlan((StragglerRank(1, 2.0),))), None),
    "crash": (_steady, dict(faults=FaultPlan((RankCrash(1, 5e-5),))),
              RankFailedError),
    "pmpi-tool": (_steady, dict(tools=[_Watcher()]), None),
    "deadlock": (_deadlock, {}, SimulationStalledError),
    "progress-steps": (_livelock, dict(progress_steps=50), SimulationStalledError),
    "wall-timeout": (_sleeper, dict(wall_timeout=0.1), SimulationStalledError),
}


def _join(thread_ref) -> None:
    """Wait for a rank thread to exit (no-op on the thread-free engine)."""
    thread = thread_ref()
    if thread is not None and thread is not threading.current_thread():
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def _run_case(engine: str, case: str):
    """Run one case; returns (engine weakref, RunResult or None,
    rank-0 thread weakref)."""
    main, kwargs, raises = CASES[case]
    refs, threads = [], []
    args = (refs, threads)
    res = None
    if raises is None:
        res = run_mpi(P, main, machine=laptop(cores=P), engine=engine,
                      args=args, **kwargs)
    else:
        try:
            run_mpi(P, main, machine=laptop(cores=P), engine=engine,
                    args=args, **kwargs)
        except raises:
            pass
        else:  # pragma: no cover - the case is built to fail
            pytest.fail(f"{case} did not raise {raises.__name__}")
    return refs[0], res, threads[0]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("engine", ["threadfree", "threads"])
def test_run_is_freed_without_cyclic_gc(no_gc, engine, case):
    # Warm-up: the first run of a path pays one-time lazy imports.
    _join(_run_case(engine, case)[2])
    gc.collect()

    ref, res, thread_ref = _run_case(engine, case)
    if case == "wall-timeout":
        # On the threaded engine rank 0's thread outlived the abort's
        # join and holds its engine until it wakes and unwinds.
        _join(thread_ref)
    assert ref() is None, "the engine outlived run_mpi"
    assert _cyclic_garbage() == []
    if res is not None:
        # The RunResult stays fully usable on its own.
        assert len(res.results) == P
        halo, sub = res.results[0]
        assert halo.shape == (64,) and sub.size == P // 2
        if engine == "threadfree" and case == "macro-analytic":
            assert res.rounds_replayed > 0  # the lean closures were bound
        if case.endswith("analytic"):
            assert res.collectives_fast > 0


def test_late_mpi_call_of_an_outlived_rank_thread_unwinds_quietly(no_gc):
    """A rank thread the watchdog could not join wakes after the run
    raised; its next MPI call must leave through the engine's abort
    unwind, and nothing may reach ``threading.excepthook``."""
    hooked = []
    seen = []
    threads = []

    def main(ctx):
        if ctx.rank == 0:
            threads.append(threading.current_thread())
            time.sleep(1.0)
            try:
                ctx.comm.barrier()
            except BaseException as exc:
                seen.append(type(exc).__name__)
                raise
        else:
            ctx.comm.barrier()

    old_hook = threading.excepthook
    threading.excepthook = hooked.append
    try:
        with pytest.raises(SimulationStalledError) as ei:
            run_mpi(2, main, machine=laptop(cores=2), wall_timeout=0.1)
        assert ei.value.reason == "watchdog-timeout"
        threads[0].join(timeout=10.0)
        assert not threads[0].is_alive()
    finally:
        threading.excepthook = old_hook
    assert seen == ["_SimAbort"]
    assert hooked == []


def test_service_worker_keeps_no_engine(no_gc, tmp_path):
    """Scenario jobs on a long-lived in-process service worker leave no
    engine behind once they are done."""

    before = {id(o) for o in gc.get_objects() if isinstance(o, _EngineBase)}
    app = ServiceApp(cache_dir=tmp_path, workers=1, worker_mode="thread",
                     sweep_jobs=1)
    app.start()
    try:
        for seed in (3, 4, 5):
            spec = {"kind": "scenario", "client": "lifetime",
                    "scenario": {"workload": "halo2d",
                                 "params": {"ny": 16, "nx": 16, "steps": 3},
                                 "machine": {"name": "laptop", "cores": 4},
                                 "process_counts": [1, 2, 4],
                                 "base_seed": seed}}
            status, _, body = app.handle("POST", "/api/v1/jobs", {},
                                         json.dumps(spec).encode())
            assert status == 202, body
            job = f"/api/v1/jobs/{json.loads(body)['job_id']}"
            after, done = 0, False
            deadline = time.monotonic() + 60.0
            while not done:
                assert time.monotonic() < deadline, f"{job} did not finish"
                status, _, body = app.handle(
                    "GET", job + "/progress", {"after": str(after), "wait": "5"})
                assert status == 200, body
                chunk = json.loads(body)
                after, done = chunk["next"], chunk["done"]
            status, _, body = app.handle("GET", job, {})
            assert json.loads(body)["status"] == "done"
    finally:
        app.close()
    left = [o for o in gc.get_objects()
            if isinstance(o, _EngineBase) and id(o) not in before]
    assert left == []
