"""One allreduce replay: the collective gate's flat recursive doubling.

A world allreduce crossing the gate is resolved by the last arrival,
either by the flat recursive-doubling executor
(``coll_analytic._flat_allreduce``) or, whenever that declines, by the
generic ``_Replay`` of the per-rank programs.  Either way the run must
be **bit-identical** to the message path (``coll_analytic=False``):
results, per-rank clocks, walltime, network counters and section-event
streams are compared with ``==``.

The generated cases cross the flat path's shape decline reasons
(non-power-of-two p, payloads above the eager threshold, impure user
reduce operations); explicit cases cover the rest (0-d operands,
unhashable user operations, permuted rank numbering, PMPI tools that
watch per-message events) and the threads engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine.catalog import nehalem_cluster
from repro.simmpi import ANY_SOURCE, MAX, MIN, PROD, SUM, section
from repro.simmpi import coll_analytic
from repro.simmpi.engine import run_mpi
from repro.simmpi.pmpi import Tool
from repro.simmpi.reduce_ops import ReduceOp

#: A reduce operation the flat path does not trust (not one of the
#: built-in pure ops), so its invocations always go to ``_Replay``.
USER_OP = ReduceOp("USER", lambda a, b: a + 2 * b, commutative=False)

OPS = {"sum": SUM, "prod": PROD, "min": MIN, "max": MAX, "user": USER_OP}


#: Eager threshold of the test machine: 256 float64 / 512 float32, so
#: the generated payloads (up to 600 elements) cross it.
EAGER = 2048


def _machine(p):
    return replace(nehalem_cluster(nodes=-(-p // 8), jitter=0.1),
                   eager_threshold=EAGER)


def _run(p, main, **kwargs):
    kwargs.setdefault("machine", _machine(p))
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("compute_jitter", 0.04)
    return run_mpi(p, main, **kwargs)


def _assert_identical(a, b):
    assert a.results == b.results
    assert a.clocks == b.clocks
    assert a.walltime == b.walltime
    assert a.network == b.network
    assert a.section_events == b.section_events


def _allreduce_loop(n, dtype, op, rounds, comm_of=None):
    """``rounds`` rank-skewed ``g_Allreduce`` calls of ``n`` elements.

    Values are renormalised between rounds so PROD never overflows.
    """
    dt = np.dtype(dtype)

    def gmain(ctx):
        c = ctx.comm if comm_of is None else (yield from comm_of(ctx))
        base = np.arange(n) % 7 + ctx.rank
        if dt.kind == "f":
            acc = (1.0 + base * 1e-3).astype(dt)
        else:
            acc = (base + 1).astype(dt)
        for i in range(rounds):
            ctx.compute(1e-6 * (1 + (ctx.rank * 5 + i) % 4))
            out = np.empty_like(acc)
            with section(ctx, "ALLREDUCE"):
                yield from c.g_Allreduce(acc, out, op)
            if dt.kind == "f":
                acc = out - np.floor(out) + 1
            else:
                acc = out % 97 + 1
        return acc.tolist()

    return gmain


# -- mixed lean / interpreted ranks -------------------------------------------------


def _mixed_kind_main(ctx):
    """Rank 0's one wildcard receive keeps it off macro-step replay while
    every other rank engages."""
    c = ctx.comm
    if ctx.rank == 1:
        yield from c.g_send("hello", 0)
    elif ctx.rank == 0:
        yield from c.g_recv(ANY_SOURCE)
    acc = np.arange(16.0) + ctx.rank
    for _ in range(12):
        ctx.compute(1e-6 * (1 + ctx.rank % 3))
        out = np.empty_like(acc)
        with section(ctx, "ALLREDUCE"):
            yield from c.g_Allreduce(acc, out, SUM)
        acc = out * 0.5 + ctx.rank
    return acc.tolist()


def test_mixed_lean_and_interpreted_ranks_agree():
    """All four {coll_analytic, macrostep} configurations give the same run."""
    runs = {
        (analytic, ms): _run(8, _mixed_kind_main, coll_analytic=analytic,
                             macrostep=ms, engine="threadfree")
        for analytic in (True, False)
        for ms in (True, False)
    }
    ref = runs[(False, False)]
    for key, res in runs.items():
        _assert_identical(res, ref)
    assert runs[(False, True)].rounds_replayed > 0


# -- flat path vs message path --------------------------------------------------------


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    # Half the draws are powers of two, the flat path's only shape.
    p=st.one_of(st.sampled_from([2, 4, 8, 16, 32]), st.integers(2, 40)),
    dtype=st.sampled_from(["float64", "float32", "int64"]),
    n=st.integers(1, 600),
    op=st.sampled_from(sorted(OPS)),
    rounds=st.integers(1, 4),
)
def test_flat_allreduce_matches_message_path(p, dtype, n, op, rounds):
    main = _allreduce_loop(n, dtype, OPS[op], rounds)
    fast = _run(p, main, coll_analytic=True)
    slow = _run(p, main, coll_analytic=False)
    _assert_identical(fast, slow)
    assert fast.collectives_fast == fast.collectives_gated == rounds
    assert slow.collectives_fast == 0


def test_flat_path_resolves_power_of_two_allreduce(monkeypatch):
    """Eligible invocations never reach the generic replay."""

    def no_replay(entry):
        raise AssertionError(f"{entry.kind} went to _Replay")

    main = _allreduce_loop(16, "float64", SUM, 3)
    slow = _run(8, main, coll_analytic=False)
    monkeypatch.setattr(coll_analytic, "_Replay", no_replay)
    fast = _run(8, main, coll_analytic=True)
    _assert_identical(fast, slow)
    assert fast.collectives_fast == fast.collectives_gated == 3


def test_zero_dim_operands():
    """A 0-d combine returns a NumPy scalar, which later stages send as a
    pickled object of a different size: the flat path must decline."""

    def gmain(ctx):
        acc = np.array(1.0 + ctx.rank)
        for _ in range(4):
            ctx.compute(1e-6 * (1 + ctx.rank % 3))
            out = np.empty_like(acc)
            yield from ctx.comm.g_Allreduce(acc, out, SUM)
            acc = out * 0.5
        return float(acc)

    fast = _run(8, gmain, coll_analytic=True)
    slow = _run(8, gmain, coll_analytic=False)
    _assert_identical(fast, slow)


@dataclass
class _Scaled:
    """A user reduce op that is unhashable (a dataclass with ``eq``)."""

    k: int

    def __call__(self, a, b):
        return a + self.k * b


def test_unhashable_user_op():
    main = _allreduce_loop(16, "float64", _Scaled(3), 3)
    fast = _run(8, main, coll_analytic=True)
    slow = _run(8, main, coll_analytic=False)
    _assert_identical(fast, slow)


def _reversed_world(ctx):
    # Spans the world, numbered backwards: world rank r is sub rank p-1-r.
    return (yield from ctx.comm.g_split(0, -ctx.rank))


def test_permuted_world_communicator():
    main = _allreduce_loop(16, "float64", SUM, 3, comm_of=_reversed_world)
    fast = _run(8, main, coll_analytic=True)
    slow = _run(8, main, coll_analytic=False)
    _assert_identical(fast, slow)
    assert fast.collectives_fast == fast.collectives_gated > 0


class _SendLog(Tool):
    def __init__(self):
        self.sends = []

    def on_send(self, rank, dest, nbytes, tag, t):
        self.sends.append((rank, dest, nbytes, tag, t))


def test_send_watching_tool_sees_every_message():
    main = _allreduce_loop(16, "float64", SUM, 3)
    fast_log, slow_log = _SendLog(), _SendLog()
    fast = _run(8, main, coll_analytic=True, tools=[fast_log])
    slow = _run(8, main, coll_analytic=False, tools=[slow_log])
    _assert_identical(fast, slow)
    # 8 ranks x log2(8) stages x 3 rounds, in the same order and times.
    assert len(fast_log.sends) == 8 * 3 * 3
    assert fast_log.sends == slow_log.sends


@pytest.mark.parametrize("op", ["sum", "max"])
def test_threads_engine(op):
    main = _allreduce_loop(16, "float64", OPS[op], 3)
    fast = _run(8, main, coll_analytic=True, engine="threads")
    slow = _run(8, main, coll_analytic=False, engine="threads")
    free = _run(8, main, coll_analytic=True, engine="threadfree")
    _assert_identical(fast, slow)
    _assert_identical(fast, free)
    assert fast.collectives_fast == fast.collectives_gated == 3
