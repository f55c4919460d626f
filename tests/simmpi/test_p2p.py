"""Point-to-point semantics: matching, ordering, protocols, wildcards."""

import numpy as np
import pytest

from repro.errors import (
    InvalidRankError,
    InvalidTagError,
    RequestError,
    TruncationError,
)
from repro.machine.spec import CoreSpec, MachineSpec, NetworkTier, NodeSpec
from repro.simmpi.api import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.simmpi.request import Status, waitall
from repro.simmpi.sched import g_wait, g_waitall

from tests.conftest import mpi


def test_object_send_recv_roundtrip():
    payload = {"a": [1, 2, 3], "b": ("x", 4.5)}

    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.send(payload, dest=1, tag=9)
        else:
            return ctx.comm.recv(source=0, tag=9)

    res = mpi(2, main)
    assert res.results[1] == payload


def test_buffer_send_recv_roundtrip():
    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.Send(np.arange(50, dtype=np.int64), dest=1)
        else:
            buf = np.zeros(50, dtype=np.int64)
            ctx.comm.Recv(buf, source=0)
            return buf.copy()

    res = mpi(2, main)
    assert np.array_equal(res.results[1], np.arange(50))


def test_send_snapshots_payload_against_later_mutation():
    def main(ctx):
        if ctx.rank == 0:
            arr = np.ones(10)
            req = ctx.comm.Isend(arr, dest=1)
            arr[:] = -1  # mutate after post; receiver must see ones
            req.wait()
        else:
            buf = np.zeros(10)
            ctx.comm.Recv(buf, source=0)
            return buf.copy()

    res = mpi(2, main)
    assert np.array_equal(res.results[1], np.ones(10))


#: Snapshot cases: how the payload leaves the sender's Isend call.
#: ``queued`` — no receive is posted yet; ``probe`` — a blocking probe
#: posted earlier sees it; ``irecv`` — an object-mode receive posted
#: earlier takes it; ``Irecv`` — a buffer receive posted earlier
#: consumes it inline.
SNAPSHOT_CASES = ("queued", "probe", "irecv", "Irecv")
#: Threads oracle, and the thread-free engine with macro-step on.
SNAPSHOT_ENGINES = {
    "threads": {"engine": "threads"},
    "macrostep": {"engine": "threadfree", "macrostep": True},
}
_SNAPSHOT_ROUNDS = 6


def _snapshot_main(case):
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            arr = np.zeros(10)
            for r in range(_SNAPSHOT_ROUNDS):
                if case != "queued":
                    # Wait until the receiver has posted.
                    yield from comm.g_recv(source=1, tag=9)
                arr[:] = r
                req = comm.Isend(arr, dest=1, tag=3)
                arr[:] = -1  # mutate right after the post
                yield from g_wait(req)
            return None
        got = []
        for _ in range(_SNAPSHOT_ROUNDS):
            buf = np.zeros(10)
            if case == "queued":
                yield from comm.g_Recv(buf, source=0, tag=3)
                got.append(buf.copy())
                continue
            # Rank 0 cannot run before this rank blocks in the post below.
            comm.isend(None, dest=0, tag=9)
            if case == "probe":
                st = yield from comm.g_probe(source=0, tag=3)
                assert st.count == 10
                yield from comm.g_Recv(buf, source=0, tag=3)
            elif case == "irecv":
                buf = yield from g_wait(comm.irecv(source=0, tag=3))
            else:
                yield from g_wait(comm.Irecv(buf, source=0, tag=3))
            got.append(buf.copy())
        return got

    return main


@pytest.mark.parametrize("engine", sorted(SNAPSHOT_ENGINES))
@pytest.mark.parametrize("case", SNAPSHOT_CASES)
def test_send_snapshot_holds_on_every_escape_path(case, engine):
    """The sender mutates its buffer right after Isend returns, whichever
    way the payload leaves the call."""
    res = mpi(2, _snapshot_main(case), **SNAPSHOT_ENGINES[engine])
    for r, got in enumerate(res.results[1]):
        assert np.array_equal(got, np.full(10, float(r)))
    if engine == "macrostep":
        # The sender's steady Isend loop is replayed, so the lean path
        # is what posts most rounds.
        assert res.rounds_replayed > 0
    oracle = mpi(2, _snapshot_main(case), engine="threads")
    assert res.clocks == oracle.clocks


def test_fifo_order_same_source_same_tag():
    def main(ctx):
        if ctx.rank == 0:
            for i in range(10):
                ctx.comm.send(i, dest=1, tag=4)
        else:
            return [ctx.comm.recv(source=0, tag=4) for _ in range(10)]

    res = mpi(2, main)
    assert res.results[1] == list(range(10))


# -- matching order ----------------------------------------------------------

_LAT = 1e-5
_BW = 1e8
_EAGER_ELEMS = 8        # 64 B: eager
_RNDV_ELEMS = 4096      # 32 KiB: above the 16 KiB eager threshold

#: What each sender posts to rank 0, in post order: (tag, elements).
#: Tags repeat within a source and eager and rendezvous sizes alternate,
#: so a rule other than "oldest matching message" picks differently.
_SENDS = {
    1: [(1, _EAGER_ELEMS), (2, _RNDV_ELEMS), (1, _RNDV_ELEMS),
        (2, _EAGER_ELEMS), (1, _EAGER_ELEMS), (3, _RNDV_ELEMS)],
    2: [(2, _RNDV_ELEMS), (1, _EAGER_ELEMS), (2, _EAGER_ELEMS),
        (1, _RNDV_ELEMS), (3, _EAGER_ELEMS)],
    3: [(1, _EAGER_ELEMS), (1, _RNDV_ELEMS), (2, _EAGER_ELEMS),
        (2, _RNDV_ELEMS)],
}
#: Rank 0's specific-source receives, interleaving sources, tags and
#: ANY_TAG; together they drain every message above.
_RECVS = [
    (1, 1), (2, ANY_TAG), (3, 2), (1, 2), (2, 1), (1, ANY_TAG), (3, ANY_TAG),
    (2, 2), (1, 3), (3, 1), (2, ANY_TAG), (1, ANY_TAG), (3, ANY_TAG),
    (2, ANY_TAG), (1, ANY_TAG),
]
#: Engines the matching tests compare.
_MATCH_ENGINES = {
    "threads": {"engine": "threads"},
    "threadfree": {"engine": "threadfree", "macrostep": False},
    "macrostep": {"engine": "threadfree", "macrostep": True},
}


def _flat_machine(cores=4, nodes=1):
    node = NodeSpec(
        sockets=1, cores_per_socket=cores,
        core=CoreSpec(flops=1e9, hw_threads=1, ht_efficiency=0.0),
        mem_bandwidth=1e12,
    )
    tier = NetworkTier(latency=_LAT, bandwidth=_BW, jitter=0.0)
    return MachineSpec(name="flat", nodes=nodes, node=node,
                       intra_node=tier, inter_node=tier)


def _send_queues_in_post_order(ctx):
    """Every send queue of the fabric is in strictly increasing seq order."""
    return all(
        all(a.seq < b.seq for a, b in zip(envs, envs[1:]))
        for envs in ctx.engine.fabric._sends.values()
    )


def _oldest_match_main(ctx):
    comm = ctx.comm
    if ctx.rank != 0:
        reqs = [
            comm.isend(np.full(n, 100.0 * ctx.rank + k), dest=0, tag=tag)
            for k, (tag, n) in enumerate(_SENDS[ctx.rank])
        ]
        # Every message is queued before rank 0 leaves the barrier.
        yield from comm.g_barrier()
        yield from g_waitall(reqs)
        return None
    yield from comm.g_barrier()
    ordered = _send_queues_in_post_order(ctx)
    got = []
    for source, tag in _RECVS:
        st = Status()
        data = yield from comm.g_recv(source=source, tag=tag, status=st)
        ordered = ordered and _send_queues_in_post_order(ctx)
        got.append((st.source, st.tag, int(data[0]) % 100))
    return got, ordered


def _expected_oldest_matches():
    pending = {src: list(enumerate(posts)) for src, posts in _SENDS.items()}
    out = []
    for source, tag in _RECVS:
        queue = pending[source]
        i = next(i for i, (_, (t, _)) in enumerate(queue)
                 if tag == ANY_TAG or t == tag)
        k, (t, _) = queue.pop(i)
        out.append((source, t, k))
    return out


@pytest.mark.parametrize("engine", sorted(_MATCH_ENGINES))
def test_specific_source_receive_takes_oldest_match(engine):
    res = mpi(4, _oldest_match_main, machine=_flat_machine(),
              **_MATCH_ENGINES[engine])
    got, ordered = res.results[0]
    assert got == _expected_oldest_matches()
    assert ordered
    oracle = mpi(4, _oldest_match_main, machine=_flat_machine(),
                 engine="threads")
    assert res.results == oracle.results
    assert res.clocks == oracle.clocks


def _any_source_tie_main(ctx):
    """Four messages reach rank 0 at one instant: rank 3's 8000-byte
    eager message holds rank 0's inbound port, and the zero-byte
    messages posted behind it (rank 2's, then rank 1's two) all finish
    streaming in when it does."""
    comm = ctx.comm
    empty = np.zeros(0)
    if ctx.rank == 0:
        # Posted first, so it cannot see the messages below; it returns
        # once all of them are queued.
        yield from comm.g_recv(source=1, tag=99)
        got = []
        for _ in range(4):
            st = Status()
            yield from comm.g_recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
            got.append((st.source, st.tag))
        return got
    if ctx.rank == 3:
        comm.send("go", dest=2)
        comm.Isend(np.zeros(1000), dest=0, tag=30)
        return None
    # A relay fixes the post order: rank 3, then rank 2, then rank 1.
    yield from comm.g_recv(source=ctx.rank + 1)
    if ctx.rank == 2:
        comm.Isend(empty, dest=0, tag=20)
        comm.send("go", dest=1)
    else:
        comm.Isend(empty, dest=0, tag=10)
        comm.Isend(empty, dest=0, tag=11)
        comm.send(None, dest=0, tag=99)
    return None


@pytest.mark.parametrize("engine", sorted(_MATCH_ENGINES))
def test_any_source_tie_goes_to_lowest_source_then_post_order(engine):
    res = mpi(4, _any_source_tie_main, machine=_flat_machine(),
              **_MATCH_ENGINES[engine])
    # Equal arrivals: the lowest source wins although rank 3 and rank 2
    # posted first; rank 1's two messages keep their post order.
    assert res.results[0] == [(1, 10), (1, 11), (2, 20), (3, 30)]
    oracle = mpi(4, _any_source_tie_main, machine=_flat_machine(),
                 engine="threads")
    assert res.clocks == oracle.clocks


def test_tag_selectivity_out_of_order_retrieval():
    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.send("first", dest=1, tag=1)
            ctx.comm.send("second", dest=1, tag=2)
        else:
            b = ctx.comm.recv(source=0, tag=2)
            a = ctx.comm.recv(source=0, tag=1)
            return (a, b)

    res = mpi(2, main)
    assert res.results[1] == ("first", "second")


def test_any_source_receives_from_both():
    def main(ctx):
        if ctx.rank == 0:
            got = {ctx.comm.recv(source=ANY_SOURCE) for _ in range(2)}
            return got
        ctx.comm.send(ctx.rank, dest=0)

    res = mpi(3, main)
    assert res.results[0] == {1, 2}


def test_any_tag_matches_first_posted():
    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.send("a", dest=1, tag=17)
        else:
            st = Status()
            val = ctx.comm.recv(source=0, tag=ANY_TAG, status=st)
            return (val, st.tag, st.source)

    res = mpi(2, main)
    assert res.results[1] == ("a", 17, 0)


def test_status_reports_count_for_buffers():
    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.Send(np.arange(7, dtype=np.float64), dest=1)
        else:
            buf = np.zeros(10)
            st = Status()
            ctx.comm.Recv(buf, source=0, status=st)
            return st.count

    res = mpi(2, main)
    assert res.results[1] == 7


def test_truncation_error_kills_run():
    from repro.errors import RankFailedError

    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.Send(np.zeros(100), dest=1)
        else:
            ctx.comm.Recv(np.zeros(10), source=0)

    with pytest.raises(RankFailedError) as ei:
        mpi(2, main)
    assert isinstance(ei.value.original, TruncationError)


def test_proc_null_send_recv_complete_immediately():
    def main(ctx):
        ctx.comm.send("ignored", dest=PROC_NULL)
        st = Status()
        data = ctx.comm.recv(source=PROC_NULL, status=st)
        return (data, st.count, ctx.now)

    res = mpi(1, main)
    data, count, now = res.results[0]
    assert data is None and count == 0 and now == 0.0


def test_isend_irecv_waitall():
    def main(ctx):
        comm = ctx.comm
        peer = 1 - ctx.rank
        reqs = [comm.isend(f"m{i}", dest=peer, tag=i) for i in range(3)]
        rec = [comm.irecv(source=peer, tag=i) for i in range(3)]
        got = waitall(rec)
        waitall(reqs)
        return got

    res = mpi(2, main)
    assert res.results[0] == ["m0", "m1", "m2"]


def test_request_double_wait_rejected():
    from repro.errors import RankFailedError

    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(1, dest=1)
            req.wait()
            req.wait()
        else:
            ctx.comm.recv(source=0)

    with pytest.raises(RankFailedError) as ei:
        mpi(2, main)
    assert isinstance(ei.value.original, RequestError)


def test_request_test_is_nonblocking():
    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1)
            early = req.test()
            ctx.comm.send("go", dest=1)
            val = req.wait()
            return (early, val)
        else:
            ctx.comm.recv(source=0)
            ctx.comm.send("late", dest=0)

    res = mpi(2, main)
    assert res.results[0] == (False, "late")


def test_invalid_dest_rank_raises():
    from repro.errors import RankFailedError

    def main(ctx):
        ctx.comm.send(1, dest=5)

    with pytest.raises(RankFailedError) as ei:
        mpi(2, main)
    assert isinstance(ei.value.original, InvalidRankError)


def test_any_tag_invalid_on_send():
    from repro.errors import RankFailedError

    def main(ctx):
        ctx.comm.send(1, dest=0, tag=ANY_TAG)

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, InvalidTagError)


def test_negative_tag_rejected():
    from repro.errors import RankFailedError

    def main(ctx):
        ctx.comm.send(1, dest=0, tag=-3)

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, InvalidTagError)


def test_sendrecv_ring_shifts_data():
    def main(ctx):
        comm = ctx.comm
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(comm.rank, dest=right, source=left)

    res = mpi(5, main)
    assert res.results == [4, 0, 1, 2, 3]


def test_buffer_sendrecv_exchanges_pairwise():
    def main(ctx):
        comm = ctx.comm
        peer = 1 - comm.rank
        send = np.full(4, comm.rank, dtype=np.float64)
        recv = np.zeros(4)
        comm.Sendrecv(send, peer, recv, peer)
        return recv[0]

    res = mpi(2, main)
    assert res.results == [1.0, 0.0]


def test_rendezvous_sender_waits_for_receiver():
    """A rendezvous-size blocking send completes only after the receiver
    posts, so the sender's clock includes the receiver's delay."""

    def main(ctx):
        big = np.zeros(500_000)  # 4 MB >> eager threshold
        if ctx.rank == 0:
            ctx.comm.Send(big, dest=1)
            return ctx.now
        ctx.compute(2.0)  # receiver arrives late
        buf = np.empty_like(big)
        ctx.comm.Recv(buf, source=0)
        return ctx.now

    res = mpi(2, main)
    assert res.results[0] >= 2.0  # sender was held by the late receiver


def test_eager_sender_does_not_wait_for_receiver():
    def main(ctx):
        small = np.zeros(16)  # well under the eager threshold
        if ctx.rank == 0:
            ctx.comm.Send(small, dest=1)
            return ctx.now
        ctx.compute(2.0)
        buf = np.empty_like(small)
        ctx.comm.Recv(buf, source=0)
        return ctx.now

    res = mpi(2, main)
    assert res.results[0] < 0.1  # sender long gone before the receive


def test_recv_completion_includes_wire_time():
    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"x" * 1000, dest=1)
        else:
            ctx.comm.recv(source=0)
            return ctx.now

    res = mpi(2, main)
    assert res.results[1] > 0.0


def test_dtype_mismatch_rejected():
    from repro.errors import DatatypeError, RankFailedError

    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.Send(np.zeros(4, dtype=np.float64), dest=1)
        else:
            ctx.comm.Recv(np.zeros(4, dtype=np.int32), source=0)

    with pytest.raises(RankFailedError) as ei:
        mpi(2, main)
    assert isinstance(ei.value.original, DatatypeError)
