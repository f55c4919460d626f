"""Communicator semantics: groups, dup, split, isolation, validation."""

import pytest

from repro.errors import InvalidCommunicatorError, InvalidRankError, RankFailedError
from repro.simmpi.api import UNDEFINED
from repro.simmpi.comm import Group

from tests.conftest import mpi


def test_world_shape():
    def main(ctx):
        return (ctx.comm.rank, ctx.comm.size, ctx.comm.group)

    res = mpi(4, main)
    for r, (rank, size, group) in enumerate(res.results):
        assert rank == r and size == 4 and group == (0, 1, 2, 3)


@pytest.mark.parametrize("engine", ["threads", "threadfree"])
def test_world_communicators_share_one_group(engine):
    """The world group is built once per run, not once per rank."""

    def main(ctx):
        return ctx.comm._group
        yield  # a generator main, so it runs on either engine

    groups = mpi(8, main, engine=engine).results
    assert groups[0].ranks == tuple(range(8))
    assert all(g is groups[0] for g in groups)


def test_group_rejects_duplicates():
    with pytest.raises(InvalidRankError):
        Group([0, 1, 1])


def test_group_rank_of():
    g = Group([3, 1, 5])
    assert g.rank_of(1) == 1
    assert g.rank_of(5) == 2
    assert g.rank_of(0) == UNDEFINED


def test_dup_isolates_traffic():
    """A message sent on the dup cannot be received on the parent."""

    def main(ctx):
        comm = ctx.comm
        dup = comm.dup()
        if ctx.rank == 0:
            dup.send("on-dup", dest=1, tag=0)
            comm.send("on-world", dest=1, tag=0)
        else:
            world_msg = comm.recv(source=0, tag=0)
            dup_msg = dup.recv(source=0, tag=0)
            return (world_msg, dup_msg)

    res = mpi(2, main)
    assert res.results[1] == ("on-world", "on-dup")


def test_dup_ids_agree_across_ranks():
    def main(ctx):
        return ctx.comm.dup().cid

    res = mpi(3, main)
    assert res.results[0] == res.results[1] == res.results[2]


def test_split_even_odd():
    def main(ctx):
        comm = ctx.comm
        sub = comm.split(color=ctx.rank % 2, key=0)
        return (sub.rank, sub.size, sub.group)

    res = mpi(6, main)
    evens = res.results[0]
    assert evens[1] == 3 and evens[2] == (0, 2, 4)
    odds = res.results[1]
    assert odds[1] == 3 and odds[2] == (1, 3, 5)
    # rank within subgroup follows old-rank order
    assert res.results[4][0] == 2


def test_split_key_reorders():
    def main(ctx):
        sub = ctx.comm.split(color=0, key=-ctx.rank)  # reverse order
        return sub.rank

    res = mpi(4, main)
    assert res.results == [3, 2, 1, 0]


def test_split_undefined_returns_none():
    def main(ctx):
        color = 0 if ctx.rank < 2 else UNDEFINED
        sub = ctx.comm.split(color=color)
        return None if sub is None else sub.size

    res = mpi(4, main)
    assert res.results == [2, 2, None, None]


def test_split_subcommunicator_collectives_work():
    def main(ctx):
        sub = ctx.comm.split(color=ctx.rank % 2)
        return sub.allreduce(ctx.rank)

    res = mpi(6, main)
    assert res.results == [6, 9, 6, 9, 6, 9]  # 0+2+4 and 1+3+5


def test_nested_split_of_split():
    def main(ctx):
        half = ctx.comm.split(color=ctx.rank // 4)
        quarter = half.split(color=half.rank // 2)
        return (quarter.size, quarter.group)

    res = mpi(8, main)
    assert res.results[0] == (2, (0, 1))
    assert res.results[7] == (2, (6, 7))


def test_freed_communicator_unusable():
    def main(ctx):
        dup = ctx.comm.dup()
        dup.free()
        dup.send(1, dest=0)

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, InvalidCommunicatorError)


def test_comm_rank_translation_in_status():
    """Status.source is communicator-relative, not world-relative."""
    from repro.simmpi.request import Status

    def main(ctx):
        sub = ctx.comm.split(color=0, key=-ctx.rank)  # reversed ranks
        if sub.rank == 0:  # world rank 2
            sub.send("hello", dest=2, tag=1)
        elif sub.rank == 2:  # world rank 0
            st = Status()
            sub.recv(source=0, tag=1, status=st)
            return st.source

    res = mpi(3, main)
    assert res.results[0] == 0  # sub-rank of the sender, not world rank 2


def test_collectives_on_dup_do_not_cross():
    def main(ctx):
        a = ctx.comm.dup()
        b = ctx.comm.dup()
        x = a.allreduce(1)
        y = b.allreduce(2)
        return (x, y)

    res = mpi(4, main)
    assert all(r == (4, 8) for r in res.results)
