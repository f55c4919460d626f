"""MPI_Section runtime semantics (Figures 1/2 of the paper)."""

import pytest

from repro.errors import (
    RankFailedError,
    SectionMismatchError,
    SectionNestingError,
    SectionStateError,
)
from repro.simmpi.sections_rt import (
    MAIN_LABEL,
    section,
    section_enter,
    section_exit,
)

from tests.conftest import mpi


def _events_of(res, rank=None, kind=None):
    evs = res.section_events
    if rank is not None:
        evs = [e for e in evs if e.rank == rank]
    if kind is not None:
        evs = [e for e in evs if e.kind == kind]
    return evs


def test_main_section_wraps_execution():
    res = mpi(2, lambda ctx: ctx.compute(0.5))
    for rank in range(2):
        evs = _events_of(res, rank)
        assert evs[0].label == MAIN_LABEL and evs[0].kind == "enter"
        assert evs[-1].label == MAIN_LABEL and evs[-1].kind == "exit"
        assert evs[0].time == 0.0
        assert evs[-1].time == pytest.approx(0.5)


def test_enter_exit_records_paths():
    def main(ctx):
        section_enter(ctx, "outer")
        section_enter(ctx, "inner")
        section_exit(ctx, "inner")
        section_exit(ctx, "outer")

    res = mpi(1, main)
    inner = [e for e in res.section_events if e.label == "inner"]
    assert inner[0].path == (MAIN_LABEL, "outer", "inner")


def test_context_manager_pairs_on_exception():
    def main(ctx):
        try:
            with section(ctx, "risky"):
                raise KeyError("oops")
        except KeyError:
            pass
        return "survived"

    res = mpi(1, main)
    assert res.results[0] == "survived"
    kinds = [(e.label, e.kind) for e in res.section_events if e.label == "risky"]
    assert kinds == [("risky", "enter"), ("risky", "exit")]


def test_mismatched_exit_label_raises():
    def main(ctx):
        section_enter(ctx, "a")
        section_exit(ctx, "b")

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, SectionNestingError)


def test_exit_without_enter_raises():
    def main(ctx):
        section_exit(ctx, MAIN_LABEL)  # pops MAIN illegally... then a 2nd
        section_exit(ctx, "ghost")

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, SectionNestingError)


def test_leaked_open_section_raises_at_finalize():
    def main(ctx):
        section_enter(ctx, "never-closed")

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, SectionNestingError)


@pytest.mark.parametrize("engine", ["threadfree", "threads"])
def test_leaked_section_on_dup_communicator_names_it(engine):
    # MPI_MAIN closes cleanly here, so only the per-rank leak scan over
    # the other communicators' stacks can catch the open section.
    cids = set()

    def main(ctx):
        dup = ctx.comm.dup()
        cids.add(dup.cid)
        section_enter(ctx, "left-open", comm=dup)
        return
        yield  # a generator main, so it runs under either engine

    with pytest.raises(RankFailedError) as ei:
        mpi(4, main, engine=engine)
    err = ei.value.original
    assert isinstance(err, SectionNestingError)
    (cid,) = cids
    assert f"leaked open sections ['left-open'] on communicator {cid}" in str(err)


def test_non_collective_sections_detected_at_finalize():
    def main(ctx):
        if ctx.rank == 0:
            with section(ctx, "only-on-zero"):
                pass

    with pytest.raises(SectionMismatchError):
        mpi(2, main)


def test_different_order_detected():
    def main(ctx):
        labels = ["x", "y"] if ctx.rank == 0 else ["y", "x"]
        for lab in labels:
            with section(ctx, lab):
                pass

    with pytest.raises(SectionMismatchError):
        mpi(2, main)


def test_validation_can_be_disabled():
    def main(ctx):
        if ctx.rank == 0:
            with section(ctx, "solo"):
                pass

    res = mpi(2, main, validate_sections=False)
    assert any(e.label == "solo" for e in res.section_events)


def test_empty_label_rejected():
    def main(ctx):
        section_enter(ctx, "")

    with pytest.raises(RankFailedError) as ei:
        mpi(1, main)
    assert isinstance(ei.value.original, SectionStateError)


def test_sections_on_subcommunicator():
    def main(ctx):
        sub = ctx.comm.split(color=ctx.rank % 2)
        with section(ctx, "sub-phase", comm=sub):
            ctx.compute(0.001)

    res = mpi(4, main)
    evs = [e for e in res.section_events if e.label == "sub-phase"]
    assert len(evs) == 8  # enter+exit on each of 4 ranks
    comm_ids = {e.comm_id for e in evs}
    assert len(comm_ids) == 2  # two distinct split communicators


def test_repeated_instances_counted_separately():
    def main(ctx):
        for _ in range(3):
            with section(ctx, "loop"):
                ctx.compute(0.001)

    res = mpi(2, main)
    enters = [e for e in res.section_events if e.label == "loop" and e.kind == "enter"]
    assert len(enters) == 6


def test_timestamps_monotone_per_rank():
    def main(ctx):
        with section(ctx, "a"):
            ctx.compute(0.01)
        with section(ctx, "b"):
            ctx.compute(0.02)

    res = mpi(1, main)
    times = [e.time for e in res.section_events]
    assert times == sorted(times)


def test_data_blob_preserved_between_enter_and_leave():
    from repro.simmpi.pmpi import Tool

    class BlobTool(Tool):
        def __init__(self):
            self.checks = []

        def section_enter_cb(self, comm_id, label, data, rank, t):
            data[0:4] = b"MARK"

        def section_leave_cb(self, comm_id, label, data, rank, t):
            self.checks.append(bytes(data[0:4]))

    tool = BlobTool()
    mpi(2, lambda ctx: None, tools=[tool])
    assert tool.checks and all(c == b"MARK" for c in tool.checks)


def test_data_blob_is_32_bytes():
    from repro.simmpi.api import MAX_SECTION_DATA
    from repro.simmpi.pmpi import Tool

    sizes = []

    class SizeTool(Tool):
        def section_enter_cb(self, comm_id, label, data, rank, t):
            sizes.append(len(data))

    mpi(1, lambda ctx: None, tools=[SizeTool()])
    assert sizes == [MAX_SECTION_DATA] and sizes[0] == 32


def test_nested_blobs_are_independent():
    from repro.simmpi.pmpi import Tool

    seen = []

    class NestTool(Tool):
        def section_enter_cb(self, comm_id, label, data, rank, t):
            data[0:1] = label[:1].encode()

        def section_leave_cb(self, comm_id, label, data, rank, t):
            seen.append((label, bytes(data[0:1])))

    def main(ctx):
        with section(ctx, "a"):
            with section(ctx, "b"):
                pass

    mpi(1, main, tools=[NestTool()])
    assert ("b", b"b") in seen and ("a", b"a") in seen
