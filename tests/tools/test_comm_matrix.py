"""Per-section communication matrix tool."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.machine.catalog import nehalem_cluster
from repro.simmpi.sections_rt import section
from repro.tools.comm_matrix import CommMatrixTool, _human
from repro.workloads.convolution import ConvolutionConfig, ConvolutionWorkload

from tests.conftest import mpi


def _app(ctx):
    comm = ctx.comm
    with section(ctx, "ringshift"):
        comm.sendrecv(b"x" * 100, dest=(comm.rank + 1) % comm.size,
                      source=(comm.rank - 1) % comm.size)
    with section(ctx, "funnel"):
        if comm.rank != 0:
            comm.send(b"y" * 50, dest=0)
        else:
            for _ in range(comm.size - 1):
                comm.recv()


@pytest.fixture(scope="module")
def matrix_tool():
    tool = CommMatrixTool()
    mpi(4, _app, tools=[tool])
    return tool


def test_labels_sorted_by_bytes(matrix_tool):
    labels = matrix_tool.labels()
    assert labels[0] == "ringshift"  # 4 x 100 B > 3 x 50 B
    assert set(labels) == {"ringshift", "funnel"}


def test_matrix_structure_ring(matrix_tool):
    mat = matrix_tool.matrix("ringshift")
    for src in range(4):
        assert mat[src, (src + 1) % 4] == 100
    assert mat.sum() == 400


def test_matrix_structure_funnel(matrix_tool):
    mat = matrix_tool.matrix("funnel")
    assert mat[:, 0].sum() == 150
    assert mat[0].sum() == 0  # root sends nothing


def test_hotspot(matrix_tool):
    src, dst, nbytes = matrix_tool.hotspot("ringshift")
    assert nbytes == 100 and dst == (src + 1) % 4


def test_section_totals(matrix_tool):
    totals = {r["section"]: r for r in matrix_tool.section_totals()}
    assert totals["ringshift"]["messages"] == 4
    assert totals["funnel"]["messages"] == 3
    assert totals["funnel"]["bytes"] == 150


def test_unknown_label_raises(matrix_tool):
    with pytest.raises(AnalysisError):
        matrix_tool.matrix("nope")


def test_render_contains_counts(matrix_tool):
    text = matrix_tool.render("ringshift")
    assert "[ringshift] bytes sent" in text
    assert "100" in text


def test_human_formatting():
    assert _human(0) == "0"
    assert _human(999) == "999"
    assert _human(12_000) == "12K"
    assert _human(3_400_000) == "3.4M"
    assert _human(2 * 10**9) == "2.0G"


def test_on_recv_hook_dispatched():
    from repro.simmpi.pmpi import Tool

    class RecvSpy(Tool):
        def __init__(self):
            self.recvs = []

        def on_recv(self, rank, source, nbytes, tag, t):
            self.recvs.append((rank, source, nbytes))

    spy = RecvSpy()

    def main(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"z" * 64, dest=1, tag=2)
        else:
            ctx.comm.recv(source=0, tag=2)

    mpi(2, main, tools=[spy])
    assert spy.recvs == [(1, 0, 64)]


def test_convolution_traffic_attribution():
    """On the real benchmark, HALO traffic is neighbour-to-neighbour and
    SCATTER/GATHER traffic is rooted at rank 0."""
    tool = CommMatrixTool()
    bench = ConvolutionWorkload.from_config(ConvolutionConfig.tiny(steps=3))
    bench.run(4, machine=nehalem_cluster(nodes=1, jitter=0.0),
              compute_jitter=0.015, tools=[tool])

    halo = tool.matrix("HALO")
    assert halo[1, 2] > 0 and halo[2, 1] > 0
    assert halo[0, 3] == 0 and halo[3, 0] == 0  # no wraparound in 1-D split

    scatter = tool.matrix("SCATTER")
    assert scatter[0].sum() > 0
    assert scatter[1:, :].sum() == 0  # only the root scatters

    gather = tool.matrix("GATHER")
    assert gather[:, 0].sum() > 0
