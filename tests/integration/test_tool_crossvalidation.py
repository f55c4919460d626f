"""Cross-validation: three independent observation paths agree.

The engine's raw event stream, the blob-based online profiler, and the
trace tool's coarse view are three different consumers of the same
Figure 2 callback contract; on any workload they must reconstruct the
same totals.
"""

import pytest

from repro.core.profile import SectionProfile
from repro.core.sections import build_instances
from repro.machine.catalog import nehalem_cluster
from repro.tools import SectionProfilerTool, TraceTool
from repro.workloads.convolution import ConvolutionConfig, ConvolutionWorkload

from tests.conftest import mpi


@pytest.fixture(scope="module")
def observed():
    profiler = SectionProfilerTool()
    tracer = TraceTool()
    bench = ConvolutionWorkload.from_config(ConvolutionConfig.tiny(steps=3))
    res = bench.run(
        4,
        machine=nehalem_cluster(nodes=1, jitter=0.02),
        seed=11,
        compute_jitter=0.015,
        tools=[profiler, tracer],
    )
    return res, profiler, tracer


def test_profiler_equals_event_stream_totals(observed):
    res, profiler, _ = observed
    prof = SectionProfile.from_run(res)
    for label in prof.labels():
        assert profiler.total(label) == pytest.approx(
            prof.total(label), rel=1e-12
        ), label


def test_trace_instances_equal_event_stream_instances(observed):
    res, _, tracer = observed
    from_stream = build_instances(res.section_events)
    from_trace = tracer.coarse_view()
    key = lambda i: (i.label, i.occurrence)  # noqa: E731
    stream_map = {key(s.timing): s.timing for s in from_stream}
    assert len(from_trace) == len(from_stream)
    for inst in from_trace:
        ref = stream_map[key(inst)]
        assert inst.t_in == ref.t_in
        assert inst.t_out == ref.t_out


def test_walltime_equals_main_section_span(observed):
    res, _, tracer = observed
    main_inst = [i for i in tracer.coarse_view() if i.label == "MPI_MAIN"]
    assert len(main_inst) == 1
    assert main_inst[0].tmax == pytest.approx(res.walltime)
    assert main_inst[0].tmin == 0.0


def test_run_with_tools_matches_run_without():
    """Observation is free: attaching tools must not change virtual time."""
    bench = ConvolutionWorkload.from_config(ConvolutionConfig.tiny(steps=3))
    mach = nehalem_cluster(nodes=1)
    bare = bench.run(2, machine=mach, seed=5, compute_jitter=0.015)
    tooled = bench.run(2, machine=mach, seed=5, compute_jitter=0.015,
                       tools=[SectionProfilerTool(), TraceTool()])
    assert bare.clocks == tooled.clocks
