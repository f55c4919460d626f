"""The convolution benchmark: correctness, sections, configuration."""

import numpy as np
import pytest

from repro.core.profile import SectionProfile
from repro.errors import ReproError
from repro.machine.catalog import nehalem_cluster
from repro.workloads.convolution import (
    SECTIONS,
    ConvolutionConfig,
    ConvolutionWorkload,
    sequential_convolution,
)
from repro.workloads.images import image_checksum, make_image


@pytest.fixture(scope="module")
def tiny_cfg():
    return ConvolutionConfig.tiny(steps=4)


@pytest.fixture(scope="module")
def reference(tiny_cfg):
    img = make_image(tiny_cfg.height, tiny_cfg.width, tiny_cfg.channels,
                     seed=tiny_cfg.image_seed)
    return sequential_convolution(img, tiny_cfg.steps)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_parallel_matches_sequential_bitwise(tiny_cfg, reference, p):
    bench = ConvolutionWorkload.from_config(tiny_cfg)
    res = bench.run(p, machine=nehalem_cluster(nodes=2, jitter=0.0), seed=1,
                    compute_jitter=0.015)
    assert image_checksum(res.rank_result(0)) == image_checksum(reference)


def test_nonroot_ranks_return_none(tiny_cfg):
    bench = ConvolutionWorkload.from_config(tiny_cfg)
    res = bench.run(3, machine=nehalem_cluster(nodes=1, jitter=0.0),
                    compute_jitter=0.015)
    assert res.rank_result(1) is None and res.rank_result(2) is None


def test_all_paper_sections_present(tiny_cfg):
    bench = ConvolutionWorkload.from_config(tiny_cfg)
    res = bench.run(2, machine=nehalem_cluster(nodes=1, jitter=0.0),
                    compute_jitter=0.015)
    prof = SectionProfile.from_run(res)
    for label in SECTIONS:
        assert label in prof.labels(), label


def test_section_counts_match_steps(tiny_cfg):
    bench = ConvolutionWorkload.from_config(tiny_cfg)
    res = bench.run(2, machine=nehalem_cluster(nodes=1, jitter=0.0),
                    compute_jitter=0.015)
    prof = SectionProfile.from_run(res)
    assert prof.count("CONVOLVE") == 2 * tiny_cfg.steps
    assert prof.count("HALO") == 2 * tiny_cfg.steps
    assert prof.count("LOAD") == 2


def test_output_stored_in_storage(tiny_cfg):
    from repro.simmpi.mio import ModeledStorage
    from repro.simmpi.engine import run_mpi

    bench = ConvolutionWorkload.from_config(tiny_cfg)
    storage = ModeledStorage()
    storage._data[bench.INPUT_KEY] = make_image(
        tiny_cfg.height, tiny_cfg.width, tiny_cfg.channels, seed=tiny_cfg.image_seed
    )
    run_mpi(2, bench.main, machine=nehalem_cluster(nodes=1, jitter=0.0),
            args=(storage,))
    assert storage.exists(bench.OUTPUT_KEY)


def test_compute_dominates_sequentially(tiny_cfg):
    bench = ConvolutionWorkload.from_config(
        ConvolutionConfig(height=64, width=96, steps=20))
    res = bench.run(1, machine=nehalem_cluster(nodes=1, jitter=0.0),
                    compute_jitter=0.015)
    prof = SectionProfile.from_run(res)
    assert prof.percent_of_execution("CONVOLVE") > 50.0


def test_speedup_with_more_ranks():
    cfg = ConvolutionConfig(height=128, width=128, steps=20)
    bench = ConvolutionWorkload.from_config(cfg)
    mach = nehalem_cluster(nodes=1, jitter=0.0)
    t1 = bench.run(1, machine=mach, compute_jitter=0.0).walltime
    t8 = bench.run(8, machine=mach, compute_jitter=0.0).walltime
    assert t8 < t1 / 2


def test_config_validation():
    with pytest.raises(ReproError):
        ConvolutionConfig(steps=0)
    with pytest.raises(ReproError):
        ConvolutionConfig(height=2)


def test_paper_size_configuration():
    cfg = ConvolutionConfig.paper_size()
    assert (cfg.height, cfg.width) == (3744, 5616)
    assert cfg.steps == 1000
    assert cfg.nbytes == 3744 * 5616 * 3 * 8


def test_sequential_reference_validates_shape():
    with pytest.raises(ReproError):
        sequential_convolution(np.zeros((4, 4)), 1)


def test_run_is_deterministic(tiny_cfg):
    bench = ConvolutionWorkload.from_config(tiny_cfg)
    mach = nehalem_cluster(nodes=1)
    r1 = bench.run(4, machine=mach, seed=9, compute_jitter=0.015)
    r2 = bench.run(4, machine=mach, seed=9, compute_jitter=0.015)
    assert r1.clocks == r2.clocks


# -- communication/computation overlap -------------------------------------------

def test_overlap_matches_sequential_bitwise(tiny_cfg, reference):
    from dataclasses import replace

    cfg = replace(tiny_cfg, overlap_halo=True)
    res = ConvolutionWorkload.from_config(cfg).run(
        4, machine=nehalem_cluster(nodes=2, jitter=0.0), seed=1,
        compute_jitter=0.015,
    )
    assert image_checksum(res.rank_result(0)) == image_checksum(reference)


def test_overlap_adds_wait_section(tiny_cfg):
    from dataclasses import replace
    from repro.core.profile import SectionProfile

    cfg = replace(tiny_cfg, overlap_halo=True)
    res = ConvolutionWorkload.from_config(cfg).run(
        3, machine=nehalem_cluster(nodes=1, jitter=0.0), compute_jitter=0.015
    )
    prof = SectionProfile.from_run(res)
    assert "HALO_WAIT" in prof.labels()
    # two CONVOLVE instances per step (interior + boundary)
    assert prof.count("CONVOLVE") == 2 * 3 * tiny_cfg.steps


def test_overlap_hides_communication_time():
    """With enough interior work per step, the overlapped variant's
    walltime beats the blocking one (the wire time hides behind the
    interior filter)."""
    from dataclasses import replace

    base = ConvolutionConfig(height=192, width=512, steps=40)
    mach = nehalem_cluster(nodes=2, jitter=0.0)
    t_block = ConvolutionWorkload.from_config(base).run(
        16, machine=mach, compute_jitter=0.0
    ).walltime
    t_overlap = ConvolutionWorkload.from_config(
        replace(base, overlap_halo=True)).run(
        16, machine=mach, compute_jitter=0.0
    ).walltime
    assert t_overlap < t_block


def test_overlap_falls_back_when_slabs_too_thin():
    """With fewer than 3 rows per rank the uniform decision must fall
    back to the blocking path on every rank (no HALO_WAIT sections)."""
    from dataclasses import replace
    from repro.core.profile import SectionProfile

    cfg = replace(ConvolutionConfig.tiny(steps=2), overlap_halo=True)
    # 48 rows over 20 ranks → min rows = 2 < 3
    res = ConvolutionWorkload.from_config(cfg).run(
        20, machine=nehalem_cluster(nodes=3, jitter=0.0), compute_jitter=0.015
    )
    prof = SectionProfile.from_run(res)
    assert "HALO_WAIT" not in prof.labels()
