"""The convolution benchmark's size-1 input-image memo."""

import numpy as np
import pytest

from repro.machine.catalog import nehalem_cluster
from repro.simmpi.engine import run_mpi
from repro.simmpi.mio import ModeledStorage
from repro.workloads import convolution
from repro.workloads.convolution import (
    ConvolutionBenchmark,
    ConvolutionConfig,
    input_image,
)
from repro.workloads.images import make_image


@pytest.fixture
def make_image_calls(monkeypatch):
    """Count the images the benchmark synthesises, from an empty memo."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_image(*args, **kwargs)

    monkeypatch.setattr(convolution, "make_image", counting)
    input_image.cache_clear()
    yield calls
    input_image.cache_clear()


def test_memoised_image_is_read_only_and_equals_make_image(make_image_calls):
    img = input_image(12, 16, 3, 7)
    assert not img.flags.writeable
    with pytest.raises(ValueError):
        img[0, 0, 0] = 1.0
    assert np.array_equal(img, make_image(12, 16, 3, seed=7))


def test_sweep_synthesises_its_image_once(make_image_calls):
    cfg = ConvolutionConfig(height=24, width=16, steps=1)
    machine = nehalem_cluster(nodes=2, jitter=0.0)
    for p in range(1, 13):
        ConvolutionBenchmark(cfg).run(p, machine=machine, seed=p)
    assert len(make_image_calls) == 1
    assert input_image.cache_info().hits == 11


def test_second_config_evicts_the_first(make_image_calls):
    a = ConvolutionConfig.tiny(steps=1)
    b = ConvolutionConfig(height=24, width=16, steps=1, image_seed=8)
    machine = nehalem_cluster(nodes=1, jitter=0.0)
    for cfg in (a, b, a):
        ConvolutionBenchmark(cfg).run(2, machine=machine)
        assert input_image.cache_info().currsize == 1
    assert len(make_image_calls) == 3


def test_rank0_writes_leave_the_shared_image_unchanged(make_image_calls):
    shared = input_image(12, 16, 3, 7)
    before = shared.copy()
    storage = ModeledStorage()
    storage._data[ConvolutionBenchmark.INPUT_KEY] = shared

    def main(ctx):
        img = storage.read(ctx, ConvolutionBenchmark.INPUT_KEY)
        img[...] = -1.0
        return img

    res = run_mpi(1, main, machine=nehalem_cluster(nodes=1, jitter=0.0))
    assert (res.rank_result(0) == -1.0).all()
    assert np.array_equal(shared, before)
    assert input_image(12, 16, 3, 7) is shared
