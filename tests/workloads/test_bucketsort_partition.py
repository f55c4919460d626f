"""bucketsort's PARTITION: one stable sort gives the per-bucket masks' bytes.

The buckets are alltoall payloads, so their message sizes and the run's
digests depend on every bucket keeping its keys in their original order
and dtype; each bucket is compared byte for byte with the mask formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.zoo.bucketsort import _KEY_RANGE, _draw_keys, _partition


def mask_buckets(keys, bounds):
    return [keys[(keys >= bounds[r]) & (keys < bounds[r + 1])]
            for r in range(len(bounds) - 1)]


def assert_same_buckets(got, want):
    assert len(got) == len(want)
    for r, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.shape == w.shape, r
        assert g.tobytes() == w.tobytes(), r


def bounds_of(p, key_range):
    return [(r * key_range) // p for r in range(p + 1)]


@st.composite
def partitions(draw):
    """Keys and bounds; a key range below p repeats bounds (empty buckets)."""
    p = draw(st.integers(1, 300))
    key_range = draw(st.one_of(st.just(_KEY_RANGE), st.integers(1, 400)))
    bounds = bounds_of(p, key_range)
    on_bounds = bounds[:-1] + [b - 1 for b in bounds[1:] if b > 0]
    key = st.one_of(st.integers(0, key_range - 1), st.sampled_from(on_bounds))
    keys = draw(st.lists(key, max_size=600))
    return np.array(keys, dtype=np.int64), bounds


@settings(max_examples=300, deadline=None)
@given(case=partitions())
def test_partition_matches_masks(case):
    keys, bounds = case
    assert_same_buckets(_partition(keys, bounds), mask_buckets(keys, bounds))


@pytest.mark.parametrize("n_local", [0, 1, 512])
@pytest.mark.parametrize("p", [1, 2, 16, 256, 300])
def test_partition_matches_masks_on_workload_keys(p, n_local):
    bounds = bounds_of(p, _KEY_RANGE)
    for rank in (0, p - 1):
        keys = _draw_keys(11, rank, n_local)
        assert_same_buckets(_partition(keys, bounds),
                            mask_buckets(keys, bounds))
