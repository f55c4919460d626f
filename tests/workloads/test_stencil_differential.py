"""The pad-free mean filter against the padded formula it replaced.

The oracle below is the original kernel: it copies the slab into a
zero-padded array and adds the nine shifted views in a fixed order.  The
production kernel skips the zero-pad terms and works in row blocks; both
must agree byte for byte, including on -0.0, infinities and subnormals,
and at every block boundary.  NaN results must match in position only:
which operand's NaN an add of two NaNs returns is left open by IEEE 754,
and NumPy's in-place add picks differently for one-element arrays than
for longer ones, whatever the term order.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.workloads import stencil
from repro.workloads.stencil import mean_filter_3x3


def _specials(dtype):
    """Signed zeros, infinities, NaN, subnormals and the extremes."""
    fi = np.finfo(dtype)
    edges = [fi.smallest_subnormal, fi.tiny, fi.max, 1.0]
    return [0.0, -0.0, np.inf, -np.inf, np.nan] + [
        s * float(v) for v in edges for s in (1.0, -1.0)]


def padded_mean_filter(slab, halo_up, halo_down):
    """The original kernel: a zero-padded copy and nine shifted adds."""
    h, w, c = slab.shape
    padded = np.zeros((h + 2, w + 2, c), dtype=slab.dtype)
    padded[1:-1, 1:-1] = slab
    padded[0, 1:-1] = halo_up
    padded[-1, 1:-1] = halo_down
    out = np.zeros_like(slab)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            out += padded[di : di + h, dj : dj + w]
    out /= 9.0
    return out


@st.composite
def stencil_inputs(draw, heights=st.integers(1, 70)):
    """(rows, block_rows): rows is an (h + 2, w, c) array whose first and
    last rows are the halos; block_rows forces a block height (None keeps
    the module default)."""
    shape = (draw(heights) + 2, draw(st.integers(1, 9)),
             draw(st.sampled_from([1, 3])))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    values = st.one_of(
        st.sampled_from(_specials(dtype)),
        st.floats(width=32 if dtype is np.float32 else 64,
                  allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    rows = draw(arrays(dtype, shape, elements=values))
    block_rows = draw(st.one_of(st.none(), st.integers(1, 40)))
    return rows, block_rows


def _block_bytes(rows, block_rows):
    if block_rows is None:
        return stencil.BLOCK_BYTES
    return block_rows * rows[0].nbytes


def _filters_quietly(calls):
    """Both kernels on each argument tuple; overflow and NaN warnings
    are expected on these inputs."""
    with np.errstate(all="ignore"):
        return [(mean_filter_3x3(*args), padded_mean_filter(*args))
                for args in calls]


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=300, deadline=None)
@given(stencil_inputs())
def test_pad_free_kernel_matches_padded_formula(case):
    rows, block_rows = case
    slab, up, down = rows[1:-1], rows[0], rows[-1]
    with mock.patch.object(stencil, "BLOCK_BYTES", _block_bytes(rows, block_rows)):
        [(got, want)] = _filters_quietly([(slab, up, down)])
    _same_bytes(got, want)


@settings(max_examples=150, deadline=None)
@given(stencil_inputs(heights=st.integers(3, 70)))
def test_overlapped_step_calls_match_padded_formula(case):
    """The calls the overlapped convolution step makes: the whole slab
    with zero halos (interior rows kept), and two-row edge slabs with one
    real halo and one zero row."""
    rows, block_rows = case
    local, up, down = rows[1:-1], rows[0], rows[-1]
    zero = np.zeros_like(up)
    calls = [(local, zero, zero), (local[0:2], up, zero), (local[-2:], zero, down)]
    with mock.patch.object(stencil, "BLOCK_BYTES", _block_bytes(rows, block_rows)):
        results = _filters_quietly(calls)
    for got, want in results:
        _same_bytes(got, want)


def test_block_edges_on_the_paper_image_width():
    """Default blocks at the paper-figures width: a slab spanning several
    blocks, with a ragged last block."""
    rng = np.random.default_rng(3)
    slab = rng.random((70, 864, 3))
    up, down = rng.random((864, 3)), rng.random((864, 3))
    assert stencil.BLOCK_BYTES // slab[0].nbytes < 70
    _same_bytes(mean_filter_3x3(slab, up, down),
                padded_mean_filter(slab, up, down))


def test_halos_broadcast_like_the_padded_copy():
    rng = np.random.default_rng(4)
    slab = rng.random((5, 4, 3))
    up, down = rng.random((4, 1)), np.float64(0.25)
    _same_bytes(mean_filter_3x3(slab, up, down),
                padded_mean_filter(slab, up, down))
