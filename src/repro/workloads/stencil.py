"""Shared stencil machinery: row partitioning, halo exchange, kernels.

The convolution benchmark (and any other row-decomposed stencil code)
uses these helpers.  The mean filter is implemented once and used by both
the parallel benchmark and the sequential reference, so bit-identical
results across decompositions are a structural property, not a numeric
accident.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ReproError
from repro.simmpi.api import PROC_NULL
from repro.simmpi.sched import drive_blocking


def row_partition(n_rows: int, p: int) -> List[int]:
    """Near-equal row counts for ``p`` ranks (first ranks get the extra).

    Every rank receives at least one row; the paper's 1-D splitting.
    """
    if p < 1:
        raise ReproError(f"need at least one rank, got {p}")
    if n_rows < p:
        raise ReproError(f"cannot split {n_rows} rows over {p} ranks")
    base, rem = divmod(n_rows, p)
    return [base + (1 if i < rem else 0) for i in range(p)]


def exchange_row_halos(comm, local: np.ndarray, halo_up: np.ndarray, halo_down: np.ndarray) -> None:
    """Exchange one boundary row with each vertical neighbour.

    ``local`` is the rank's (h, w, c) slab; ``halo_up`` receives the
    bottom row of the rank above, ``halo_down`` the top row of the rank
    below.  Domain edges use PROC_NULL, leaving the halo buffers
    untouched (callers pre-fill them with the boundary condition).

    Two ``Sendrecv`` phases (downward shift then upward shift) keep the
    pattern deadlock-free at any rank count.
    """
    drive_blocking(comm.ctx, g_exchange_row_halos(comm, local, halo_up, halo_down))


def g_exchange_row_halos(comm, local: np.ndarray, halo_up: np.ndarray, halo_down: np.ndarray):
    """Generator twin of :func:`exchange_row_halos` for generator mains
    (``yield from`` inside a thread-free rank body)."""
    up = comm.rank - 1 if comm.rank > 0 else PROC_NULL
    down = comm.rank + 1 if comm.rank < comm.size - 1 else PROC_NULL
    # Shift down: my bottom row -> lower neighbour's halo_up.
    yield from comm.g_Sendrecv(local[-1], down, halo_up, up, sendtag=11, recvtag=11)
    # Shift up: my top row -> upper neighbour's halo_down.
    yield from comm.g_Sendrecv(local[0], up, halo_down, down, sendtag=12, recvtag=12)


#: Bytes of output per block of :func:`mean_filter_3x3` (about 32 rows
#: of the 864-pixel, 3-channel float64 image the paper-figures sweep
#: filters): a block and the source rows it reads stay in cache across
#: the nine passes.  A slab that fits is one block.
BLOCK_BYTES = 640 * 1024


def _halo_row(halo, slab: np.ndarray) -> np.ndarray:
    """``halo`` as a (1, w, c) row of ``slab``'s dtype, as the padded
    formula stored it."""
    row = np.asarray(halo, dtype=slab.dtype)
    if row.shape != slab.shape[1:]:
        row = np.broadcast_to(row, slab.shape[1:])
    return row[None]


def _add_row_terms(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst`` += ``src`` at column offsets -1, 0, +1, in that order;
    terms falling on the zero lateral padding are skipped."""
    left = dst[:, 1:]
    np.add(left, src[:, :-1], left)
    np.add(dst, src, dst)
    right = dst[:, :-1]
    np.add(right, src[:, 1:], right)


def mean_filter_3x3(slab: np.ndarray, halo_up: np.ndarray, halo_down: np.ndarray) -> np.ndarray:
    """One 3×3 mean-filter step on a row slab with explicit halos.

    ``slab`` is (h, w, c); the halos are (w, c) rows logically above and
    below it.  Lateral and global vertical boundaries are zero-padded
    (the image is treated as surrounded by black), which is also what
    the halo buffers carry at domain edges.

    Each output value is the sum of its nine neighbours in a fixed order
    (row offset -1, 0, +1; within each, column offset -1, 0, +1), divided
    by 9.  No padded copy is built: each pass adds the valid
    sub-rectangle of the slab or of a halo row into the result, one
    block of :data:`BLOCK_BYTES` at a time.  Skipping the zero-pad terms
    is exact: the accumulator starts at +0.0, so no partial sum is ever
    -0.0, and adding +0.0 to any other value leaves it unchanged.
    """
    if slab.ndim != 3:
        raise ReproError(f"slab must be (h, w, c), got shape {slab.shape}")
    h, w, c = slab.shape
    up = _halo_row(halo_up, slab)
    down = _halo_row(halo_down, slab)
    out = np.zeros_like(slab)
    step = max(1, BLOCK_BYTES // max(1, w * c * slab.itemsize))
    for r0 in range(0, h, step):
        r1 = min(r0 + step, h)
        blk = out[r0:r1]
        # Row offset -1: the first slab row reads halo_up.  Within one
        # offset the destinations are disjoint rows, so every value
        # still gets its terms in the fixed order.
        if r0:
            _add_row_terms(blk, slab[r0 - 1 : r1 - 1])
        else:
            _add_row_terms(blk[:1], up)
            if r1 > 1:
                _add_row_terms(blk[1:], slab[: r1 - 1])
        _add_row_terms(blk, slab[r0:r1])
        # Row offset +1: the last slab row reads halo_down.
        if r1 < h:
            _add_row_terms(blk, slab[r0 + 1 : r1 + 1])
        else:
            if r1 - r0 > 1:
                _add_row_terms(blk[:-1], slab[r0 + 1 :])
            _add_row_terms(blk[-1:], down)
    out /= 9.0
    return out


def conv_work_per_value() -> Tuple[float, float]:
    """(flops, bytes) charged per image value per mean-filter step.

    9 adds + 1 divide ≈ 10 flops; traffic ≈ read the 3-row working set
    once plus write once ≈ 4 × 8 bytes (pad/copy included).  These feed
    the roofline; the virtual sequential time they produce puts the
    compute/communication crossover of the scaled-down benchmark in the
    same relative position as the paper's full-size run.
    """
    return 30.0, 48.0
