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


def mean_filter_3x3(slab: np.ndarray, halo_up: np.ndarray, halo_down: np.ndarray) -> np.ndarray:
    """One 3×3 mean-filter step on a row slab with explicit halos.

    ``slab`` is (h, w, c); the halos are (w, c) rows logically above and
    below it.  Lateral and global vertical boundaries are zero-padded
    (the image is treated as surrounded by black), which is also what
    the halo buffers carry at domain edges.
    """
    if slab.ndim != 3:
        raise ReproError(f"slab must be (h, w, c), got shape {slab.shape}")
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


def conv_work_per_value() -> Tuple[float, float]:
    """(flops, bytes) charged per image value per mean-filter step.

    9 adds + 1 divide ≈ 10 flops; traffic ≈ read the 3-row working set
    once plus write once ≈ 4 × 8 bytes (pad/copy included).  These feed
    the roofline; the virtual sequential time they produce puts the
    compute/communication crossover of the scaled-down benchmark in the
    same relative position as the paper's full-size run.
    """
    return 30.0, 48.0
