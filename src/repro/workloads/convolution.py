"""The paper's convolution benchmark (Section 5.1).

Structure, exactly as Figure 4 describes:

* **LOAD** — rank 0 loads and decodes the image (modeled storage read +
  decode compute); all other ranks wait;
* **SCATTER** — 1-D row split of the image over the MPI processes
  (``MPI_Scatterv``);
* time-step loop, each step being:

  * **HALO** — ghost-row exchange with vertical neighbours;
  * **CONVOLVE** — one 3×3 mean-filter application on the local slab
    (real NumPy arithmetic + modeled compute time);

* **GATHER** — slabs collected back on rank 0 (``MPI_Gatherv``);
* **STORE** — rank 0 encodes and stores the result.

Every phase is outlined with an MPI_Section; the virtual timings drive
Figures 5 and 6 of the paper while the pixel data is exact: the parallel
result equals :func:`sequential_convolution` bit-for-bit at any rank
count (integration-tested), because both run the same kernel.

The image once per sweep
------------------------
Virtual time never depends on pixel values: halo rows, the
Scatterv/Gatherv slabs and the modeled storage are charged by size, and
every filter step charges a fixed ``ctx.compute``.  The filtered image
does not depend on ``p`` either.  So within one sweep
(:mod:`repro.workloads.physics_scope`, keyed on the frozen
:class:`ConvolutionConfig`) the first run that computes and returns
stores a read-only copy of rank 0's image, and every later run of the
config is a *timing skeleton*: the same sections, ``ctx.compute`` calls
and jitter draws, and the same LOAD, SCATTER, halo ``g_Sendrecv``,
GATHER and STORE traffic, in the blocking and the overlapped step alike,
but no :func:`mean_filter_3x3`.  After SCATTER a skeleton rank's slab is
a view of its rows of the stored image, so GATHER assembles rank 0's
fresh, writable ``out`` from it with no extra copy.

A run takes the skeleton only where the engine admits fast paths
(:attr:`~repro.simmpi.engine._EngineBase.admits_fast_paths`): a run with
a hang or crash plan, or with a PMPI tool hooking ``on_send`` /
``on_recv``, computes.  A run outside any sweep computes, and so does
every point of a weak-scaling sweep, whose config changes with ``p``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ReproError, WorkloadValidityError
from repro.machine.roofline import WorkEstimate
from repro.machine.spec import MachineSpec
from repro.simmpi.engine import RunResult, run_mpi
from repro.simmpi.mio import ModeledStorage
from repro.simmpi.sections_rt import section
from repro.workloads.base import WorkloadPlugin, params_from_config
from repro.workloads.images import make_image
from repro.workloads.physics_scope import recall, remember
from repro.workloads.registry import register
from repro.workloads.stencil import (
    conv_work_per_value,
    g_exchange_row_halos,
    mean_filter_3x3,
    row_partition,
)

#: Section labels, in phase order (the paper's bullet list).
SECTIONS = ("LOAD", "SCATTER", "CONVOLVE", "HALO", "GATHER", "STORE")


@functools.lru_cache(maxsize=1)
def input_image(height: int, width: int, channels: int, image_seed: int) -> np.ndarray:
    """The benchmark's input image, shared read-only by consecutive runs.

    A sweep runs the same configuration at every process count, so one
    memo entry builds the image once per sweep; a new configuration
    replaces it.  The array is read-only: rank 0 loads a copy through
    :meth:`ModeledStorage.read`.  :func:`make_image` itself stays
    unmemoised because its callers may write into what it returns.
    """
    img = make_image(height, width, channels, seed=image_seed)
    img.flags.writeable = False
    return img


@dataclass(frozen=True)
class ConvolutionConfig:
    """Benchmark parameters.

    The defaults are a proportionally scaled-down version of the paper's
    run (5616×3744×3 image, 1000 steps); ``paper_size()`` restores the
    original dimensions for full-scale validation.
    """

    height: int = 768
    width: int = 1152
    channels: int = 3
    steps: int = 200
    image_seed: int = 7
    #: Extra per-byte decode/encode compute charged in LOAD/STORE
    #: (image (de)compression), in flops per byte.
    codec_flops_per_byte: float = 1.0
    #: Overlap communication with computation: post the halo exchange
    #: non-blocking, filter the interior rows (which need no halo), then
    #: complete the exchange and filter the two boundary rows.  The
    #: optimization the section analysis motivates once HALO shows up as
    #: the binding section.
    overlap_halo: bool = False

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ReproError(f"need at least one step, got {self.steps}")
        if self.height < 3 or self.width < 3:
            raise ReproError("image must be at least 3x3 for a 3x3 stencil")

    @classmethod
    def paper_size(cls, steps: int = 1000) -> "ConvolutionConfig":
        """The full-scale configuration of the paper."""
        return cls(height=3744, width=5616, steps=steps)

    @classmethod
    def tiny(cls, steps: int = 5) -> "ConvolutionConfig":
        """A seconds-scale configuration for unit tests."""
        return cls(height=48, width=64, steps=steps)

    @property
    def values(self) -> int:
        """Total number of image values."""
        return self.height * self.width * self.channels

    @property
    def nbytes(self) -> int:
        """Image size in bytes (float64)."""
        return self.values * 8


@register
class ConvolutionWorkload(WorkloadPlugin):
    """The paper's Section 5.1 image-convolution pipeline."""

    NAME = "convolution"
    DOMAIN = "paper"
    SECTIONS = SECTIONS
    KEY_SECTIONS = ("HALO",)
    COMM_SECTIONS = ("SCATTER", "HALO", "GATHER")
    COMM_PATTERN = "halo-1d"
    CONFIG = ConvolutionConfig
    PARAMS = params_from_config(ConvolutionConfig, docs={
        "height": "image height in pixels",
        "width": "image width in pixels",
        "channels": "colour channels",
        "steps": "filter applications",
        "image_seed": "synthetic input image seed",
        "codec_flops_per_byte": "modeled decode/encode cost",
        "overlap_halo": "overlap halo exchange with interior compute",
    })

    INPUT_KEY = "input.img"
    OUTPUT_KEY = "output.img"

    # -- per-rank program -----------------------------------------------------------

    def main(self, ctx, storage: ModeledStorage,
             memo: Optional[np.ndarray] = None):
        """The MPI program each rank executes (a generator rank body).

        Written against the ``g_*`` communicator API so the thread-free
        engine can drive it as a suspended generator; the threaded
        oracle runs the same source via ``drive_blocking``.  Returns the
        final image on rank 0 (None elsewhere) so callers can verify
        correctness.

        :meth:`run` stages the arguments: ``storage`` holds the input
        image, and ``memo`` is this config's filtered image; given one,
        the rank runs the timing skeleton when the engine admits fast
        paths.
        """
        cfg = self.to_config()
        comm = ctx.comm
        p, rank = comm.size, comm.rank
        flops_v, bytes_v = conv_work_per_value()
        skeleton = memo is not None and ctx.engine.admits_fast_paths

        # ---- LOAD: sequential on rank 0, everyone else waits in-section.
        with section(ctx, "LOAD"):
            img = None
            if rank == 0:
                img = storage.read(ctx, self.INPUT_KEY)
                # decode cost (the paper's image decoding)
                ctx.compute(work=WorkEstimate(
                    flops=cfg.codec_flops_per_byte * cfg.nbytes,
                    bytes_moved=2 * cfg.nbytes,
                ))
            shape = yield from comm.g_bcast(
                img.shape if rank == 0 else None, root=0
            )

        counts = row_partition(shape[0], p)
        local = np.empty((counts[rank], shape[1], shape[2]), dtype=np.float64)

        # ---- SCATTER: 1-D row split from rank 0.
        with section(ctx, "SCATTER"):
            yield from comm.g_Scatterv(img, counts, local, root=0)
        del img
        if skeleton:
            first = sum(counts[:rank])
            local = memo[first:first + counts[rank]]

        halo_up = np.zeros((shape[1], shape[2]), dtype=np.float64)
        halo_down = np.zeros((shape[1], shape[2]), dtype=np.float64)
        local_values = local.size
        step_work = WorkEstimate(
            flops=flops_v * local_values, bytes_moved=bytes_v * local_values
        )

        # Overlap is only sound when every rank has interior rows, and the
        # decision must be uniform (sections are collective): decide from
        # the globally known row counts, not the local slab.
        can_overlap = cfg.overlap_halo and p > 1 and min(counts) >= 3

        # ---- time-step loop: HALO then CONVOLVE, each its own section.
        for _ in range(cfg.steps):
            if can_overlap:
                local = yield from self._overlapped_step(
                    ctx, comm, local, halo_up, halo_down, step_work,
                    skeleton,
                )
                continue
            with section(ctx, "HALO"):
                if p > 1:
                    yield from g_exchange_row_halos(comm, local, halo_up, halo_down)
            with section(ctx, "CONVOLVE"):
                if not skeleton:
                    local = mean_filter_3x3(local, halo_up, halo_down)
                ctx.compute(work=step_work)

        # ---- GATHER: collect slabs back on rank 0.
        out = None
        if rank == 0:
            out = np.empty(tuple(shape), dtype=np.float64)
        with section(ctx, "GATHER"):
            yield from comm.g_Gatherv(local, out, counts, root=0)

        # ---- STORE: sequential encode + write on rank 0.
        with section(ctx, "STORE"):
            if rank == 0:
                ctx.compute(work=WorkEstimate(
                    flops=cfg.codec_flops_per_byte * cfg.nbytes,
                    bytes_moved=2 * cfg.nbytes,
                ))
                storage.write(ctx, self.OUTPUT_KEY, out)
            yield from comm.g_barrier()
        return out

    @staticmethod
    def _overlapped_step(ctx, comm, local, halo_up, halo_down, step_work,
                         skeleton=False):
        """One time step with communication/computation overlap.

        Section outline: ``HALO`` posts the non-blocking exchange,
        ``CONVOLVE`` filters the interior rows (which need no halo),
        ``HALO_WAIT`` completes the exchange, and a second ``CONVOLVE``
        instance filters the two boundary rows.  Numerically identical
        to the blocking step; the virtual clock hides the wire time and
        neighbour lateness behind the interior work.  A ``skeleton``
        step posts and charges the same but filters nothing and returns
        ``local`` as it is.
        """
        from repro.simmpi.api import PROC_NULL
        from repro.simmpi.sched import g_waitall

        h = local.shape[0]
        up = comm.rank - 1 if comm.rank > 0 else PROC_NULL
        down = comm.rank + 1 if comm.rank < comm.size - 1 else PROC_NULL

        with section(ctx, "HALO"):
            reqs = [
                comm.Irecv(halo_up, source=up, tag=11),
                comm.Irecv(halo_down, source=down, tag=12),
                comm.Isend(local[-1], dest=down, tag=11),
                comm.Isend(local[0], dest=up, tag=12),
            ]

        if skeleton:
            out = local
        else:
            out = np.empty_like(local)
            zero_row = np.zeros_like(halo_up)
        with section(ctx, "CONVOLVE"):
            if not skeleton:
                # Interior output rows 1..h-2 depend only on local rows.
                out[1:-1] = mean_filter_3x3(local, zero_row, zero_row)[1:-1]
            ctx.compute(work=step_work.scaled((h - 2) / h))

        with section(ctx, "HALO_WAIT"):
            yield from g_waitall(reqs)

        with section(ctx, "CONVOLVE"):
            if not skeleton:
                # Row 0 needs halo_up; its lower neighbour (row 1) is local.
                out[0] = mean_filter_3x3(local[0:2], halo_up, zero_row)[0]
                # Row h-1 needs halo_down; row h-2 is local.
                out[-1] = mean_filter_3x3(local[-2:], zero_row, halo_down)[1]
            ctx.compute(work=step_work.scaled(2.0 / h))
        return out

    # -- driver ------------------------------------------------------------------------

    def run(
        self,
        p: int,
        *,
        threads: int = 1,
        machine: Optional[MachineSpec] = None,
        ranks_per_node: Optional[int] = None,
        seed: int = 0,
        compute_jitter: float = 0.0,
        noise_floor: float = 0.0,
        faults=None,
        wall_timeout: Optional[float] = None,
        engine: Optional[str] = None,
        macrostep: Optional[bool] = None,
        tools=(),
    ) -> RunResult:
        """Execute the pipeline at ``p`` ranks (``threads`` is ignored).

        The input image is placed into modeled storage before the clock
        starts (the paper's image pre-exists on the file system); see
        :func:`input_image`.

        Inside a sweep's physics scope the config's stored image, if
        any, goes to every rank (the skeleton, module docstring), and a
        run without one stores a read-only copy of its image once
        ``run_mpi`` has returned.
        """
        del threads
        cfg = self.to_config()
        storage = ModeledStorage()
        storage._data[self.INPUT_KEY] = input_image(
            cfg.height, cfg.width, cfg.channels, cfg.image_seed
        )
        memo = recall(cfg)
        run = run_mpi(
            p,
            self.main,
            machine=machine,
            ranks_per_node=ranks_per_node,
            seed=seed,
            compute_jitter=compute_jitter,
            noise_floor=noise_floor,
            tools=tools,
            faults=faults,
            wall_timeout=wall_timeout,
            engine=engine,
            macrostep=macrostep,
            args=(storage, memo),
        )
        if memo is None:
            remember(cfg, lambda: _read_only_copy(run.results[0]))
        return run

    # -- post-run ----------------------------------------------------------------------

    def check(self, result: RunResult) -> None:
        """Rank 0 must return a finite image of the configured shape."""
        out = result.results[0]
        cfg = self.to_config()
        want = (cfg.height, cfg.width, cfg.channels)
        if not isinstance(out, np.ndarray) or out.shape != want:
            raise WorkloadValidityError(
                f"{self.NAME}: rank 0 returned {type(out).__name__} "
                f"instead of a {want} image"
            )
        if not np.isfinite(out).all():
            raise WorkloadValidityError(
                f"{self.NAME}: output image contains non-finite values"
            )

    def metrics(self, result: RunResult) -> Dict[str, float]:
        """Mean output intensity (a cheap whole-image fingerprint)."""
        out = result.results[0]
        return {"output_mean": float(out.mean())}


def _read_only_copy(image: np.ndarray) -> np.ndarray:
    """A read-only copy of ``image``: what a sweep's scope stores, so no
    caller's array is shared with later points."""
    image = image.copy()
    image.flags.writeable = False
    return image


def sequential_convolution(image: np.ndarray, steps: int) -> np.ndarray:
    """Reference pipeline: the same kernel applied on the whole image.

    Used by integration tests to check that the distributed pipeline is
    bit-identical for every rank count.
    """
    if image.ndim != 3:
        raise ReproError(f"image must be (h, w, c), got shape {image.shape}")
    w, c = image.shape[1], image.shape[2]
    zero = np.zeros((w, c), dtype=image.dtype)
    out = image
    for _ in range(steps):
        out = mean_filter_3x3(out, zero, zero)
    return out
