"""Canonical sweep definitions for every experiment.

The paper's exact scales (456 Nehalem cores, a 21 MP image, 1000 steps,
20 repetitions) are available through the ``paper_*`` constructors; the
defaults are proportionally scaled down so the full reproduction runs on
a laptop in minutes while preserving every qualitative feature (the
compute→communication crossover, the noise accumulation, the OpenMP
inflexion points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.machine.catalog import broadwell_duo, knl_node, nehalem_cluster
from repro.machine.spec import MachineSpec
from repro.workloads.convolution import ConvolutionConfig
from repro.workloads.lulesh import PAPER_TOTAL_ELEMENTS, LuleshConfig


@dataclass(frozen=True)
class ConvolutionSweep:
    """A convolution scaling sweep.

    ``weak=False`` (default) is the paper's strong scaling: the image is
    fixed and split ever thinner.  ``weak=True`` scales the image height
    with the process count (``config.height`` rows *per process*), the
    Gustafson–Barsis configuration §2 contrasts with Amdahl's.
    """

    config: ConvolutionConfig
    machine: MachineSpec
    process_counts: Tuple[int, ...]
    reps: int = 3
    base_seed: int = 100
    ranks_per_node: int = 8
    compute_jitter: float = 0.02
    #: Mean additive OS-noise per compute call (seconds); the fixed-size
    #: disturbance that makes halo waits dominate at scale.
    noise_floor: float = 120e-6
    weak: bool = False
    #: Fault plan injected into every point (faults naming absent ranks
    #: are inert at that point).  Part of each point's cache key.
    faults: Optional[FaultPlan] = None
    #: Per-point wall-clock watchdog (real seconds; None disables).
    #: Affects abort behaviour only, so it is *not* cache-keyed.
    wall_timeout: Optional[float] = None
    #: Execution substrate override (``REPRO_ENGINE``-style value; None
    #: follows the environment).  Both engines produce bit-identical
    #: results, so it is *not* cache-keyed.
    engine: Optional[str] = None
    #: Macro-step capture/replay override (None follows the
    #: environment).  Replay is bit-identical, so it is *not* cache-keyed.
    macrostep: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ReproError("need at least one repetition")
        if 1 not in self.process_counts:
            raise ReproError(
                "sweep must include p=1 (the Speedup numerator run)"
            )

    def config_for(self, p: int) -> ConvolutionConfig:
        """The per-scale configuration (grows with p under weak scaling)."""
        if not self.weak:
            return self.config
        from dataclasses import replace

        return replace(self.config, height=self.config.height * p)


def default_convolution_sweep() -> ConvolutionSweep:
    """Scaled-down Figure 5/6 sweep (minutes on a laptop).

    Process counts reach 128 (paper: 456); 8 ranks per node puts the
    node boundary at p=8 exactly as on the paper's Nehalem cluster.
    """
    return ConvolutionSweep(
        config=ConvolutionConfig(height=576, width=864, steps=100),
        machine=nehalem_cluster(nodes=24),
        process_counts=(1, 2, 4, 8, 16, 32, 64, 80, 112, 128, 144, 192),
        reps=3,
    )


def paper_convolution_sweep() -> ConvolutionSweep:
    """The paper-scale sweep: 5616×3744 image, 1000 steps, up to 456
    cores, 20 repetitions.  Hours of (real) runtime; used for full-scale
    validation only."""
    return ConvolutionSweep(
        config=ConvolutionConfig.paper_size(steps=1000),
        machine=nehalem_cluster(nodes=57),
        process_counts=(1, 2, 4, 8, 16, 32, 64, 80, 112, 128, 144, 256, 456),
        reps=20,
    )


def fig6_process_counts() -> Tuple[int, ...]:
    """The process counts of the paper's Figure 6 table."""
    return (64, 80, 112, 128, 144)


@dataclass(frozen=True)
class LuleshGridSweep:
    """An MPI×OpenMP grid sweep for the Lulesh study."""

    config: LuleshConfig
    machine: MachineSpec
    #: p → thread counts sampled at that process count.
    grid: Dict[int, Tuple[int, ...]] = field(hash=False, default=None)  # type: ignore[assignment]
    reps: int = 2
    base_seed: int = 300
    compute_jitter: float = 0.01
    #: Fault plan injected into every grid point (cache-keyed).
    faults: Optional[FaultPlan] = None
    #: Per-point wall-clock watchdog (real seconds; not cache-keyed).
    wall_timeout: Optional[float] = None
    #: Execution substrate override (``REPRO_ENGINE``-style value; None
    #: follows the environment; not cache-keyed — results are engine-
    #: independent).
    engine: Optional[str] = None
    #: Macro-step capture/replay override (None follows the
    #: environment; not cache-keyed — replay is bit-identical).
    macrostep: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.grid:
            raise ReproError("grid sweep needs at least one configuration")
        for p, ts in self.grid.items():
            side = round(p ** (1.0 / 3.0))
            if side**3 != p:
                raise ReproError(f"Lulesh needs cube process counts, got {p}")
            if not ts or any(t < 1 for t in ts):
                raise ReproError(f"invalid thread counts {ts} at p={p}")


def _thread_points(max_threads: int) -> Tuple[int, ...]:
    """Powers of two up to ``max_threads``, plus 24 (the paper's KNL
    inflexion point) when it fits."""
    pts = []
    t = 1
    while t <= max_threads:
        pts.append(t)
        t *= 2
    if 24 <= max_threads and 24 not in pts:
        pts.append(24)
    return tuple(sorted(pts))


def default_lulesh_sweep(machine_name: str = "knl") -> LuleshGridSweep:
    """The Figures 8/9 grid on one of the two paper machines.

    Per-rank side lengths follow Figure 7 so the global element count is
    constant across process counts (strong scaling); thread counts are
    bounded by p*t <= hardware threads of the node.
    """
    if machine_name == "knl":
        machine = knl_node()
        process_counts = (1, 8, 27, 64)
    elif machine_name == "broadwell":
        machine = broadwell_duo()
        process_counts = (1, 8, 27)
    else:
        raise ReproError(
            f"unknown Lulesh machine {machine_name!r} (knl | broadwell)"
        )
    hw = machine.node.max_threads
    # Small default problem: s chosen so p * s^3 is constant (13824 = 24^3).
    sides = {1: 24, 8: 12, 27: 8, 64: 6}
    grid = {
        p: _thread_points(max(1, hw // p))
        for p in process_counts
    }
    return LuleshGridSweep(
        config=LuleshConfig(s=sides[process_counts[0]], steps=15),
        machine=machine,
        grid=grid,
    )


def paper_lulesh_sweep(machine_name: str = "knl", steps: int = 20) -> LuleshGridSweep:
    """The Figures 8/9/10 grid at the paper's problem size.

    110 592 elements held constant across process counts (Figure 7's
    sides: s = 48, 24, 16, 12), thread counts bounded by the node's
    hardware threads.  This is the configuration the benchmark harness
    runs; it takes a few minutes of real time.
    """
    if machine_name == "knl":
        machine = knl_node()
        process_counts = (1, 8, 27, 64)
    elif machine_name == "broadwell":
        machine = broadwell_duo()
        process_counts = (1, 8, 27)
    else:
        raise ReproError(
            f"unknown Lulesh machine {machine_name!r} (knl | broadwell)"
        )
    hw = machine.node.max_threads
    grid = {p: _thread_points(max(1, hw // p)) for p in process_counts}
    return LuleshGridSweep(
        config=LuleshConfig(s=48, steps=steps),
        machine=machine,
        grid=grid,
    )


def lulesh_sides_for(process_counts: Tuple[int, ...], total_elements: int) -> Dict[int, int]:
    """Per-rank side per process count holding ``total_elements`` fixed."""
    out = {}
    for p in process_counts:
        s = round((total_elements / p) ** (1.0 / 3.0))
        if p * s**3 != total_elements:
            raise ReproError(
                f"{total_elements} elements cannot be held at p={p}"
            )
        out[p] = s
    return out


#: Figure 7's per-rank sides (s = 48, 24, 16, 12): the paper's element
#: count held fixed at p = 1, 8, 27, 64.
PAPER_LULESH_SIDES: Dict[int, int] = lulesh_sides_for(
    (1, 8, 27, 64), PAPER_TOTAL_ELEMENTS)
