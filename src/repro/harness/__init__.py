"""Experiment harness: sweeps, runners, and one entry per paper artifact.

:mod:`~repro.harness.sweeps` defines the canonical parameter sweeps (the
scaled-down defaults and the paper-scale variants); :mod:`~repro.harness.
runner` and :mod:`~repro.harness.scenario` execute workloads across
sweeps into profile containers.  All three sweep entry points run on one
point loop (:func:`~repro.harness.parallel.sweep_points`), which fans
points out over worker processes and replays previously simulated
points from a persistent on-disk store
(:mod:`~repro.harness.cache`); :mod:`~repro.harness.experiments`
exposes ``fig5a`` … ``fig10`` / ``table7`` functions that return — and
can print — the same rows and series the paper's figures and tables
report.
"""

from repro.harness.sweeps import (
    ConvolutionSweep,
    LuleshGridSweep,
    default_convolution_sweep,
    paper_convolution_sweep,
    default_lulesh_sweep,
    paper_lulesh_sweep,
    fig6_process_counts,
)
from repro.harness.runner import (
    run_convolution_sweep,
    run_lulesh_grid,
)
from repro.harness.parallel import (
    PointOutcome,
    map_points_failsoft,
    resolve_jobs,
)
from repro.harness.cache import (
    RunCache,
    run_key,
    maybe_default_cache,
)
from repro.harness.failures import (
    PointFailure,
    SweepFailureReport,
    SweepPointError,
)
from repro.harness.baseline import (
    BaselineDiff,
    save_baseline,
    compare_to_baseline,
)
from repro.harness.experiments import (
    ExperimentResult,
    fig5a,
    fig5b,
    fig5c,
    fig5d,
    fig6,
    table7,
    fig8,
    fig9,
    fig10,
    ALL_EXPERIMENTS,
)

__all__ = [
    "ConvolutionSweep",
    "LuleshGridSweep",
    "default_convolution_sweep",
    "paper_convolution_sweep",
    "default_lulesh_sweep",
    "paper_lulesh_sweep",
    "fig6_process_counts",
    "run_convolution_sweep",
    "run_lulesh_grid",
    "map_points_failsoft",
    "PointOutcome",
    "PointFailure",
    "SweepFailureReport",
    "SweepPointError",
    "resolve_jobs",
    "RunCache",
    "run_key",
    "maybe_default_cache",
    "BaselineDiff",
    "save_baseline",
    "compare_to_baseline",
    "ExperimentResult",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig6",
    "table7",
    "fig8",
    "fig9",
    "fig10",
    "ALL_EXPERIMENTS",
]
