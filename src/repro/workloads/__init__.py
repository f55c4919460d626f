"""Benchmark applications instrumented with MPI_Sections.

Each workload is one registered plugin class with one driver,
``run``:

* :mod:`~repro.workloads.convolution` — :class:`ConvolutionWorkload`,
  the paper's Section 5.1 image convolution benchmark (LOAD / SCATTER /
  CONVOLVE / HALO / GATHER / STORE phases over a 1-D row
  decomposition);
* :mod:`~repro.workloads.lulesh` — :class:`LuleshWorkload`, a
  LULESH-like MPI+OpenMP Lagrangian hydro proxy with the paper's
  21-section instrumentation and the two dominant phases
  LagrangeNodal / LagrangeElements (Section 5.2);
* :mod:`~repro.workloads.lbm` — :class:`LBMWorkload`, the D2Q9
  lattice-Boltzmann channel flow (the convolution's "proximity"
  workload);
* :mod:`~repro.workloads.images` — deterministic synthetic test images;
* :mod:`~repro.workloads.stencil` — the shared halo-exchange machinery;
* :mod:`~repro.workloads.base` / :mod:`~repro.workloads.registry` — the
  workload plugin API (declarative schema + discovery);
* :mod:`~repro.workloads.zoo` — five communication-shape zoo workloads
  (halo2d / taskfarm / ringpipe / bucketsort / sparsegraph).
"""

from repro.workloads.images import make_image, image_checksum
from repro.workloads.stencil import (
    row_partition,
    exchange_row_halos,
    g_exchange_row_halos,
    mean_filter_3x3,
)
from repro.workloads.convolution import (
    ConvolutionConfig,
    ConvolutionWorkload,
    sequential_convolution,
)
from repro.workloads.lulesh import (
    LuleshConfig,
    LuleshResult,
    LuleshWorkload,
    lulesh_strong_scaling_configs,
)
from repro.workloads.lbm import LBMConfig, LBMWorkload
from repro.workloads.base import Param, WorkloadPlugin, params_from_config
from repro.workloads import registry

__all__ = [
    "Param",
    "WorkloadPlugin",
    "params_from_config",
    "registry",
    "make_image",
    "image_checksum",
    "row_partition",
    "exchange_row_halos",
    "g_exchange_row_halos",
    "mean_filter_3x3",
    "ConvolutionConfig",
    "ConvolutionWorkload",
    "sequential_convolution",
    "LuleshConfig",
    "LuleshResult",
    "LuleshWorkload",
    "lulesh_strong_scaling_configs",
    "LBMConfig",
    "LBMWorkload",
]
