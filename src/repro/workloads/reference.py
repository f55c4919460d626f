"""Reference plugins: the paper's workloads on the plugin API.

These wrap the hand-written benchmark classes
(:class:`~repro.workloads.convolution.ConvolutionBenchmark`,
:class:`~repro.workloads.lulesh.LuleshBenchmark`,
:class:`~repro.workloads.lbm.LBMBenchmark`) without re-implementing any
physics: the plugin supplies the declarative surface (schema, sections,
communication pattern, validity check) and delegates execution, so a
scenario-driven run is bit-identical to the equivalent hand-wired call.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import WorkloadError, WorkloadValidityError
from repro.simmpi.engine import RunResult
from repro.workloads.base import WorkloadPlugin, params_from_config
from repro.workloads.convolution import (
    SECTIONS as CONV_SECTIONS,
    ConvolutionBenchmark,
    ConvolutionConfig,
)
from repro.workloads.lbm import LBMBenchmark, LBMConfig
from repro.workloads.lulesh import LuleshBenchmark, LuleshConfig, run_lulesh
from repro.workloads.registry import register

#: Lulesh section labels in traversal order (the paper's 21 sections).
LULESH_SECTIONS = (
    "timeloop",
    "LagrangeNodal",
    "CommSBN",
    "CalcForceForNodes",
    "IntegrateStressForElems",
    "CalcHourglassControlForElems",
    "CalcAccelerationForNodes",
    "ApplyAccelerationBC",
    "CalcVelocityForNodes",
    "CalcPositionForNodes",
    "LagrangeElements",
    "CalcLagrangeElements",
    "CalcQForElems",
    "CommMonoQ",
    "CalcKinematicsForElems",
    "ApplyMaterialPropertiesForElems",
    "EvalEOSForElems",
    "CommEnergy",
    "UpdateVolumesForElems",
    "CalcTimeConstraintsForElems",
    "CommDt",
)


@register
class ConvolutionWorkload(WorkloadPlugin):
    """The paper's Section 5.1 image-convolution pipeline."""

    NAME = "convolution"
    DOMAIN = "paper"
    SECTIONS = CONV_SECTIONS
    KEY_SECTIONS = ("HALO",)
    COMM_SECTIONS = ("SCATTER", "HALO", "GATHER")
    COMM_PATTERN = "halo-1d"
    PARAMS = params_from_config(ConvolutionConfig, docs={
        "height": "image height in pixels",
        "width": "image width in pixels",
        "channels": "colour channels",
        "steps": "filter applications",
        "image_seed": "synthetic input image seed",
        "codec_flops_per_byte": "modeled decode/encode cost",
        "overlap_halo": "overlap halo exchange with interior compute",
    })

    def to_config(self) -> ConvolutionConfig:
        """The equivalent hand-wired config dataclass."""
        if self._config is not None:
            return self._config
        return ConvolutionConfig(**self.params)

    def main(self, ctx):  # pragma: no cover - run() drives the benchmark
        """Not used directly: :meth:`run` drives the benchmark class."""
        raise WorkloadError(
            f"{self.NAME}: use run() (the benchmark pre-stages storage)"
        )

    def run(
        self,
        p: int,
        *,
        threads: int = 1,
        machine=None,
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
        """Delegate to :class:`ConvolutionBenchmark` — bit-identical to
        the hand-wired call."""
        del threads
        return ConvolutionBenchmark(self.to_config()).run(
            p,
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
        )

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


@register
class LuleshWorkload(WorkloadPlugin):
    """The LULESH-like Lagrangian hydro proxy (paper Section 5.2)."""

    NAME = "lulesh"
    DOMAIN = "paper"
    SECTIONS = LULESH_SECTIONS
    KEY_SECTIONS = ("LagrangeNodal", "LagrangeElements")
    COMM_SECTIONS = ("CommSBN", "CommMonoQ", "CommEnergy", "CommDt")
    COMM_PATTERN = "halo-3d"
    PARAMS = params_from_config(LuleshConfig, exclude=("omp_params",), docs={
        "s": "per-rank cube side length (LULESH -s)",
        "steps": "Lagrange time steps",
        "work_scale": "virtual per-element work multiplier",
        "eos_iters": "EOS Newton iterations",
    })

    def to_config(self) -> LuleshConfig:
        """The equivalent hand-wired config dataclass (keeps
        non-declarative knobs like ``omp_params`` when the instance was
        built through :meth:`~WorkloadPlugin.from_config`)."""
        if self._config is not None:
            return self._config
        return LuleshConfig(**self.params)

    @classmethod
    def check_scale(cls, p: int, params: Dict[str, Any]) -> None:
        """LULESH decomposes a cube: only cube process counts run."""
        super().check_scale(p, params)
        side = round(p ** (1.0 / 3.0))
        if side**3 != p:
            raise WorkloadError(
                f"{cls.NAME}: needs a cube of processes, got p={p}"
            )

    def main(self, ctx):  # pragma: no cover - run() supplies nthreads
        """Not used directly: :meth:`run` passes ``nthreads`` along."""
        raise WorkloadError(f"{self.NAME}: use run() (main takes nthreads)")

    def run(
        self,
        p: int,
        *,
        threads: int = 1,
        machine=None,
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
        """Delegate to :func:`~repro.workloads.lulesh.run_lulesh` with
        hybrid ``threads`` (the paper's all-ranks-on-one-node placement
        by default)."""
        return run_lulesh(
            self.to_config(),
            p,
            threads=threads,
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
        )

    def _collect(self, result: RunResult):
        return LuleshBenchmark(self.to_config()).collect(result)

    def check(self, result: RunResult) -> None:
        """Energies and the final dt must be finite and positive."""
        phys = self._collect(result)
        if not (math.isfinite(phys.total_energy)
                and math.isfinite(phys.initial_energy)
                and phys.initial_energy > 0.0):
            raise WorkloadValidityError(
                f"{self.NAME}: non-finite or non-positive energies "
                f"(E0={phys.initial_energy!r}, E={phys.total_energy!r})"
            )
        if not (math.isfinite(phys.final_dt) and phys.final_dt > 0.0):
            raise WorkloadValidityError(
                f"{self.NAME}: invalid final dt {phys.final_dt!r}"
            )

    def metrics(self, result: RunResult) -> Dict[str, float]:
        """Energy drift and final dt (the paper's physics gauges)."""
        phys = self._collect(result)
        return {
            "energy_drift": float(phys.energy_drift),
            "final_dt": float(phys.final_dt),
        }


@register
class LBMWorkload(WorkloadPlugin):
    """D2Q9 lattice-Boltzmann channel flow (the proximity workload)."""

    NAME = "lbm"
    DOMAIN = "paper"
    SECTIONS = ("INIT", "COLLIDE", "HALO", "STREAM", "MACRO")
    KEY_SECTIONS = ("HALO",)
    COMM_SECTIONS = ("HALO",)
    COMM_PATTERN = "halo-1d"
    PARAMS = params_from_config(LBMConfig, docs={
        "ny": "lattice rows",
        "nx": "lattice columns",
        "steps": "LBM time steps",
        "tau": "BGK relaxation time (> 0.5)",
        "force": "body acceleration along x",
        "rho0": "initial density",
    })

    def to_config(self) -> LBMConfig:
        """The equivalent hand-wired config dataclass."""
        if self._config is not None:
            return self._config
        return LBMConfig(**self.params)

    def main(self, ctx):
        """Delegate the rank body to :class:`LBMBenchmark` (generator)."""
        result = yield from LBMBenchmark(self.to_config()).main(ctx)
        return result

    def _mass_drift(self, result: RunResult) -> float:
        mass = sum(r["mass"] for r in result.results)
        initial = sum(r["initial_mass"] for r in result.results)
        return abs(mass - initial) / initial

    def check(self, result: RunResult) -> None:
        """Total lattice mass must be conserved to 1e-9 relative."""
        drift = self._mass_drift(result)
        if not (math.isfinite(drift) and drift < 1e-9):
            raise WorkloadValidityError(
                f"{self.NAME}: mass not conserved (relative drift {drift!r})"
            )

    def metrics(self, result: RunResult) -> Dict[str, float]:
        """Relative mass drift (should sit at rounding level)."""
        return {"mass_drift": float(self._mass_drift(result))}
