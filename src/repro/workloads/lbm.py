"""D2Q9 lattice-Boltzmann channel flow (the paper's "proximity" workload).

Section 5.1 motivates the convolution benchmark by its "proximity with
other algorithms (e.g., Lattice-Boltzmann) where spatial values are
propagated using similar stencils".  This module makes that proximity
concrete: a real D2Q9 BGK lattice-Boltzmann solver for body-force-driven
channel (Poiseuille) flow, decomposed over rows exactly like the
convolution benchmark, instrumented with MPI_Sections, and carrying the
same correctness guarantees:

* **exact mass conservation** — BGK collision, halfway bounce-back walls
  and the body-force term all conserve density to roundoff;
* **bitwise decomposition invariance** — pull-streaming reads only each
  cell's nine neighbours, so after a correct ghost-row exchange the
  distributions are identical at any rank count (integration-tested);
* periodic in x (fully local), bounce-back walls at the global y
  boundaries, so the steady state is the parabolic Poiseuille profile.

Sections: ``INIT``, then per step ``COLLIDE`` (compute-bound, local),
``HALO`` (ghost-row exchange of post-collision distributions),
``STREAM`` (memory-bound pull), ``MACRO`` (moments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import ReproError, WorkloadValidityError
from repro.machine.roofline import WorkEstimate
from repro.simmpi.api import PROC_NULL
from repro.simmpi.engine import RunResult
from repro.simmpi.sections_rt import section
from repro.workloads.base import WorkloadPlugin, params_from_config
from repro.workloads.registry import register
from repro.workloads.stencil import row_partition

#: D2Q9 lattice velocities (ey, ex) and weights; index 0 is the rest
#: particle.  OPP maps each direction to its reverse (for bounce-back).
EY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])
EX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
W = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
OPP = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6])

#: Per-cell work estimates per step (flops, bytes): collision is
#: compute-bound (equilibria, relaxation), streaming memory-bound.
COLLIDE_WORK = WorkEstimate(flops=130.0, bytes_moved=160.0, serial_fraction=0.02)
STREAM_WORK = WorkEstimate(flops=10.0, bytes_moved=300.0, serial_fraction=0.02)
MACRO_WORK = WorkEstimate(flops=35.0, bytes_moved=90.0, serial_fraction=0.02)


@dataclass(frozen=True)
class LBMConfig:
    """Channel-flow parameters.

    ``ny`` × ``nx`` global lattice; ``tau`` the BGK relaxation time
    (stability needs tau > 0.5); ``force`` the body acceleration along x.
    """

    ny: int = 96
    nx: int = 128
    steps: int = 100
    tau: float = 0.8
    force: float = 1e-5
    rho0: float = 1.0

    def __post_init__(self) -> None:
        if self.ny < 4 or self.nx < 4:
            raise ReproError(f"lattice too small: {self.ny}x{self.nx}")
        if self.tau <= 0.5:
            raise ReproError(f"BGK needs tau > 0.5, got {self.tau}")
        if self.steps < 1:
            raise ReproError("need at least one step")

    @classmethod
    def tiny(cls, steps: int = 8) -> "LBMConfig":
        """Seconds-scale configuration for tests."""
        return cls(ny=12, nx=16, steps=steps)


def equilibrium(rho: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """D2Q9 second-order equilibrium distributions (9, ny, nx)."""
    usq = ux * ux + uy * uy
    feq = np.empty((9,) + rho.shape, dtype=np.float64)
    for k in range(9):
        eu = EX[k] * ux + EY[k] * uy
        feq[k] = W[k] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)
    return feq


def moments(f: np.ndarray) -> tuple:
    """Density and velocity fields from distributions (9, ny, nx)."""
    rho = f.sum(axis=0)
    ux = (f * EX[:, None, None]).sum(axis=0) / rho
    uy = (f * EY[:, None, None]).sum(axis=0) / rho
    return rho, ux, uy


@register
class LBMWorkload(WorkloadPlugin):
    """D2Q9 lattice-Boltzmann channel flow (the proximity workload)."""

    NAME = "lbm"
    DOMAIN = "paper"
    SECTIONS = ("INIT", "COLLIDE", "HALO", "STREAM", "MACRO")
    KEY_SECTIONS = ("HALO",)
    COMM_SECTIONS = ("HALO",)
    COMM_PATTERN = "halo-1d"
    CONFIG = LBMConfig
    PARAMS = params_from_config(LBMConfig, docs={
        "ny": "lattice rows",
        "nx": "lattice columns",
        "steps": "LBM time steps",
        "tau": "BGK relaxation time (> 0.5)",
        "force": "body acceleration along x",
        "rho0": "initial density",
    })

    # -- pieces ------------------------------------------------------------------

    @staticmethod
    def _collide(f: np.ndarray, tau: float, force: float) -> np.ndarray:
        """BGK relaxation plus a mass-conserving body-force term."""
        rho, ux, uy = moments(f)
        feq = equilibrium(rho, ux, uy)
        f_post = f - (f - feq) / tau
        # First-order Guo forcing: sum_k w_k e_k = 0 → exactly conserves mass.
        for k in range(9):
            f_post[k] += 3.0 * W[k] * EX[k] * force * rho
        return f_post

    @staticmethod
    def _exchange_and_pad(comm, f_post, pad_up, pad_down, is_top, is_bottom):
        """Fill ghost rows: neighbour exchange + bounce-back walls.
        A generator rank-body fragment: drive with ``yield from``.

        ``pad_up``/``pad_down`` are (9, nx) rows logically above (smaller
        y) and below (larger y) the local slab.  At interior boundaries
        they carry the neighbour's post-collision edge rows; at the
        global walls they synthesise halfway bounce-back: the population
        entering the domain is the opposite one leaving it, shifted by
        the link's x component.
        """
        up = comm.rank - 1 if comm.rank > 0 else PROC_NULL
        down = comm.rank + 1 if comm.rank < comm.size - 1 else PROC_NULL
        # my last row -> lower neighbour's pad_up; receive mine from above
        yield from comm.g_Sendrecv(np.ascontiguousarray(f_post[:, -1, :]), down,
                                   pad_up, up, sendtag=41, recvtag=41)
        # my first row -> upper neighbour's pad_down; receive from below
        yield from comm.g_Sendrecv(np.ascontiguousarray(f_post[:, 0, :]), up,
                                   pad_down, down, sendtag=42, recvtag=42)
        if is_top:  # global y=0 wall above my first row
            for k in range(9):
                if EY[k] == 1:  # populations that would enter moving up (+y)
                    pad_up[k] = np.roll(f_post[OPP[k], 0, :], -EX[k])
        if is_bottom:  # global wall below my last row
            for k in range(9):
                if EY[k] == -1:
                    pad_down[k] = np.roll(f_post[OPP[k], -1, :], -EX[k])

    @staticmethod
    def _stream(f_post: np.ndarray, pad_up: np.ndarray, pad_down: np.ndarray) -> np.ndarray:
        """Pull streaming: f_new[k][y, x] = f_post[k][y-ey, x-ex].

        Periodic in x (np.roll); the y dimension reads from the padded
        extension.
        """
        ny = f_post.shape[1]
        padded = np.concatenate(
            [pad_up[:, None, :], f_post, pad_down[:, None, :]], axis=1
        )
        f_new = np.empty_like(f_post)
        for k in range(9):
            src = padded[k, 1 - EY[k] : 1 - EY[k] + ny, :]
            f_new[k] = np.roll(src, EX[k], axis=1) if EX[k] else src
        return f_new

    # -- per-rank program -------------------------------------------------------------

    def main(self, ctx):
        """The MPI program each rank executes (a generator rank body;
        returns local summaries)."""
        cfg = self.to_config()
        comm = ctx.comm
        counts = row_partition(cfg.ny, comm.size)
        ny_local = counts[comm.rank]
        is_top = comm.rank == 0
        is_bottom = comm.rank == comm.size - 1
        ncells = ny_local * cfg.nx

        with section(ctx, "INIT"):
            rho = np.full((ny_local, cfg.nx), cfg.rho0)
            zero = np.zeros_like(rho)
            f = equilibrium(rho, zero, zero)
            ctx.compute(work=MACRO_WORK.scaled(ncells))
        initial_mass = float(f.sum())

        pad_up = np.zeros((9, cfg.nx))
        pad_down = np.zeros((9, cfg.nx))
        for _ in range(cfg.steps):
            with section(ctx, "COLLIDE"):
                f_post = self._collide(f, cfg.tau, cfg.force)
                ctx.compute(work=COLLIDE_WORK.scaled(ncells))
            with section(ctx, "HALO"):
                yield from self._exchange_and_pad(
                    comm, f_post, pad_up, pad_down, is_top, is_bottom
                )
            with section(ctx, "STREAM"):
                f = self._stream(f_post, pad_up, pad_down)
                ctx.compute(work=STREAM_WORK.scaled(ncells))
            with section(ctx, "MACRO"):
                rho, ux, uy = moments(f)
                ctx.compute(work=MACRO_WORK.scaled(ncells))

        return {
            "mass": float(f.sum()),
            "initial_mass": initial_mass,
            "momentum_x": float((rho * ux).sum()),
            "ux_profile": ux.mean(axis=1),  # per-row mean x velocity
            "rows": ny_local,
            "f": f,
        }

    # -- post-run -------------------------------------------------------------------

    def collect(self, result: RunResult) -> dict:
        """Assemble the global summary from per-rank returns: total and
        initial mass, their relative drift, x momentum, the per-row mean
        x velocity profile and the distribution field (9, ny, nx)."""
        parts = result.results
        mass = sum(r["mass"] for r in parts)
        initial = sum(r["initial_mass"] for r in parts)
        return {
            "mass": mass,
            "initial_mass": initial,
            "mass_drift": abs(mass - initial) / initial,
            "momentum_x": sum(r["momentum_x"] for r in parts),
            "ux_profile": np.concatenate([r["ux_profile"] for r in parts]),
            "f": np.concatenate([r["f"] for r in parts], axis=1),
        }

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
