"""LULESH-like MPI+OpenMP benchmark (the paper's Section 5.2 study).

The driver mirrors LULESH 2.0's phase structure and the paper's
instrumentation: *"We added 21 sections in the main source file in order
to outline main computation steps"*, with the two dominant, mutually
exclusive phases ``LagrangeNodal`` and ``LagrangeElements`` inside a
``timeloop`` section that accounts for ~99 % of main.

The 21 section labels (nesting shown by indentation)::

    timeloop
      LagrangeNodal
        CommSBN
        CalcForceForNodes
          IntegrateStressForElems
          CalcHourglassControlForElems
        CalcAccelerationForNodes
        ApplyAccelerationBC
        CalcVelocityForNodes
        CalcPositionForNodes
      LagrangeElements
        CalcLagrangeElements
          CalcKinematicsForElems
        CalcQForElems
          CommMonoQ
        ApplyMaterialPropertiesForElems
          EvalEOSForElems
        CommEnergy
        UpdateVolumesForElems
      CalcTimeConstraintsForElems
        CommDt

MPI decomposition is a cube of ranks (as LULESH requires); each rank owns
an (s, s, s) element block and exchanges one ghost plane per face.  All
compute loops run through the simulated OpenMP runtime, so a single run
produces both the MPI and the OpenMP timing structure from nothing but
MPI-level section instrumentation — the paper's headline demonstration.

Physics once per (config, p) per sweep
--------------------------------------
Virtual time never depends on what a kernel computes: a parallel loop
charges its modeled region time whatever its body does, the ghost
planes and the ``CommDt`` operand have fixed sizes, and ``dt`` feeds
only the kernels.  The physics itself depends on neither the thread
count (the kernels split into the same elementwise slabs) nor the seed
(the initial state takes none).  So :meth:`LuleshWorkload.run`, the one
driver, keeps the physics in the sweep's scope
(:mod:`repro.workloads.physics_scope`) keyed on ``(LuleshConfig, p)`` —
the frozen config as it is; machine, threads, seed, jitter and
timing-only faults stay out of the key.  The scope lasts one sweep and
holds the latest key only, which is all a grid needs: it runs every
thread count and repetition of one ``p`` in a row.

The first run of a key executes the kernels and, only once it has
returned successfully, stores every rank's ``energy``,
``initial_energy``, ``dt`` and, with ``return_fields``, a read-only copy
of ``e_field``.  Every later run of the key is a *timing skeleton*: the
same sections, the same ``parallel_for`` charges (the ``parallel_reduce``
of the time constraint becomes a ``parallel_for`` of the same work,
which charges identically), hence the same ``ctx.compute`` calls and
jitter draws; the same ``g_Sendrecv`` ghost planes, zero-filled but of
the same shape and dtype; and a Python-float ``CommDt`` operand, which
pickles to the same 64-byte floor as the real one.  Its per-rank
results are the stored physics (fresh copies) plus its own live
``omp_regions``, so clocks, section events, network counters, results
and profiles are bit-identical to a run that computed.

A rank runs the skeleton only when the engine's fast-path admission
rule (:attr:`~repro.simmpi.engine._EngineBase.admits_fast_paths`, the
one the collective gate uses) holds: a run with a hang or crash plan,
or with a PMPI tool hooking ``on_send`` / ``on_recv``, computes.  A
run outside any sweep computes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, WorkloadError, WorkloadValidityError
from repro.machine.spec import MachineSpec
from repro.omp import OMPParams, OpenMP
from repro.simmpi.api import PROC_NULL
from repro.simmpi.engine import RunResult, run_mpi
from repro.simmpi.reduce_ops import MAX
from repro.simmpi.sections_rt import section
from repro.simmpi.topology import CartGrid
from repro.workloads import lulesh_phases as ph
from repro.workloads.base import WorkloadPlugin, params_from_config
from repro.workloads.physics_scope import recall, remember
from repro.workloads.registry import register

#: The paper's element-count invariant: all strong-scaling configurations
#: hold the global problem at 110 592 elements (Figure 7).
PAPER_TOTAL_ELEMENTS = 110_592


@dataclass(frozen=True)
class LuleshConfig:
    """Proxy parameters.

    ``s`` is the per-rank side length (LULESH's ``-s``); the global mesh
    is ``(cbrt(p)*s)^3`` elements.  ``work_scale`` multiplies the charged
    (virtual) per-element work without changing the real arithmetic —
    the knob that puts virtual walltimes in the paper's range.
    """

    s: int = 12
    steps: int = 20
    work_scale: float = 1.0
    eos_iters: int = 4
    spike: float = 3.0
    hg_eps: float = 0.05
    qcoef: float = 1.0
    k0: float = 0.05
    k1: float = 0.05
    cfl: float = 0.5
    dt0: float = 0.2
    velocity_cutoff: float = 1e-12
    return_fields: bool = False
    omp_params: Optional[OMPParams] = None

    def __post_init__(self) -> None:
        if self.s < 2:
            raise ReproError(f"per-rank side must be >= 2, got {self.s}")
        if self.steps < 1:
            raise ReproError(f"need at least one step, got {self.steps}")
        if self.eos_iters < 1:
            raise ReproError("EOS needs at least one iteration")

    def with_side(self, s: int) -> "LuleshConfig":
        """Copy at a different per-rank side length."""
        return replace(self, s=s)


def lulesh_strong_scaling_configs(
    total_elements: int = PAPER_TOTAL_ELEMENTS,
    process_counts: Tuple[int, ...] = (1, 8, 27, 64),
) -> List[Tuple[int, int]]:
    """Figure 7's table: (p, s) pairs holding total elements constant.

    Raises if a process count cannot hold the invariant exactly (p must
    be a cube and total/p a cube).
    """
    out = []
    for p in process_counts:
        side_p = round(p ** (1.0 / 3.0))
        if side_p**3 != p:
            raise ReproError(f"Lulesh needs a cube of processes, got p={p}")
        local = total_elements / p
        s = round(local ** (1.0 / 3.0))
        if p * s**3 != total_elements:
            raise ReproError(
                f"cannot hold {total_elements} elements with p={p}: "
                f"local size {local} is not a cube"
            )
        out.append((p, s))
    return out


#: One rank's stored physics: (energy, initial_energy, dt, e_field or None).
RankPhysics = Tuple[float, float, float, Optional[np.ndarray]]


def _stored(rank_result: dict) -> RankPhysics:
    """One rank's physics from its returned dict, with a read-only copy
    of the field so no caller's array is shared with the memo."""
    field = rank_result.get("e_field")
    if field is not None:
        field = field.copy()
        field.flags.writeable = False
    return (rank_result["energy"], rank_result["initial_energy"],
            rank_result["dt"], field)


@dataclass
class LuleshResult:
    """Physics-side outcome of one run (assembled on the caller)."""

    total_energy: float
    initial_energy: float
    final_dt: float
    #: Global energy field (side, side, side); None unless requested.
    energy_field: Optional[np.ndarray]

    @property
    def energy_drift(self) -> float:
        """Relative conservation error |E_final - E_initial| / E_initial."""
        return abs(self.total_energy - self.initial_energy) / self.initial_energy


#: Lulesh section labels in traversal order (the paper's 21 sections).
SECTIONS = (
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
class LuleshWorkload(WorkloadPlugin):
    """The LULESH-like Lagrangian hydro proxy (paper Section 5.2)."""

    NAME = "lulesh"
    DOMAIN = "paper"
    SECTIONS = SECTIONS
    KEY_SECTIONS = ("LagrangeNodal", "LagrangeElements")
    COMM_SECTIONS = ("CommSBN", "CommMonoQ", "CommEnergy", "CommDt")
    COMM_PATTERN = "halo-3d"
    CONFIG = LuleshConfig
    PARAMS = params_from_config(LuleshConfig, exclude=("omp_params",), docs={
        "s": "per-rank cube side length (LULESH -s)",
        "steps": "Lagrange time steps",
        "work_scale": "virtual per-element work multiplier",
        "eos_iters": "EOS Newton iterations",
    })

    @classmethod
    def check_scale(cls, p: int, params: Dict[str, Any]) -> None:
        """LULESH decomposes a cube: only cube process counts run."""
        super().check_scale(p, params)
        side = round(p ** (1.0 / 3.0))
        if side**3 != p:
            raise WorkloadError(
                f"{cls.NAME}: needs a cube of processes, got p={p}"
            )

    # -- halo exchange -------------------------------------------------------------

    @staticmethod
    def _exchange_ghosts(comm, grid: CartGrid, fields):
        """Exchange one ghost plane per face for each padded field, then
        replicate interior edges into global-boundary pads (zero-flux /
        zero-gradient boundary).  A generator rank-body fragment: drive
        with ``yield from``."""
        rank = comm.rank
        s = fields[0].shape[0] - 2

        def plane(arr, axis, idx):
            if axis == 0:
                return np.ascontiguousarray(arr[idx, 1:-1, 1:-1])
            if axis == 1:
                return np.ascontiguousarray(arr[1:-1, idx, 1:-1])
            return np.ascontiguousarray(arr[1:-1, 1:-1, idx])

        def set_plane(arr, axis, idx, values):
            if axis == 0:
                arr[idx, 1:-1, 1:-1] = values
            elif axis == 1:
                arr[1:-1, idx, 1:-1] = values
            else:
                arr[1:-1, 1:-1, idx] = values

        for axis in range(3):
            minus = grid.shift(rank, axis, -1)
            plus = grid.shift(rank, axis, +1)
            for f in fields:
                buf = np.empty((s, s), dtype=f.dtype)
                # send high interior plane to +, receive low pad from -
                yield from comm.g_Sendrecv(plane(f, axis, -2), plus, buf, minus,
                                           sendtag=20 + axis, recvtag=20 + axis)
                if minus != PROC_NULL:
                    set_plane(f, axis, 0, buf)
                else:
                    set_plane(f, axis, 0, plane(f, axis, 1))
                # send low interior plane to -, receive high pad from +
                yield from comm.g_Sendrecv(plane(f, axis, 1), minus, buf, plus,
                                           sendtag=30 + axis, recvtag=30 + axis)
                if plus != PROC_NULL:
                    set_plane(f, axis, -1, buf)
                else:
                    set_plane(f, axis, -1, plane(f, axis, -2))

    # -- per-rank program ---------------------------------------------------------------

    def main(self, ctx, threads: int,
             memo: Optional[Tuple[RankPhysics, ...]] = None):
        """The MPI+OpenMP program each rank executes (a generator rank
        body; communication goes through the ``g_*`` API).

        :meth:`run` stages the arguments: ``threads`` is the OpenMP
        team size, and ``memo`` is this config's stored per-rank physics
        at this process count; given one, the rank runs the timing
        skeleton when the engine admits fast paths."""
        cfg = self.to_config()
        comm = ctx.comm
        grid = CartGrid.cube(comm.size)
        coords = grid.coords(comm.rank)
        s = cfg.s
        physics = memo is None or not ctx.engine.admits_fast_paths
        if physics:
            st = ph.HydroState.initial(s, coords, spike=cfg.spike)
            initial_energy = st.total_energy()
        else:
            st = None
            # Stands in for every exchanged field: same ghost planes on
            # the wire, no field data.
            ghost = np.zeros((s + 2, s + 2, s + 2), dtype=np.float64)
        omp = OpenMP(ctx, threads, params=cfg.omp_params)
        nelem = s**3
        W = cfg.work_scale

        def pfor(kernel_name: str, body) -> None:
            omp.parallel_for(
                s, body if physics else None,
                work=ph.work_for(kernel_name, nelem, W),
            )

        def exchange(*names: str):
            fields = ([getattr(st, n) for n in names] if physics
                      else [ghost] * len(names))
            return self._exchange_ghosts(comm, grid, fields)

        dt = cfg.dt0
        with section(ctx, "timeloop"):
            for _ in range(cfg.steps):
                # ---------------- LagrangeNodal ----------------
                with section(ctx, "LagrangeNodal"):
                    with section(ctx, "CommSBN"):
                        yield from exchange("e")
                    with section(ctx, "CalcForceForNodes"):
                        with section(ctx, "IntegrateStressForElems"):
                            pfor(
                                "IntegrateStressForElems",
                                lambda lo, hi: ph.integrate_stress(st, lo, hi),
                            )
                        with section(ctx, "CalcHourglassControlForElems"):
                            pfor(
                                "CalcHourglassControlForElems",
                                lambda lo, hi, dt=dt: ph.hourglass_control(
                                    st, dt, cfg.hg_eps, lo, hi
                                ),
                            )
                    with section(ctx, "CalcAccelerationForNodes"):
                        pfor(
                            "CalcAccelerationForNodes",
                            lambda lo, hi, dt=dt: ph.acceleration(st, dt, lo, hi),
                        )
                    with section(ctx, "ApplyAccelerationBC"):
                        pfor(
                            "ApplyAccelerationBC",
                            lambda lo, hi: ph.acceleration_bc(st, coords, lo, hi),
                        )
                    with section(ctx, "CalcVelocityForNodes"):
                        pfor(
                            "CalcVelocityForNodes",
                            lambda lo, hi: ph.velocity_cutoff(
                                st, cfg.velocity_cutoff, lo, hi
                            ),
                        )
                    with section(ctx, "CalcPositionForNodes"):
                        pfor(
                            "CalcPositionForNodes",
                            lambda lo, hi, dt=dt: ph.position_update(st, dt, lo, hi),
                        )

                # ---------------- LagrangeElements ----------------
                with section(ctx, "LagrangeElements"):
                    with section(ctx, "CalcLagrangeElements"):
                        with section(ctx, "CalcQForElems"):
                            with section(ctx, "CommMonoQ"):
                                yield from exchange("mx", "my", "mz")
                        with section(ctx, "CalcKinematicsForElems"):
                            pfor(
                                "CalcKinematicsForElems",
                                lambda lo, hi: ph.kinematics(st, lo, hi),
                            )
                            pfor(
                                "CalcMonotonicQForElems",
                                lambda lo, hi: ph.monotonic_q(st, cfg.qcoef, lo, hi),
                            )
                    with section(ctx, "ApplyMaterialPropertiesForElems"):
                        with section(ctx, "EvalEOSForElems"):
                            pfor(
                                "EvalEOSForElems",
                                lambda lo, hi: ph.eval_eos(st, cfg.eos_iters, lo, hi),
                            )
                        pfor(
                            "CalcSoundSpeed",
                            lambda lo, hi: ph.sound_speed_kappa(
                                st, cfg.k0, cfg.k1, lo, hi
                            ),
                        )
                    with section(ctx, "CommEnergy"):
                        yield from exchange("kappa")
                    with section(ctx, "UpdateVolumesForElems"):
                        pfor(
                            "UpdateVolumesForElems",
                            lambda lo, hi, dt=dt: ph.update_volumes(st, dt, lo, hi),
                        )
                        if physics:
                            st.interior(st.e)[...] += st.e_incr

                # ---------------- time constraints ----------------
                with section(ctx, "CalcTimeConstraintsForElems"):
                    work = ph.work_for("CalcTimeConstraints", nelem, W)
                    if physics:
                        local_max = omp.parallel_reduce(
                            s,
                            lambda lo, hi: ph.courant_local_max(st, lo, hi),
                            max,
                            work=work,
                        )
                    else:
                        omp.parallel_for(s, None, work=work)
                        local_max = 0.0
                    with section(ctx, "CommDt"):
                        gmax = yield from comm.g_allreduce(local_max, op=MAX)
                    dt = cfg.cfl / (6.0 * gmax + 1e-12)

        if physics:
            energy = st.total_energy()
            field = st.interior(st.e) if cfg.return_fields else None
        else:
            energy, initial_energy, dt, field = memo[comm.rank]
        out = {
            "energy": energy,
            "initial_energy": initial_energy,
            "coords": coords,
            "dt": dt,
            "omp_regions": omp.regions,
        }
        if field is not None:
            out["e_field"] = field.copy()
        return out

    # -- driver -----------------------------------------------------------------------------

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
        """Run the proxy at ``(p, threads)``; all ranks share one node
        unless ``ranks_per_node`` says otherwise.

        It reads the sweep's physics scope, hands the entry (if any) to
        every rank, which then runs the timing skeleton where the engine
        admits it (module docstring), and stores the physics of a run
        that computed once ``run_mpi`` has returned.
        """
        key = (self.to_config(), p)
        memo = recall(key)
        run = run_mpi(
            p,
            self.main,
            machine=machine,
            ranks_per_node=p if ranks_per_node is None else ranks_per_node,
            seed=seed,
            compute_jitter=compute_jitter,
            noise_floor=noise_floor,
            tools=tools,
            faults=faults,
            wall_timeout=wall_timeout,
            engine=engine,
            macrostep=macrostep,
            args=(threads, memo),
        )
        if memo is None:
            remember(key, lambda: tuple(_stored(r) for r in run.results))
        return run

    # -- post-run -----------------------------------------------------------------------------

    def collect(self, result: RunResult) -> LuleshResult:
        """Assemble the global physics result from per-rank returns."""
        cfg = self.to_config()
        parts = result.results
        total = sum(r["energy"] for r in parts)
        initial = sum(r["initial_energy"] for r in parts)
        field = None
        if cfg.return_fields:
            side = round(result.n_ranks ** (1.0 / 3.0))
            big = side * cfg.s
            field = np.empty((big, big, big), dtype=np.float64)
            for r in parts:
                cz, cy, cx = r["coords"]
                field[
                    cz * cfg.s : (cz + 1) * cfg.s,
                    cy * cfg.s : (cy + 1) * cfg.s,
                    cx * cfg.s : (cx + 1) * cfg.s,
                ] = r["e_field"]
        return LuleshResult(
            total_energy=total,
            initial_energy=initial,
            final_dt=parts[0]["dt"],
            energy_field=field,
        )

    def check(self, result: RunResult) -> None:
        """Energies and the final dt must be finite and positive."""
        phys = self.collect(result)
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
        phys = self.collect(result)
        return {
            "energy_drift": float(phys.energy_drift),
            "final_dt": float(phys.final_dt),
        }
