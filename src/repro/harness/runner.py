"""Sweep execution: workloads → profile containers.

**Seeding contract.**  Runs are deterministic per (sweep, seed):
repetition ``r`` at process count ``p`` uses seed
``base_seed + 1000 * p + r`` (convolution) or
``base_seed + 1000 * (p * 1000 + t) + r`` (the Lulesh p×t grid), so any
single point of a sweep can be re-executed in isolation and
bit-compared.  The schemes keep points distinct only while ``reps``
stays below the 1000-seed stride and scales do not repeat; every runner
therefore materialises the full seed set up front, and the point loop
raises ``ValueError`` on a collision instead of silently correlating
two points' noise streams.

**Execution model.**  Each runner enumerates its points and folds the
results; the point loop itself is
:func:`repro.harness.parallel.sweep_points`, shared with
:func:`repro.harness.scenario.run_scenario`.  Each point is simulated by
a module-level worker function taking a picklable task tuple, used
identically by the serial path and by worker processes — so a parallel
run (``jobs > 1`` or ``$REPRO_JOBS``) merges, in canonical
``(scale, rep)`` order, into a result bit-identical to the serial one,
with the same ordered ``progress`` line stream.  When a
:class:`~repro.harness.cache.RunCache` is active (passed explicitly, or
by default whenever ``$REPRO_CACHE_DIR`` is set), previously executed
points are replayed from disk instead of re-simulated.  Below the run
cache, a Lulesh grid point whose ``(config, p)`` another point of the
same process already computed runs as a timing skeleton: the physics
comes from the workload's own memo
(:func:`repro.workloads.lulesh.run_lulesh`), every virtual-time output
is unchanged, and neither this module nor any cache key sees the
difference.

**Fail-soft execution.**  ``on_error="raise"`` (default) propagates the
first failing point's exception; ``on_error="skip"`` keeps the sweep
going, collecting every failure — including worker-process death — into
a :class:`~repro.harness.failures.SweepFailureReport` attached to the
result's ``failures``.  Either way each point may be retried
(``retries``/``retry_backoff``) and a failed point is never written to
the cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.core.analysis import HybridAnalysis
from repro.core.export import profile_from_dict, profile_to_dict
from repro.core.profile import ScalingProfile, SectionProfile
from repro.harness.cache import RunCache, run_key
from repro.harness.parallel import sweep_points
from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.workloads import registry
from repro.workloads.lulesh import LuleshConfig


# ---------------------------------------------------------------------------
# Convolution sweep
# ---------------------------------------------------------------------------

def _run_conv_point(task) -> Tuple[SectionProfile, str]:
    """Execute one (p, rep) convolution point; the unit of parallelism."""
    sweep, p, r, seed = task
    with obs.span("point.simulate", layer="harness",
                  workload="convolution", p=p, rep=r):
        plugin = registry.get("convolution").from_config(sweep.config_for(p))
        res = plugin.run(
            p,
            machine=sweep.machine,
            ranks_per_node=sweep.ranks_per_node,
            seed=seed,
            compute_jitter=sweep.compute_jitter,
            noise_floor=sweep.noise_floor,
            faults=sweep.faults,
            wall_timeout=sweep.wall_timeout,
            engine=sweep.engine,
            macrostep=sweep.macrostep,
        )
    msg = (
        f"convolution p={p} rep={r}: wall={res.walltime:.3f}s "
        f"msgs={res.network['messages']}"
    )
    return SectionProfile.from_run(res, p=p), msg


def _conv_point_key(sweep: ConvolutionSweep, p: int, r: int, seed: int) -> str:
    return run_key(
        workload="convolution",
        config=sweep.config_for(p),
        p=p,
        rep=r,
        seed=seed,
        machine=sweep.machine,
        ranks_per_node=sweep.ranks_per_node,
        compute_jitter=sweep.compute_jitter,
        noise_floor=sweep.noise_floor,
        faults=sweep.faults,
    )


def run_convolution_sweep(
    sweep: ConvolutionSweep,
    progress: Optional[Callable[[str], None]] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    on_error: str = "raise",
    retries: int = 0,
    retry_backoff: float = 0.0,
) -> ScalingProfile:
    """Execute the convolution benchmark across a process-count sweep.

    Returns a :class:`~repro.core.profile.ScalingProfile` keyed by
    process count, with ``reps`` seeded repetitions per point (the
    paper averaged twenty).  ``jobs`` fans points out over worker
    processes (default: ``$REPRO_JOBS`` or serial; 0 = all cores);
    ``cache`` replays previously executed points from disk (default: on
    iff ``$REPRO_CACHE_DIR`` is set).  Both leave the result — and the
    ``progress`` line sequence — bit-identical to a serial, uncached
    run.

    ``on_error="skip"`` survives failing points (each retried
    ``retries`` times with exponential backoff from ``retry_backoff``
    seconds): the sweep completes, skipped points are reported through
    the returned profile's ``failures``
    (:class:`~repro.harness.failures.SweepFailureReport`) and never
    cached.

    With ``REPRO_TRACE`` set (and no trace already active) the sweep is
    an outermost entry point: it mints the trace and emits the
    self-profiling outputs on return — see :mod:`repro.obs`.
    """
    points = []
    for p in sweep.process_counts:
        for r in range(sweep.reps):
            seed = sweep.base_seed + 1000 * p + r
            points.append((f"convolution p={p} rep={r}", seed,
                           (sweep, p, r, seed)))
    done, report = sweep_points(
        "convolution", points, _run_conv_point,
        key=lambda task: _conv_point_key(*task),
        encode=lambda prof, msg: {"profile": profile_to_dict(prof),
                                  "msg": msg},
        decode=lambda d: (profile_from_dict(d["profile"]), d["msg"]),
        progress=progress, jobs=jobs, cache=cache, on_error=on_error,
        retries=retries, retry_backoff=retry_backoff,
        trace="sweep.convolution", reps=sweep.reps,
    )
    profile = ScalingProfile(scale_name="p")
    for (_, p, _, _), prof in done:
        profile.add(p, prof)
    profile.failures = report
    return profile


# ---------------------------------------------------------------------------
# Lulesh MPI×OpenMP grid
# ---------------------------------------------------------------------------

def _run_lulesh_point(task) -> Tuple[Tuple[SectionProfile, float], str]:
    """Execute one (p, threads, rep) Lulesh point."""
    sweep, cfg, p, t, r, seed = task
    with obs.span("point.simulate", layer="harness",
                  workload="lulesh", p=p, threads=t, rep=r):
        plugin = registry.get("lulesh").from_config(cfg)
        run = plugin.run(
            p,
            threads=t,
            machine=sweep.machine,
            seed=seed,
            compute_jitter=sweep.compute_jitter,
            faults=sweep.faults,
            wall_timeout=sweep.wall_timeout,
            engine=sweep.engine,
            macrostep=sweep.macrostep,
        )
        drift = plugin.metrics(run)["energy_drift"]
    msg = (
        f"lulesh p={p} t={t} rep={r}: wall={run.walltime:.3f}s "
        f"E-drift={drift:.2e}"
    )
    return (SectionProfile.from_run(run, p=p, threads=t), drift), msg


def _lulesh_point_key(
    sweep: LuleshGridSweep, cfg: LuleshConfig, p: int, t: int, r: int, seed: int
) -> str:
    return run_key(
        workload="lulesh",
        config=cfg,
        p=p,
        threads=t,
        rep=r,
        seed=seed,
        machine=sweep.machine,
        compute_jitter=sweep.compute_jitter,
        faults=sweep.faults,
    )


def run_lulesh_grid(
    sweep: LuleshGridSweep,
    progress: Optional[Callable[[str], None]] = None,
    sides: Optional[Dict[int, int]] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    on_error: str = "raise",
    retries: int = 0,
    retry_backoff: float = 0.0,
) -> Tuple[HybridAnalysis, Dict[Tuple[int, int], float]]:
    """Execute the Lulesh proxy over an MPI×OpenMP grid.

    ``sides`` optionally overrides the per-rank side length per process
    count (to hold total elements constant à la Figure 7); when omitted,
    the sweep's single config side is scaled by ``cbrt(p)`` downward
    using the constant-total rule where exact, else kept as-is.
    ``jobs`` and ``cache`` behave exactly as in
    :func:`run_convolution_sweep`.

    Returns the populated :class:`~repro.core.analysis.HybridAnalysis`
    plus a dict of (p, threads) → mean energy drift (a correctness
    telltale carried along with every performance number).

    ``on_error``/``retries``/``retry_backoff`` give the same fail-soft
    semantics as :func:`run_convolution_sweep`; skipped points land in
    the analysis' ``failures`` report and are excluded from the drift
    means.

    Like :func:`run_convolution_sweep`, this is a ``REPRO_TRACE``
    entry point — see :mod:`repro.obs`.
    """
    base_total = sweep.config.s**3  # elements at p=1
    points = []
    for p in sorted(sweep.grid):
        if sides and p in sides:
            s = sides[p]
        else:
            s = round((base_total / p) ** (1.0 / 3.0))
            if p * s**3 != base_total:
                s = sweep.config.s
        cfg = sweep.config.with_side(s)
        for t in sweep.grid[p]:
            for r in range(sweep.reps):
                seed = sweep.base_seed + 1000 * (p * 1000 + t) + r
                points.append((f"lulesh p={p} t={t} rep={r}", seed,
                               (sweep, cfg, p, t, r, seed)))
    done, report = sweep_points(
        "lulesh", points, _run_lulesh_point,
        key=lambda task: _lulesh_point_key(*task),
        encode=lambda v, msg: {"profile": profile_to_dict(v[0]),
                               "drift": v[1], "msg": msg},
        decode=lambda d: ((profile_from_dict(d["profile"]), d["drift"]),
                          d["msg"]),
        progress=progress, jobs=jobs, cache=cache, on_error=on_error,
        retries=retries, retry_backoff=retry_backoff,
        trace="sweep.lulesh", reps=sweep.reps,
    )
    analysis = HybridAnalysis()
    drift_acc: Dict[Tuple[int, int], float] = {}
    drift_n: Dict[Tuple[int, int], int] = {}
    for (_, _, p, t, _, _), (prof, drift) in done:
        analysis.add(p, t, prof)
        drift_acc[(p, t)] = drift_acc.get((p, t), 0.0) + drift
        drift_n[(p, t)] = drift_n.get((p, t), 0) + 1
    drifts = {pt: acc / drift_n[pt] for pt, acc in drift_acc.items()}
    analysis.failures = report
    return analysis, drifts
