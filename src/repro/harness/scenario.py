"""Scenario execution: a :class:`~repro.scenarios.ScenarioSpec` → profiles.

Generic over every registered workload plugin, :func:`run_scenario`
runs on the same point loop as the hand-wired sweeps of
:mod:`repro.harness.runner` (:func:`~repro.harness.parallel.sweep_points`):
points follow the same seeding contract (``base_seed + 1000 * p + rep``),
run through the same fail-soft parallel map, and hit the same
content-addressed run cache — with the plugin's validity check executed
after **every** fresh point, so a corrupted simulation fails loudly
instead of polluting a profile (and is never cached).

:func:`scenario_payload` is the single canonical JSON rendering of a
scenario result, shared by the CLI (``repro sweep --scenario``) and the
service (``kind: "scenario"`` jobs) so both paths are byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.timeresolved import (
    WindowConfig,
    intervals_from_run,
    scenario_timeline,
)
from repro.core.export import (
    profile_from_dict,
    profile_to_dict,
    scaling_to_json,
)
from repro.core.profile import ScalingProfile, SectionProfile
from repro.errors import ReproError
from repro.harness.cache import RunCache, run_key
from repro.harness.parallel import sweep_points
from repro.scenarios import ScenarioSpec


def scenario_point_key(spec: ScenarioSpec, p: int, rep: int, seed: int) -> str:
    """Run-cache key of one scenario point.

    Mirrors the hand-wired sweeps' keys: everything result-shaping is
    included; the engine is **not** (both engines are bit-identical, so
    either may serve the other's cached points — the scenario
    ``content_key`` is where engine choice matters).
    """
    return run_key(
        workload=spec.workload,
        config=spec.params,
        p=p,
        threads=spec.threads,
        rep=rep,
        seed=seed,
        machine=spec.machine_spec(),
        ranks_per_node=spec.ranks_per_node,
        compute_jitter=spec.compute_jitter,
        noise_floor=spec.noise_floor,
        faults=spec.faults,
    )


def _run_scenario_point(
    task,
) -> Tuple[Tuple[SectionProfile, Dict[str, float], Dict[str, Any]], str]:
    """Execute one (p, rep) scenario point; the unit of parallelism."""
    spec, p, rep, seed = task
    plugin = spec.plugin()
    with obs.span("point.simulate", layer="harness",
                  workload=spec.workload, p=p, rep=rep):
        res = plugin.run(
            p,
            threads=spec.threads,
            machine=spec.machine_spec(),
            ranks_per_node=spec.ranks_per_node,
            seed=seed,
            compute_jitter=spec.compute_jitter,
            noise_floor=spec.noise_floor,
            faults=spec.faults,
            wall_timeout=spec.wall_timeout,
            engine=spec.engine,
            macrostep=spec.macrostep,
        )
    plugin.check(res)  # loud validity gate: corrupt points never cache
    metrics = plugin.metrics(res)
    # Engine diagnostics ride along with the workload metrics so
    # ``repro report --scenario`` can show them next to the physics.
    # The point cache is macrostep-blind (replay is bit-identical), so
    # a cached point reports the counters of whichever mode actually
    # simulated it — they describe the execution, not the result.
    metrics = dict(metrics)
    metrics["sched_steps"] = float(res.sched_steps)
    metrics["rounds_captured"] = float(res.rounds_captured)
    metrics["rounds_replayed"] = float(res.rounds_replayed)
    metrics["deopts"] = float(res.deopts)
    intervals = intervals_from_run(res, type(plugin).COMM_SECTIONS)
    msg = (
        f"{spec.workload} p={p} rep={rep}: wall={res.walltime:.3f}s "
        f"msgs={res.network['messages']} steps={res.sched_steps} "
        f"replayed={res.rounds_replayed}"
    )
    prof = SectionProfile.from_run(res, p=p, threads=spec.threads)
    return (prof, metrics, intervals), msg


def run_scenario(
    spec: ScenarioSpec,
    progress: Optional[Callable[[str], None]] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    on_error: str = "raise",
    retries: int = 0,
    retry_backoff: float = 0.0,
) -> Tuple[ScalingProfile, Dict[int, Dict[str, float]],
           Dict[int, List[Dict[str, Any]]]]:
    """Execute a scenario sweep; returns (profile, metrics, intervals).

    The profile is a :class:`~repro.core.profile.ScalingProfile` keyed
    by process count — the container every paper analysis (breakdowns,
    bounds, inflexion, imbalance) consumes — the metrics dict maps
    each scale to the rep-averaged plugin metrics (energy drift, mass
    drift, task imbalance, ...), and the intervals dict maps each scale
    to its per-rep :func:`~repro.analysis.intervals_from_run` records —
    the raw material of the time-resolved efficiency timelines
    (:mod:`repro.analysis`).

    ``jobs``/``cache``/``on_error``/``retries`` behave exactly as in
    :func:`~repro.harness.runner.run_convolution_sweep`: parallel and
    cached execution are bit-identical to serial uncached runs, failed
    points are retried then skipped (``on_error="skip"``) into the
    profile's ``failures`` report, and never cached.
    """
    points = []
    for p in spec.process_counts:
        for r in range(spec.reps):
            seed = spec.base_seed + 1000 * p + r
            points.append((f"{spec.workload} p={p} rep={r}", seed,
                           (spec, p, r, seed)))
    done, report = sweep_points(
        spec.workload, points, _run_scenario_point,
        key=lambda task: scenario_point_key(*task),
        encode=lambda v, msg: {"profile": profile_to_dict(v[0]),
                               "metrics": v[1], "msg": msg,
                               "intervals": v[2]},
        decode=lambda d: ((profile_from_dict(d["profile"]), d["metrics"],
                           d["intervals"]), d["msg"]),
        progress=progress, jobs=jobs, cache=cache, on_error=on_error,
        retries=retries, retry_backoff=retry_backoff,
        trace="sweep.scenario", reps=spec.reps,
    )
    profile = ScalingProfile(scale_name="p")
    metric_acc: Dict[int, Dict[str, float]] = {}
    metric_n: Dict[int, int] = {}
    intervals: Dict[int, List[Dict[str, Any]]] = {}
    for (_, p, _, _), (prof, metrics, ivals) in done:
        profile.add(p, prof)
        intervals.setdefault(p, []).append(ivals)
        acc = metric_acc.setdefault(p, {})
        for name, value in metrics.items():
            acc[name] = acc.get(name, 0.0) + float(value)
        metric_n[p] = metric_n.get(p, 0) + 1
    profile.failures = report
    metric_means = {
        p: {name: total / metric_n[p] for name, total in acc.items()}
        for p, acc in metric_acc.items()
    }
    return profile, metric_means, intervals


def speedup_summary(profile: ScalingProfile) -> Dict[str, Any]:
    """The ``summary`` block of a sweep result payload.

    Scales, per-scale speedup and the sequential time; the latter two
    are ``None`` when a fail-soft sweep lost the p=1 reference runs.
    Shared by :func:`scenario_payload` and the service's convolution
    jobs.
    """
    summary: Dict[str, Any] = {"scales": profile.scales()}
    try:
        summary["speedup"] = {
            str(p): profile.speedup(p) for p in profile.scales()
        }
        summary["sequential_time"] = profile.sequential_time()
    except ReproError:
        summary["speedup"] = None
        summary["sequential_time"] = None
    return summary


def scenario_payload(
    spec: ScenarioSpec,
    profile: ScalingProfile,
    metrics: Dict[int, Dict[str, float]],
    intervals: Optional[Dict[int, List[Dict[str, Any]]]] = None,
) -> Dict[str, Any]:
    """The canonical JSON result of one scenario run.

    Shared verbatim by the CLI and the service result path, so a
    ``repro sweep --scenario`` artifact and a served ``kind: "scenario"``
    payload for the same spec are byte-identical.

    ``intervals`` (the third :func:`run_scenario` return) embeds the
    per-point interval records and the derived ``timeline`` block —
    windowed POP-style efficiencies plus the inflexion localizer, under
    the spec's ``timeline`` window configuration.  Virtual-time inputs
    make both blocks bit-identical across engines and tracing modes.
    """
    from repro.service.jobs import JOB_SCHEMA_VERSION

    intervals = intervals or {}
    timeline = scenario_timeline(
        intervals, WindowConfig.from_dict(spec.timeline)
    ) if intervals else None
    return {
        "kind": "scenario",
        "schema": JOB_SCHEMA_VERSION,
        "scenario": spec.to_dict(),
        "content_key": spec.content_key,
        "profile_json": scaling_to_json(profile),
        "metrics": {str(p): dict(sorted(m.items()))
                    for p, m in sorted(metrics.items())},
        "failures": (profile.failures.to_payload()
                     if profile.failures is not None else []),
        "summary": speedup_summary(profile),
        "intervals": {str(p): recs
                      for p, recs in sorted(intervals.items())},
        "timeline": timeline,
    }
