"""Job specifications: the JSON contract between clients and the service.

A *job spec* declares one sweep the service should execute — workload
parameters, machine model, scales, seeds, an optional
:class:`~repro.faults.FaultPlan`, and the fail-soft policy — as plain
JSON.  Parsing normalises the spec (defaults applied, keys
canonicalised) and validates it eagerly by constructing the actual
sweep object, so a malformed spec is rejected at submission time with a
:class:`JobSpecError` instead of failing later inside a worker.

**Content addressing.**  :attr:`JobSpec.key` is the SHA-256 of the
canonical JSON rendering of everything that influences the simulated
*result* (kind + normalised work definition + a job schema version).
Execution knobs that cannot change the numbers — the submitting client,
``on_error``, ``retries``, per-sweep worker count, the wall-clock
watchdog, the execution engine — are excluded, so two clients asking
the same question share
one queue slot (deduplication) and one registry record (warm-cache
resubmits).  This mirrors the run cache's keying philosophy one level
up: the cache addresses *points*, the registry addresses *jobs*.

**Determinism.**  :func:`execute_job` drives the exact same harness
entry points (:func:`~repro.harness.runner.run_convolution_sweep`,
:func:`~repro.harness.runner.run_lulesh_grid`) a direct library caller
would use, with the same seeds, so a served payload is byte-identical
to a local run of the same spec — the e2e tests assert exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.export import profile_to_dict, scaling_to_json
from repro.errors import EngineStateError, ReproError
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.harness.sweeps import ConvolutionSweep, LuleshGridSweep
from repro.machine.catalog import broadwell_duo, knl_node, laptop, nehalem_cluster
from repro.machine.spec import MachineSpec
from repro.scenarios import ScenarioSpec, ScenarioSpecError
from repro.simmpi.engine import engine_mode
from repro.workloads.convolution import ConvolutionConfig
from repro.workloads.lulesh import LuleshConfig

#: Bump when the normalised work layout (and therefore job keys) or the
#: result payload layout changes; old registry records become invisible.
#: v2: scenario work dicts carry the canonical ``timeline`` window block
#: and scenario payloads gain ``intervals`` + ``timeline`` (the
#: time-resolved efficiency analytics of :mod:`repro.analysis`).
JOB_SCHEMA_VERSION = 2

#: Job kinds the service can execute.  ``scenario`` runs any registered
#: workload plugin through a declarative :class:`~repro.scenarios.ScenarioSpec`.
JOB_KINDS = ("convolution", "lulesh", "scenario")


class JobSpecError(ReproError):
    """A job spec is malformed (unknown kind, bad field, invalid sweep)."""


def _require(data: Dict[str, Any], field: str, kind: str) -> Any:
    try:
        return data[field]
    except KeyError:
        raise JobSpecError(f"{kind} job spec is missing {field!r}") from None


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"{field} must be an integer, got {value!r}")
    return value


def _as_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise JobSpecError(f"{field} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class JobSpec:
    """A parsed, validated, normalised job.

    ``work`` is the canonical (JSON-round-trippable) definition of the
    simulation; everything else is execution policy that cannot change
    the result and therefore stays out of :attr:`key`.
    """

    kind: str
    work: Dict[str, Any]
    client: str = "anonymous"
    on_error: str = "raise"
    retries: int = 0
    jobs: Optional[int] = None
    wall_timeout: Optional[float] = None
    engine: Optional[str] = None
    #: Admission class: ``interactive`` jobs are scheduled before
    #: ``batch`` jobs and survive load-shedding (see the queue).
    priority: str = "batch"
    #: Wall-clock budget (seconds) from submission to completion; the
    #: supervisor kills and fails the job past it (DeadlineExceeded).
    deadline: Optional[float] = None

    @property
    def key(self) -> str:
        """Content address of the work (stable across clients/policy)."""
        payload = {
            "kind": self.kind,
            "work": self.work,
            "_schema": JOB_SCHEMA_VERSION,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (round-trips through the registry)."""
        return {
            "kind": self.kind,
            "work": self.work,
            "client": self.client,
            "on_error": self.on_error,
            "retries": self.retries,
            "jobs": self.jobs,
            "wall_timeout": self.wall_timeout,
            "engine": self.engine,
            "priority": self.priority,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from its :meth:`to_dict` form (journal replay).

        Tolerates fields added after the record was written by falling
        back to the dataclass defaults — a journal from an older server
        still replays.
        """
        import dataclasses

        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def effective_wall_timeout(self) -> Optional[float]:
        """The tighter of ``wall_timeout`` and ``deadline``.

        This is what the sweep passes to the PR 2 engine watchdog, so a
        deadlined job is bounded even when its worker process stays
        healthy — the simulation itself is interrupted with a stall
        diagnosis instead of burning the whole deadline.
        """
        bounds = [b for b in (self.wall_timeout, self.deadline)
                  if b is not None]
        return min(bounds) if bounds else None


# ---------------------------------------------------------------------------
# Machine resolution
# ---------------------------------------------------------------------------

def _machine_from(work: Dict[str, Any]) -> MachineSpec:
    """Resolve the spec's machine block to a catalog model."""
    m = work.get("machine")
    if not isinstance(m, dict) or "name" not in m:
        raise JobSpecError("job spec needs machine: {\"name\": ...}")
    name = m["name"]
    try:
        if name == "nehalem":
            kwargs = {"nodes": _as_int(m.get("nodes", 24), "machine.nodes")}
            if "jitter" in m:
                kwargs["jitter"] = _as_number(m["jitter"], "machine.jitter")
            return nehalem_cluster(**kwargs)
        if name == "knl":
            if "jitter" in m:
                return knl_node(jitter=_as_number(m["jitter"], "machine.jitter"))
            return knl_node()
        if name == "broadwell":
            if "jitter" in m:
                return broadwell_duo(jitter=_as_number(m["jitter"], "machine.jitter"))
            return broadwell_duo()
        if name == "laptop":
            return laptop(cores=_as_int(m.get("cores", 4), "machine.cores"))
    except ReproError as exc:
        raise JobSpecError(f"invalid machine block: {exc}") from exc
    raise JobSpecError(
        f"unknown machine {name!r} (nehalem | knl | broadwell | laptop)"
    )


def _faults_from(work: Dict[str, Any]) -> Optional[FaultPlan]:
    """Materialise the spec's optional fault plan."""
    raw = work.get("faults")
    if raw is None:
        return None
    try:
        return FaultPlan.from_dict(raw)
    except (FaultPlanError, TypeError, KeyError) as exc:
        raise JobSpecError(f"invalid fault plan: {exc}") from exc


# ---------------------------------------------------------------------------
# Normalisation (spec JSON → canonical work dict)
# ---------------------------------------------------------------------------

def _normalise_convolution(data: Dict[str, Any]) -> Dict[str, Any]:
    wl = _require(data, "workload", "convolution")
    if not isinstance(wl, dict):
        raise JobSpecError("convolution workload must be an object")
    counts = _require(data, "process_counts", "convolution")
    if not isinstance(counts, list) or not counts:
        raise JobSpecError("process_counts must be a non-empty list")
    work = {
        "workload": {
            "height": _as_int(_require(wl, "height", "convolution"), "height"),
            "width": _as_int(_require(wl, "width", "convolution"), "width"),
            "steps": _as_int(_require(wl, "steps", "convolution"), "steps"),
        },
        "machine": data.get("machine", {"name": "nehalem", "nodes": 24}),
        "process_counts": sorted(_as_int(p, "process_counts[]") for p in counts),
        "reps": _as_int(data.get("reps", 1), "reps"),
        "base_seed": _as_int(data.get("base_seed", 100), "base_seed"),
        "ranks_per_node": _as_int(data.get("ranks_per_node", 8), "ranks_per_node"),
        "compute_jitter": _as_number(data.get("compute_jitter", 0.02), "compute_jitter"),
        "noise_floor": _as_number(data.get("noise_floor", 120e-6), "noise_floor"),
        "weak": bool(data.get("weak", False)),
        "faults": data.get("faults"),
    }
    return work


def _normalise_lulesh(data: Dict[str, Any]) -> Dict[str, Any]:
    wl = _require(data, "workload", "lulesh")
    if not isinstance(wl, dict):
        raise JobSpecError("lulesh workload must be an object")
    grid = _require(data, "grid", "lulesh")
    if not isinstance(grid, dict) or not grid:
        raise JobSpecError("grid must be a non-empty {p: [threads]} object")
    norm_grid: Dict[str, List[int]] = {}
    for p, ts in grid.items():
        if not isinstance(ts, list) or not ts:
            raise JobSpecError(f"grid[{p}] must be a non-empty thread list")
        norm_grid[str(_as_int(int(p), "grid key"))] = sorted(
            _as_int(t, "grid threads") for t in ts
        )
    sides = data.get("sides")
    norm_sides: Optional[Dict[str, int]] = None
    if sides is not None:
        if not isinstance(sides, dict):
            raise JobSpecError("sides must be a {p: side} object")
        norm_sides = {
            str(_as_int(int(p), "sides key")): _as_int(s, "sides value")
            for p, s in sides.items()
        }
    work = {
        "workload": {
            "s": _as_int(_require(wl, "s", "lulesh"), "s"),
            "steps": _as_int(_require(wl, "steps", "lulesh"), "steps"),
        },
        "machine": data.get("machine", {"name": "knl"}),
        "grid": dict(sorted(norm_grid.items(), key=lambda kv: int(kv[0]))),
        "sides": norm_sides,
        "reps": _as_int(data.get("reps", 1), "reps"),
        "base_seed": _as_int(data.get("base_seed", 300), "base_seed"),
        "compute_jitter": _as_number(data.get("compute_jitter", 0.01), "compute_jitter"),
        "faults": data.get("faults"),
    }
    return work


def _normalise_scenario(data: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[float]]:
    """Canonicalise a scenario job's work dict.

    The embedded scenario spec is parsed (and therefore validated and
    canonicalised) by :meth:`~repro.scenarios.ScenarioSpec.from_dict`;
    its ``wall_timeout`` is execution policy, so it moves onto the
    :class:`JobSpec` and out of the content-addressed work.  The
    scenario's ``engine`` stays *in* the work — at this level the engine
    is part of the question being asked, so resubmitting the same
    scenario on the other engine misses the experiment registry.
    """
    raw = _require(data, "scenario", "scenario")
    try:
        sspec = ScenarioSpec.from_dict(raw)
    except ScenarioSpecError as exc:
        raise JobSpecError(f"invalid scenario: {exc}") from exc
    work = sspec.to_dict()
    work.pop("wall_timeout")
    return work, sspec.wall_timeout


def parse_job_spec(data: Any) -> JobSpec:
    """Parse and validate client JSON into a :class:`JobSpec`.

    Validation is eager: the sweep object is constructed once here (and
    discarded), so every constraint the harness enforces — p=1 present,
    cube process counts, valid fault windows — is reported at submit
    time as a :class:`JobSpecError`.
    """
    if not isinstance(data, dict):
        raise JobSpecError("job spec must be a JSON object")
    kind = data.get("kind")
    if kind not in JOB_KINDS:
        raise JobSpecError(f"unknown job kind {kind!r} (one of {JOB_KINDS})")
    on_error = data.get("on_error", "raise")
    if on_error not in ("raise", "skip"):
        raise JobSpecError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    retries = _as_int(data.get("retries", 0), "retries")
    if retries < 0:
        raise JobSpecError(f"retries must be >= 0, got {retries}")
    jobs = data.get("jobs")
    if jobs is not None:
        jobs = _as_int(jobs, "jobs")
        if jobs < 0:
            raise JobSpecError(f"jobs must be >= 0, got {jobs}")
    wall_timeout = data.get("wall_timeout")
    if wall_timeout is not None:
        wall_timeout = _as_number(wall_timeout, "wall_timeout")
        if wall_timeout <= 0:
            raise JobSpecError(f"wall_timeout must be positive, got {wall_timeout}")
    engine = data.get("engine")
    if engine is not None:
        if not isinstance(engine, str):
            raise JobSpecError(f"engine must be a string, got {engine!r}")
        try:
            engine_mode(engine)
        except EngineStateError as exc:
            raise JobSpecError(str(exc)) from exc
    client = data.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise JobSpecError(f"client must be a non-empty string, got {client!r}")
    priority = data.get("priority", "batch")
    if priority not in ("interactive", "batch"):
        raise JobSpecError(
            f"priority must be 'interactive' or 'batch', got {priority!r}")
    deadline = data.get("deadline")
    if deadline is not None:
        deadline = _as_number(deadline, "deadline")
        if deadline <= 0:
            raise JobSpecError(f"deadline must be positive, got {deadline}")

    if kind == "convolution":
        work = _normalise_convolution(data)
    elif kind == "lulesh":
        work = _normalise_lulesh(data)
    else:
        work, scenario_wall = _normalise_scenario(data)
        if engine is not None:
            raise JobSpecError(
                "scenario jobs declare the engine inside the scenario spec"
            )
        if wall_timeout is None:
            wall_timeout = scenario_wall

    spec = JobSpec(
        kind=kind,
        work=work,
        client=client,
        on_error=on_error,
        retries=retries,
        jobs=jobs,
        wall_timeout=wall_timeout,
        engine=engine,
        priority=priority,
        deadline=deadline,
    )
    build_sweep(spec)  # eager validation: raises JobSpecError on bad params
    return spec


# ---------------------------------------------------------------------------
# Spec → sweep objects
# ---------------------------------------------------------------------------

def build_sweep(spec: JobSpec):
    """The harness sweep object(s) for a spec.

    Returns a :class:`~repro.harness.sweeps.ConvolutionSweep` for
    convolution jobs, a ``(LuleshGridSweep, sides)`` pair for Lulesh
    jobs, or a :class:`~repro.scenarios.ScenarioSpec` for scenario jobs.
    Tests use this to run the *same* sweep directly and compare
    byte-identical results with the served payload.
    """
    work = spec.work
    if spec.kind == "scenario":
        try:
            return ScenarioSpec.from_dict({
                **work, "wall_timeout": spec.effective_wall_timeout(),
            })
        except ScenarioSpecError as exc:
            raise JobSpecError(f"invalid scenario: {exc}") from exc
    machine = _machine_from(work)
    faults = _faults_from(work)
    try:
        if spec.kind == "convolution":
            return ConvolutionSweep(
                config=ConvolutionConfig(
                    height=work["workload"]["height"],
                    width=work["workload"]["width"],
                    steps=work["workload"]["steps"],
                ),
                machine=machine,
                process_counts=tuple(work["process_counts"]),
                reps=work["reps"],
                base_seed=work["base_seed"],
                ranks_per_node=work["ranks_per_node"],
                compute_jitter=work["compute_jitter"],
                noise_floor=work["noise_floor"],
                weak=work["weak"],
                faults=faults,
                wall_timeout=spec.effective_wall_timeout(),
                engine=spec.engine,
            )
        sweep = LuleshGridSweep(
            config=LuleshConfig(
                s=work["workload"]["s"], steps=work["workload"]["steps"]
            ),
            machine=machine,
            grid={int(p): tuple(ts) for p, ts in work["grid"].items()},
            reps=work["reps"],
            base_seed=work["base_seed"],
            compute_jitter=work["compute_jitter"],
            faults=faults,
            wall_timeout=spec.effective_wall_timeout(),
            engine=spec.engine,
        )
        sides = work.get("sides")
        return sweep, ({int(p): s for p, s in sides.items()} if sides else None)
    except ReproError as exc:
        raise JobSpecError(f"invalid {spec.kind} sweep: {exc}") from exc


# ---------------------------------------------------------------------------
# Execution (spec → result payload)
# ---------------------------------------------------------------------------

def hybrid_to_points(analysis) -> List[Dict[str, Any]]:
    """Canonical JSON form of a :class:`~repro.core.analysis.HybridAnalysis`.

    One entry per (p, threads) grid point, profiles in insertion order —
    shared by the service payload and the byte-identity tests.
    """
    points = []
    for p in analysis.process_counts():
        for t in analysis.thread_counts(p):
            points.append({
                "p": p,
                "threads": t,
                "profiles": [profile_to_dict(pr) for pr in analysis.runs(p, t)],
            })
    return points


def execute_job(
    spec: JobSpec,
    *,
    jobs: Optional[int] = None,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run a job spec on the harness; returns the result payload.

    ``jobs`` is the per-sweep worker-process count (the spec's own
    ``jobs`` field wins when set); ``cache`` is the shared
    :class:`~repro.harness.cache.RunCache`, so repeated points across
    *different* jobs are also served from disk.  Exceptions propagate —
    the scheduler turns them into failed-job records.
    """
    from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
    from repro.harness.scenario import (
        run_scenario,
        scenario_payload,
        speedup_summary,
    )

    sweep_jobs = spec.jobs if spec.jobs is not None else jobs
    if spec.kind == "scenario":
        sspec = build_sweep(spec)
        profile, metrics, intervals = run_scenario(
            sspec,
            progress=progress,
            jobs=sweep_jobs,
            cache=cache,
            on_error=spec.on_error,
            retries=spec.retries,
        )
        return scenario_payload(sspec, profile, metrics, intervals)
    if spec.kind == "convolution":
        sweep = build_sweep(spec)
        profile = run_convolution_sweep(
            sweep,
            progress=progress,
            jobs=sweep_jobs,
            cache=cache,
            on_error=spec.on_error,
            retries=spec.retries,
        )
        return {
            "kind": "convolution",
            "schema": JOB_SCHEMA_VERSION,
            "profile_json": scaling_to_json(profile),
            "failures": profile.failures.to_payload(),
            "summary": speedup_summary(profile),
        }

    sweep, sides = build_sweep(spec)
    analysis, drifts = run_lulesh_grid(
        sweep,
        progress=progress,
        sides=sides,
        jobs=sweep_jobs,
        cache=cache,
        on_error=spec.on_error,
        retries=spec.retries,
    )
    summary: Dict[str, Any] = {"process_counts": analysis.process_counts()}
    try:  # needs the (1, 1) reference point, which fail-soft may have lost
        summary["best"] = analysis.best_configuration()
    except ReproError:
        summary["best"] = None
    return {
        "kind": "lulesh",
        "schema": JOB_SCHEMA_VERSION,
        "points": hybrid_to_points(analysis),
        "drifts": {f"{p},{t}": d for (p, t), d in sorted(drifts.items())},
        "failures": analysis.failures.to_payload(),
        "summary": summary,
    }
