"""The benchmark's workloads: inputs from the seed, bodies, output checks.

Each workload is one user-visible job stream, chosen by the
communication class it drives through the simulator, so that every
fast path runs in one workload and is skipped in another:

* ``paper_figs`` — the paper's own figures (Figs 5a-d, 6, Table 7,
  Figs 8-10) through ``run_convolution_sweep``, ``run_lulesh_grid`` on
  KNL and Broadwell, and ``repro.harness.experiments``.  Interpreted
  point-to-point path, NumPy stencil/LULESH kernels and the OpenMP cost
  model; macro-step captures nothing.
* ``zoo_replay`` — ``run_scenario`` + ``scenario_payload`` on the zoo
  shapes macro-step captures: halo2d up to p=1024, sparsegraph and lbm.
* ``zoo_alltoall`` — a bucketsort sweep to p=256 (O(p^2) alltoall
  through ``coll_analytic``; macro-step declines) plus taskfarm.
* ``service_cache`` — an in-process ``ServiceApp`` driven through
  ``handle()``: new specs (cold writes), specs sharing points with
  earlier ones (run-cache hits) and exact resubmits (registry reads).

A *body* is the workload's fixed unit of work.  In the three harness
workloads it is one cold job (every point simulated into a fresh run
cache) followed by warm jobs (the same request answered from that
cache), once per run (see ``_HarnessWorkload``).  In ``service_cache``
it is a fixed job mix against a fresh service (cache, registry and
journal in a new directory), repeated for the run's time.

**Inputs.**  The seed picks one of ``VARIANTS`` input sets
(``seed % VARIANTS``); every program seed (``base_seed``, ``key_seed``,
``graph_seed``, the job-spec seeds) is derived from it.  Input sets
repeat with that period so each has a recorded digest in
``digests.json``.  One exception: ``paper_figs`` keeps the
convolution sweep at the repository's canonical base seed (100, as in
``default_convolution_sweep``).  At this scaled-down size (10 steps,
1 rep) the paper's noise-driven shape claims — non-monotone HALO totals
(fig5b) and HALO bounds varying with noise (fig6) — failed on every one
of the 16 other base seeds scanned (101-116); the LULESH grids, whose
checks hold on every seed tried, take seed-derived base seeds.

**Correctness.**  An operation fails on an exception, a non-200
response, a failing plugin ``check()``, a failing shape check, LULESH
energy drift >= 1e-10, or a SHA-256 of its virtual-time payload that
differs from the digest recorded for its input set.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Input sets; the seed selects one as ``seed % VARIANTS``.
VARIANTS = 8

#: Seed whose layer counts are recorded in ``signatures.json``.
DEVELOPMENT_SEED = 0
#: Seed held out for confirming later performance claims: a change
#: that claims a gain is developed on other seeds and confirmed on it.
HELD_OUT_SEED = 5

#: Execution-diagnostic metrics that describe how a point ran, not what
#: it computed; left out of payload digests so a faster engine with the
#: same virtual-time results keeps matching.
_EXECUTION_COUNTERS = ("sched_steps", "rounds_captured", "rounds_replayed",
                       "deopts")

_ZOO_MACHINE = {"name": "nehalem", "nodes": 128}


def full_degree_graph_seed(start: int, degree: int, counts) -> int:
    """First sparsegraph ``graph_seed`` >= ``start`` whose digraph has
    full out-degree at every scale in ``counts``.

    A seed whose strides collide gives a sparser graph, with less
    communication and a run up to twice as fast; keeping the degree
    fixed keeps the work the same across input sets.
    """
    from repro.workloads.zoo.sparsegraph import graph_strides

    for seed in range(start, start + 1000):
        if all(len(graph_strides(p, degree, seed)) == degree for p in counts):
            return seed
    raise ValueError(f"no full-degree graph seed near {start} for {counts}")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 of a scenario payload's virtual-time content."""
    body = dict(payload)
    body["metrics"] = {
        p: {k: v for k, v in m.items() if k not in _EXECUTION_COUNTERS}
        for p, m in payload["metrics"].items()
    }
    return digest_text(json.dumps(body, sort_keys=True,
                                  separators=(",", ":")))


class OperationFailed(Exception):
    """An operation produced a wrong or missing result."""


@dataclass
class Run:
    """State shared by a workload's bodies within one process."""

    workload: str
    seed: int
    scratch: pathlib.Path
    clock: Any
    digests: Dict[str, str]
    record: bool = False
    tracer: Any = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    op_seq: int = 0
    job_no: int = 0
    #: Whether timer readings may interrupt operations (see hostref).
    readings_inside_ops: bool = True

    def new_job(self) -> None:
        """Start a new user job; following operations belong to it."""
        self.job_no += 1

    @property
    def variant(self) -> int:
        return self.seed % VARIANTS

    def fresh_dir(self, prefix: str) -> pathlib.Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def op(self, cls: str, name: str, fn: Callable[[], Any],
           check: Optional[Callable[[Any], None]] = None) -> Any:
        """Run one timed, checked operation of the current job.

        ``cls`` is the job class: ``cold`` (it simulates) or ``warm``
        (answered from stored results).  ``check`` receives ``fn``'s
        value after the clock has stopped, untimed and untraced, and
        raises if the value is wrong.  A failure of either is counted
        and the operation returns ``None``.
        """
        kind = f"{cls}/{self.job_no}/{name}"
        self.attempted += 1
        self.op_seq += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op_seq
        try:
            value = self.clock.time(kind, fn, self.readings_inside_ops)
            if check is not None:
                with (self.tracer.pause() if self.tracer is not None
                      else contextlib.nullcontext()):
                    check(value)
            return value
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, what: str) -> None:
        """An untimed correctness check that counts as an operation."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def expect_digest(self, key: str, digest: str) -> None:
        """Compare against (or, when recording, store) a payload digest."""
        full = f"{self.variant}/{key}"
        if self.record:
            prev = self.digests.setdefault(full, digest)
            if prev != digest:
                raise OperationFailed(f"{full}: non-deterministic payload")
            return
        want = self.digests.get(full)
        if want is None:
            raise OperationFailed(f"no recorded digest for {full}")
        if want != digest:
            raise OperationFailed(
                f"{full}: payload digest {digest[:12]} != recorded {want[:12]}")


# ---------------------------------------------------------------------------
# paper_figs
# ---------------------------------------------------------------------------

#: Fig 7's per-rank sides, holding the paper's element count constant.
_PAPER_SIDES = {1: 48, 8: 24, 27: 16, 64: 12}


class _HarnessWorkload:
    """A request run cold into a fresh run cache, then warm from it.

    Users make such a request in a fresh process.  Cold jobs repeated
    in one process drift from that: later ones ran up to 10 % slower or
    faster than the first, differently in each process, while the first
    repeated within 3 % across processes.  So a run makes one body: the
    cold job, ``warm_jobs`` warm jobs, then more warm jobs while its
    time lasts (class ``extra``: in the warm-job metrics, not in
    ``wall_s``).
    """

    name = ""
    warm_jobs = 7
    readings_inside_ops = True
    one_body = True

    def _job(self, run: Run, cls: str, cache) -> None:
        raise NotImplementedError

    def body(self, run: Run, more: Callable[[], bool]) -> None:
        from repro.harness.cache import RunCache

        root = run.fresh_dir(f"{self.name}-")
        try:
            cache = RunCache(root=root)
            self._job(run, "cold", cache)
            for _ in range(self.warm_jobs):
                self._job(run, "warm", cache)
            while more():
                self._job(run, "extra", cache)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class PaperFigs(_HarnessWorkload):
    name = "paper_figs"

    def __init__(self, seed: int):
        import repro.harness.experiments  # noqa: F401 - imports are set-up
        import repro.harness.runner  # noqa: F401
        import repro.service.jobs  # noqa: F401
        from repro.harness.sweeps import (default_convolution_sweep,
                                          paper_lulesh_sweep)
        from repro.workloads.convolution import ConvolutionConfig

        variant = seed % VARIANTS
        conv = default_convolution_sweep()
        object.__setattr__(conv, "reps", 1)
        object.__setattr__(conv, "config",
                           ConvolutionConfig(height=576, width=864, steps=10))
        self.conv = conv
        self.grids = {}
        for machine in ("knl", "broadwell"):
            grid = paper_lulesh_sweep(machine, steps=3)
            object.__setattr__(grid, "reps", 1)
            object.__setattr__(grid, "base_seed", 300 + 7 * variant)
            self.grids[machine] = grid

    def _job(self, run: Run, cls: str, cache) -> None:
        from repro.core.export import scaling_to_json
        from repro.harness import experiments as E
        from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
        from repro.harness.sweeps import fig6_process_counts
        from repro.service.jobs import hybrid_to_points

        def conv():
            return run_convolution_sweep(self.conv, jobs=1, cache=cache)

        def check_conv(prof):
            run.expect_digest("conv", digest_text(scaling_to_json(prof)))

        def grid(machine):
            return lambda: run_lulesh_grid(self.grids[machine],
                                           sides=_PAPER_SIDES, jobs=1,
                                           cache=cache)

        def check_grid(machine):
            def check(out):
                analysis, drifts = out
                worst = max(drifts.values())
                if not worst < 1e-10:
                    raise OperationFailed(
                        f"lulesh {machine} energy drift {worst:.3e}")
                run.expect_digest(machine, digest_text(json.dumps(
                    {"points": hybrid_to_points(analysis),
                     "drifts": {f"{p},{t}": d
                                for (p, t), d in sorted(drifts.items())}},
                    sort_keys=True)))
            return check

        run.new_job()
        prof = run.op(cls, "conv", conv, check_conv)
        knl = run.op(cls, "knl", grid("knl"), check_grid("knl"))
        bdw = run.op(cls, "broadwell", grid("broadwell"),
                     check_grid("broadwell"))
        if prof is None or knl is None or bdw is None:
            return
        knl, bdw = knl[0], bdw[0]

        def figures():
            return [E.fig5a(prof), E.fig5b(prof), E.fig5c(prof),
                    E.fig5d(prof), E.fig6(prof, fig6_process_counts()),
                    E.table7(), E.fig8(bdw), E.fig9(knl), E.fig10(knl)]

        results = run.op(cls, "figures", figures) or []
        for r in results:
            bad = [k for k, ok in r.checks.items() if not ok]
            run.check(not bad, f"{r.exp_id} shape checks failed: {bad}")


# ---------------------------------------------------------------------------
# zoo_replay / zoo_alltoall
# ---------------------------------------------------------------------------

class _ZooScenarios(_HarnessWorkload):
    """A set of scenario specs run cold, then warm from the run cache."""

    def specs(self, variant: int) -> Dict[str, Dict[str, Any]]:
        raise NotImplementedError

    def __init__(self, seed: int):
        import repro.harness.scenario  # noqa: F401 - imports are set-up
        from repro.scenarios import ScenarioSpec

        self.specs_parsed = {
            key: ScenarioSpec.from_dict(d)
            for key, d in self.specs(seed % VARIANTS).items()
        }

    def _job(self, run: Run, cls: str, cache) -> None:
        from repro.harness.scenario import run_scenario, scenario_payload

        run.new_job()
        for key, spec in self.specs_parsed.items():
            def go(spec=spec):
                profile, metrics, intervals = run_scenario(
                    spec, jobs=1, cache=cache)
                return scenario_payload(spec, profile, metrics, intervals)

            def check(payload, key=key):
                if payload["failures"]:
                    raise OperationFailed(f"{key}: failed points "
                                          f"{payload['failures']}")
                run.expect_digest(key, scenario_digest(payload))
            run.op(cls, key, go, check)


class ZooReplay(_ZooScenarios):
    name = "zoo_replay"

    def specs(self, variant: int) -> Dict[str, Dict[str, Any]]:
        base = 2000 + 101 * variant
        return {
            "halo2d": {"workload": "halo2d",
                       "params": {"ny": 64, "nx": 64, "steps": 12},
                       "machine": _ZOO_MACHINE,
                       "process_counts": [1, 64, 256, 1024],
                       "base_seed": base},
            "sparsegraph": {"workload": "sparsegraph",
                            "params": {"steps": 24, "graph_seed":
                                       full_degree_graph_seed(
                                           5 + 7 * variant, 3, (16, 64))},
                            "machine": _ZOO_MACHINE,
                            "process_counts": [1, 16, 64],
                            "base_seed": base + 1},
            "lbm": {"workload": "lbm", "params": {"steps": 8},
                    "machine": _ZOO_MACHINE, "process_counts": [1, 4, 16],
                    "base_seed": base + 2},
        }


class ZooAlltoall(_ZooScenarios):
    name = "zoo_alltoall"

    def specs(self, variant: int) -> Dict[str, Dict[str, Any]]:
        base = 3000 + 101 * variant
        return {
            "bucketsort": {"workload": "bucketsort",
                           "params": {"key_seed": 11 + variant},
                           "machine": _ZOO_MACHINE,
                           "process_counts": [1, 16, 64, 128, 256],
                           "base_seed": base},
            "taskfarm": {"workload": "taskfarm", "params": {"ntasks": 256},
                         "machine": _ZOO_MACHINE,
                         "process_counts": [2, 16, 64, 256],
                         "base_seed": base + 1},
        }


# ---------------------------------------------------------------------------
# service_cache
# ---------------------------------------------------------------------------

_SERVICE_SHAPES = (
    ("halo2d", {"ny": 32, "nx": 32, "steps": 6}, [1, 4, 8]),
    ("sparsegraph", {"steps": 8}, [1, 4, 8]),
    ("ringpipe", {"rounds": 2}, [1, 4, 8]),
    ("lbm", {"steps": 4}, [1, 2, 4]),
)


def service_mix(variant: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The job stream: (class, digest key, job spec), in submit order.

    ``new*`` specs simulate every point; ``shared*`` specs add one scale
    to an earlier spec, so all but one point come from the run cache;
    ``warm`` entries resubmit an earlier ``new*`` spec exactly (another
    client, same content key), answered from the registry, and are
    checked against that spec's digest.
    """
    new = []
    for i in range(8):
        workload, params, counts = _SERVICE_SHAPES[i % len(_SERVICE_SHAPES)]
        params = dict(params)
        if workload == "sparsegraph":
            params["graph_seed"] = full_degree_graph_seed(
                5 + 7 * variant + i, 3, (8, 16))
        scenario = {"workload": workload, "params": params,
                    "machine": {"name": "nehalem", "nodes": 4},
                    "process_counts": list(counts),
                    "base_seed": 5000 + 97 * variant + 13 * i}
        new.append((f"new{i}", scenario))
    stream: List[Tuple[str, str, Dict[str, Any]]] = []
    for i, (key, scenario) in enumerate(new):
        stream.append(("cold", key, {"kind": "scenario", "client": "bench",
                                     "scenario": scenario}))
        if i >= 1:
            prev_key, prev = new[i - 1]
            stream.append(("warm", prev_key,
                           {"kind": "scenario", "client": f"bench-{i}",
                            "scenario": prev}))
        if i % 2 == 1:
            shared = json.loads(json.dumps(new[i - 1][1]))
            shared["process_counts"] = shared["process_counts"] + [16]
            stream.append(("cold", f"shared{i // 2}",
                           {"kind": "scenario", "client": "bench",
                            "scenario": shared}))
    for key, scenario in new[-2:]:
        stream.append(("warm", key, {"kind": "scenario", "client": "bench-z",
                                     "scenario": scenario}))
    return stream


def make_service(root: pathlib.Path):
    """A started in-process service: one thread worker, default fsync."""
    from repro.service.api import ServiceApp

    app = ServiceApp(cache_dir=root, workers=1, worker_mode="thread",
                     sweep_jobs=1)
    app.start()
    return app


class ServiceCache:
    name = "service_cache"
    #: Jobs run on the service's worker thread while the main thread
    #: waits, so a timer reading inside a job would compete with the job
    #: for the interpreter; jobs are short, readings between them suffice.
    readings_inside_ops = False
    #: A long-lived service serves many jobs per process, so every body
    #: of a run counts.
    one_body = False
    #: Window count of the efficiency_timeline override (forces recompute).
    timeline_windows = 6

    def __init__(self, seed: int):
        import repro.service.api  # noqa: F401 - imports are set-up
        from repro.service.jobs import parse_job_spec

        self.stream = service_mix(seed % VARIANTS)
        for _, _, spec in self.stream:
            parse_job_spec(spec)  # eager validation, as submit does

    def _get(self, app, path: str, query=None) -> Dict[str, Any]:
        status, _, body = app.handle("GET", path, query or {})
        if status != 200:
            raise OperationFailed(f"GET {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def _job(self, run: Run, app, cls: str, key: str,
             spec: Dict[str, Any]) -> Tuple[str, int, Dict[str, Any]]:
        """Submit, wait, fetch every artifact: one timed user job.

        Returns (job path, submit status, result) for the untimed
        :meth:`_check`."""
        tracer = run.tracer
        span = (tracer.span if tracer is not None
                else lambda layer, name: contextlib.nullcontext())
        with span("service.submit", "POST /api/v1/jobs"):
            status, _, body = app.handle("POST", "/api/v1/jobs", {},
                                         json.dumps(spec).encode())
        reply = json.loads(body)
        if status == 200:
            if cls != "warm":
                raise OperationFailed(f"{key}: cold job served from registry")
            if tracer is not None:
                tracer.count("service.registry_hits")
        elif status == 202:
            if cls != "cold":
                raise OperationFailed(f"{key}: resubmit missed the registry")
        else:
            raise OperationFailed(f"submit {key} -> {status}: {reply}")
        job = f"/api/v1/jobs/{reply['job_id']}"
        after = 0
        while status == 202:
            chunk = self._get(app, job + "/progress",
                              {"after": str(after), "wait": "5"})
            after = chunk["next"]
            if chunk["done"]:
                break
        with span("service.artifact", "GET result"):
            result = self._get(app, job + "/result")
        with span("service.artifact", "GET speedup"):
            self._get(app, job + "/artifacts/speedup")
        with span("service.artifact", "GET efficiency_timeline"):
            timeline = self._get(app, job + "/artifacts/efficiency_timeline",
                                 {"windows": str(self.timeline_windows)})
        if not timeline.get("timeline"):
            raise OperationFailed(f"{key}: empty efficiency timeline")
        return job, status, result

    def _check(self, run: Run, app, key: str,
               out: Tuple[str, int, Dict[str, Any]]) -> None:
        job, status, result = out
        run.expect_digest(key, scenario_digest(result["result"]))
        if run.tracer is not None and status == 202:
            rec = self._get(app, job)
            if rec.get("started_at") and rec.get("submitted_at"):
                run.tracer.count(
                    "service.queue_wait_s",
                    max(0.0, rec["started_at"] - rec["submitted_at"]))

    def body(self, run: Run, more: Callable[[], bool]) -> None:
        """One fixed job mix (``more`` is unused: bodies repeat instead)."""
        root = run.fresh_dir("service-")
        app = None
        try:
            app = make_service(root)
            for cls, key, spec in self.stream:
                run.new_job()
                run.op(cls, key,
                       lambda: self._job(run, app, cls, key, spec),
                       lambda out: self._check(run, app, key, out))
        finally:
            if app is not None:
                app.close()
            shutil.rmtree(root, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (PaperFigs, ZooReplay, ZooAlltoall, ServiceCache)
}
