"""Traced runs: spans around the program's public functions, per layer.

Nothing here edits the program.  :class:`Tracer` replaces public
functions and methods with benchmark-side wrappers for the duration of
a traced body and restores the originals afterwards.  Each wrapper
records a span (name, start, end, parent, operation id) on a
per-thread stack.  A layer's *self time* is the time of its spans minus
the part covered by their child spans, accumulated online, so each
layer is charged only for its own work.

Counts come from what the public functions return (``RunResult``,
``ScalingProfile``, ...), never from inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Spans kept in memory and written out; later spans still count.
SPAN_CAP = 50_000

#: (module, attribute, layer) — module-level functions.  A function
#: imported by name elsewhere is replaced there as well.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("repro.harness.runner", "run_convolution_sweep", "harness"),
    ("repro.harness.runner", "run_lulesh_grid", "harness"),
    ("repro.harness.scenario", "run_scenario", "harness"),
    ("repro.harness.scenario", "scenario_payload", "harness"),
    ("repro.core.export", "profile_to_dict", "export"),
    ("repro.core.export", "profile_from_dict", "export"),
    ("repro.core.export", "scaling_to_json", "export"),
    ("repro.core.export", "scaling_from_json", "export"),
    ("repro.workloads.stencil", "mean_filter_3x3", "workloads.kernel"),
    ("repro.workloads.images", "make_image", "workloads.kernel"),
    ("repro.workloads.images", "image_checksum", "workloads.kernel"),
    ("repro.simmpi.engine", "run_mpi", "engine.run"),
    ("repro.core.sections", "rank_section_times", "core.profile"),
    ("repro.analysis.timeresolved", "intervals_from_events",
     "analysis.intervals"),
    ("repro.analysis.timeresolved", "scenario_timeline", "analysis.timeline"),
    ("repro.analysis.timeresolved", "scenario_timeline_from_payload",
     "analysis.timeline"),
    ("repro.service.jobs", "execute_job", "service.execute"),
] + [
    ("repro.workloads.lulesh_phases", name, "workloads.kernel")
    for name in ("integrate_stress", "hourglass_control", "acceleration",
                 "acceleration_bc", "velocity_cutoff", "position_update",
                 "kinematics", "monotonic_q", "eval_eos", "sound_speed_kappa",
                 "update_volumes", "courant_local_max")
] + [
    ("repro.harness.experiments", name, "core.figs")
    for name in ("fig5a", "fig5b", "fig5c", "fig5d", "fig6", "table7",
                 "fig8", "fig9", "fig10")
]

#: (module, class, method, layer) — methods, patched on the class.
METHODS: List[Tuple[str, str, str, str]] = [
    ("repro.harness.cache", "RunCache", "get", "cache.get"),
    ("repro.harness.cache", "RunCache", "put", "cache.put"),
    ("repro.simmpi.network", "NetworkModel", "message_timing",
     "network.kernel"),
    ("repro.simmpi.sections_rt", "SectionRuntime", "enter", "sections"),
    ("repro.simmpi.sections_rt", "SectionRuntime", "exit", "sections"),
    ("repro.omp.runtime", "OpenMP", "parallel_for", "omp"),
    ("repro.omp.runtime", "OpenMP", "parallel_region", "omp"),
    ("repro.omp.runtime", "OpenMP", "parallel_reduce", "omp"),
    ("repro.omp.runtime", "OpenMP", "single", "omp"),
    ("repro.omp.runtime", "OpenMP", "barrier", "omp"),
    ("repro.core.profile", "SectionProfile", "from_run", "core.profile"),
    ("repro.service.registry", "ExperimentRegistry", "get", "service.registry"),
    ("repro.service.registry", "ExperimentRegistry", "put", "service.registry"),
    ("repro.service.journal", "JobJournal", "append", "service.journal"),
    ("repro.service.journal", "JobJournal", "replay", "service.journal"),
    ("repro.service.journal", "JobJournal", "compact", "service.journal"),
    ("repro.workloads.lulesh_phases", "HydroState", "initial",
     "workloads.kernel"),
    ("repro.workloads.lulesh_phases", "HydroState", "total_energy",
     "workloads.kernel"),
]

#: Per-layer metrics: (name, unit).  Every traced run prints all of
#: them; a layer that does not run on a workload reads 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("harness.self_s", "s"), ("harness.points", "count"),
    ("cache.get_s", "s"), ("cache.put_s", "s"), ("cache.hit_ratio", "ratio"),
    ("export.s", "s"),
    ("workloads.kernel_s", "s"), ("workloads.check_s", "s"),
    ("engine.run_s", "s"), ("engine.sched_steps", "count"),
    ("engine.steps_per_s", "1/s"),
    ("macrostep.rounds_replayed", "count"), ("macrostep.deopts", "count"),
    ("macrostep.replay_ratio", "ratio"),
    ("coll.gated", "count"), ("coll.fast_ratio", "ratio"),
    ("network.messages", "count"), ("network.bytes", "bytes"),
    ("network.kernel_s", "s"), ("network.kernel_share", "ratio"),
    ("sections.events", "count"), ("sections.s", "s"),
    ("omp.regions", "count"), ("omp.s", "s"),
    ("core.profile_s", "s"), ("core.figs_s", "s"),
    ("analysis.intervals_s", "s"), ("analysis.timeline_s", "s"),
    ("service.submit_s", "s"), ("service.queue_wait_s", "s"),
    ("service.execute_s", "s"), ("service.registry_s", "s"),
    ("service.journal_s", "s"), ("service.artifact_s", "s"),
    ("service.registry_hits", "count"),
    ("trace.overhead", "ratio"),
]

#: Layer (span accumulator) behind each ``*_s`` per-layer metric.
_SELF_TIME = {
    "harness.self_s": "harness", "cache.get_s": "cache.get",
    "cache.put_s": "cache.put", "export.s": "export",
    "workloads.kernel_s": "workloads.kernel",
    "workloads.check_s": "workloads.check", "engine.run_s": "engine.run",
    "network.kernel_s": "network.kernel", "sections.s": "sections",
    "omp.s": "omp", "core.profile_s": "core.profile",
    "core.figs_s": "core.figs", "analysis.intervals_s": "analysis.intervals",
    "analysis.timeline_s": "analysis.timeline",
    "service.submit_s": "service.submit",
    "service.execute_s": "service.execute",
    "service.registry_s": "service.registry",
    "service.journal_s": "service.journal",
    "service.artifact_s": "service.artifact",
}


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "index")

    def __init__(self, layer: str, name: str, start: float, index: int):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: (name, layer, start, end, parent index, op id, thread id)
        self.spans: List[Tuple[str, str, float, float, int, int, int]] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Set by the workload before each operation; spans carry it.
        self.op_id = 0
        #: While set, wrappers call through without a span or a count, so
        #: the benchmark's own checks are charged to no layer.
        self.paused = False

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, name: str) -> _Frame:
        stack = self._stack()
        with self._lock:
            index = len(self.spans) + self.dropped
            if len(self.spans) < SPAN_CAP:
                self.spans.append(None)  # filled on exit
            else:
                self.dropped += 1
        frame = _Frame(layer, name, time.perf_counter(), index)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
        with self._lock:
            self.self_s[frame.layer] += dur - frame.child
            self.inclusive_s[frame.layer] += dur
            self.calls[frame.name] += 1
            if frame.index < len(self.spans):
                self.spans[frame.index] = (
                    frame.name, frame.layer, frame.start, end,
                    parent.index if parent is not None else -1,
                    self.op_id, threading.get_ident())

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A benchmark-side span around a block."""
        frame = self.enter(layer, name)
        try:
            yield
        finally:
            self.exit(frame)

    @contextlib.contextmanager
    def pause(self):
        """Run a block untraced (see :attr:`paused`)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if observe is not None:
                observe(tracer, args, out)
            return out

        return wrapper

    def _replace_everywhere(self, original: Any, replacement: Any) -> None:
        """Swap ``original`` for ``replacement`` in every program module
        that holds it under any name (covers ``from x import f``)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                elif (isinstance(value, dict) and attr.isupper()
                      and any(v is original for v in value.values())):
                    # registries such as experiments.ALL_EXPERIMENTS
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = replacement

    def _patch_method(self, cls: type, meth: str, layer: str) -> None:
        raw = cls.__dict__[meth]
        name = f"{cls.__name__}.{meth}"
        if isinstance(raw, classmethod):
            new: Any = classmethod(self._wrap(raw.__func__, layer, name))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, layer, name))
        else:
            new = self._wrap(raw, layer, name)
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, new)

    def install(self) -> None:
        """Wrap every traced public function; :meth:`uninstall` undoes it."""
        import importlib

        from repro.workloads import registry

        for mod_name, attr, layer in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._replace_everywhere(
                original, self._wrap(original, layer, f"{mod_name}.{attr}"))
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch_method(cls, meth, layer)
        # Plugin validity gates: every class that defines its own.
        seen = set()
        for cls in registry.all_plugins().values():
            for klass in cls.__mro__:
                for meth in ("check", "metrics"):
                    if meth in klass.__dict__ and (klass, meth) not in seen:
                        seen.add((klass, meth))
                        self._patch_method(klass, meth, "workloads.check")

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def metrics(self, bodies: int, time_scale: float,
                overhead: float) -> Dict[str, Dict[str, Any]]:
        """Per-layer metrics per traced body.

        ``time_scale`` host-normalises span seconds (nominal/reference).
        """
        n = max(bodies, 1)
        c = self.counts
        out: Dict[str, float] = {}
        for metric, layer in _SELF_TIME.items():
            out[metric] = self.self_s.get(layer, 0.0) * time_scale / n
        out["service.queue_wait_s"] = c["service.queue_wait_s"] * time_scale / n
        out["harness.points"] = c["harness.points"] / n
        gets = self.calls.get("RunCache.get", 0)
        out["cache.hit_ratio"] = c["cache.hits"] / gets if gets else 0.0
        out["engine.sched_steps"] = c["sched_steps"] / n
        run_s = self.inclusive_s.get("engine.run", 0.0) * time_scale
        out["engine.steps_per_s"] = c["sched_steps"] / run_s if run_s else 0.0
        out["macrostep.rounds_replayed"] = c["rounds_replayed"] / n
        out["macrostep.deopts"] = c["deopts"] / n
        rounds = c["rounds_replayed"] + c["rounds_captured"]
        out["macrostep.replay_ratio"] = (c["rounds_replayed"] / rounds
                                         if rounds else 0.0)
        out["coll.gated"] = c["coll_gated"] / n
        out["coll.fast_ratio"] = (c["coll_fast"] / c["coll_gated"]
                                  if c["coll_gated"] else 0.0)
        out["network.messages"] = c["messages"] / n
        out["network.bytes"] = c["bytes"] / n
        timing_calls = self.calls.get("NetworkModel.message_timing", 0)
        out["network.kernel_share"] = (timing_calls / c["messages"]
                                       if c["messages"] else 0.0)
        out["sections.events"] = (self.calls.get("SectionRuntime.enter", 0)
                                  + self.calls.get("SectionRuntime.exit", 0)) / n
        out["omp.regions"] = sum(
            v for k, v in self.calls.items() if k.startswith("OpenMP.")) / n
        out["service.registry_hits"] = c["service.registry_hits"] / n
        out["trace.overhead"] = overhead
        units = dict(PER_LAYER)
        return {name: {"value": out[name], "unit": units[name]}
                for name, _ in PER_LAYER}

    def write(self, path: pathlib.Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans_kept": sum(1 for s in self.spans if s),
                                 "spans_dropped": self.dropped}) + "\n")
            for s in self.spans:
                if s is None:
                    continue
                name, layer, start, end, parent, op, tid = s
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": tid}) + "\n")


# -- observers: counts from public return values ------------------------------

def _observe_run(tracer: Tracer, args, res) -> None:
    tracer.count("sched_steps", res.sched_steps)
    tracer.count("rounds_replayed", res.rounds_replayed)
    tracer.count("rounds_captured", res.rounds_captured)
    tracer.count("deopts", res.deopts)
    tracer.count("coll_gated", res.collectives_gated)
    tracer.count("coll_fast", res.collectives_fast)
    tracer.count("messages", res.network.get("messages", 0))
    tracer.count("bytes", res.network.get("bytes", 0))


def _profile_points(profile) -> int:
    return sum(len(profile.runs(s)) for s in profile.scales())


def _observe_conv(tracer: Tracer, args, profile) -> None:
    tracer.count("harness.points", _profile_points(profile))


def _observe_grid(tracer: Tracer, args, out) -> None:
    analysis = out[0]
    tracer.count("harness.points", sum(
        len(analysis.runs(p, t)) for p in analysis.process_counts()
        for t in analysis.thread_counts(p)))


def _observe_scenario(tracer: Tracer, args, out) -> None:
    tracer.count("harness.points", _profile_points(out[0]))


def _observe_cache_get(tracer: Tracer, args, payload) -> None:
    if payload is not None:
        tracer.count("cache.hits")


_OBSERVERS: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "repro.simmpi.engine.run_mpi": _observe_run,
    "repro.harness.runner.run_convolution_sweep": _observe_conv,
    "repro.harness.runner.run_lulesh_grid": _observe_grid,
    "repro.harness.scenario.run_scenario": _observe_scenario,
    "RunCache.get": _observe_cache_get,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def signature_problems(workload: str, metrics: Dict[str, Dict[str, Any]],
                       recorded: Dict[str, Dict[str, float]]) -> List[str]:
    """Check the counters that justify each workload's choice.

    ``recorded`` holds the seed-run counts of every workload (from
    ``signatures.json``) so a single-workload run can be compared with
    the others.  The rules, as measured on the seed commit:

    * macro-step replay: more than a fifth of the scheduling steps on
      zoo_replay, under a twentieth on paper_figs (a few LULESH rounds
      replay), none on zoo_alltoall;
    * coll_analytic: zoo_alltoall moves at least three times as many
      messages per scheduling step as any other workload (its O(p^2)
      alltoall is resolved in batches by the collective fast path;
      paper_figs makes more, but much smaller, gated collectives);
    * NumPy kernels and the OpenMP model run on paper_figs only;
    * service metrics appear on service_cache only, all of them.
    """
    v = {k: m["value"] for k, m in metrics.items()}
    problems = []
    steps = v["engine.sched_steps"]
    share = _ratio(v["macrostep.rounds_replayed"], steps)
    if workload == "zoo_replay" and share <= 0.2:
        problems.append(f"replayed rounds per step {share:.3f} <= 0.2")
    if workload == "paper_figs" and share >= 0.05:
        problems.append(f"replayed rounds per step {share:.3f} >= 0.05")
    if workload == "zoo_alltoall" and v["macrostep.rounds_replayed"]:
        problems.append("macro-step replayed rounds on zoo_alltoall")

    def per_step(counts: Dict[str, float]) -> float:
        return _ratio(counts["network.messages"], counts["engine.sched_steps"])

    mine = per_step(v)
    if workload == "zoo_alltoall":
        for other, counts in recorded.items():
            if other != workload and mine < 3 * per_step(counts):
                problems.append(f"messages per step {mine:.2f} < 3x "
                                f"{other}'s {per_step(counts):.2f}")
    elif "zoo_alltoall" in recorded and 3 * mine > per_step(
            recorded["zoo_alltoall"]):
        problems.append(f"messages per step {mine:.2f} > a third of "
                        "zoo_alltoall's")

    on_paper = {k: v[k] for k in ("workloads.kernel_s", "omp.regions")}
    if workload == "paper_figs" and not all(on_paper.values()):
        problems.append(f"paper_figs without kernels/omp: {on_paper}")
    if workload != "paper_figs" and any(on_paper.values()):
        problems.append(f"kernels/omp on {workload}: {on_paper}")

    service = sorted(k for k, x in v.items() if k.startswith("service.") and x)
    if workload == "service_cache":
        missing = [k for k, _ in PER_LAYER
                   if k.startswith("service.") and not v[k]]
        if missing:
            problems.append(f"service metrics missing: {missing}")
    elif service:
        problems.append(f"service metrics on {workload}: {service}")
    return problems
