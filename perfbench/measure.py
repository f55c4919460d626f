"""The measuring loop, the metric definitions and the recording mode.

End-to-end metrics (``--trace 0``), timings host-normalised (see
``hostref.py``):

* ``setup_s`` — median over ``SETUP_PROBES`` fresh child processes of
  the time from process start until the first operation could be
  issued: interpreter start, imports, workload registry discovery and
  spec/sweep construction (on ``service_cache`` also ``ServiceApp``
  construction and ``start()``, which replays the journal).  Each
  probe is normalised by reference readings it takes itself while it
  sets up, and their time is subtracted.
* ``wall_s`` — the body's fixed work: the median over the run's bodies
  of each body's summed operation times, ``extra`` warm jobs left out
  (one body per run in the harness workloads, see
  ``workloads._HarnessWorkload``).  Output checks run after each
  operation's clock stops and are not part of any timing.
* ``peak_rss_mb`` — ``ru_maxrss`` of the workload process.
* ``cold_job_p50_s`` / ``cold_job_tail_s`` — jobs that simulate.
* ``warm_job_p50_ms`` / ``warm_job_tail_ms`` — the same requests
  answered from stored results (run cache or service registry).

A job's time is the sum of its operations' normalised times.  The tail
is the value at the highest percentile that has at least ten samples
beyond it, and never below the median (with fewer than 21 samples the
tail is the median); the percentile and the sample count are printed.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

import hostref
import layers
import workloads as W

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SIGNATURES = HERE / "signatures.json"
OUT = pathlib.Path(".perfbench")

#: Child processes timed for ``setup_s``.
SETUP_PROBES = 7
#: Bodies every run makes, however long they take (a traced run needs
#: one plain and one traced body).
MIN_BODIES = 1
#: Longest a setup probe may take before it counts as failed.
PROBE_TIMEOUT_S = 60.0


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile): highest percentile with >= 10 samples
    beyond it, floored at the median."""
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        i = n - 11
        return xs[i], 100.0 * i / (n - 1)
    return statistics.median(xs), 50.0


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def _stamp(workload: str, seed: int, trace: bool) -> None:
    print(json.dumps({
        "perfbench": "environment", "workload": workload, "seed": seed,
        "input_set": seed % W.VARIANTS, "trace": trace,
        "held_out_seed": W.HELD_OUT_SEED,
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
    }), flush=True)


def measure_setup(workload: str, seed: int, run: W.Run
                  ) -> List[hostref.Sample]:
    """Time ``SETUP_PROBES`` fresh processes from spawn to READY, each
    normalised by the readings it took itself."""
    env = dict(os.environ)  # already hermetic (see run.py)
    samples = []
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            run.fail("setup probe timed out")
            continue
        fields = line.split()
        if proc.returncode != 0 or fields[:1] != ["READY"] or len(fields) != 4:
            run.fail(f"setup probe exited {proc.returncode}: {err[-500:]}")
            continue
        samples.append(hostref.setup_sample(t1 - t0, *map(float, fields[1:])))
    return samples


def _body_walls(bodies: List[List[hostref.Sample]]) -> Tuple[float, float]:
    """(normalised, raw) ``wall_s``: median over bodies of the body sums,
    ``extra`` warm jobs left out (they are not the body's fixed work)."""
    fixed = [[s for s in b if not s.kind.startswith("extra/")] for b in bodies]
    return (statistics.median(sum(s.norm_s for s in b) for b in fixed),
            statistics.median(sum(s.raw_s for s in b) for b in fixed))


def _jobs(bodies: List[List[hostref.Sample]], classes: Tuple[str, ...]
          ) -> Tuple[List[float], List[float], List[float]]:
    """Per-job (normalised, raw, reference) times of the given classes."""
    norm: Dict[str, float] = defaultdict(float)
    raw: Dict[str, float] = defaultdict(float)
    ref: Dict[str, List[float]] = defaultdict(list)
    for b in bodies:
        for s in b:
            c, job, _ = s.kind.split("/", 2)
            if c in classes:
                norm[job] += s.norm_s
                raw[job] += s.raw_s
                ref[job].append(s.ref_s)
    keys = sorted(norm, key=int)
    return ([norm[k] for k in keys], [raw[k] for k in keys],
            [statistics.median(ref[k]) for k in keys])


def _metric(name: str, unit: str, value: float, audit: dict,
            audit_lines: List[dict]) -> Dict[str, object]:
    audit_lines.append(dict({"perfbench": "metric", "name": name,
                             "unit": unit, "value": value}, **audit))
    return {"value": value, "unit": unit}


def end_to_end(setup: List[hostref.Sample], bodies: List[List[hostref.Sample]],
               clock: hostref.HostClock) -> Tuple[dict, List[dict]]:
    lines: List[dict] = []
    out: Dict[str, dict] = {}
    if setup:
        out["setup_s"] = _metric(
            "setup_s", "s", statistics.median(s.norm_s for s in setup),
            {"raw": statistics.median(s.raw_s for s in setup),
             "ref": statistics.median(s.ref_s for s in setup),
             "n": len(setup)}, lines)
    norm, raw = _body_walls(bodies)
    out["wall_s"] = _metric("wall_s", "s", norm, {
        "raw": raw, "time_scale": clock.time_scale("cold"),
        "n": len(bodies)}, lines)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = _metric("peak_rss_mb", "MB", rss, {}, lines)
    for cls, classes, unit, scale in (("cold", ("cold",), "s", 1.0),
                                      ("warm", ("warm", "extra"), "ms", 1e3)):
        n, r, ref = _jobs(bodies, classes)
        if not n:
            continue
        t_val, pct = tail(n)
        t_raw, _ = tail(r)
        out[f"{cls}_job_p50_{unit}"] = _metric(
            f"{cls}_job_p50_{unit}", unit, statistics.median(n) * scale,
            {"raw": statistics.median(r) * scale,
             "ref": statistics.median(ref), "n": len(n)}, lines)
        out[f"{cls}_job_tail_{unit}"] = _metric(
            f"{cls}_job_tail_{unit}", unit, t_val * scale,
            {"raw": t_raw * scale, "ref": statistics.median(ref),
             "n": len(n), "percentile": pct}, lines)
    return out, lines


def _run_bodies(wl, run: W.Run, clock: hostref.HostClock, seconds: float,
                tracer: Optional[layers.Tracer]
                ) -> Tuple[List[List[hostref.Sample]], List[List[hostref.Sample]]]:
    """Run the workload's bodies; returns (plain, traced) body samples.

    A one-body workload makes one plain body that fills ``seconds``
    with extra warm jobs; a traced run adds one traced body instead.
    Other workloads repeat bodies while half a typical body still fits
    in ``seconds``; traced runs alternate plain and traced bodies.
    """
    plain: List[List[hostref.Sample]] = []
    traced: List[List[hostref.Sample]] = []
    start = time.perf_counter()

    def more() -> bool:
        return tracer is None and time.perf_counter() - start < seconds

    def run_body(trace_this: bool) -> float:
        t0 = time.perf_counter()
        if trace_this:
            run.tracer = tracer
            tracer.install()
        try:
            wl.body(run, more)
        finally:
            if trace_this:
                tracer.uninstall()
                run.tracer = None
        clock.sample()
        (traced if trace_this else plain).append(clock.drain())
        return time.perf_counter() - t0

    if wl.one_body:
        run_body(False)
        if tracer is not None:
            run_body(True)
        return plain, traced
    durations: List[float] = []
    least = MIN_BODIES if tracer is None else 2
    while True:
        n = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if n >= least and (
                elapsed + 0.5 * statistics.median(durations) > seconds):
            break
        durations.append(run_body(tracer is not None and n % 2 == 1))
    return plain, traced


def run(workload: str, seed: int, seconds: float, trace: bool,
        t_start: float) -> int:
    _stamp(workload, seed, trace)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    clock = hostref.HostClock()
    digests = _load(DIGESTS).get(workload, {})
    run_state = W.Run(workload, seed, scratch, clock, digests)
    try:
        setup = [] if trace else measure_setup(workload, seed, run_state)
        from repro.workloads import registry

        registry.discover()
        wl = W.WORKLOADS[workload](seed)
        run_state.readings_inside_ops = wl.readings_inside_ops
        print(json.dumps({"perfbench": "process_setup_raw_s",
                          "value": time.perf_counter() - t_start}), flush=True)
        tracer = layers.Tracer() if trace else None
        plain, traced = _run_bodies(wl, run_state, clock, seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    (OUT / f"samples-{workload}-seed{seed}.json").write_text(json.dumps({
        "readings": clock.readings,
        "setup": [vars(x) for x in setup],
        "bodies": [[vars(x) for x in b] for b in plain],
        "traced_bodies": [[vars(x) for x in b] for b in traced],
    }))
    metrics, lines = end_to_end(setup, plain, clock)
    if trace:
        traced_wall, _ = _body_walls(traced)
        overhead = traced_wall / metrics["wall_s"]["value"]
        metrics = tracer.metrics(len(traced), clock.time_scale("cold"),
                                 overhead)
        problems = layers.signature_problems(
            workload, metrics, _load(SIGNATURES))
        for p in problems:
            run_state.check(False, f"layer signature: {p}")
        if not problems:
            run_state.check(True, "layer signature")
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        lines = [{"perfbench": "trace", "traced_bodies": len(traced),
                  "plain_bodies": len(plain), "overhead": overhead,
                  "spans_dropped": tracer.dropped}]
    for line in lines:
        print(json.dumps(line), flush=True)
    print(json.dumps({
        "correct": run_state.failed == 0,
        "attempted": run_state.attempted,
        "failed": run_state.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def record(workload: str) -> int:
    """Rewrite this workload's digests and layer-signature counts."""
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    clock = hostref.HostClock()
    from repro.workloads import registry

    registry.discover()
    digests: Dict[str, str] = {}
    try:
        for variant in range(W.VARIANTS):
            state = W.Run(workload, variant, scratch, clock, digests,
                          record=True)
            wl = W.WORKLOADS[workload](variant)
            state.readings_inside_ops = wl.readings_inside_ops
            wl.body(state, lambda: False)
            clock.drain()
            if state.failed:
                print(f"perfbench: input set {variant} failed: "
                      f"{state.errors}", file=sys.stderr)
                return 1
        tracer = layers.Tracer()
        state = W.Run(workload, W.DEVELOPMENT_SEED, scratch, clock, digests,
                      tracer=tracer)
        wl = W.WORKLOADS[workload](W.DEVELOPMENT_SEED)
        tracer.install()
        try:
            wl.body(state, lambda: False)
        finally:
            tracer.uninstall()
        clock.drain()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    all_digests = _load(DIGESTS)
    all_digests[workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(all_digests, indent=1, sort_keys=True) + "\n")
    counts = {name: m["value"] for name, m in tracer.metrics(1, 1.0, 1.0).items()
              if m["unit"] == "count"}
    sigs = _load(SIGNATURES)
    sigs[workload] = counts
    SIGNATURES.write_text(json.dumps(sigs, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"recorded": workload, "digests": len(digests),
                      "signature": counts}))
    return 0
