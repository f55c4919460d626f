"""Command-line interface: regenerate any paper artifact from a shell.

Usage (module form, no console-script assumptions)::

    python -m repro.cli list
    python -m repro.cli table7
    python -m repro.cli fig5a --reps 2 --steps 60
    python -m repro.cli fig9 --steps 8
    python -m repro.cli fig10 --steps 10
    python -m repro.cli fig5a fig6 --jobs 4 --cache
    python -m repro.cli fig5a --trace trace.json
    python -m repro.cli cache stats
    python -m repro.cli cache clear
    python -m repro.cli run --scenario spec.json
    python -m repro.cli sweep --scenario spec.json --jobs 4 --cache
    python -m repro.cli workloads list
    python -m repro.cli scenarios validate spec.json
    python -m repro.cli serve --port 8765 --jobs 4 --cache-dir /var/cache/repro
    python -m repro.cli submit job.json --wait
    python -m repro.cli status <job-id>

Convolution experiments (fig5*, fig6) run the strong-scaling sweep once
and reuse it across the artifacts requested in a single invocation;
Lulesh experiments (fig8/9/10) run the corresponding machine grid.
Outputs are printed and optionally written with ``--out DIR``.

``--jobs N`` fans independent sweep points out over N worker processes
(0 = all cores; the ``REPRO_JOBS`` environment variable sets the
default), and ``--cache`` replays previously simulated points from the
persistent run cache (enabled automatically when ``REPRO_CACHE_DIR`` is
set) — both produce results bit-identical to a serial, uncached run.
The ``cache`` subcommand inspects (``stats``) or empties (``clear``)
that store.

Robustness controls: ``--faults plan.json`` injects a declarative
:class:`~repro.faults.FaultPlan` into every sweep point; ``--on-error
skip`` lets a sweep survive failing points (reported in a failure table
at the end, with ``--retries N`` re-attempts per point); ``--timeout
SECONDS`` arms the engine's per-point wall-clock watchdog.
``--engine threads`` swaps the default single-thread event loop for the
thread-per-rank oracle (``REPRO_ENGINE`` sets the default); simulated
results are bit-identical either way.

The ``run`` and ``sweep`` subcommands (aliases) execute a declarative
:class:`~repro.scenarios.ScenarioSpec` JSON file end to end — any
workload discovered through :mod:`repro.workloads.registry`, including
the zoo — and optionally write the canonical result payload with
``--out``.  ``workloads list`` prints every registered plugin;
``scenarios validate`` checks spec files without running anything
(exit 1 on the first invalid spec).

The ``serve`` subcommand runs the :mod:`repro.service` analysis server
(job queue + experiment registry + ``/metrics``); ``submit`` and
``status`` are thin clients for it.

``--trace out.json`` (or ``REPRO_TRACE=out.json``) self-profiles the
invocation: a wall-time summary prints to stderr and a Chrome
trace-event file — loadable in ``chrome://tracing`` or Perfetto — is
written with spans from every layer under one trace ID.  See
:mod:`repro.obs` and ``docs/observability.md``.

Exit codes: ``0`` success, ``1`` usage errors (unknown experiment, bad
``--jobs``, unreadable fault plan or job spec, missing baseline file),
``2`` run failures (an experiment check failed, a baseline regressed,
sweep points failed under ``--on-error skip``, or a submitted job
failed).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from contextlib import contextmanager
from typing import List

from repro import obs
from repro.harness import experiments as E
from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
from repro.harness.sweeps import (
    PAPER_LULESH_SIDES,
    default_convolution_sweep,
    fig6_process_counts,
    paper_lulesh_sweep,
)

_CONV_EXPERIMENTS = ("fig5a", "fig5b", "fig5c", "fig5d", "fig6")
_KNL_EXPERIMENTS = ("fig9", "fig10")
_BDW_EXPERIMENTS = ("fig8",)
_STANDALONE = ("table7",)

# Exit codes: usage errors and run failures are distinguishable in CI.
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's tables and figures on the simulator.",
        epilog="Exit codes (0 success / 1 usage / 2 run failure) and every "
               "REPRO_* environment variable are documented canonically in "
               "docs/api.md; tracing output is described in "
               "docs/observability.md.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (fig5a..fig10, table7, fig6), 'all', or 'list'",
    )
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions per sweep point (paper: 20)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override workload time steps")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sweep base seed")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to write <exp>.txt artifacts into")
    parser.add_argument("--quiet", action="store_true",
                        help="print only PASS/FAIL per experiment")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for sweep points "
                             "(0 = all cores; default: $REPRO_JOBS or serial)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse the persistent run cache "
                             "($REPRO_CACHE_DIR or ~/.cache/repro/runs)")
    parser.add_argument("--save-baseline", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="write <exp>.baseline.json snapshots into DIR")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="compare results against snapshots in DIR; "
                             "regressions fail the run")
    parser.add_argument("--faults", type=pathlib.Path, default=None,
                        metavar="PLAN.json",
                        help="inject the JSON fault plan into every sweep "
                             "point (stragglers, noise bursts, degraded "
                             "links, hangs, crashes)")
    parser.add_argument("--on-error", choices=("raise", "skip"),
                        default="raise", dest="on_error",
                        help="sweep-point failure policy: abort on the "
                             "first failure (raise) or skip failed points "
                             "and report them (skip)")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-attempts per failing sweep point")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-point wall-clock watchdog: abort a point "
                             "whose simulation stops progressing in real "
                             "time")
    parser.add_argument("--engine", choices=("threadfree", "threads"),
                        default=None,
                        help="execution substrate: single-thread generator "
                             "event loop (threadfree, default) or the "
                             "thread-per-rank oracle (threads); results "
                             "are identical ($REPRO_ENGINE sets the "
                             "default)")
    parser.add_argument("--macrostep", choices=("on", "off"), default=None,
                        help="steady-state round capture & replay on the "
                             "thread-free engine (default on; replay is "
                             "bit-identical, $REPRO_MACROSTEP sets the "
                             "default)")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        metavar="OUT.json",
                        help="self-profile this invocation: write a Chrome "
                             "trace-event file (chrome://tracing, Perfetto) "
                             "and print a wall-time summary to stderr "
                             "($REPRO_TRACE sets the default)")
    return parser


def _emit(result, args) -> tuple:
    """Print/compare one experiment; returns ``(run_ok, usage_ok)``.

    ``run_ok`` is False on a failed check or a baseline regression;
    ``usage_ok`` is False when the requested baseline file is missing
    (a setup problem, reported as a usage error).
    """
    from repro.harness.baseline import compare_to_baseline, save_baseline

    text = result.render()
    if args.quiet:
        print(f"{result.exp_id}: {'PASS' if result.passed else 'FAIL'}")
    else:
        print(text)
        print()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{result.exp_id}.txt").write_text(text + "\n")
    ok = result.passed
    usage_ok = True
    if args.save_baseline is not None:
        args.save_baseline.mkdir(parents=True, exist_ok=True)
        path = args.save_baseline / f"{result.exp_id}.baseline.json"
        path.write_text(save_baseline(result))
        print(f"baseline saved: {path}")
    if args.baseline is not None:
        path = args.baseline / f"{result.exp_id}.baseline.json"
        if not path.exists():
            print(f"{result.exp_id}: no baseline at {path}", file=sys.stderr)
            usage_ok = False
        else:
            diff = compare_to_baseline(result, path.read_text())
            print(diff.render())
            ok = ok and diff.ok
    return ok, usage_ok


def _report_sweep_failures(failures, label: str) -> bool:
    """Print a sweep's failure table; returns True when it was clean."""
    if not failures:
        return True
    print(f"{label} sweep: {failures.summary()}", file=sys.stderr)
    return False


@contextmanager
def _trace_scope(args, wanted: List[str]):
    """Trace the experiment run when ``--trace``/``REPRO_TRACE`` ask for it.

    The CLI is the outermost entry point, so the trace minted here is the
    one every layer underneath (harness, cache, workers, engine) attaches
    spans to.  ``--trace PATH`` wins over the environment; either way the
    self-profiling summary prints to stderr, and a Chrome trace file is
    written when a path was given.
    """
    env_value = obs.trace_env()
    if args.trace is None and env_value is None:
        yield
        return
    obs.start_trace("cli", layer="cli",
                    attrs={"experiments": " ".join(wanted)})
    try:
        yield
    finally:
        tracer = obs.finish_trace()
        print(obs.self_profile(tracer), file=sys.stderr)
        path = None
        if args.trace is not None:
            path = str(args.trace)
        elif env_value.lower() not in ("1", "true", "yes", "summary"):
            path = env_value
        if path is not None:
            obs.write_chrome_trace(tracer, path)
            print(f"chrome trace written: {path}", file=sys.stderr)


def _cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli cache",
        description="Manage the persistent run cache.",
    )
    parser.add_argument("action", choices=("stats", "clear"),
                        help="report hit/entry counts, or delete every entry")
    parser.add_argument("--dir", type=pathlib.Path, default=None,
                        help="cache directory (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro/runs)")
    return parser


def _cache_main(argv: List[str]) -> int:
    """The ``cache`` subcommand: inspect or empty the run cache."""
    from repro.harness.cache import RunCache

    args = _cache_parser().parse_args(argv)
    cache = RunCache(root=args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache clear: removed {removed} entries from {cache.root}")
        return 0
    from repro.harness.cache import format_stats

    print(format_stats(cache.stats()))
    return 0


def _scenario_exec_parent() -> argparse.ArgumentParser:
    """The execution flags of every command that runs a scenario spec."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=None,
                        help="worker processes for sweep points "
                             "(0 = all cores; default: $REPRO_JOBS or serial)")
    parent.add_argument("--cache", action="store_true",
                        help="reuse the persistent run cache "
                             "($REPRO_CACHE_DIR or ~/.cache/repro/runs)")
    parent.add_argument("--on-error", choices=("raise", "skip"),
                        default="raise", dest="on_error",
                        help="sweep-point failure policy")
    parent.add_argument("--retries", type=int, default=0,
                        help="re-attempts per failing sweep point")
    parent.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    parent.add_argument("--macrostep", choices=("on", "off"), default=None,
                        help="override the spec's macro-step capture/replay "
                             "policy (execution policy: replay is "
                             "bit-identical, so cached points are shared "
                             "across modes)")
    return parent


def _scenario_run_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.cli {prog}",
        description="Execute a declarative scenario spec (any registered "
                    "workload) across its process-count sweep.",
        parents=[_scenario_exec_parent()],
    )
    parser.add_argument("--scenario", type=pathlib.Path, required=True,
                        metavar="SPEC.json",
                        help="scenario spec file (see docs/workloads.md)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        metavar="RESULT.json",
                        help="write the canonical scenario result payload "
                             "(byte-identical to the served payload)")
    return parser


def _run_parser() -> argparse.ArgumentParser:
    return _scenario_run_parser("run")


def _sweep_parser() -> argparse.ArgumentParser:
    return _scenario_run_parser("sweep")


def _execute_scenario(args):
    """Run the ``--scenario`` spec under the execution flags.

    The shared body of ``run``, ``sweep`` and ``report --scenario``:
    validate ``--jobs`` / ``--retries``, load the spec, apply
    ``--macrostep``, run the sweep (through the run cache with
    ``--cache``) and build its payload, printing any failure table.
    Returns ``(status, result)``: ``result`` is ``(spec, profile,
    metrics, payload)``, or None when nothing ran; ``status`` is
    EXIT_RUN_FAILURE for a sweep with failed points.
    """
    from repro.errors import ReproError
    from repro.harness.parallel import resolve_jobs
    from repro.harness.scenario import run_scenario, scenario_payload
    from repro.scenarios import ScenarioSpec, ScenarioSpecError

    try:
        jobs = resolve_jobs(args.jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return EXIT_USAGE, None
    try:
        spec = ScenarioSpec.load(args.scenario)
    except ScenarioSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    if args.macrostep is not None:
        object.__setattr__(spec, "macrostep", args.macrostep == "on")
    run_cache = None
    if args.cache:
        from repro.harness.cache import RunCache

        run_cache = RunCache()
    progress = None if args.quiet else print
    try:
        profile, metrics, intervals = run_scenario(
            spec, progress=progress, jobs=jobs, cache=run_cache,
            on_error=args.on_error, retries=args.retries,
        )
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE, None
    payload = scenario_payload(spec, profile, metrics, intervals)
    ok = _report_sweep_failures(profile.failures, spec.workload)
    return (EXIT_OK if ok else EXIT_RUN_FAILURE,
            (spec, profile, metrics, payload))


def _run_main(argv: List[str], prog: str = "run") -> int:
    """The ``run``/``sweep`` subcommands: execute a scenario spec."""
    import json as _json

    args = _scenario_run_parser(prog).parse_args(argv)
    status, result = _execute_scenario(args)
    if result is None:
        return status
    spec, profile, metrics, payload = result
    summary = payload["summary"]
    print(f"scenario {spec.workload} [{spec.content_key[:12]}]: "
          f"scales {summary['scales']}")
    if summary["speedup"] is not None:
        for p in profile.scales():
            line = f"  p={p}: speedup {summary['speedup'][str(p)]:.3f}"
            extra = metrics.get(p)
            if extra:
                line += "  " + "  ".join(
                    f"{k}={v:.4g}" for k, v in sorted(extra.items()))
            print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(_json.dumps(payload, sort_keys=True, indent=2)
                            + "\n")
        print(f"result written: {args.out}")
    return status


def _report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli report",
        description="Render analysis views of a scenario: the scaling "
                    "report, and with --timeline the windowed efficiency "
                    "timeline (sparklines + inflexion localization).  The "
                    "execution flags apply with --scenario only.",
        parents=[_scenario_exec_parent()],
    )
    parser.add_argument("--scenario", type=pathlib.Path, default=None,
                        metavar="SPEC.json",
                        help="scenario spec to execute (cache-friendly: "
                             "warm points are never re-simulated)")
    parser.add_argument("--from", dest="from_result", type=pathlib.Path,
                        default=None, metavar="RESULT.json",
                        help="render from a saved result payload "
                             "(repro run --scenario ... --out) instead of "
                             "executing; mutually exclusive with --scenario")
    parser.add_argument("--timeline", action="store_true",
                        help="append the time-resolved efficiency timeline "
                             "(docs/analysis.md)")
    parser.add_argument("--windows", type=int, default=None,
                        help="fixed-window count override (default: the "
                             "spec's timeline block, $REPRO_TIMELINE_WINDOWS "
                             "or 16); forces recomputation from the stored "
                             "interval records")
    parser.add_argument("--window-strategy", choices=("fixed", "adaptive"),
                        default=None, dest="window_strategy",
                        help="window strategy override (fixed slices vs "
                             "phase-aligned adaptive edges)")
    parser.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                        help="inflexion localizer noise tolerance "
                             "(default 0.05)")
    parser.add_argument("--section", action="append", default=None,
                        metavar="LABEL",
                        help="section(s) to highlight in the timeline "
                             "(repeatable; default: largest contributors)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        metavar="REPORT.txt",
                        help="also write the rendered report to a file")
    return parser


def _engine_counter_lines(metrics_by_scale) -> List[str]:
    """Render the engine's macro-step diagnostics next to sched_steps.

    ``metrics_by_scale`` is the payload's ``metrics`` block (scale →
    rep-averaged metrics).  Counters are absent from payloads produced
    before they existed; such scales are skipped silently.
    """
    rows = []
    for p in sorted(metrics_by_scale, key=int):
        m = metrics_by_scale[p]
        if "sched_steps" not in m:
            continue
        rows.append(
            f"  p={p}: sched_steps={m['sched_steps']:.0f}  "
            f"rounds_captured={m.get('rounds_captured', 0.0):.0f}  "
            f"rounds_replayed={m.get('rounds_replayed', 0.0):.0f}  "
            f"deopts={m.get('deopts', 0.0):.0f}"
        )
    if not rows:
        return []
    return ["engine counters (rep-averaged):"] + rows


def _report_main(argv: List[str]) -> int:
    """The ``report`` subcommand: scaling + timeline views of a scenario."""
    import json as _json

    from repro.analysis.timeresolved import (
        DEFAULT_REL_TOL,
        WindowConfig,
        scenario_timeline_from_payload,
    )
    from repro.analysis.render import render_timeline
    from repro.core.export import scaling_from_json
    from repro.errors import ReproError
    from repro.tools.reportgen import scaling_report

    args = _report_parser().parse_args(argv)
    if (args.scenario is None) == (args.from_result is None):
        print("error: report needs exactly one of --scenario or --from",
              file=sys.stderr)
        return EXIT_USAGE

    env_windows = os.environ.get("REPRO_TIMELINE_WINDOWS")
    windows = args.windows
    if windows is None and env_windows is not None:
        try:
            windows = int(env_windows)
        except ValueError:
            print(f"error: REPRO_TIMELINE_WINDOWS must be an integer, "
                  f"got {env_windows!r}", file=sys.stderr)
            return EXIT_USAGE

    if args.from_result is not None:
        try:
            payload = _json.loads(args.from_result.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read result payload "
                  f"{args.from_result}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(payload, dict) or payload.get("kind") != "scenario":
            print(f"error: {args.from_result} is not a scenario result "
                  "payload (expected repro run --scenario ... --out output)",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        status, result = _execute_scenario(args)
        if status != EXIT_OK:
            return status
        payload = result[3]

    lines: List[str] = [
        f"scenario {payload['scenario']['workload']} "
        f"[{payload['content_key'][:12]}]"
    ]
    try:
        lines.append(scaling_report(scaling_from_json(payload["profile_json"])))
    except ReproError as exc:
        lines.append(f"(no scaling report: {exc})")
    lines.extend(_engine_counter_lines(payload.get("metrics", {})))

    if args.timeline:
        overrides = (windows is not None or args.window_strategy is not None
                     or args.rel_tol is not None)
        timeline = payload.get("timeline")
        if overrides or timeline is None:
            base = (timeline or {}).get(
                "config", WindowConfig().to_dict())
            try:
                cfg = WindowConfig(
                    strategy=args.window_strategy or base["strategy"],
                    windows=windows if windows is not None
                    else base["windows"],
                )
                timeline = scenario_timeline_from_payload(
                    payload, cfg,
                    args.rel_tol if args.rel_tol is not None
                    else DEFAULT_REL_TOL,
                )
            except ReproError as exc:
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return EXIT_USAGE
        lines.append(render_timeline(timeline, sections=args.section))

    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
        print(f"report written: {args.out}", file=sys.stderr)
    return EXIT_OK


def _workloads_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli workloads",
        description="Inspect the workload plugin registry.",
    )
    parser.add_argument("action", choices=("list",),
                        help="list every discovered workload plugin")
    parser.add_argument("--domain", default=None,
                        help="only show plugins of this domain "
                             "(paper | zoo | ...)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit full declarative descriptions as JSON")
    return parser


def _workloads_main(argv: List[str]) -> int:
    """The ``workloads`` subcommand: list registered plugins."""
    import json as _json

    from repro.workloads import registry

    args = _workloads_parser().parse_args(argv)
    plugins = [registry.get(name) for name in registry.discover()]
    if args.domain is not None:
        plugins = [c for c in plugins if c.DOMAIN == args.domain]
    if args.as_json:
        print(_json.dumps([c.describe() for c in plugins], indent=2))
        return EXIT_OK
    if not plugins:
        print("no workloads registered")
        return EXIT_OK
    width = max(len(c.NAME) for c in plugins)
    for c in plugins:
        print(f"{c.NAME:<{width}}  {c.DOMAIN:<6} {c.COMM_PATTERN:<14} "
              f"sections={len(c.SECTIONS)} params={len(c.PARAMS)}")
    return EXIT_OK


def _scenarios_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli scenarios",
        description="Validate declarative scenario spec files.",
    )
    parser.add_argument("action", choices=("validate",),
                        help="parse + validate specs without running them")
    parser.add_argument("spec", type=pathlib.Path, nargs="+",
                        help="scenario spec JSON file(s)")
    return parser


def _scenarios_main(argv: List[str]) -> int:
    """The ``scenarios`` subcommand: validate spec files (exit 1 on bad)."""
    from repro.scenarios import ScenarioSpec, ScenarioSpecError

    args = _scenarios_parser().parse_args(argv)
    code = EXIT_OK
    for path in args.spec:
        try:
            spec = ScenarioSpec.load(path)
        except ScenarioSpecError as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            code = EXIT_USAGE
            continue
        print(f"{path}: ok  workload={spec.workload} "
              f"p={list(spec.process_counts)} "
              f"content_key={spec.content_key[:12]}")
    return code


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli serve",
        description="Run the asynchronous analysis server (repro.service).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port (0 = ephemeral; default: 8765)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes per sweep "
                             "(0 = all cores; default: $REPRO_JOBS or serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="concurrent jobs (worker processes or threads; "
                             "default: $REPRO_SERVICE_WORKERS or 2)")
    parser.add_argument("--worker-mode", choices=("thread", "process"),
                        default="process",
                        help="job execution grain: supervised worker "
                             "processes (default; self-healing) or "
                             "in-process threads")
    parser.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        help="run cache + registry root (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/runs)")
    parser.add_argument("--journal", type=pathlib.Path, default=None,
                        help="durable job journal path (default: "
                             "$REPRO_SERVICE_JOURNAL or "
                             "<cache-dir>/journal.wal)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="max jobs in flight before 429 (default 64)")
    parser.add_argument("--per-client", type=int, default=8,
                        help="max in-flight jobs per client (default 8)")
    parser.add_argument("--retry-budget", type=int, default=2,
                        help="worker deaths one job may cause before it is "
                             "poisoned (default 2)")
    parser.add_argument("--retry-backoff", type=float, default=0.25,
                        help="base requeue backoff after a worker death, "
                             "seconds (default 0.25)")
    parser.add_argument("--heartbeat-timeout", type=float, default=30.0,
                        help="kill a busy worker silent for this many "
                             "seconds (default 30)")
    return parser


def _serve_main(argv: List[str]) -> int:
    """The ``serve`` subcommand: run the analysis service."""
    args = _serve_parser().parse_args(argv)

    from repro.errors import ReproError
    from repro.harness.parallel import resolve_jobs
    from repro.service import ServiceApp, ServiceServer

    import signal

    try:
        jobs = resolve_jobs(args.jobs) if args.jobs is not None else None
        workers = args.workers
        if workers is None:
            workers = int(os.environ.get("REPRO_SERVICE_WORKERS", "2"))
        if workers < 1:
            raise ReproError(f"--workers must be >= 1, got {workers}")
        journal = args.journal
        if journal is None and os.environ.get("REPRO_SERVICE_JOURNAL"):
            journal = pathlib.Path(os.environ["REPRO_SERVICE_JOURNAL"])
        app = ServiceApp(
            cache_dir=args.cache_dir,
            queue_limit=args.queue_limit,
            per_client=args.per_client,
            workers=workers,
            sweep_jobs=jobs,
            worker_mode=args.worker_mode,
            journal_path=journal,
            retry_budget=args.retry_budget,
            retry_backoff=args.retry_backoff,
            heartbeat_timeout=args.heartbeat_timeout,
        )
        server = ServiceServer(app, host=args.host, port=args.port)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def _on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
        # Graceful drain: stop accepting, let running jobs persist,
        # leave queued jobs journalled for the next process, exit 0.
        print("SIGTERM: draining; queued jobs preserved in the journal",
              flush=True)
        server.request_shutdown(preserve_queued=True)

    signal.signal(signal.SIGTERM, _on_sigterm)
    host, port = server.address
    print(f"repro service listening on http://{host}:{port} "
          f"(cache: {app.cache.root}, journal: {app.journal.path}, "
          f"workers: {workers} {args.worker_mode})", flush=True)
    server.serve_forever()
    print("repro service stopped", flush=True)
    return EXIT_OK


def _submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli submit",
        description="Submit a JSON job spec to a running analysis server.",
    )
    parser.add_argument("spec", type=pathlib.Path,
                        help="path to the job-spec JSON file")
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="server base URL (default: http://127.0.0.1:8765)")
    parser.add_argument("--wait", action="store_true",
                        help="stream progress and block until the job ends")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds (default 600)")
    parser.add_argument("--trace", action="store_true",
                        help="run the job traced (?trace=1): its Chrome "
                             "trace becomes fetchable at "
                             "/api/v1/jobs/{id}/trace")
    parser.add_argument("--retries", type=int, default=2,
                        help="transparent retries of idempotent calls on "
                             "connection loss / 429 / 5xx (default 2)")
    return parser


def _submit_main(argv: List[str]) -> int:
    """The ``submit`` subcommand: send a job spec to a running server."""
    args = _submit_parser().parse_args(argv)

    import json as _json

    from repro.errors import ReproError
    from repro.service.client import ServiceClient, ServiceClientError

    try:
        spec = _json.loads(args.spec.read_text())
    except (OSError, _json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    client = ServiceClient(args.url, retries=args.retries)
    try:
        receipt = client.submit(spec, trace=args.trace)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if exc.status in (400, 404) else EXIT_RUN_FAILURE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    job_id = receipt["job_id"]
    print(f"job {job_id}: {receipt['status']}"
          + (" (served from registry)" if receipt.get("cached") else ""))
    if not args.wait:
        return EXIT_OK
    try:
        for line in client.stream_progress(job_id):
            print(line)
        record = client.wait(job_id, timeout=args.timeout)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"job {job_id}: {record['status']}")
    if record["status"] != "done":
        err = record.get("error") or {}
        print(f"  {err.get('error_type')}: {err.get('message')}",
              file=sys.stderr)
        return EXIT_RUN_FAILURE
    if args.trace:
        print(f"trace: {args.url}/api/v1/jobs/{job_id}/trace")
    return EXIT_OK


def _status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli status",
        description="Show job status on a running analysis server.",
    )
    parser.add_argument("job_id", nargs="?", default=None,
                        help="job id (omit to list every known job)")
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="server base URL (default: http://127.0.0.1:8765)")
    return parser


def _status_main(argv: List[str]) -> int:
    """The ``status`` subcommand: query one job (or list all jobs)."""
    args = _status_parser().parse_args(argv)

    import json as _json

    from repro.errors import ReproError
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    try:
        if args.job_id is None:
            print(_json.dumps(client.jobs(), indent=2))
            return EXIT_OK
        record = client.status(args.job_id)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if exc.status in (400, 404) else EXIT_RUN_FAILURE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(_json.dumps(record, indent=2))
    return EXIT_OK if record.get("status") != "failed" else EXIT_RUN_FAILURE


#: Subcommand name → parser builder.  The doc-sync test uses this to
#: smoke-parse every ``python -m repro.cli ...`` line in the docs, so a
#: flag rename that orphans an example fails CI.
SUBCOMMAND_PARSERS = {
    "cache": _cache_parser,
    "run": _run_parser,
    "sweep": _sweep_parser,
    "report": _report_parser,
    "workloads": _workloads_parser,
    "scenarios": _scenarios_parser,
    "serve": _serve_parser,
    "submit": _submit_parser,
    "status": _status_parser,
}


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] in ("run", "sweep"):
        return _run_main(argv[1:], prog=argv[0])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "workloads":
        return _workloads_main(argv[1:])
    if argv and argv[0] == "scenarios":
        return _scenarios_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_main(argv[1:])
    if argv and argv[0] == "status":
        return _status_main(argv[1:])
    args = build_parser().parse_args(argv)
    wanted = list(dict.fromkeys(args.experiments))  # dedupe, keep order

    if wanted == ["list"]:
        for exp_id in E.ALL_EXPERIMENTS:
            print(exp_id)
        return 0
    if "all" in wanted:
        wanted = list(E.ALL_EXPERIMENTS)

    unknown = [w for w in wanted if w not in E.ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; try 'list'", file=sys.stderr)
        return EXIT_USAGE

    ok = True
    usage_ok = True
    progress = None if args.quiet else print
    from repro.errors import ReproError
    from repro.faults.plan import FaultPlan, FaultPlanError
    from repro.harness.parallel import resolve_jobs

    try:
        jobs = resolve_jobs(args.jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.timeout is not None and args.timeout <= 0:
        print(f"error: --timeout must be positive, got {args.timeout}",
              file=sys.stderr)
        return EXIT_USAGE
    fault_plan = None
    if args.faults is not None:
        try:
            fault_plan = FaultPlan.load(args.faults)
        except FaultPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    run_cache = None
    if args.cache:
        from repro.harness.cache import RunCache

        run_cache = RunCache()

    def _configure(sweep):
        """Apply the robustness flags to one frozen sweep definition."""
        if fault_plan is not None:
            object.__setattr__(sweep, "faults", fault_plan)
        if args.timeout is not None:
            object.__setattr__(sweep, "wall_timeout", args.timeout)
        if args.engine is not None:
            object.__setattr__(sweep, "engine", args.engine)
        if args.macrostep is not None:
            object.__setattr__(sweep, "macrostep", args.macrostep == "on")
        return sweep

    with _trace_scope(args, wanted):
        conv_wanted = [w for w in wanted if w in _CONV_EXPERIMENTS]
        if conv_wanted:
            sweep = default_convolution_sweep()
            object.__setattr__(sweep, "reps", args.reps)
            if args.steps is not None:
                object.__setattr__(
                    sweep, "config", sweep.config.__class__(
                        height=sweep.config.height, width=sweep.config.width,
                        steps=args.steps,
                    )
                )
            if args.seed is not None:
                object.__setattr__(sweep, "base_seed", args.seed)
            _configure(sweep)
            profile = run_convolution_sweep(sweep, progress=progress,
                                            jobs=jobs, cache=run_cache,
                                            on_error=args.on_error,
                                            retries=args.retries)
            ok &= _report_sweep_failures(profile.failures, "convolution")
            for exp_id in conv_wanted:
                if exp_id == "fig6":
                    result = E.fig6(profile, fig6_process_counts())
                else:
                    result = E.ALL_EXPERIMENTS[exp_id](profile)
                exp_ok, exp_usage_ok = _emit(result, args)
                ok &= exp_ok
                usage_ok &= exp_usage_ok

        for machine, exp_ids in (("knl", _KNL_EXPERIMENTS), ("broadwell", _BDW_EXPERIMENTS)):
            hits = [w for w in wanted if w in exp_ids]
            if not hits:
                continue
            sweep = paper_lulesh_sweep(machine, steps=args.steps or 10)
            object.__setattr__(sweep, "reps", max(1, args.reps // 2))
            if args.seed is not None:
                object.__setattr__(sweep, "base_seed", args.seed)
            _configure(sweep)
            analysis, drifts = run_lulesh_grid(sweep, progress=progress,
                                               sides=PAPER_LULESH_SIDES,
                                               jobs=jobs, cache=run_cache,
                                               on_error=args.on_error,
                                               retries=args.retries)
            ok &= _report_sweep_failures(analysis.failures, "lulesh")
            if drifts and max(drifts.values()) > 1e-10:
                print("warning: energy conservation drifted", file=sys.stderr)
            for exp_id in hits:
                exp_ok, exp_usage_ok = _emit(E.ALL_EXPERIMENTS[exp_id](analysis), args)
                ok &= exp_ok
                usage_ok &= exp_usage_ok

        for exp_id in (w for w in wanted if w in _STANDALONE):
            exp_ok, exp_usage_ok = _emit(E.table7(), args)
            ok &= exp_ok
            usage_ok &= exp_usage_ok

    if not usage_ok:
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_RUN_FAILURE


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
