"""Interleaved A/B of two git revisions on the perfbench workloads.

Exports each revision into a clean directory (``git archive``, then
every ``__pycache__`` removed, so no stale bytecode rides along), runs
``perfbench/run.py --workload W --seed S --seconds N`` from each export
in alternating order, and writes ``benchmarks/results/BENCH_<label>.json``
with, per workload and end-to-end metric, each side's median and
quartiles, the number of pairs and how many pairs the head revision
won.  Run from anywhere inside the repository::

    python3 benchmarks/ab.py 246475e HEAD --label engine_loop \\
        --workload zoo_alltoall --workload zoo_replay --pairs 10

Each pair runs both revisions back to back, base first in even pairs
and head first in odd ones, so drift of a shared host hits both sides.
Metric directions and bounds come from ``BENCHMARK.json``.  A metric
whose base quartile spread is wider than its bound is reported
``unresolved``; otherwise it is ``worse`` when the head median is worse
than the base median by more than the bound, else ``within_bound``.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Callable, Dict, List, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results"
SIDES = ("base", "head")

#: ``runner(directory, workload, seed, seconds)`` -> perfbench's result
#: object (the last line of its standard output, parsed).
Runner = Callable[[pathlib.Path, str, int, float], dict]


def resolve(rev: str) -> str:
    """Full commit id of ``rev``."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: pathlib.Path) -> None:
    """Write the tree of ``commit`` into an empty ``dest``, bytecode-free."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         cwd=ROOT, check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    for cache in sorted(dest.rglob("__pycache__"), reverse=True):
        shutil.rmtree(cache)


def perfbench(directory: pathlib.Path, workload: str, seed: int,
              seconds: float) -> dict:
    """Run perfbench once from ``directory``; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench {workload} in {directory} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def collect(dirs: Dict[str, pathlib.Path], workloads: Sequence[str],
            pairs: int, seed: int, seconds: float,
            runner: Runner = perfbench) -> Dict[str, Dict[str, List[dict]]]:
    """Run every workload ``pairs`` times a side, sides alternating."""
    out = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                res = runner(dirs[side], w, seed, seconds)
                out[w][side].append(res)
                print(json.dumps({"pair": i, "workload": w, "side": side,
                                  "correct": res["correct"],
                                  "failed": res["failed"]}), flush=True)
    return out


def _quartiles(values: List[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: Dict[str, List[dict]], spec: Sequence[dict]) -> dict:
    """Per-metric comparison of one workload's base and head runs."""
    metrics = {}
    for m in spec:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in SIDES}
        if not values["base"] or len(values["base"]) != len(values["head"]):
            continue
        lower = m["better"] == "lower"
        base, head = (_quartiles(values[side]) for side in SIDES)
        # Positive change is worse, whichever way the metric points.
        change = (head["median"] / base["median"] - 1.0) * (1 if lower else -1)
        spread = (base["q3"] - base["q1"]) / base["median"]
        verdict = ("unresolved" if spread > m["bound"]
                   else "worse" if change > m["bound"] else "within_bound")
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": base, "head": head,
            "pairs": len(values["base"]),
            "head_wins": sum((h < b) if lower else (h > b)
                             for b, h in zip(values["base"], values["head"])),
            "change": change, "base_spread": spread, "verdict": verdict,
            "values": values,
        }
    return {
        "correct": {side: all(r["correct"] for r in runs[side])
                    for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side])
                   for side in SIDES},
        "metrics": metrics,
    }


def record(label: str, commits: Dict[str, str], revs: Dict[str, str],
           samples: Dict[str, Dict[str, List[dict]]], spec: Sequence[dict],
           pairs: int, seed: int, seconds: float) -> dict:
    """The ``BENCH_<label>.json`` document."""
    return {
        "label": label,
        "revisions": {side: {"rev": revs[side], "commit": commits[side]}
                      for side in SIDES},
        "command": ["perfbench/run.py", "--seed", str(seed),
                    "--seconds", str(seconds)],
        "pairs": pairs,
        "workloads": {w: summarise(runs, spec) for w, runs in samples.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the reference revision")
    ap.add_argument("head", help="the revision under test")
    ap.add_argument("--label", required=True,
                    help="names the record BENCH_<label>.json")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="repeatable; default: every BENCHMARK.json workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    revs = {"base": args.base, "head": args.head}
    commits = {side: resolve(rev) for side, rev in revs.items()}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        dirs = {side: pathlib.Path(tmp, side) for side in SIDES}
        for side in SIDES:
            export(commits[side], dirs[side])
        samples = collect(dirs, workloads, args.pairs, args.seed,
                          args.seconds)
    doc = record(args.label, commits, revs, samples, bench["end_to_end"],
                 args.pairs, args.seed, args.seconds)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for w, summary in doc["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{w:14s} {name:18s} base {m['base']['median']:10.4g} "
                  f"head {m['head']['median']:10.4g} change {m['change']:+.3f} "
                  f"wins {m['head_wins']}/{m['pairs']} {m['verdict']}")
    print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
