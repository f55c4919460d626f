"""Benchmark entry point: one workload, one process, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_figs --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates plain and traced bodies, reports the per-layer
metrics of the traced ones plus ``trace.overhead`` (traced / plain
``wall_s``), checks each workload's layer signature against
``signatures.json`` and writes the spans under ``.perfbench/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
stamp the environment and print, beside every host-normalised timing,
its raw value and the reference readings it was normalised by (see
``hostref.py``).

Maintainer modes (not used by measuring runs):

* ``--record`` runs one body of every input set and rewrites the
  workload's payload digests in ``digests.json``, then one traced body
  of the development seed and its layer counts in ``signatures.json``;
* ``--setup-probe`` is the child process that ``setup_s`` times.

The program under test is imported from ``src/`` of the current
directory; without it the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

#: Program knobs removed from the environment so the program's own
#: defaults are measured.
_SCRUBBED_PREFIXES = ("REPRO_",)
#: One thread per numeric library: the workload process may run at most
#: two threads (main plus the service's single worker).
_THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(_SCRUBBED_PREFIXES)}
    for key in _THREAD_CAPS:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _prepare_process() -> None:
    """Apply the hermetic environment and import the program from src/."""
    env = hermetic_env()
    os.environ.clear()
    os.environ.update(env)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro; run from the root of "
              "a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)


def _parse(argv):
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_probe(workload: str, seed: int) -> None:
    """Child of ``setup_s``: import, discover, build specs, then print
    READY with the time it spent in reference readings and the readings'
    Python and JSON parts (see ``hostref.ProbeReadings``)."""
    import pathlib
    import shutil
    import tempfile

    import hostref

    probe = hostref.ProbeReadings()
    probe.start()
    import workloads as W
    from repro.workloads import registry

    registry.discover()
    W.WORKLOADS[workload](seed)
    root = None
    if workload == "service_cache":
        base = os.path.join(os.getcwd(), ".perfbench")
        os.makedirs(base, exist_ok=True)
        root = tempfile.mkdtemp(prefix="probe-", dir=base)
        app = W.make_service(pathlib.Path(root))
    print("READY", *probe.stop(), flush=True)
    if root is not None:
        app.close()
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    _prepare_process()
    args = _parse(argv)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {sorted(W.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import measure

    if args.record:
        return measure.record(args.workload)
    return measure.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), _T0)


if __name__ == "__main__":
    raise SystemExit(main())
