"""Shared session fixtures for the benchmark harness.

The expensive simulated sweeps run once per session and are shared by
every per-figure benchmark; each benchmark then (a) regenerates its
table/figure rows, (b) asserts the paper's shape checks, (c) writes the
rendered artifact to ``benchmarks/results/<exp>.txt``, and (d) times the
analysis step with pytest-benchmark.

``REPRO_BENCH_FAST=1`` shrinks shapes and relaxes bars for a CI-scale
smoke run; its artifacts go to the untracked ``benchmarks/results-fast/``
so a smoke run never overwrites the recorded full-mode results.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.harness.runner import run_convolution_sweep, run_lulesh_grid
from repro.harness.sweeps import (
    PAPER_LULESH_SIDES,
    default_convolution_sweep,
    paper_lulesh_sweep,
)

#: Whether the suites run at CI smoke scale (``REPRO_BENCH_FAST``).
FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

RESULTS_DIR = pathlib.Path(__file__).parent / (
    "results-fast" if FAST_MODE else "results")


def save_artifact(name: str, text: str) -> None:
    """Persist a rendered experiment table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def merge_json_artifact(name: str, update: dict) -> pathlib.Path:
    """Shallow-merge ``update`` into ``results/<name>.json``.

    Several benchmark files contribute sections to one machine-readable
    document (``BENCH_engine.json``), so each writer merges its own
    top-level keys instead of overwriting the file.  An unreadable or
    non-object existing payload is discarded.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    doc = {}
    if path.exists():
        try:
            prev = json.loads(path.read_text())
        except (OSError, ValueError):
            prev = None
        if isinstance(prev, dict):
            doc = prev
    doc.update(update)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\n[saved to {path}]")
    return path


# The session sweeps honor the harness speed knobs: set REPRO_JOBS=N
# (0 = all cores) to fan sweep points out over worker processes, and
# REPRO_CACHE_DIR=DIR to replay previously simulated points from the
# persistent run cache.  Both keep results bit-identical to a serial,
# uncached run, so benchmark numbers stay comparable.


@pytest.fixture(scope="session")
def conv_profile():
    """The Figure 5/6 convolution sweep (scaled-down paper sweep)."""
    sweep = default_convolution_sweep()
    # Benchmark-grade: fewer repetitions than the paper's 20, enough to
    # average per point while finishing in a couple of minutes.
    object.__setattr__(sweep, "reps", 2)
    return run_convolution_sweep(sweep, jobs=None, cache=None)


@pytest.fixture(scope="session")
def knl_grid():
    """The Figures 9/10 Lulesh grid on the KNL model at paper size."""
    sweep = paper_lulesh_sweep("knl", steps=10)
    object.__setattr__(sweep, "reps", 1)
    analysis, drifts = run_lulesh_grid(sweep, sides=PAPER_LULESH_SIDES,
                                       jobs=None, cache=None)
    assert max(drifts.values()) < 1e-10, "energy conservation violated"
    return analysis


@pytest.fixture(scope="session")
def bdw_grid():
    """The Figure 8 Lulesh grid on the dual-Broadwell model."""
    sweep = paper_lulesh_sweep("broadwell", steps=10)
    object.__setattr__(sweep, "reps", 1)
    analysis, drifts = run_lulesh_grid(sweep, sides=PAPER_LULESH_SIDES,
                                       jobs=None, cache=None)
    assert max(drifts.values()) < 1e-10, "energy conservation violated"
    return analysis
