"""Layout of the A/B record written by ``benchmarks/ab.py``.

A stub runner stands in for perfbench, so no benchmark runs here.
"""

import json

import pytest

from benchmarks import ab

SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "hits", "unit": "ratio", "better": "higher", "bound": 0.1},
]

#: Per side and call number, the stub's wall_s / setup_s / hits.
WALL = {"base": [1.00, 1.02, 0.98, 1.01, 0.99], "head": [0.90, 1.03, 0.91, 0.92, 0.93]}
SETUP = {"base": [1.0, 2.0, 1.0, 2.0, 1.0], "head": [1.0, 1.0, 1.0, 1.0, 1.0]}
HITS = {"base": [0.50] * 5, "head": [0.40] * 5}


def _stub(calls):
    def runner(directory, workload, seed, seconds):
        side = directory.name
        i = sum(1 for c in calls if c[:2] == (side, workload))
        calls.append((side, workload, seed, seconds))
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "wall_s": {"value": WALL[side][i], "unit": "s"},
            "setup_s": {"value": SETUP[side][i], "unit": "s"},
            "hits": {"value": HITS[side][i], "unit": "ratio"},
        }}
    return runner


def test_record_layout_from_a_stub_runner(tmp_path):
    calls = []
    dirs = {side: tmp_path / side for side in ab.SIDES}
    samples = ab.collect(dirs, ["wl"], pairs=5, seed=5, seconds=2.0,
                         runner=_stub(calls))
    # Sides alternate: base first in even pairs, head first in odd ones.
    assert [c[0] for c in calls] == ["base", "head", "head", "base"] * 2 + ["base", "head"]
    assert {c[2:] for c in calls} == {(5, 2.0)}

    doc = ab.record("t", {"base": "a" * 40, "head": "b" * 40},
                    {"base": "A", "head": "B"}, samples, SPEC,
                    pairs=5, seed=5, seconds=2.0)
    doc = json.loads(json.dumps(doc))  # the record is plain JSON
    assert doc["label"] == "t"
    assert doc["revisions"] == {"base": {"rev": "A", "commit": "a" * 40},
                                "head": {"rev": "B", "commit": "b" * 40}}
    assert doc["pairs"] == 5
    wl = doc["workloads"]["wl"]
    assert wl["correct"] == {"base": True, "head": True}
    assert wl["failed"] == {"base": 0, "head": 0}
    assert set(wl["metrics"]) == {"wall_s", "setup_s", "hits"}

    wall = wl["metrics"]["wall_s"]
    assert set(wall) == {"unit", "better", "bound", "base", "head", "pairs",
                         "head_wins", "change", "base_spread", "verdict",
                         "values"}
    assert wall["base"] == {"median": 1.00, "q1": 0.99, "q3": 1.01, "n": 5}
    assert wall["head"]["median"] == 0.92
    assert wall["pairs"] == 5
    assert wall["head_wins"] == 4            # lower wins; pair 1 lost
    assert wall["change"] == pytest.approx(-0.08)
    assert wall["verdict"] == "within_bound"
    assert wall["values"] == {"base": WALL["base"], "head": WALL["head"]}
    # Base quartiles 1.0 .. 2.0: the spread is wider than the bound.
    assert wl["metrics"]["setup_s"]["verdict"] == "unresolved"
    # Higher is better here, so a 20 % drop is a 20 % loss.
    hits = wl["metrics"]["hits"]
    assert hits["head_wins"] == 0
    assert hits["change"] == pytest.approx(0.2)
    assert hits["verdict"] == "worse"

