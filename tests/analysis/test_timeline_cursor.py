"""Differential test: the timeline cursor against the full-scan reference.

``timeline_from_intervals`` bins each rank's intervals with a cursor
that skips the prefix already behind the current window.  The reference
below is the original scan from index 0 for every window; both must
produce byte-identical timelines on arbitrary chronological records,
fixed and adaptive windows alike — including zero-width windows and
ranks that never enter a section.
"""

from __future__ import annotations

import json
from typing import List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import WindowConfig, timeline_from_intervals
from repro.analysis import timeresolved
from repro.analysis.timeresolved import INTERVALS_SCHEMA, _binned


def _overlap(intervals: List[List[float]], a: float, b: float) -> float:
    total = 0.0
    for t0, t1 in intervals:
        if t0 >= b:
            break
        lo = t0 if t0 > a else a
        hi = t1 if t1 < b else b
        if hi > lo:
            total += hi - lo
    return total


def _full_scan(intervals, edges):
    return [_overlap(intervals, a, b) for a, b in zip(edges, edges[1:])]


# Times on a coarse grid (plus an irrational-ish scale) so intervals
# touch, repeat and collapse to zero width often.
_times = st.integers(0, 40).map(lambda k: k * 0.37)


@st.composite
def _chronological(draw, max_intervals=8):
    """Sorted, non-overlapping ``[t0, t1]`` pairs (touching allowed)."""
    ts = sorted(draw(st.lists(_times, max_size=2 * max_intervals)))
    return [[ts[i], ts[i + 1]] for i in range(0, len(ts) - 1, 2)]


@st.composite
def _records(draw):
    n_ranks = draw(st.integers(1, 4))
    ranks = [str(r) for r in range(n_ranks)]
    label_names = draw(st.lists(st.sampled_from("ABCD"), min_size=1,
                                max_size=3, unique=True))
    labels = {}
    for label in label_names:
        # Some ranks never enter a label: the rank key is simply absent.
        present = draw(st.lists(st.sampled_from(ranks), unique=True))
        labels[label] = {r: draw(_chronological()) for r in sorted(present)}
    busy = {r: draw(_chronological()) for r in ranks}
    comm = {r: draw(_chronological()) for r in ranks}
    ends = [iv[1] for per in (busy, comm) for ivs in per.values()
            for iv in ivs]
    ends += [iv[1] for per in labels.values() for ivs in per.values()
             for iv in ivs]
    walltime = max(ends, default=0.0) + draw(st.sampled_from([0.0, 0.37, 5.0]))
    return {
        "schema": INTERVALS_SCHEMA,
        "n_ranks": n_ranks,
        "walltime": walltime,
        "comm_sections": [],
        # Occurrences beyond a label's interval count yield zero-width
        # adaptive windows.
        "top_sequence": draw(st.lists(st.sampled_from(label_names),
                                      max_size=12)),
        "labels": labels,
        "busy": busy,
        "comm": comm,
    }


_configs = st.one_of(
    st.builds(WindowConfig, strategy=st.just("fixed"),
              windows=st.integers(1, 40)),
    st.just(WindowConfig(strategy="adaptive")),
)


@settings(max_examples=300, deadline=None)
@given(record=_records(), cfg=_configs)
def test_cursor_timeline_matches_full_scan(record, cfg):
    cursor = json.dumps(timeline_from_intervals(record, cfg))
    with mock.patch.object(timeresolved, "_binned", _full_scan):
        reference = json.dumps(timeline_from_intervals(record, cfg))
    assert cursor == reference


@settings(max_examples=300, deadline=None)
@given(intervals=_chronological(max_intervals=12),
       edges=st.lists(_times, min_size=1, max_size=20).map(sorted))
def test_binned_matches_full_scan(intervals, edges):
    assert json.dumps(_binned(intervals, edges)) == json.dumps(
        _full_scan(intervals, edges))


def test_rank_without_intervals_bins_to_zero():
    assert _binned([], [0.0, 1.0, 1.0, 2.0]) == [0.0, 0.0, 0.0]
