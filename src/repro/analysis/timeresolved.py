"""Windowed POP-style efficiencies and the inflexion localizer.

Speedup-versus-p curves (the paper's Figure 5 family) answer *whether* a
section scales; they cannot say *when* inside a run the scaling is lost.
Haldar (arXiv:2512.01764) argues the POP efficiency family — parallel
efficiency and its load-balance / communication split — should be
evaluated over trace windows, and Afzal et al. (arXiv:2302.12164) show
the interesting MPI dynamics (idle waves, desynchronized steady states)
only exist on the time axis.  This module computes exactly that, from
the simulator's deterministic section-event spine:

1. :func:`intervals_from_run` compresses a
   :class:`~repro.simmpi.engine.RunResult`'s event stream into a compact
   JSON **interval record**: per-rank busy segments (inside any user
   section), communication segments (innermost open section classified
   by the workload's ``COMM_SECTIONS``), and per-label inclusive
   intervals.  Records are small enough to ride in run-cache payloads,
   so warm sweeps can produce timelines with zero simulations.
2. :func:`timeline_from_intervals` bins a record into windows — either
   ``fixed`` (N equal slices of ``[0, walltime]``) or ``adaptive``
   (edges at the cross-rank completion of each top-level section
   instance, so windows align with the program's phase structure at
   every scale) — and evaluates, per window:

   * ``parallel_efficiency``   PE  = mean_r(useful_r) / |w|
   * ``load_balance``          LB  = mean_r(useful_r) / max_r(useful_r)
   * ``communication_efficiency`` CommE = max_r(useful_r) / |w|
   * ``transfer_efficiency``   TE  = 1 - mean_r(comm_r) / |w|
   * ``serialization_efficiency`` SerE = 1 - mean_r(idle_r) / |w|

   with the POP identities ``PE = LB * CommE`` and ``PE = TE + SerE - 1``
   holding exactly (useful = busy - comm, idle = |w| - busy), plus
   per-section mean/max/imbalance/share rows.
3. :func:`scenario_timeline` assembles per-scale timelines into one
   payload block and runs the **inflexion localizer**: for every window
   index k it applies :func:`repro.core.inflexion.find_inflexion` to the
   across-scale series of that window's section time, reporting the
   first window of the run in which each section crosses its inflexion
   point.  Windows are comparable across scales by construction: fixed
   windows are the same fraction of the run, adaptive windows the same
   phase instance.

Everything is computed from virtual timestamps only (never the obs
tracer's wall-clock spans), so timelines are bit-identical across the
``threadfree``/``threads`` engines and with tracing on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.inflexion import find_inflexion
from repro.errors import AnalysisError, InsufficientDataError, ModelDomainError
from repro.simmpi.sections_rt import MAIN_LABEL, SectionEvent

#: Bump when the interval-record layout changes (records live inside
#: run-cache payloads; the cache schema version must bump with this).
INTERVALS_SCHEMA = 1

#: Bump when the timeline payload layout changes.
TIMELINE_SCHEMA = 1

#: Default number of fixed windows.
DEFAULT_WINDOWS = 16

#: Default noise tolerance of the inflexion localizer (looser than the
#: run-level detector's 0.02: per-window times are smaller and noisier).
DEFAULT_REL_TOL = 0.05

_STRATEGIES = ("fixed", "adaptive")


@dataclass(frozen=True)
class WindowConfig:
    """How a run is sliced into windows.

    ``fixed`` tiles ``[0, walltime]`` into ``windows`` equal slices —
    window k is the same *fraction of the run* at every scale.
    ``adaptive`` places an edge at the cross-rank completion time of
    each top-level section instance (plus a final window up to
    ``walltime``) — window k is the same *phase instance* at every
    scale, and ``windows`` is ignored.
    """

    strategy: str = "fixed"
    windows: int = DEFAULT_WINDOWS

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise AnalysisError(
                f"unknown window strategy {self.strategy!r} "
                f"(known: {list(_STRATEGIES)})"
            )
        if isinstance(self.windows, bool) or not isinstance(self.windows, int):
            raise AnalysisError(
                f"windows must be an integer, got {self.windows!r}"
            )
        if self.windows < 1:
            raise AnalysisError(f"windows must be >= 1, got {self.windows}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (both fields always present)."""
        return {"strategy": self.strategy, "windows": self.windows}

    @classmethod
    def from_dict(cls, data: Any) -> "WindowConfig":
        """Parse a (possibly partial) config object; ``None`` → defaults."""
        if data is None:
            return cls()
        if isinstance(data, WindowConfig):
            return data
        if not isinstance(data, dict):
            raise AnalysisError(
                f"timeline config must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"strategy", "windows"}
        if unknown:
            raise AnalysisError(
                f"unknown timeline config fields {sorted(unknown)} "
                "(known: ['strategy', 'windows'])"
            )
        return cls(
            strategy=data.get("strategy", "fixed"),
            windows=data.get("windows", DEFAULT_WINDOWS),
        )


# -- interval records ---------------------------------------------------------


def intervals_from_events(
    events: Iterable[SectionEvent],
    n_ranks: int,
    walltime: float,
    comm_sections: Sequence[str] = (),
) -> Dict[str, Any]:
    """Compress a section-event stream into a JSON interval record.

    The record is the persistence format between a simulation and every
    timeline view of it:

    * ``busy``  — per rank, merged intervals spent inside any user
      section (depth-1 spans cover their children);
    * ``comm``  — per rank, intervals whose *innermost* open section is
      one of ``comm_sections`` (so Lulesh's nested ``CommSBN`` counts as
      communication while its enclosing ``LagrangeNodal`` does not);
    * ``labels`` — per label, per rank, inclusive enter→exit intervals;
    * ``top_sequence`` — the depth-1 label traversal order (identical on
      every rank by the runtime's collective-sequence invariant), which
      defines the adaptive window edges.
    """
    comm_set = frozenset(comm_sections) - {MAIN_LABEL}
    labels: Dict[str, Dict[int, List[List[float]]]] = {}
    busy: Dict[int, List[List[float]]] = {r: [] for r in range(n_ranks)}
    comm: Dict[int, List[List[float]]] = {r: [] for r in range(n_ranks)}
    comm_open: Dict[int, Optional[float]] = {r: None for r in range(n_ranks)}
    enters: Dict[Tuple[int, tuple, Tuple[str, ...]], List[float]] = {}
    top_sequence: List[str] = []
    top_rank: Optional[int] = None

    for ev in events:
        if ev.kind == "enter":
            enters.setdefault((ev.rank, ev.comm_id, ev.path), []).append(ev.time)
            top = ev.label
            if len(ev.path) == 2:
                if top_rank is None:
                    top_rank = ev.rank
                if ev.rank == top_rank:
                    top_sequence.append(ev.label)
        else:
            stack = enters.get((ev.rank, ev.comm_id, ev.path))
            if not stack:
                raise AnalysisError(
                    f"unbalanced section stream: rank {ev.rank} exits "
                    f"{ev.path} without a matching enter"
                )
            t0 = stack.pop()
            if ev.label != MAIN_LABEL:
                per_rank = labels.setdefault(ev.label, {})
                per_rank.setdefault(ev.rank, []).append([t0, ev.time])
            if len(ev.path) == 2:
                ivs = busy.setdefault(ev.rank, [])
                if ivs and ivs[-1][1] == t0:
                    ivs[-1][1] = ev.time
                else:
                    ivs.append([t0, ev.time])
            top = ev.path[-2] if len(ev.path) > 1 else None
        # Transition of the innermost-section communication state.
        now_comm = top in comm_set
        opened = comm_open.get(ev.rank)
        if now_comm and opened is None:
            comm_open[ev.rank] = ev.time
        elif not now_comm and opened is not None:
            if ev.time > opened:
                ivs = comm.setdefault(ev.rank, [])
                if ivs and ivs[-1][1] == opened:
                    ivs[-1][1] = ev.time
                else:
                    ivs.append([opened, ev.time])
            comm_open[ev.rank] = None

    for rank, opened in comm_open.items():
        if opened is not None:
            raise AnalysisError(
                f"rank {rank} ended inside a communication section"
            )
    # Exit events arrive innermost-first, so a rank's per-label interval
    # list is chronological already (labels repeat at a single depth).
    return {
        "schema": INTERVALS_SCHEMA,
        "n_ranks": n_ranks,
        "walltime": float(walltime),
        "comm_sections": sorted(comm_set),
        "top_sequence": top_sequence,
        "labels": {
            label: {
                str(rank): per_rank[rank] for rank in sorted(per_rank)
            }
            for label, per_rank in sorted(labels.items())
        },
        "busy": {str(r): busy.get(r, []) for r in range(n_ranks)},
        "comm": {str(r): comm.get(r, []) for r in range(n_ranks)},
    }


def intervals_from_run(result, comm_sections: Sequence[str] = ()) -> Dict[str, Any]:
    """Interval record of one :class:`~repro.simmpi.engine.RunResult`."""
    return intervals_from_events(
        result.section_events, result.n_ranks, result.walltime, comm_sections
    )


# -- windowing ----------------------------------------------------------------


def _fixed_edges(walltime: float, n: int) -> List[float]:
    edges = [walltime * k / n for k in range(n)]
    edges.append(walltime)
    return edges


def _adaptive_edges(record: Dict[str, Any]) -> List[float]:
    """Edges at the cross-rank completion of each top-level instance.

    Always emits ``len(top_sequence) + 1`` windows (the last runs to
    ``walltime``), so the window *count* depends only on the workload's
    phase structure — never on the scale — and zero-width windows (a
    phase that takes no time at some scale, e.g. a halo exchange at
    p=1) stay in place instead of collapsing, keeping window index k
    aligned across scales.
    """
    walltime = record["walltime"]
    labels = record["labels"]
    occ_seen: Dict[str, int] = {}
    edges = [0.0]
    for label in record["top_sequence"]:
        occ = occ_seen.get(label, 0)
        occ_seen[label] = occ + 1
        done = 0.0
        for ivs in labels.get(label, {}).values():
            if occ < len(ivs):
                done = max(done, ivs[occ][1])
        done = min(max(done, edges[-1]), walltime)
        edges.append(done)
    edges.append(walltime)
    return edges


def _binned(intervals: List[List[float]], edges: List[float]) -> List[float]:
    """Overlap of chronological ``intervals`` with each window of ``edges``.

    Window k is ``[edges[k], edges[k+1]]``; edges never decrease.  A
    cursor skips the leading intervals that end at or before the current
    window start — they add nothing to it or to any later window — so
    the scan is linear in intervals plus windows, and each window sums
    the same terms in the same order as a scan from index 0 would.
    """
    out: List[float] = []
    n = len(intervals)
    start = 0
    for a, b in zip(edges, edges[1:]):
        while start < n and intervals[start][1] <= a:
            start += 1
        total = 0.0
        for i in range(start, n):
            t0, t1 = intervals[i]
            if t0 >= b:
                break
            lo = t0 if t0 > a else a
            hi = t1 if t1 < b else b
            if hi > lo:
                total += hi - lo
        out.append(total)
    return out


def timeline_from_intervals(
    record: Dict[str, Any],
    config: Optional[WindowConfig] = None,
) -> Dict[str, Any]:
    """Windowed efficiency timeline of one interval record.

    Returns a JSON-ready dict: ``edges`` (window boundaries), ``rows``
    (one efficiency row per window) and ``sections`` (per-label
    mean/max/imbalance/share per window).  Zero-width windows get
    ``None`` efficiencies and zero times.
    """
    cfg = WindowConfig.from_dict(config)
    if not isinstance(record, dict) or record.get("schema") != INTERVALS_SCHEMA:
        raise AnalysisError(
            f"not an interval record (expected schema {INTERVALS_SCHEMA}): "
            f"{type(record).__name__}"
        )
    n_ranks = record["n_ranks"]
    walltime = record["walltime"]
    base = {
        "schema": TIMELINE_SCHEMA,
        "strategy": cfg.strategy,
        "n_ranks": n_ranks,
        "walltime": walltime,
    }
    if walltime <= 0:
        return dict(base, edges=[], rows=[], sections={})
    if cfg.strategy == "fixed":
        edges = _fixed_edges(walltime, cfg.windows)
    else:
        edges = _adaptive_edges(record)

    ranks = [str(r) for r in range(n_ranks)]
    busy = [_binned(record["busy"][r], edges) for r in ranks]
    comm = [_binned(record["comm"][r], edges) for r in ranks]
    rows: List[Dict[str, Any]] = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        w = b - a
        row: Dict[str, Any] = {"t0": a, "t1": b}
        if w <= 0:
            row.update(useful=0.0, comm=0.0, idle=0.0,
                       parallel_efficiency=None, load_balance=None,
                       communication_efficiency=None,
                       transfer_efficiency=None,
                       serialization_efficiency=None)
            rows.append(row)
            continue
        comm_t = [comm_r[k] for comm_r in comm]
        useful = [busy_r[k] - comm_t[i] for i, busy_r in enumerate(busy)]
        mean_useful = sum(useful) / n_ranks
        max_useful = max(useful)
        mean_comm = sum(comm_t) / n_ranks
        mean_idle = w - mean_useful - mean_comm
        row.update(
            useful=mean_useful,
            comm=mean_comm,
            idle=mean_idle,
            parallel_efficiency=mean_useful / w,
            load_balance=(mean_useful / max_useful) if max_useful > 0 else None,
            communication_efficiency=max_useful / w,
            transfer_efficiency=1.0 - mean_comm / w,
            serialization_efficiency=1.0 - mean_idle / w,
        )
        rows.append(row)

    sections: Dict[str, List[Dict[str, Any]]] = {}
    for label, per_rank in record["labels"].items():
        binned = [_binned(per_rank.get(r, []), edges) for r in ranks]
        out_rows = []
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            w = b - a
            times = [times_r[k] for times_r in binned]
            mean_t = sum(times) / n_ranks
            max_t = max(times)
            out_rows.append({
                "mean": mean_t,
                "max": max_t,
                "imbalance": (max_t / mean_t - 1.0) if mean_t > 0 else None,
                "share": (mean_t / w) if w > 0 else None,
            })
        sections[label] = out_rows
    return dict(base, edges=edges, rows=rows, sections=sections)


# -- rep aggregation ----------------------------------------------------------


def _mean_opt(values: List[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)


def merge_timelines(timelines: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Field-wise rep-mean of timelines with identical window structure.

    Repetitions of a scenario point differ only by seed, so their window
    counts match (fixed: same N; adaptive: same phase sequence); their
    edges and every numeric field are averaged, ``None`` entries (e.g. a
    zero-width window's efficiencies) are skipped — all-``None`` stays
    ``None``.
    """
    if not timelines:
        raise InsufficientDataError("no timelines to merge")
    first = timelines[0]
    for t in timelines[1:]:
        if (len(t["rows"]) != len(first["rows"])
                or t["strategy"] != first["strategy"]
                or t["n_ranks"] != first["n_ranks"]
                or set(t["sections"]) != set(first["sections"])):
            raise AnalysisError(
                "cannot merge timelines with different window structures"
            )
    if len(timelines) == 1:
        return first
    n = len(timelines)
    merged = {
        "schema": TIMELINE_SCHEMA,
        "strategy": first["strategy"],
        "n_ranks": first["n_ranks"],
        "walltime": sum(t["walltime"] for t in timelines) / n,
        "edges": [sum(t["edges"][i] for t in timelines) / n
                  for i in range(len(first["edges"]))],
        "rows": [],
        "sections": {},
    }
    numeric = ("t0", "t1", "useful", "comm", "idle",
               "parallel_efficiency", "load_balance",
               "communication_efficiency", "transfer_efficiency",
               "serialization_efficiency")
    for k in range(len(first["rows"])):
        merged["rows"].append({
            key: _mean_opt([t["rows"][k][key] for t in timelines])
            for key in numeric
        })
    for label in sorted(first["sections"]):
        merged["sections"][label] = [
            {
                key: _mean_opt([t["sections"][label][k][key]
                                for t in timelines])
                for key in ("mean", "max", "imbalance", "share")
            }
            for k in range(len(first["sections"][label]))
        ]
    return merged


# -- scenario assembly + inflexion localizer ----------------------------------


def _inflexion_entry(ps: List[int], times: List[float],
                     rel_tol: float) -> Dict[str, Any]:
    """One localizer verdict for a (section, window) across-scale series."""
    if any(t <= 0 for t in times):
        return {"status": "skipped"}
    try:
        pt = find_inflexion(ps, times, rel_tol)
    except (InsufficientDataError, ModelDomainError):
        return {"status": "skipped"}
    if pt is None:
        return {"status": "scaling"}
    return {"status": "inflexion", "p": pt.p, "time": pt.time,
            "exhausted": pt.exhausted}


def scenario_timeline(
    intervals_by_scale: Dict[int, Sequence[Dict[str, Any]]],
    config: Optional[WindowConfig] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, Any]:
    """Assemble per-scale timelines and localize inflexion points.

    ``intervals_by_scale`` maps process count → interval records (one
    per surviving repetition).  Scales with no records (fail-soft skips)
    are dropped.  The localizer runs when at least two scales share an
    identical window structure; otherwise ``inflexion`` carries a
    ``note`` explaining why (adaptive windows can only differ across
    scales if the phase sequence itself changed).
    """
    cfg = WindowConfig.from_dict(config)
    scales: Dict[str, Dict[str, Any]] = {}
    by_p: Dict[int, Dict[str, Any]] = {}
    for p in sorted(intervals_by_scale):
        records = list(intervals_by_scale[p])
        if not records:
            continue
        merged = merge_timelines(
            [timeline_from_intervals(rec, cfg) for rec in records]
        )
        by_p[p] = merged
        scales[str(p)] = merged
    out: Dict[str, Any] = {
        "schema": TIMELINE_SCHEMA,
        "config": cfg.to_dict(),
        "rel_tol": rel_tol,
        "scales": scales,
        "inflexion": {"sections": {}, "note": None},
    }
    ps = sorted(by_p)
    if len(ps) < 2:
        out["inflexion"]["note"] = (
            "inflexion localization needs at least two scales"
        )
        return out
    counts = {len(by_p[p]["rows"]) for p in ps}
    if len(counts) != 1:
        out["inflexion"]["note"] = (
            "window structure differs across scales; "
            "use the fixed strategy for cross-scale localization"
        )
        return out
    n_windows = counts.pop()
    common = set(by_p[ps[0]]["sections"])
    for p in ps[1:]:
        common &= set(by_p[p]["sections"])
    top = by_p[ps[-1]]
    for label in sorted(common):
        run_times = [
            sum(row["mean"] for row in by_p[p]["sections"][label])
            for p in ps
        ]
        windows = [
            _inflexion_entry(
                ps,
                [by_p[p]["sections"][label][k]["mean"] for p in ps],
                rel_tol,
            )
            for k in range(n_windows)
        ]
        first = next(
            (k for k, w in enumerate(windows) if w["status"] == "inflexion"),
            None,
        )
        first_fraction = None
        if first is not None and top["walltime"] > 0:
            mid = (top["edges"][first] + top["edges"][first + 1]) / 2.0
            first_fraction = mid / top["walltime"]
        out["inflexion"]["sections"][label] = {
            "run": _inflexion_entry(ps, run_times, rel_tol),
            "windows": windows,
            "first_window": first,
            "first_fraction": first_fraction,
        }
    return out


def scenario_timeline_from_payload(
    payload: Dict[str, Any],
    config: Optional[WindowConfig] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, Any]:
    """Recompute a scenario payload's timeline under a different window
    configuration — from the persisted interval records, with zero
    simulations.  This is the single recompute path shared by
    ``repro report --timeline --windows N`` and the service's
    ``efficiency_timeline?windows=N`` artifact query, so both render the
    same bytes.
    """
    intervals = payload.get("intervals")
    if not isinstance(intervals, dict) or not intervals:
        raise InsufficientDataError(
            "scenario payload carries no interval records "
            "(produced by an older schema?)"
        )
    return scenario_timeline(
        {int(p): recs for p, recs in intervals.items()},
        config,
        rel_tol,
    )
