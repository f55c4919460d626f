"""Host reference kernel and host-normalised timing.

The speed of a shared host drifts.  On a 2-core x86-64 VM the CPU was
seen switching between a fast and a slow state (1.5-1.8x slower, at
times over 2x, with process CPU time growing as fast as wall time) for
stretches of a fraction of a second to several seconds.  Raw wall times
therefore do not repeat between processes.  Every timing the
benchmark reports is instead *host-normalised*::

    normalised = raw * nominal / reference

where ``reference`` is the time of a small fixed reference kernel read
many times while the operation runs, and ``nominal`` the same kernel's
time on the host's fast state (``NOMINAL_PARTS``).  The kernel lives here, in
benchmark code, so no change to the program can move it.  A reading
times three parts, because each slows by a different factor in the
slow state (about 1.7x, 1.45x and 1.85x):

0. an interpreter-bound Python dict/int loop;
1. a memory-bound NumPy 5-point stencil over a 4 MB array;
2. an allocation-bound JSON parse of small records.

An operation is normalised by the geometric mean of the parts that
match its work (``PARTS_FOR``): jobs that simulate run the interpreter
and NumPy; warm jobs parse stored JSON payloads.  Measured on this
benchmark's runs, each choice roughly halved the run-to-run spread of
its class against a mix of all three parts.  Set-up (process spawn,
imports) runs in a child process, which reads the Python and JSON
parts itself, every ``PROBE_INTERVAL_S`` seconds while it sets up
(:class:`ProbeReadings`).  Readings taken by the parent between probes
did not track set-up, and readings taken only when the child started
and when it was ready tracked it weakly (correlation 0.4-0.8 with the
raw time over 30 probes, against 0.94 with readings throughout).

A reading takes a few milliseconds.  An interval timer (``SIGALRM``)
armed for each operation takes one every ``SAMPLE_INTERVAL_S``
seconds inside it, and readings are also taken between operations;
the time spent in readings is subtracted from the operation's raw
time.  The operation's reference is the harmonic mean of the readings
taken during it, widened to the nearest readings before and after it
until there are at least ``MIN_READINGS``: with readings evenly spaced
in time, that is the host's average speed over the operation, however
its fast and slow stretches fall, and a short operation still averages
enough readings to outvote one disturbed reading.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

#: Fixed nominal time of each reference part (seconds): medians on the
#: fast state of a 2-core x86-64 VM.  Only their constancy matters;
#: they turn the dimensionless raw/reference ratio back into seconds.
NOMINAL_PARTS = (0.00178, 0.00234, 0.00116)

#: Gap between two reference readings.
SAMPLE_INTERVAL_S = 0.15

#: Fewest readings averaged into an operation's reference.
MIN_READINGS = 8

_ARRAYS: List[Any] = []  # the stencil's grid and output, made on first use
_DOC = json.dumps([
    {"rank": i, "label": f"S{i % 7}", "t": [i * 0.25, i * 0.5 + 1.0],
     "busy": i / 3.0, "ok": i % 2 == 0}
    for i in range(1000)
])


def _python_part(n: int = 10_000) -> int:
    """Interpreter-bound: dict lookups, int arithmetic, branches."""
    d: dict = {}
    acc = 0
    for i in range(n):
        k = i & 1023
        d[k] = d.get(k, 0) + i
        acc ^= k * 31 + (i >> 3)
    return acc + len(d)


def _numpy_part() -> float:
    """Memory-bound: one 5-point stencil sweep."""
    if not _ARRAYS:
        import numpy as np

        grid = np.random.default_rng(12345).random((512, 1024))  # 4 MB
        _ARRAYS.extend((grid, np.empty_like(grid)))
    g, out = _ARRAYS
    out[1:-1, 1:-1] = 0.2 * (g[1:-1, 1:-1] + g[:-2, 1:-1] + g[2:, 1:-1]
                             + g[1:-1, :-2] + g[1:-1, 2:])
    return float(out[1, 1])


def _json_part() -> int:
    """Allocation-bound: parse many small records."""
    return len(json.loads(_DOC))


_PARTS = (_python_part, _numpy_part, _json_part)


def reference_reading() -> Tuple[float, ...]:
    """One reading of the reference kernel: one trial of each part, in
    seconds, with the garbage collector paused (a collection of the
    workload's heap must not land in a reading)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for part in _PARTS:
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return tuple(times)


#: Gap between two readings inside a set-up probe; set-up lasts about
#: a second, so this gives a few dozen readings.
PROBE_INTERVAL_S = 0.05


class ProbeReadings:
    """Reference readings a set-up probe takes on itself.

    NumPy-free (NumPy is imported as part of set-up): each reading is
    one trial of the Python and the JSON part (parts 0 and 2).  Three
    readings at :meth:`start` and at :meth:`stop`, and one every
    ``PROBE_INTERVAL_S`` in between from an interval timer.  ``paused_s``
    is the time spent in readings, to be subtracted from the probe's
    time."""

    def __init__(self) -> None:
        self.readings: List[Tuple[float, float]] = []
        self.paused_s = 0.0
        self._busy = False

    def read(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _python_part()
            t1 = time.perf_counter()
            _json_part()
            t2 = time.perf_counter()
        finally:
            self._busy = False
        self.readings.append((t1 - t0, t2 - t1))
        self.paused_s += t2 - t0

    def start(self) -> None:
        for _ in range(3):
            self.read()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.read())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> Tuple[float, float, float]:
        """Disarm the timer; returns (paused_s, Python part, JSON part),
        each part the harmonic mean over the readings."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self.read()
        n = len(self.readings)
        py, js = (n / sum(1.0 / r[i] for r in self.readings) for i in (0, 1))
        return self.paused_s, py, js


def combine(parts: Tuple[float, ...], which: Tuple[int, ...]) -> float:
    """Geometric mean of the chosen parts of a reading."""
    product = 1.0
    for i in which:
        product *= parts[i]
    return product ** (1 / len(which))


#: Parts of the reference each operation class is normalised by (the
#: class is the first field of the operation's kind).  Set-up probes
#: are normalised by their own readings instead (:class:`ProbeReadings`).
PARTS_FOR = {"cold": (0, 1), "warm": (0, 2), "extra": (0, 2)}


@dataclass
class Sample:
    """One timed operation: raw seconds, its reference, normalised.

    ``parts`` holds the harmonic mean of each reference part over the
    readings near the operation, for auditing."""

    kind: str
    raw_s: float
    ref_s: float
    nominal_s: float
    parts: Tuple[float, ...] = ()
    start: float = 0.0
    end: float = 0.0

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.nominal_s / self.ref_s


def setup_sample(raw_s: float, paused_s: float, python_s: float,
                 json_s: float) -> Sample:
    """A set-up probe's sample: ``raw_s`` less the probe's time in
    readings, normalised by the parts it read (:class:`ProbeReadings`)."""
    parts = (python_s, json_s)
    return Sample("setup//probe", raw_s - paused_s, combine(parts, (0, 1)),
                  combine(NOMINAL_PARTS, (0, 2)), parts)


@dataclass
class HostClock:
    """Times operations and normalises them by nearby reference readings."""

    #: (time, reading parts) in time order.
    readings: List[Tuple[float, Tuple[float, ...]]] = field(
        default_factory=list)
    #: (start, end) of readings taken inside operations by the timer.
    pauses: List[Tuple[float, float]] = field(default_factory=list)
    _pending: List[Tuple[str, float, float]] = field(default_factory=list)
    _busy: bool = False

    def sample(self) -> Tuple[float, ...]:
        """Take a reference reading now; returns its parts."""
        self._busy = True
        try:
            t0 = time.perf_counter()
            value = reference_reading()
            t1 = time.perf_counter()
        finally:
            self._busy = False
        self.readings.append((0.5 * (t0 + t1), value))
        return value

    def maybe_sample(self) -> None:
        """Take a reading unless one is younger than the interval."""
        if (not self.readings
                or time.perf_counter() - self.readings[-1][0]
                >= SAMPLE_INTERVAL_S):
            self.sample()

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = time.perf_counter()
        self.sample()
        self.pauses.append((t0, time.perf_counter()))

    def time(self, kind: str, fn: Callable[[], Any],
             readings_inside: bool = True) -> Any:
        """Run ``fn`` as one timed operation of ``kind``; returns its value.

        Garbage from earlier operations is collected first, untimed, so
        each operation starts from the same collector state.
        ``readings_inside=False`` keeps the timer off, for operations
        that run on another thread while this one waits.
        """
        gc.collect()
        self.maybe_sample()
        if readings_inside:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            if readings_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._pending.append((kind, t0, t1))
            self.maybe_sample()

    def drain(self) -> List[Sample]:
        """Normalise every operation recorded since the last drain.

        Call after a closing :meth:`sample`, so each operation has a
        reading after it.
        """
        out = []
        times = [t for t, _ in self.readings]
        for kind, t0, t1 in self._pending:
            lo = max(bisect.bisect_right(times, t0) - 1, 0)
            hi = min(bisect.bisect_left(times, t1), len(times) - 1)
            while hi - lo + 1 < MIN_READINGS and (lo > 0
                                                   or hi < len(times) - 1):
                lo = max(lo - 1, 0)
                hi = min(hi + 1, len(times) - 1)
            near = [v for _, v in self.readings[lo:hi + 1]]
            parts = tuple(len(near) / sum(1.0 / v[i] for v in near)
                          for i in range(len(_PARTS)))
            which = PARTS_FOR.get(kind.split("/", 1)[0])
            ref, nominal = ((combine(parts, which),
                             combine(NOMINAL_PARTS, which))
                            if which else (1.0, 1.0))
            paused = sum(min(b, t1) - max(a, t0) for a, b in self.pauses
                         if a < t1 and b > t0)
            out.append(Sample(kind, t1 - t0 - paused, ref, nominal, parts,
                              t0, t1))
        self._pending = []
        return out

    def time_scale(self, cls: str) -> float:
        """nominal / median reading, combined as for class ``cls``: the
        factor that host-normalises seconds measured across the run."""
        which = PARTS_FOR[cls]
        return combine(NOMINAL_PARTS, which) / statistics.median(
            combine(v, which) for _, v in self.readings)
