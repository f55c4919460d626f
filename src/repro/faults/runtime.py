"""Engine-side fault interpreter.

A :class:`FaultRuntime` is built once per :class:`~repro.simmpi.engine.
Engine` from a :class:`~repro.faults.plan.FaultPlan` and answers the hot
-path questions the simulator asks:

* ``compute_factor(rank, t)`` — product of active straggler factors;
* ``noise_delay(rank, t)`` — extra additive delay from active OS-noise
  bursts, drawn from per-fault seeded streams;
* ``link_factors(src, dst)`` — (latency, bandwidth) multipliers for a
  message on the src→dst channel, resolving node-pair degradations
  through the machine's rank placement;
* ``poll(ctx)`` — deliver any due hang/crash for the calling rank.

**Stream independence.**  Each random fault owns one
``numpy`` generator seeded from ``(plan.seed, fault index)`` under a
dedicated spawn-key namespace, disjoint from the engine's channel-jitter
streams (``(src+1, dst+1)``), workload streams (``10_000 + rank``) and
compute-jitter streams (``20_000 + rank``).  Faulty runs therefore stay
bit-reproducible, and an identical plan injects identical faults no
matter what the engine seed is.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import InjectedFaultError
from repro.faults.plan import (
    DegradedLink,
    FaultPlan,
    NoiseBurst,
    RankCrash,
    RankHang,
    StragglerRank,
)

#: Spawn-key namespace for fault RNG streams (disjoint from the engine's
#: 10_000/20_000 rank streams and (src+1, dst+1) channel streams).
_FAULT_STREAM_BASE = 7_000_000


class FaultRuntime:
    """Per-run interpreter of one :class:`FaultPlan`.

    Faults naming ranks (or, for ``nodes=True`` links, node ids) outside
    this run's world are inert, so one plan can span a whole sweep.
    """

    def __init__(self, plan: FaultPlan, n_ranks: int, machine=None,
                 ranks_per_node: Optional[int] = None):
        self.plan = plan
        self.n_ranks = n_ranks
        self.machine = machine
        self.ranks_per_node = ranks_per_node
        # Pre-bucket per-rank faults so the hot path is a short list scan.
        self._stragglers: Dict[int, list] = {}
        self._bursts: Dict[int, list] = {}
        self._deadline: Dict[int, Tuple[float, str]] = {}
        self._rank_links: Dict[Tuple[int, int], list] = {}
        self._node_links: Dict[Tuple[int, int], list] = {}
        for idx, f in enumerate(plan.faults):
            if isinstance(f, StragglerRank):
                if f.rank < n_ranks:
                    self._stragglers.setdefault(f.rank, []).append(f)
            elif isinstance(f, NoiseBurst):
                if f.rank < n_ranks:
                    rng = np.random.default_rng(np.random.SeedSequence(
                        entropy=plan.seed,
                        spawn_key=(_FAULT_STREAM_BASE + idx,),
                    ))
                    self._bursts.setdefault(f.rank, []).append((f, rng))
            elif isinstance(f, DegradedLink):
                key = (f.src, f.dst)
                if f.nodes:
                    self._node_links.setdefault(key, []).append(f)
                elif f.src < n_ranks and f.dst < n_ranks:
                    self._rank_links.setdefault(key, []).append(f)
            elif isinstance(f, (RankHang, RankCrash)):
                if f.rank < n_ranks:
                    kind = f.kind
                    prev = self._deadline.get(f.rank)
                    # Earliest event wins; hang beats crash on a tie (a
                    # hung rank can no longer crash).
                    cand = (f.at_time, kind)
                    if prev is None or cand < prev or (
                        cand[0] == prev[0] and kind == "hang"
                    ):
                        self._deadline[f.rank] = cand
        self._has_link_faults = bool(self._rank_links or self._node_links)

    # -- compute-side faults ---------------------------------------------------

    def compute_factor(self, rank: int, t: float) -> float:
        """Multiplicative slowdown of a compute charge starting at ``t``."""
        factor = 1.0
        for f in self._stragglers.get(rank, ()):
            if f.active(t):
                factor *= f.factor
        return factor

    def noise_delay(self, rank: int, t: float) -> float:
        """Additive OS-noise delay for a compute call starting at ``t``.

        Draws are consumed only while a burst's window is active, so the
        spike sequence depends on the plan alone (not on how much the
        rank computed outside the window).
        """
        delay = 0.0
        for f, rng in self._bursts.get(rank, ()):
            if f.active(t):
                if f.prob >= 1.0 or rng.random() < f.prob:
                    delay += float(rng.exponential(f.mean_delay))
        return delay

    # -- network-side faults ---------------------------------------------------

    def link_factors(self, src: int, dst: int) -> Tuple[float, float]:
        """(latency multiplier, bandwidth multiplier) for one message."""
        lat, bw = 1.0, 1.0
        for f in self._rank_links.get((src, dst), ()):
            lat *= f.latency_factor
            bw *= f.bandwidth_factor
        if self._node_links and self.machine is not None:
            nsrc = self.machine.node_of_rank(src, self.ranks_per_node)
            ndst = self.machine.node_of_rank(dst, self.ranks_per_node)
            for f in self._node_links.get((nsrc, ndst), ()):
                lat *= f.latency_factor
                bw *= f.bandwidth_factor
        return lat, bw

    @property
    def has_link_faults(self) -> bool:
        """Fast-path guard for the network model."""
        return self._has_link_faults

    # -- lifecycle faults ------------------------------------------------------

    @property
    def has_lifecycle_faults(self) -> bool:
        """Whether a hang or crash applies to a rank of this run (the
        only faults with a delivery point, see :meth:`due`)."""
        return bool(self._deadline)

    def due(self, rank: int, t: float) -> Optional[str]:
        """``"hang"``/``"crash"`` if such a fault is due at ``t``, else None."""
        dl = self._deadline.get(rank)
        if dl is not None and t >= dl[0]:
            return dl[1]
        return None

    def poll(self, ctx) -> None:
        """Deliver a due hang/crash for the calling rank (or return).

        Called from fault points: compute charges and communication
        posts.  Both fire purely in *event time*, so the delivery point
        and timestamp are identical under either engine: a crash raises
        :class:`InjectedFaultError` through the rank's body (thread or
        generator alike); a hang asks the engine to park the rank
        forever — the threaded engine blocks the rank's thread, the
        thread-free engine marks the program ``HUNG`` and unwinds its
        generator.
        """
        kind = self.due(ctx.rank, ctx.now)
        if kind is None:
            return
        # Imported here to keep plan parsing importable standalone.
        from repro import obs

        obs.event("fault.activated", layer="engine", kind=kind,
                  rank=ctx.rank, at=ctx.now)
        if kind == "crash":
            raise InjectedFaultError(
                f"rank {ctx.rank} crashed by fault plan at t={ctx.now:.6g}s"
            )
        ctx.engine.hang_current(ctx._thread)
