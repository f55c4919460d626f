"""Per-rank execution context.

A :class:`RankContext` is the handle workload code receives: it carries the
rank's private virtual clock, its seeded RNG, the world communicator and
the compute-time charging interface.  It is the simulated analogue of "the
MPI process".  Blocking communication parks the rank through
:func:`repro.simmpi.sched.drive_blocking`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EngineStateError
from repro.machine.roofline import RooflineModel, WorkEstimate


class RankContext:
    """Execution state of one simulated MPI rank."""

    def __init__(self, engine, thread):
        self.engine = engine
        self._thread = thread
        self.rank: int = thread.rank
        self.size: int = engine.n_ranks
        self._clock: float = 0.0
        #: Per-rank deterministic RNG for workload-level randomness.
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=engine.seed, spawn_key=(10_000 + self.rank,))
        )
        self._jitter_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=engine.seed, spawn_key=(20_000 + self.rank,))
        )
        self.roofline = RooflineModel(engine.machine.node)
        # Imported lazily to avoid a cycle at module load.
        from repro.simmpi.comm import Communicator

        #: COMM_WORLD for this rank.
        self.comm = Communicator._world(self)

    # -- virtual time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time of this rank, in seconds."""
        return self._clock

    def _advance(self, dt: float) -> None:
        if dt < 0:
            raise EngineStateError(f"cannot advance clock by {dt} s")
        self._clock += dt

    def _advance_to(self, t: float) -> None:
        if t > self._clock:
            self._clock = t

    def compute(
        self,
        seconds: Optional[float] = None,
        *,
        work: Optional[WorkEstimate] = None,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        nthreads: int = 1,
        jitter: Optional[float] = None,
    ) -> float:
        """Charge modeled compute time to this rank's clock.

        Either pass ``seconds`` directly, a :class:`WorkEstimate`, or raw
        ``flops``/``bytes_moved`` which are turned into time through the
        node's roofline model at ``nthreads`` threads.  A multiplicative
        log-normal jitter (engine-level default, overridable per call)
        models OS noise.  Injected faults (stragglers, noise bursts,
        hangs/crashes) are applied here as well.  Returns the charged
        time.
        """
        self.engine.fault_poll(self)
        if seconds is None:
            if work is None:
                work = WorkEstimate(flops=flops, bytes_moved=bytes_moved)
            seconds = self.roofline.time(work, nthreads=nthreads)
        sigma = self.engine.compute_jitter if jitter is None else jitter
        if sigma > 0.0 and seconds > 0.0:
            seconds *= float(np.exp(self._jitter_rng.normal(0.0, sigma)))
        if self.engine.noise_floor > 0.0 and seconds > 0.0:
            seconds += float(
                self._jitter_rng.exponential(self.engine.noise_floor)
            )
        faults = self.engine._faults
        if faults is not None:
            seconds *= faults.compute_factor(self.rank, self._clock)
            seconds += faults.noise_delay(self.rank, self._clock)
        self._advance(seconds)
        return seconds

    # -- misc -----------------------------------------------------------------------

    @property
    def machine(self):
        """The machine model this simulation runs on."""
        return self.engine.machine

    def node_id(self) -> int:
        """Node hosting this rank under the configured placement."""
        return self.engine.machine.node_of_rank(self.rank, self.engine.ranks_per_node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank}/{self.size}, t={self._clock:.6g})"
