"""Network timing model for the simulated transport.

The model is LogGP-flavoured:

* per-message software overhead ``o_send``/``o_recv`` charged to the CPU
  of each endpoint;
* wire time ``L + n/B`` from the :class:`~repro.machine.spec.NetworkTier`
  connecting the two ranks (intra-node vs inter-node);
* a multiplicative log-normal jitter term per message, drawn from a
  per-channel seeded RNG so that runs are bit-reproducible and the noise
  a message experiences does not depend on unrelated traffic (factors
  are pre-drawn in fixed-size blocks per channel — a pure amortisation
  of RNG-call overhead, consumed one per message);
* FIFO arrival: each rank's inbound port streams messages in one at a
  time, in routing order, so arrival times on every (src → dst) channel
  are monotone — the non-overtaking guarantee of MPI.

Two kernels hold all of this arithmetic and all of its state:
:meth:`NetworkModel.draw` (tier, link faults, jitter, traffic counters)
and :meth:`NetworkModel.route` (port serialisation and arrival).
Every transport — the message fabric, the collective replay and
macro-step — calls them rather than touching the state directly.

The accumulated jitter over many halo exchanges is what reproduces the
noisy, rising HALO totals of Figure 5(b) in the paper.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

import numpy as np

from repro.machine.spec import MachineSpec, NetworkTier

#: Jitter factors are drawn per channel in fixed-size blocks (one factor
#: consumed per message).  The block size is part of the model's
#: definition — it fixes how the channel's RNG stream is consumed, so it
#: must never vary with workload or transport.
_FACTOR_BLOCK = 32

#: (seed, src, dst) -> initial PCG64 state.  SeedSequence derivation is
#: a pure function of these inputs, so the state is shared process-wide
#: across runs (each run still gets its own Generator and therefore its
#: own stream position).  A few hundred bytes per channel ever touched.
_channel_state_cache: Dict[Tuple[int, int, int], dict] = {}


class MessageTiming(NamedTuple):
    """Timing decomposition of a single message.

    ``transfer`` is the serialisation time of the payload through the
    sender's port (the LogGP gap×bytes term — consecutive messages from
    one rank queue behind each other); ``latency`` is the propagation
    time added after serialisation.  Both carry this message's jitter.

    A named tuple rather than a (frozen) dataclass: one instance is
    built per simulated message, squarely on the fabric's hot path.
    """

    send_overhead: float
    latency: float
    transfer: float
    recv_overhead: float

    @property
    def wire_time(self) -> float:
        """Serialisation + propagation (no queueing)."""
        return self.latency + self.transfer

    @property
    def total(self) -> float:
        """End-to-end time from send post to delivery completion."""
        return self.send_overhead + self.wire_time + self.recv_overhead


class NetworkModel:
    """Computes per-message timings over a :class:`MachineSpec`.

    Parameters
    ----------
    machine:
        The machine whose tiers define latency/bandwidth/jitter.
    seed:
        Root seed; each (src, dst) channel derives an independent stream.
    ranks_per_node:
        Rank placement density used to decide intra- vs inter-node.
    o_send, o_recv:
        Per-message software overheads (seconds) charged to the endpoints.
    faults:
        Optional :class:`~repro.faults.runtime.FaultRuntime`; when it
        carries degraded-link faults, the affected channels' latency and
        bandwidth are scaled before jitter is applied.
    """

    def __init__(
        self,
        machine: MachineSpec,
        seed: int = 0,
        ranks_per_node: int | None = None,
        o_send: float = 2.5e-7,
        o_recv: float = 2.5e-7,
        faults=None,
    ):
        self.machine = machine
        self.seed = seed
        self.ranks_per_node = ranks_per_node
        self.o_send = o_send
        self.o_recv = o_recv
        self.faults = faults
        # Placement never changes after construction, so the tier of a
        # channel is a pure function of (src, dst) — memoised because
        # message_timing resolves it for every single message.
        self._tier_cache: Dict[Tuple[int, int], NetworkTier] = {}
        # [tier, rng, factor_block, next_index] per channel: one dict
        # probe on the draw hot path instead of two, plus the channel's
        # buffered jitter factors (see _refill_factors).
        self._chan_cache: Dict[Tuple[int, int], list] = {}
        #: Per-rank time at which the outgoing port is next free.
        self._port_free: Dict[int, float] = {}
        #: Per-rank time at which the incoming port is next free.
        self._in_port_free: Dict[int, float] = {}
        self.messages = 0
        self.bytes = 0

    # -- internals -----------------------------------------------------------

    def _rng_for(self, src: int, dst: int) -> np.random.Generator:
        """A fresh jitter stream for the ``src -> dst`` channel."""
        # Deriving a stream through SeedSequence hashing costs tens of
        # microseconds; at p ranks a run touches O(p log p) channels,
        # every run, for the identical (seed, src, dst) inputs.  Memoise
        # the derived initial PCG64 state process-wide and restore it
        # into a fresh bit generator — the stream is bit-for-bit the one
        # SeedSequence would produce, at less than half the setup cost.
        skey = (self.seed, src, dst)
        state = _channel_state_cache.get(skey)
        if state is None:
            bg = np.random.PCG64(np.random.SeedSequence(
                entropy=self.seed, spawn_key=(src + 1, dst + 1)))
            _channel_state_cache[skey] = bg.state
        else:
            bg = np.random.PCG64(0)
            bg.state = state
        return np.random.Generator(bg)

    def tier(self, src: int, dst: int) -> NetworkTier:
        """Tier connecting two ranks under the configured placement."""
        key = (src, dst)
        tier = self._tier_cache.get(key)
        if tier is None:
            tier = self.machine.tier_between(src, dst, self.ranks_per_node)
            self._tier_cache[key] = tier
        return tier

    def _refill_factors(self, chan: list) -> list:
        """Draw the next block of jitter factors for one channel.

        One factor is consumed per message; drawing them in blocks of
        ``_FACTOR_BLOCK`` amortises the RNG-call overhead over the whole
        block while staying bit-reproducible: for a given seed the
        channel's stream is consumed identically no matter which
        transport draws the message.
        """
        tier, rng = chan[0], chan[1]
        if tier.jitter > 0.0:
            factors = np.exp(rng.normal(0.0, tier.jitter, _FACTOR_BLOCK))
        else:
            factors = np.ones(_FACTOR_BLOCK)
        if tier.spike_prob > 0.0:
            spiked = rng.random(_FACTOR_BLOCK) < tier.spike_prob
            if spiked.any():
                factors = np.where(spiked, factors * tier.spike_scale, factors)
        buf = chan[2] = factors.tolist()
        chan[3] = 0
        return buf

    # -- public API ------------------------------------------------------------

    def draw(self, src: int, dst: int, nbytes: int) -> Tuple[float, float]:
        """Draw ``(latency, transfer)`` for one ``nbytes`` message.

        Stateful: consumes one jitter factor on the ``src -> dst``
        channel (after scaling by any degraded-link fault) and counts
        traffic statistics.  A self-message is a memcpy at intra-node
        bandwidth with no wire latency.  Every simulated message, on
        every transport, is drawn here exactly once.
        """
        self.messages += 1
        self.bytes += nbytes
        if src == dst:
            return 0.0, nbytes / self.machine.intra_node.bandwidth
        key = (src, dst)
        chan = self._chan_cache.get(key)
        if chan is None:
            chan = self._chan_cache[key] = [
                self.tier(src, dst), self._rng_for(src, dst), (), 0,
            ]
        tier = chan[0]
        lat, bw = tier.latency, tier.bandwidth
        if self.faults is not None and self.faults.has_link_faults:
            lat_mult, bw_mult = self.faults.link_factors(src, dst)
            lat *= lat_mult
            bw *= bw_mult
        if tier.jitter > 0.0 or tier.spike_prob > 0.0:
            buf = chan[2]
            i = chan[3]
            if i >= len(buf):
                buf = self._refill_factors(chan)
                i = 0
            chan[3] = i + 1
            factor = buf[i]
            return lat * factor, (nbytes / bw) * factor
        return lat, nbytes / bw

    def message_timing(self, src: int, dst: int, nbytes: int) -> MessageTiming:
        """Draw the timing of one ``nbytes`` message from ``src`` to ``dst``.

        The :class:`MessageTiming` view of :meth:`draw` (same state
        change), adding the endpoints' software overheads — zero for a
        self-message.
        """
        latency, transfer = self.draw(src, dst, nbytes)
        if src == dst:
            return MessageTiming(0.0, 0.0, transfer, 0.0)
        return MessageTiming(self.o_send, latency, transfer, self.o_recv)

    def route(self, src: int, dst: int, earliest: float, transfer: float,
              latency: float) -> Tuple[float, float]:
        """Move one drawn message through the ports; ``(ser_end, arrival)``.

        The payload serialises through ``src``'s outgoing port, starting
        at max(``earliest``, port-free time) and occupying it for
        ``transfer`` seconds (``ser_end`` is the end of serialisation) —
        which is what makes a root's linear fan-out O(p·n/B) rather than
        magically parallel.  Its head reaches ``dst`` ``latency`` later
        (cut-through), and ``dst``'s inbound port streams it in, queueing
        behind other incoming traffic, so a fan-in at one root is also
        O(p·n/B).  ``arrival`` is the end of that inbound transfer.

        The inbound port's free time only moves forward and every
        ``transfer`` is non-negative, so each arrival at ``dst`` is no
        earlier than any previous one: channels are FIFO (MPI's
        non-overtaking guarantee) with no per-channel clamp.
        """
        port_free = self._port_free
        start = port_free.get(src, 0.0)
        if earliest > start:
            start = earliest
        ser_end = start + transfer
        port_free[src] = ser_end
        head = ser_end - transfer + latency
        in_port_free = self._in_port_free
        in_start = in_port_free.get(dst, 0.0)
        if head > in_start:
            in_start = head
        in_end = in_start + transfer
        in_port_free[dst] = in_end
        return ser_end, in_end

    def min_latency(self) -> float:
        """Smallest zero-byte one-way latency of any tier (lookahead bound)."""
        return min(self.machine.intra_node.latency, self.machine.inter_node.latency)

    def stats(self) -> dict:
        """Traffic counters accumulated so far."""
        return {"messages": self.messages, "bytes": self.bytes}
