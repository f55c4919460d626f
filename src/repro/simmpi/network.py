"""Network timing model for the simulated transport.

The model is LogGP-flavoured:

* per-message software overhead ``o_send``/``o_recv`` charged to the CPU
  of each endpoint;
* wire time ``L + n/B`` from the :class:`~repro.machine.spec.NetworkTier`
  connecting the two ranks (intra-node vs inter-node);
* a multiplicative log-normal jitter term per message, drawn from a
  per-channel seeded stream so that runs are bit-reproducible and the
  noise a message experiences does not depend on unrelated traffic
  (factors are pre-drawn in fixed-size blocks per channel — a pure
  amortisation of RNG-call overhead, consumed one per message);
* FIFO arrival: each rank's inbound port streams messages in one at a
  time, in routing order, so arrival times on every (src → dst) channel
  are monotone — the non-overtaking guarantee of MPI.

Two kernels hold all of this arithmetic and all of its state:
:meth:`NetworkModel.draw` (tier, link faults, jitter, traffic counters)
and :meth:`NetworkModel.route` (port serialisation and arrival).
Every transport — the message fabric, the collective replay and
macro-step — calls them rather than touching the state directly.

Channel streams
---------------
The ``src -> dst`` jitter stream is, by definition, NumPy's
``PCG64(SeedSequence(entropy=seed, spawn_key=(src + 1, dst + 1)))``.
Building that object costs tens of microseconds, and an all-to-all at
p ranks opens p·(p−1) channels that mostly carry one message each, so
the model never builds it.  Instead :meth:`NetworkModel._channel_seed`
derives the stream's initial PCG64 ``(state, inc)`` in integer
arithmetic: the SeedSequence hash (fixed by NEP 19) over the entropy
words ``[seed words padded to 4, src + 1, dst + 1]``, then
``generate_state(4, uint64)`` and PCG64's set-seq seeding.  The hash
constants advance independently of the data and the seed words come
first, so the seed's part of the pool is mixed once per model and the
``src + 1`` absorption once per source rank; a channel pays for the
``dst + 1`` absorption and the output hash only.

Each model owns a single PCG64 bit generator.  To draw a channel's next
block of factors, the channel's saved state is swapped into it, the
block is drawn exactly as from a dedicated generator, and the advanced
state is saved back in the channel record.  Every channel's stream is
therefore bit-for-bit the one its own SeedSequence-seeded generator
would produce, consumed in the same blocks, while a channel costs a few
Python integers instead of NumPy objects, and all of it is freed with
the model.

The accumulated jitter over many halo exchanges is what reproduces the
noisy, rising HALO totals of Figure 5(b) in the paper.
"""

from __future__ import annotations

import operator
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.machine.spec import MachineSpec, NetworkTier

#: Jitter factors are drawn per channel in fixed-size blocks (one factor
#: consumed per message).  The block size is part of the model's
#: definition — it fixes how the channel's RNG stream is consumed, so it
#: must never vary with workload or transport.
_FACTOR_BLOCK = 32

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, NEP 19).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: ``(xor, mul)`` hash constants, one pair per hash call.
_Consts = List[Tuple[int, int]]


def _hash_consts(init: int, mult: int, n: int) -> _Consts:
    """``(xor, mul)`` pairs of the first ``n`` calls of a SeedSequence hash.

    The hash constant advances by one multiplication per call whatever
    the data, so the constants of every call can be computed up front.
    """
    consts = []
    h = init
    for _ in range(n):
        nxt = (h * mult) & _MASK32
        consts.append((h, nxt))
        h = nxt
    return consts


def _hashmix(value: int, xor: int, mul: int) -> int:
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _absorb(pool: List[int], word: int, consts: _Consts) -> List[int]:
    """Mix one entropy word beyond the pool size into every pool word.

    ``_mix(x, _hashmix(word, xor, mul))`` per pool word, written out
    because it runs once per channel.
    """
    if not 0 <= word <= _MASK32:
        raise ValueError(
            f"channel rank word {word} does not fit in 32 bits; SeedSequence "
            "would split it into several words, which this derivation does "
            "not model")
    out = []
    for x, (xor, mul) in zip(pool, consts):
        h = ((word ^ xor) * mul) & _MASK32
        r = (_MIX_MULT_L * x - _MIX_MULT_R * (h ^ (h >> 16))) & _MASK32
        out.append(r ^ (r >> 16))
    return out


def _mix_seed(seed: int) -> Tuple[List[int], _Consts, _Consts]:
    """Pool after the seed words, plus the constants of the two rank words.

    Returns ``(pool, src_consts, dst_consts)``: SeedSequence's pool once
    every word of ``seed`` (padded with zeros to the pool size, as it is
    whenever a spawn key follows) has been mixed in, and the ``(xor,
    mul)`` pairs with which ``src + 1`` and then ``dst + 1`` are absorbed.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"network seed must be non-negative, got {seed}")
    words = [seed >> shift & _MASK32
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    n_calls = _POOL_SIZE * len(words) + 2 * _POOL_SIZE
    calls = iter(_hash_consts(_INIT_A, _MULT_A, n_calls))
    pool = [_hashmix(w, *next(calls)) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst],
                                   _hashmix(pool[i_src], *next(calls)))
    for w in words[_POOL_SIZE:]:
        pool = _absorb(pool, w, [next(calls) for _ in range(_POOL_SIZE)])
    rank_consts = list(calls)
    return pool, rank_consts[:_POOL_SIZE], rank_consts[_POOL_SIZE:]


#: ``generate_state(4, uint64)`` reads the pool cyclically into 8 words.
_OUT_CONSTS = tuple(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))


def _pcg64_seed(pool: List[int]) -> Tuple[int, int]:
    """PCG64 ``(state, inc)`` seeded from a final SeedSequence pool.

    ``generate_state(4, uint64)`` (little-endian pairs of 32-bit words)
    followed by PCG64's set-seq seeding: ``inc = initseq << 1 | 1``, then
    one LCG step from zero, add ``initstate``, one more step.
    """
    w = []
    for x, (xor, mul) in zip(pool + pool, _OUT_CONSTS):
        v = ((x ^ xor) * mul) & _MASK32
        w.append(v ^ (v >> 16))
    initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    initseq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


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
        # [tier, pcg_state, pcg_inc, factor_block, next_index] per
        # channel: one dict probe on the draw hot path, the channel's
        # jitter-stream position (derived on its first refill) and its
        # buffered jitter factors (see _refill_factors).
        self._chan_cache: Dict[Tuple[int, int], list] = {}
        self._seed_pool, self._src_consts, self._dst_consts = _mix_seed(seed)
        #: src -> SeedSequence pool after the ``src + 1`` word.
        self._src_pools: Dict[int, List[int]] = {}
        #: The one bit generator every channel's stream is drawn through.
        self._bitgen = np.random.PCG64(0)
        self._stream_rng = np.random.Generator(self._bitgen)
        #: Per-rank time at which the outgoing port is next free.
        self._port_free: Dict[int, float] = {}
        #: Per-rank time at which the incoming port is next free.
        self._in_port_free: Dict[int, float] = {}
        self.messages = 0
        self.bytes = 0

    # -- internals -----------------------------------------------------------

    def _channel_seed(self, src: int, dst: int) -> Tuple[int, int]:
        """Initial PCG64 ``(state, inc)`` of the ``src -> dst`` jitter stream.

        Equal to ``PCG64(SeedSequence(entropy=seed, spawn_key=(src + 1,
        dst + 1))).state`` (see the module docstring).
        """
        pool = self._src_pools.get(src)
        if pool is None:
            pool = self._src_pools[src] = _absorb(
                self._seed_pool, src + 1, self._src_consts)
        return _pcg64_seed(_absorb(pool, dst + 1, self._dst_consts))

    def tier(self, src: int, dst: int) -> NetworkTier:
        """Tier connecting two ranks under the configured placement."""
        return self.machine.tier_between(src, dst, self.ranks_per_node)

    def _refill_factors(self, chan: list, src: int, dst: int) -> list:
        """Draw the next block of jitter factors for one channel.

        One factor is consumed per message; drawing them in blocks of
        ``_FACTOR_BLOCK`` amortises the RNG-call overhead over the whole
        block while staying bit-reproducible: for a given seed the
        channel's stream is consumed identically no matter which
        transport draws the message.  The block is drawn through the
        model's one bit generator with the channel's state swapped in;
        ``normal`` and ``random`` consume whole 64-bit outputs, so
        ``(state, inc)`` is the stream's entire position.
        """
        if chan[1] is None:
            chan[1], chan[2] = self._channel_seed(src, dst)
        bitgen, rng = self._bitgen, self._stream_rng
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": chan[1], "inc": chan[2]},
                        "has_uint32": 0, "uinteger": 0}
        tier = chan[0]
        if tier.jitter > 0.0:
            factors = np.exp(rng.normal(0.0, tier.jitter, _FACTOR_BLOCK))
        else:
            factors = np.ones(_FACTOR_BLOCK)
        if tier.spike_prob > 0.0:
            u = rng.random(_FACTOR_BLOCK)
            if u.min() < tier.spike_prob:
                factors = np.where(u < tier.spike_prob,
                                   factors * tier.spike_scale, factors)
        chan[1] = bitgen.state["state"]["state"]
        buf = chan[3] = factors.tolist()
        chan[4] = 0
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
                self.tier(src, dst), None, 0, (), 0,
            ]
        tier = chan[0]
        lat, bw = tier.latency, tier.bandwidth
        if self.faults is not None and self.faults.has_link_faults:
            lat_mult, bw_mult = self.faults.link_factors(src, dst)
            lat *= lat_mult
            bw *= bw_mult
        if tier.jitter > 0.0 or tier.spike_prob > 0.0:
            buf = chan[3]
            i = chan[4]
            if i >= len(buf):
                buf = self._refill_factors(chan, src, dst)
                i = 0
            chan[4] = i + 1
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
