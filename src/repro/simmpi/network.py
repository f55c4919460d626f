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

Each model owns a single PCG64 bit generator and a writable 32-byte
view of its C ``pcg64_random_t {state, inc}``, reached through NumPy's
public ctypes interface (``bitgen.ctypes.state_address``).  A channel
record keeps its stream position as a 32-byte blob in exactly that
memory layout.  To draw the channel's next block of factors, the blob
is copied into the generator, the block is drawn exactly as from a
dedicated generator, and the advanced position is read back as bytes:
no state dict is built or parsed.  The layout is the one NumPy was
compiled with — native ``__uint128_t`` words (low, high) or the
emulated ``{high, low}`` struct — and each model probes it once,
setting a known state through the public setter and reading it back
through the view; any other layout raises.  Every channel's stream is
therefore bit-for-bit the one its own SeedSequence-seeded generator
would produce, consumed in the same blocks, while a channel costs a
bytes object instead of NumPy objects, and all of it is freed with the
model.

A channel opens lazily, on its first draw, or in a batch:
:meth:`NetworkModel.open_channels` derives the positions of up to
``_OPEN_CHUNK`` channels in ``uint64`` NumPy passes — the hash is
32-bit masked arithmetic, and PCG64's 128-bit set-seq step is written
in 64-bit words with explicit carries — draws each channel's first
block through the shared generator as above, and computes all their
factors in one more pass.  The collective gate calls it for every
world all-to-all, whose p·(p−1) channels would otherwise each pay the
per-channel Python overhead of a lazy first draw.  Opening is
unobservable: a stream depends only on the seed and its two ranks,
never on when it starts, channels already open are left as they are,
and no traffic counter, port or fault state changes.  A batch record is
therefore the one lazy opening would have built.

The accumulated jitter over many halo exchanges is what reproduces the
noisy, rising HALO totals of Figure 5(b) in the paper.
"""

from __future__ import annotations

import ctypes
import operator
import struct
from typing import Dict, Iterable, List, NamedTuple, Tuple

import numpy as np

from repro.machine.spec import MachineSpec, NetworkTier

#: Jitter factors are drawn per channel in fixed-size blocks (one factor
#: consumed per message).  The block size is part of the model's
#: definition — it fixes how the channel's RNG stream is consumed, so it
#: must never vary with workload or transport.
_FACTOR_BLOCK = 32

#: Channels :meth:`NetworkModel.open_channels` derives and draws per
#: NumPy pass; bounds the pass's temporaries (an all-to-all at p=256
#: opens 65,280 channels).
_OPEN_CHUNK = 1024

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: A stream position: NumPy's ``pcg64_random_t {state, inc}``, two
#: 128-bit integers held as four native-endian 64-bit words.  The ctypes
#: types are built here, once: ctypes caches array types, and the
#: function-pointer types NumPy's ctypes interface builds on its first
#: use, for the life of the process, so a model must not be the first
#: to build them.
_POSITION_BYTES = 32
_Position = ctypes.c_ubyte * _POSITION_BYTES
_WORDS = struct.Struct("=4Q")
np.random.PCG64(0).ctypes

#: Set through the public setter to probe the layout; every word differs.
_PROBE_STATE = {"bit_generator": "PCG64",
                "state": {"state": 0x0123456789ABCDEF_FEDCBA9876543210,
                          "inc": 0x1111222233334444_5555666677778889},
                "has_uint32": 0, "uinteger": 0}

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


def _rank_word_error(word: int) -> ValueError:
    return ValueError(
        f"channel rank word {word} does not fit in 32 bits; SeedSequence "
        "would split it into several words, which this derivation does "
        "not model")


def _absorb(pool: List[int], word: int, consts: _Consts) -> List[int]:
    """Mix one entropy word beyond the pool size into every pool word.

    ``_mix(x, _hashmix(word, xor, mul))`` per pool word, after checking
    that the word is one 32-bit SeedSequence word.
    """
    if not 0 <= word <= _MASK32:
        raise _rank_word_error(word)
    return _absorb_words(pool, word, consts)


def _absorb_words(pool, words, consts: _Consts) -> list:
    """:func:`_absorb` without the check, written out for speed.

    ``words`` is one 32-bit word or a ``uint64`` vector of them, one per
    channel, and each pool word an int or a ``uint64`` vector aligned
    with it.  Every product of two 32-bit values fits in 64 bits and the
    difference is masked to 32, so wrap-around ``uint64`` arithmetic is
    exact.
    """
    out = []
    for x, (xor, mul) in zip(pool, consts):
        h = ((words ^ xor) * mul) & _MASK32
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
    w = _output_words(pool)
    return _pcg64_set_seq(w[0] | w[1] << 32, w[2] | w[3] << 32,
                          w[4] | w[5] << 32, w[6] | w[7] << 32)


def _seed_positions(pool: list, hi_first: bool) -> List[bytes]:
    """Initial stream positions of every channel whose pool words are vectors.

    :func:`_pcg64_seed` in ``uint64`` NumPy, packed as
    :func:`_pack_position` would pack each channel's ``(state, inc)``.
    """
    w = _output_words(pool)
    state_hi, state_lo, inc_hi, inc_lo = _pcg64_set_seq_words(
        w[0] | w[1] << 32, w[2] | w[3] << 32,
        w[4] | w[5] << 32, w[6] | w[7] << 32)
    if hi_first:
        words = (state_hi, state_lo, inc_hi, inc_lo)
    else:
        words = (state_lo, state_hi, inc_lo, inc_hi)
    blob = np.stack(words, axis=1).tobytes()
    return [blob[i:i + _POSITION_BYTES]
            for i in range(0, len(blob), _POSITION_BYTES)]


def _output_words(pool: list) -> list:
    """The 8 words ``generate_state(4, uint64)`` hashes out of a pool."""
    w = []
    for x, (xor, mul) in zip(pool + pool, _OUT_CONSTS):
        v = ((x ^ xor) * mul) & _MASK32
        w.append(v ^ (v >> 16))
    return w


def _pcg64_set_seq(state_hi: int, state_lo: int, seq_hi: int,
                   seq_lo: int) -> Tuple[int, int]:
    """PCG64's set-seq seeding from the 64-bit halves of its two inputs."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    return ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _mulhi64(a, b: int):
    """High 64 bits of ``a * b`` for a ``uint64`` vector and a 64-bit int.

    Schoolbook multiplication in 32-bit limbs: every partial product and
    every partial sum fits in 64 bits.
    """
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross_1, cross_2 = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (cross_1 & _MASK32) + (cross_2 & _MASK32)
    return a_hi * b_hi + (cross_1 >> 32) + (cross_2 >> 32) + (mid >> 32)


def _pcg64_set_seq_words(state_hi, state_lo, seq_hi, seq_lo) -> tuple:
    """:func:`_pcg64_set_seq` on ``uint64`` vectors of 64-bit halves.

    Returns ``(state_hi, state_lo, inc_hi, inc_lo)``.  Additions carry
    from the low word into the high one, and the product with the
    multiplier keeps its low 128 bits: ``lo * m_lo`` in full plus the
    two cross products, which wrap in ``uint64`` exactly as they do mod
    2**128.
    """
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < inc_lo)
    m_hi, m_lo = _PCG64_MULT >> 64, _PCG64_MULT & _MASK64
    prod_hi = _mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo
    out_lo = lo * m_lo + inc_lo
    out_hi = prod_hi + inc_hi + (out_lo < inc_lo)
    return out_hi, out_lo, inc_hi, inc_lo


def _pack_position(state: int, inc: int, hi_first: bool) -> bytes:
    """A stream position as the bit generator holds it in memory."""
    s_hi, s_lo, i_hi, i_lo = (state >> 64, state & _MASK64,
                              inc >> 64, inc & _MASK64)
    if hi_first:
        return _WORDS.pack(s_hi, s_lo, i_hi, i_lo)
    return _WORDS.pack(s_lo, s_hi, i_lo, i_hi)


def _read_position(view: memoryview) -> bytes:
    """The layout probe's read of the view (a seam a test can corrupt)."""
    return view.tobytes()


def _position_view(bitgen) -> Tuple[memoryview, bool]:
    """Writable bytes of ``bitgen``'s ``pcg64_random_t``, and its word order.

    ``state_address`` points at NumPy's ``pcg64_state``, whose first
    field points at the ``pcg64_random_t``.  The word order — whether
    the high word of each 128-bit integer comes first — is probed by
    setting a known state through the public setter and reading it back
    through the view.
    """
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    view = memoryview(_Position.from_address(address)).cast("B")
    bitgen.state = _PROBE_STATE
    got = _read_position(view)
    probe = _PROBE_STATE["state"]
    for hi_first in (False, True):
        if got == _pack_position(probe["state"], probe["inc"], hi_first):
            return view, hi_first
    raise RuntimeError(
        "this NumPy build lays out PCG64's (state, inc) in neither of the "
        "layouts NumPy compiles (native 128-bit integers or a {high, low} "
        "struct of 64-bit words); the network model cannot position its "
        "channel streams")


def _block_factors(z, u, jitter, spike_prob, spike_scale) -> np.ndarray:
    """Jitter factors of drawn blocks: ``exp(jitter * z)``, spiked where
    ``u < spike_prob``.

    ``z`` and ``u`` hold a block's standard normals and uniforms (zeros
    where the tier draws none; ``u`` may be None for a tier without
    spikes); the tier parameters are scalars for one block or columns
    for a stack of them.  Every operation is elementwise, so a row's
    factors do not depend on the rows beside it.
    """
    factors = np.exp(z * jitter)
    if u is not None:
        spiked = u < spike_prob
        if np.count_nonzero(spiked):
            factors = np.where(spiked, factors * spike_scale, factors)
    return factors


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
        # [tier, position, factor_block, next_index] per channel: one
        # dict probe on the draw hot path, the channel's jitter-stream
        # position (32 bytes in the bit generator's layout, derived on
        # its first refill) and its buffered jitter factors (see
        # _refill_factors).
        self._chan_cache: Dict[Tuple[int, int], list] = {}
        self._seed_pool, self._src_consts, self._dst_consts = _mix_seed(seed)
        #: src -> SeedSequence pool after the ``src + 1`` word.
        self._src_pools: Dict[int, List[int]] = {}
        #: The one bit generator every channel's stream is drawn through.
        self._bitgen = np.random.PCG64(0)
        self._stream_rng = np.random.Generator(self._bitgen)
        #: Writable bytes of its ``(state, inc)``; never handed out.
        self._position, self._hi_first = _position_view(self._bitgen)
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
        transport draws the message.
        """
        position = chan[1]
        if position is None:
            position = _pack_position(*self._channel_seed(src, dst),
                                      self._hi_first)
        tier = chan[0]
        z = np.zeros(_FACTOR_BLOCK)
        u = np.zeros(_FACTOR_BLOCK) if tier.spike_prob > 0.0 else None
        chan[1] = self._draw_block(position, tier, z, u)
        buf = chan[2] = _block_factors(
            z, u, tier.jitter, tier.spike_prob, tier.spike_scale).tolist()
        chan[3] = 0
        return buf

    def _draw_block(self, position: bytes, tier: NetworkTier,
                    z: np.ndarray, u: np.ndarray | None) -> bytes:
        """Draw one block of a channel's stream; return its advanced position.

        The stream format: ``_FACTOR_BLOCK`` standard normals into ``z``
        when the tier has jitter, then as many uniforms into ``u`` when it
        has spikes.  They are drawn through the model's one bit generator
        with the channel's position written into its memory;
        ``standard_normal`` and ``random`` consume whole 64-bit outputs,
        so ``(state, inc)`` is the stream's entire position.
        """
        rng, view = self._stream_rng, self._position
        view[:] = position
        if tier.jitter > 0.0:
            rng.standard_normal(out=z)
        if tier.spike_prob > 0.0:
            rng.random(out=u)
        return view.tobytes()

    def _open_chunk(self, keys: List[Tuple[int, int]]) -> None:
        """Open the given new, non-self channels (see :meth:`open_channels`)."""
        machine, rpn = self.machine, self.ranks_per_node
        node = {r: machine.node_of_rank(r, rpn)
                for r in {r for key in keys for r in key}}
        tiers = (machine.intra_node, machine.inter_node)
        noisy = [t.jitter > 0.0 or t.spike_prob > 0.0 for t in tiers]
        cache = self._chan_cache
        drawn, tier_of = [], []
        for key in keys:
            i = node[key[0]] != node[key[1]]
            if noisy[i]:
                drawn.append(key)
                tier_of.append(i)
            else:
                cache[key] = [tiers[i], None, (), 0]
        if not drawn:
            return
        words = np.array(drawn, np.uint64) + 1
        pool = _absorb_words(self._seed_pool, words[:, 0], self._src_consts)
        pool = _absorb_words(pool, words[:, 1], self._dst_consts)
        positions = _seed_positions(pool, self._hi_first)
        chan_tiers = [tiers[i] for i in tier_of]
        z = np.zeros((len(drawn), _FACTOR_BLOCK))
        u = np.zeros((len(drawn), _FACTOR_BLOCK))
        positions = list(map(self._draw_block, positions, chan_tiers, z, u))
        params = np.array([[t.jitter, t.spike_prob, t.spike_scale]
                           for t in tiers])[np.array(tier_of, np.intp)]
        blocks = _block_factors(z, u, params[:, 0:1], params[:, 1:2],
                                params[:, 2:3]).tolist()
        for key, tier, position, buf in zip(drawn, chan_tiers, positions,
                                            blocks):
            cache[key] = [tier, position, buf, 0]

    # -- public API ------------------------------------------------------------

    def open_channels(self, srcs: Iterable[int], dsts: Iterable[int]) -> None:
        """Open the ``srcs[i] -> dsts[i]`` channels in batches.

        Each channel ends up exactly as :meth:`draw` opens it lazily:
        its tier, and for a noisy tier its first block of factors drawn
        with the stream's state advanced past it.  What a batch saves is
        per-channel overhead: the seeds of up to ``_OPEN_CHUNK`` channels
        are derived in one NumPy pass and their factors computed in one
        more.  Self-pairs, repeated pairs and channels already open are
        skipped, so a channel that has carried traffic is never touched.

        Opening is unobservable: it changes no traffic counter, port
        frontier or fault state, and a channel's stream depends only on
        the seed and its two ranks, never on when the stream starts.

        Raises :class:`ValueError`, before opening anything, when a rank
        word (rank + 1) does not fit in 32 bits.
        """
        cache = self._chan_cache
        keys = [key for key in dict.fromkeys(zip(srcs, dsts))
                if key[0] != key[1] and key not in cache]
        for key in keys:
            for rank in key:
                if not 0 <= rank + 1 <= _MASK32:
                    raise _rank_word_error(rank + 1)
        for start in range(0, len(keys), _OPEN_CHUNK):
            self._open_chunk(keys[start:start + _OPEN_CHUNK])

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
                self.tier(src, dst), None, (), 0,
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
                buf = self._refill_factors(chan, src, dst)
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
