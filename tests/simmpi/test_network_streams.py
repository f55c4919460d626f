"""Channel jitter streams: closed-form seeding and the shared bit generator.

Every ``src -> dst`` channel's jitter stream is defined as NumPy's
``PCG64(SeedSequence(entropy=seed, spawn_key=(src + 1, dst + 1)))``,
consumed in blocks of ``_FACTOR_BLOCK`` factors.  The network model
derives the initial state in integer arithmetic and draws every channel
through one bit generator; these tests pin both against NumPy itself.
"""

import dataclasses
import gc
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.catalog import laptop, nehalem_cluster
from repro.machine.spec import NetworkTier
from repro.simmpi import network
from repro.simmpi.network import _FACTOR_BLOCK, NetworkModel


def numpy_stream(seed, src, dst):
    return np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(src + 1, dst + 1)))


def numpy_state(seed, src, dst):
    state = numpy_stream(seed, src, dst).state["state"]
    return state["state"], state["inc"]


def reference_factors(seed, src, dst, tier, n):
    """The first ``n`` factors of a channel, drawn from its own Generator."""
    rng = np.random.Generator(numpy_stream(seed, src, dst))
    factors = []
    while len(factors) < n:
        if tier.jitter > 0.0:
            block = np.exp(rng.normal(0.0, tier.jitter, _FACTOR_BLOCK))
        else:
            block = np.ones(_FACTOR_BLOCK)
        if tier.spike_prob > 0.0:
            spiked = rng.random(_FACTOR_BLOCK) < tier.spike_prob
            block = np.where(spiked, block * tier.spike_scale, block)
        factors.extend(block.tolist())
    return factors[:n]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**160), src=st.integers(0, 2**20),
       dst=st.integers(0, 2**20))
@example(seed=0, src=0, dst=1)
@example(seed=2**32 - 1, src=3, dst=2)
@example(seed=2**32, src=3, dst=2)
@example(seed=2**128 - 1, src=1, dst=0)
@example(seed=2**128, src=1, dst=0)
@example(seed=2**160 - 1, src=7, dst=7)
def test_closed_form_matches_seedsequence(seed, src, dst):
    model = NetworkModel(laptop(2), seed=seed)
    assert model._channel_seed(src, dst) == numpy_state(seed, src, dst)


@pytest.mark.parametrize("src,dst", [
    (2**32 - 2, 0), (0, 2**32 - 2), (2**32 - 2, 2**32 - 2)])
@pytest.mark.parametrize("seed", [0, 5, 2**140 + 3])
def test_closed_form_at_widest_rank_word(seed, src, dst):
    model = NetworkModel(laptop(2), seed=seed)
    assert model._channel_seed(src, dst) == numpy_state(seed, src, dst)


@pytest.mark.parametrize("src,dst", [(2**32 - 1, 0), (0, 2**32 - 1)])
def test_rank_word_wider_than_32_bits_raises(src, dst):
    model = NetworkModel(nehalem_cluster(nodes=2, jitter=0.1), seed=1)
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        model.draw(src, dst, 8)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        NetworkModel(laptop(2), seed=-1)


TIERS = {
    "jitter+spike": NetworkTier(latency=1e-6, bandwidth=1e9, jitter=0.2,
                                spike_prob=0.1, spike_scale=50.0),
    "jitter": NetworkTier(latency=1e-6, bandwidth=1e9, jitter=0.2),
    "spike": NetworkTier(latency=1e-6, bandwidth=1e9, spike_prob=0.3,
                         spike_scale=50.0),
}
CHANNELS = [(0, 1), (1, 0), (2, 3), (3, 1), (1, 2)]
#: More than three blocks per channel.
PER_CHANNEL = 3 * _FACTOR_BLOCK + 7


def interleaved_order(seed):
    order = [c for c in CHANNELS for _ in range(PER_CHANNEL)]
    random.Random(seed).shuffle(order)
    return order


def machine_with(tier):
    return dataclasses.replace(laptop(8), intra_node=tier)


@pytest.mark.parametrize("shape", sorted(TIERS))
def test_shared_generator_matches_per_channel_generators(shape):
    tier = TIERS[shape]
    model = NetworkModel(machine_with(tier), seed=9)
    drawn = {c: [] for c in CHANNELS}
    for src, dst in interleaved_order(shape):
        latency, _ = model.draw(src, dst, 100)
        drawn[(src, dst)].append(latency)
    for src, dst in CHANNELS:
        expected = [tier.latency * f for f in
                    reference_factors(9, src, dst, tier, PER_CHANNEL)]
        assert drawn[(src, dst)] == expected, (shape, src, dst)
        assert len(set(expected)) > 1


def test_two_live_models_do_not_disturb_each_other():
    tier = TIERS["jitter+spike"]
    mach = machine_with(tier)
    models = {11: NetworkModel(mach, seed=11), 12: NetworkModel(mach, seed=12)}
    drawn = {(seed, c): [] for seed in models for c in CHANNELS}
    for src, dst in interleaved_order(0):
        for seed, model in models.items():
            drawn[(seed, (src, dst))].append(model.draw(src, dst, 100)[0])
    for (seed, (src, dst)), got in drawn.items():
        expected = [tier.latency * f for f in
                    reference_factors(seed, src, dst, tier, PER_CHANNEL)]
        assert got == expected, (seed, src, dst)


def test_channel_state_is_freed_with_the_model():
    mach = nehalem_cluster(nodes=4, jitter=0.1)
    gc.collect()
    tracemalloc.start()
    try:
        models = [NetworkModel(mach, seed=seed) for seed in (3, 4)]
        for model in models:
            for src in range(18):
                for dst in range(18):
                    if src != dst:
                        model.draw(src, dst, 64)
        assert len(models[0]._chan_cache) == 18 * 17
        del model, models
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    alive = snapshot.filter_traces(
        [tracemalloc.Filter(True, network.__file__)]).statistics("lineno")
    assert alive == []


# -- batch opening -------------------------------------------------------------

OPEN_TIERS = {**TIERS, "neither": NetworkTier(latency=1e-6, bandwidth=1e9)}
#: More than one block per channel.
OPENED_DRAWS = _FACTOR_BLOCK + 9


def two_tier_machine(intra, inter):
    return dataclasses.replace(laptop(4), intra_node=OPEN_TIERS[intra],
                               inter_node=OPEN_TIERS[inter])


def transport_state(model):
    return (model.messages, model.bytes, dict(model._port_free),
            dict(model._in_port_free))


rank = st.integers(0, 11)


@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**160)),
       intra=st.sampled_from(sorted(OPEN_TIERS)),
       inter=st.sampled_from(sorted(OPEN_TIERS)),
       rpn=st.sampled_from([None, 1, 2, 3, 5]),
       chunk=st.integers(1, 6),
       pairs=st.lists(st.tuples(rank, rank), max_size=30),
       warm=st.lists(st.tuples(rank, rank, st.integers(1, 2 * _FACTOR_BLOCK)),
                     max_size=5))
@example(seed=5, intra="jitter+spike", inter="jitter", rpn=2, chunk=3,
         pairs=[(0, 1), (1, 0), (0, 0), (2, 3), (0, 1), (3, 2), (1, 2)],
         warm=[(0, 1, 5), (2, 3, _FACTOR_BLOCK + 1)])
def test_open_channels_matches_lazy_opening(seed, intra, inter, rpn, chunk,
                                            pairs, warm):
    machine = two_tier_machine(intra, inter)
    batch, lazy = (NetworkModel(machine, seed=seed, ranks_per_node=rpn)
                   for _ in range(2))
    # Channels that already carry traffic, some past their first block.
    for src, dst, n in warm:
        for i in range(n):
            timing = batch.draw(src, dst, 64)
            assert timing == lazy.draw(src, dst, 64)
            batch.route(src, dst, 1e-6 * i, *timing[::-1])
            lazy.route(src, dst, 1e-6 * i, *timing[::-1])
    before = {key: (chan, list(chan)) for key, chan in batch._chan_cache.items()}
    state = transport_state(batch)
    with mock.patch.object(network, "_OPEN_CHUNK", chunk):
        batch.open_channels([s for s, _ in pairs], [d for _, d in pairs])
    assert transport_state(batch) == state
    for key, (chan, snapshot) in before.items():
        assert batch._chan_cache[key] is chan and chan == snapshot
    assert set(batch._chan_cache) == set(before) | {
        (s, d) for s, d in pairs if s != d}
    for src, dst in dict.fromkeys(pairs + [(s, d) for s, d, _ in warm]):
        for _ in range(OPENED_DRAWS):
            assert batch.draw(src, dst, 100) == lazy.draw(src, dst, 100)


def test_open_channels_across_full_chunks():
    """More pairs than one chunk holds, at the real chunk size."""
    p = 40
    assert p * (p - 1) > network._OPEN_CHUNK
    machine = nehalem_cluster(nodes=5, jitter=0.1)
    batch, lazy = (NetworkModel(machine, seed=2**64 + 5) for _ in range(2))
    ranks = range(p)
    batch.open_channels([s for s in ranks for _ in ranks],
                        [d for _ in ranks for d in ranks])
    assert len(batch._chan_cache) == p * (p - 1)
    assert transport_state(batch) == (0, 0, {}, {})
    for src in ranks:
        for dst in ranks:
            for _ in range(OPENED_DRAWS):
                assert batch.draw(src, dst, 8) == lazy.draw(src, dst, 8)


@pytest.mark.parametrize("src,dst", [(2**32 - 1, 0), (0, 2**32 - 1)])
def test_open_channels_rejects_wide_rank_word_like_lazy_opening(src, dst):
    model = NetworkModel(nehalem_cluster(nodes=2, jitter=0.1), seed=1)
    with pytest.raises(ValueError) as lazy:
        model._channel_seed(src, dst)
    with pytest.raises(ValueError) as batch:
        model.open_channels([0, src], [1, dst])
    assert str(batch.value) == str(lazy.value)
    assert "does not fit in 32 bits" in str(batch.value)
    assert model._chan_cache == {}


# -- stream positions in the bit generator's memory layout ----------------------

U64 = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63,
                     2**64 - 2, 2**64 - 1]))


def split128(value):
    return value >> 64, value & (2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(U64, U64, U64, U64), min_size=1, max_size=8))
@example(rows=[(2**64 - 1,) * 4, (0,) * 4])
# inc_lo + state_lo wraps to exactly 0, and to 2**64 - 1 with no carry.
@example(rows=[(0, 1, 0, 2**63 - 1), (2**64 - 1, 2**64 - 1, 2**63, 2**63 - 1)])
@example(rows=[(2**64 - 1, 2**64 - 2, 2**64 - 1, 2**64 - 1)])
def test_numpy_set_seq_matches_integer_set_seq(rows):
    cols = [np.array(col, dtype=np.uint64) for col in zip(*rows)]
    got = network._pcg64_set_seq_words(*cols)
    assert all(w.dtype == np.uint64 for w in got)
    for i, row in enumerate(rows):
        state, inc = network._pcg64_set_seq(*row)
        assert [int(w[i]) for w in got] == [*split128(state), *split128(inc)]


def blob_state(model, blob):
    """The ``{"state", "inc"}`` dict a channel's stored position encodes."""
    words = network._WORDS.unpack(blob)
    if model._hi_first:
        s_hi, s_lo, i_hi, i_lo = words
    else:
        s_lo, s_hi, i_lo, i_hi = words
    return {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}


def reference_state(seed, src, dst, tier, blocks):
    """A channel's own generator's state after ``blocks`` blocks."""
    bitgen = numpy_stream(seed, src, dst)
    rng = np.random.Generator(bitgen)
    for _ in range(blocks):
        if tier.jitter > 0.0:
            rng.standard_normal(_FACTOR_BLOCK)
        if tier.spike_prob > 0.0:
            rng.random(_FACTOR_BLOCK)
    return bitgen.state["state"]


@pytest.mark.parametrize("shape", sorted(TIERS))
def test_stored_position_is_the_generator_state(shape):
    tier = TIERS[shape]
    model = NetworkModel(machine_with(tier), seed=2**70 + 9)
    # Lazy: the second refill of 0 -> 1 is the generator's last write.
    for _ in range(_FACTOR_BLOCK + 1):
        model.draw(0, 1, 8)
    public = model._bitgen.state
    position = blob_state(model, model._chan_cache[(0, 1)][1])
    assert public["state"] == position
    assert public["has_uint32"] == 0
    assert position == reference_state(2**70 + 9, 0, 1, tier, 2)
    # Batch: the chunk's last channel is drawn last.
    pairs = [(s, d) for s in range(4) for d in range(4)]
    model.open_channels([s for s, _ in pairs], [d for _, d in pairs])
    public = model._bitgen.state
    assert public["state"] == blob_state(model, model._chan_cache[(3, 2)][1])
    assert public["has_uint32"] == 0
    for src, dst in pairs:
        if src != dst:
            blocks = 2 if (src, dst) == (0, 1) else 1
            assert blob_state(model, model._chan_cache[(src, dst)][1]) == \
                reference_state(2**70 + 9, src, dst, tier, blocks)


@pytest.mark.parametrize("hi_first", [False, True])
def test_chunk_positions_pack_like_single_positions(hi_first):
    model = NetworkModel(laptop(2), seed=2**33 + 1)
    pairs = [(0, 1), (5, 2), (2**32 - 2, 7), (9, 2**32 - 2)]
    words = np.array(pairs, np.uint64) + 1
    pool = network._absorb_words(model._seed_pool, words[:, 0],
                                 model._src_consts)
    pool = network._absorb_words(pool, words[:, 1], model._dst_consts)
    assert network._seed_positions(pool, hi_first) == [
        network._pack_position(*model._channel_seed(src, dst), hi_first)
        for src, dst in pairs]


def test_layout_probe_accepts_both_compiled_layouts():
    probe = network._PROBE_STATE["state"]
    for hi_first in (False, True):
        packed = network._pack_position(probe["state"], probe["inc"],
                                        hi_first)
        with mock.patch.object(network, "_read_position",
                               lambda view, packed=packed: packed):
            model = NetworkModel(laptop(2), seed=1)
        assert model._hi_first is hi_first


def corrupted(view):
    raw = bytearray(view.tobytes())
    raw[3] ^= 0x40
    return bytes(raw)


@pytest.mark.parametrize("read", [
    corrupted,
    lambda view: view.tobytes()[::-1],
    lambda view: bytes(network._POSITION_BYTES),
], ids=["bit-flip", "reversed", "zeros"])
def test_layout_probe_rejects_an_unknown_layout(read):
    with mock.patch.object(network, "_read_position", read):
        with pytest.raises(RuntimeError, match="layout"):
            NetworkModel(laptop(2), seed=1)
