"""The shared pop rule of ``ReadyHeap``, pinned on fake program records.

Both engines' event loop and the collective replay pop through
``ReadyHeap.pop_ready``; these tests fix its rule directly, without an
engine: smallest ``(clock, rank)`` first, stale entries dropped, moved
clocks requeued, equal clocks served from one drained batch, and a key
pushed after the drain that sorts before the batch head served first.
"""

from types import SimpleNamespace

from repro.simmpi.sched import ReadyHeap

READY, BLOCKED = "READY", "BLOCKED"


def _progs(*clocks, state=READY):
    return [SimpleNamespace(state=state, ctx=SimpleNamespace(_clock=c))
            for c in clocks]


def _drain(heap, progs):
    out = []
    while True:
        entry = heap.pop_ready(progs, READY)
        if entry is None:
            return out
        out.append(entry)


def test_empty_heap_pops_none():
    heap = ReadyHeap()
    assert not heap
    assert heap.pop_ready([], READY) is None


def test_stale_entry_is_dropped():
    progs = _progs(1.0, 0.5)
    progs[1].state = BLOCKED  # re-blocked after its entry was queued
    heap = ReadyHeap([(0.5, 1), (1.0, 0)])
    assert _drain(heap, progs) == [(1.0, 0)]
    assert not heap


def test_moved_clock_is_requeued_at_the_real_clock():
    # Rank 0 was queued at t=0 but has since advanced to t=2: it must
    # run after rank 1 (t=1), at its real clock, and not be lost.
    progs = _progs(2.0, 1.0)
    heap = ReadyHeap([(0.0, 0), (1.0, 1)])
    assert _drain(heap, progs) == [(1.0, 1), (2.0, 0)]


def test_moved_clock_in_the_batch_is_requeued():
    progs = _progs(1.0, 1.0, 1.0)
    heap = ReadyHeap([(1.0, 0), (1.0, 1), (1.0, 2)])
    assert heap.pop_ready(progs, READY) == (1.0, 0)
    assert list(heap._batch) == [(1.0, 1), (1.0, 2)]
    progs[1].ctx._clock = 3.0  # moved while waiting in the batch
    assert _drain(heap, progs) == [(1.0, 2), (3.0, 1)]


def test_equal_clocks_are_served_from_the_batch_in_clock_rank_order():
    progs = _progs(0.5, 1.0, 1.0, 1.0)
    heap = ReadyHeap()
    for entry in [(1.0, 3), (1.0, 1), (1.0, 2), (0.5, 0)]:
        heap.push(entry)
    assert heap.pop_ready(progs, READY) == (0.5, 0)
    assert heap.pop_ready(progs, READY) == (1.0, 1)
    # The other entries at t=1 were drained into the batch in one pass.
    assert list(heap._batch) == [(1.0, 2), (1.0, 3)]
    assert len(heap) == 2
    assert _drain(heap, progs) == [(1.0, 2), (1.0, 3)]


def test_key_pushed_after_the_drain_and_earlier_than_the_batch_head_wins():
    progs = _progs(1.0, 1.0, 1.0, 1.0, 0.5)
    progs[4].state = BLOCKED
    heap = ReadyHeap([(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (0.5, 4)])
    assert heap.pop_ready(progs, READY) == (1.0, 0)  # (0.5, 4) is stale
    assert list(heap._batch) == [(1.0, 1), (1.0, 2), (1.0, 3)]
    # A wake of rank 4 at its block-time clock, then rank 0 rejoining at
    # the batch's clock with a smaller rank: both sort before the head.
    progs[4].state = READY
    heap.push((0.5, 4))
    assert heap.pop_ready(progs, READY) == (0.5, 4)
    heap.push((1.0, 0))
    assert _drain(heap, progs) == [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3)]


def test_extra_entry_fields_survive_a_requeue():
    # The collective replay queues (clock, world rank, q): the middle
    # field breaks clock ties and the last one indexes the record.
    progs = _progs(2.0, 1.0)
    heap = ReadyHeap([(0.0, 7, 0), (1.0, 5, 1)])
    assert _drain(heap, progs) == [(1.0, 5, 1), (2.0, 7, 0)]
