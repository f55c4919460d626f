"""All-to-all bucket sort (alltoall class).

Every rank draws ``n_local`` keys from its own seeded RNG stream, splits
them into per-destination buckets by key range, exchanges buckets with a
personalized all-to-all, and sorts what it received.  The dominant
communication is the dense ``MPI_Alltoall`` pattern — the opposite end
of the taxonomy from nearest-neighbour halos.

Validity is exact: the global key multiset is regenerable from the seed,
so the check demands exact count/sum preservation, per-rank range
containment, bucket boundary ordering, and local sortedness.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import WorkloadValidityError
from repro.machine.roofline import WorkEstimate
from repro.simmpi.engine import RunResult
from repro.simmpi.sections_rt import section
from repro.workloads.base import Param, WorkloadPlugin
from repro.workloads.registry import register

#: Key space: [0, _KEY_RANGE).
_KEY_RANGE = 1 << 20


def _draw_keys(seed: int, rank: int, n_local: int) -> np.ndarray:
    """Rank ``rank``'s deterministic input keys."""
    rng = np.random.default_rng(1000003 * seed + rank)
    return rng.integers(0, _KEY_RANGE, size=n_local, dtype=np.int64)


def _partition(keys: np.ndarray, bounds: Sequence[int]) -> List[np.ndarray]:
    """Split ``keys`` into the buckets ``[bounds[r], bounds[r + 1])``.

    Bucket ``r`` is ``keys[(keys >= bounds[r]) & (keys < bounds[r + 1])]``
    — its keys in their original order and dtype — for every key in
    ``[bounds[0], bounds[-1])``, computed by one stable sort on the
    bucket index instead of one mask per bucket.
    """
    bucket = np.searchsorted(bounds, keys, side="right") - 1
    order = np.argsort(bucket, kind="stable")
    edges = np.searchsorted(bucket[order], np.arange(1, len(bounds) - 1))
    return np.split(keys[order], edges)


@register
class BucketSortWorkload(WorkloadPlugin):
    """Sample-free bucket sort over a personalized all-to-all."""

    NAME = "bucketsort"
    DOMAIN = "zoo"
    SECTIONS = ("GEN", "PARTITION", "EXCHANGE", "SORT", "REDUCE")
    KEY_SECTIONS = ("EXCHANGE",)
    COMM_SECTIONS = ("EXCHANGE", "REDUCE")
    COMM_PATTERN = "alltoall"
    PARAMS = {
        "n_local": Param(512, int, "keys drawn per rank", minimum=1),
        "key_seed": Param(11, int, "RNG seed of the key streams"),
        "sort_flops_per_key": Param(60.0, float,
                                    "modeled flops per key in SORT",
                                    minimum=0.0),
    }

    def main(self, ctx):
        """Sample-free bucket sort: partition, all-to-all, local sort."""
        cfg = self.params
        comm = ctx.comm
        p, rank = comm.size, comm.rank
        n_local = cfg["n_local"]
        bounds = [(r * _KEY_RANGE) // p for r in range(p + 1)]
        key_work = WorkEstimate(flops=cfg["sort_flops_per_key"] * n_local,
                                bytes_moved=16.0 * n_local)

        with section(ctx, "GEN"):
            keys = _draw_keys(cfg["key_seed"], rank, n_local)
            ctx.compute(work=key_work)

        with section(ctx, "PARTITION"):
            buckets = _partition(keys, bounds)
            ctx.compute(work=key_work)

        with section(ctx, "EXCHANGE"):
            parts = yield from comm.g_alltoall(buckets)

        with section(ctx, "SORT"):
            mine = np.sort(np.concatenate(parts)) if parts else keys
            n = max(int(mine.size), 1)
            ctx.compute(work=WorkEstimate(
                flops=cfg["sort_flops_per_key"] * n * max(1, n.bit_length()),
                bytes_moved=16.0 * n,
            ))

        with section(ctx, "REDUCE"):
            total = yield from comm.g_allreduce(int(mine.sum()))
        return {
            "keys": mine,
            "count": int(mine.size),
            "sum": int(mine.sum()),
            "lo": bounds[rank],
            "hi": bounds[rank + 1],
            "total": total,
        }

    def check(self, result: RunResult) -> None:
        """Output must be sorted, range-partitioned and checksum-true."""
        cfg = self.params
        p = result.n_ranks
        inputs = [_draw_keys(cfg["key_seed"], r, cfg["n_local"])
                  for r in range(p)]
        want_count = sum(a.size for a in inputs)
        want_sum = sum(int(a.sum()) for a in inputs)
        parts = result.results
        got_count = sum(r["count"] for r in parts)
        got_sum = sum(r["sum"] for r in parts)
        if got_count != want_count or got_sum != want_sum:
            raise WorkloadValidityError(
                f"{self.NAME}: key multiset not preserved "
                f"(count {got_count}/{want_count}, "
                f"sum {got_sum} != {want_sum})"
            )
        for rank, r in enumerate(parts):
            keys = r["keys"]
            if keys.size and not (keys[:-1] <= keys[1:]).all():
                raise WorkloadValidityError(
                    f"{self.NAME}: rank {rank} keys are not sorted"
                )
            if keys.size and not (
                (keys >= r["lo"]).all() and (keys < r["hi"]).all()
            ):
                raise WorkloadValidityError(
                    f"{self.NAME}: rank {rank} holds keys outside its "
                    f"bucket [{r['lo']}, {r['hi']})"
                )
            if r["total"] != want_sum:
                raise WorkloadValidityError(
                    f"{self.NAME}: rank {rank} allreduced key sum "
                    f"{r['total']} != {want_sum}"
                )

    def metrics(self, result: RunResult) -> Dict[str, float]:
        """Max/mean received-keys ratio across ranks."""
        counts = [r["count"] for r in result.results]
        mean = sum(counts) / len(counts)
        return {"bucket_imbalance": max(counts) / mean if mean else 0.0}
