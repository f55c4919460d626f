"""Experiment registry: persisted, content-addressed job records.

The registry is the service's memory.  Every job — spec, lifecycle
timestamps, result payload or failure record — is persisted as one JSON
file addressed by the job's content key (see
:attr:`~repro.service.jobs.JobSpec.key`), inside a schema-versioned
envelope.  Because the key hashes only what influences the simulated
result, a resubmit of the same work is answered straight from the
registry with **zero** simulations — the job-level analogue of the PR 1
run cache, and stored right next to it (``<cache-root>/registry/`` by
default) so one ``--cache-dir`` flag provisions both layers.

Records are stored with the run cache's store format: one checksummed
envelope per file, written by :func:`~repro.harness.cache.write_envelope`
(atomic tmp + rename; the checksum is the SHA-256 of the record bytes
as written) and verified by :func:`~repro.harness.cache.read_envelope`
over the bytes as read.  Reads are defensive: an unparseable,
wrong-schema, truncated or bit-rotted file is *evicted* and counted
(``corrupt`` / ``evictions``), never raised — so a corrupted record
degrades to one re-run instead of a serving outage, and the next
completion heals the registry in place.  Files live under a
``v<REGISTRY_SCHEMA_VERSION>`` directory, so a schema bump leaves old
records unreachable instead of evicting them one by one.
"""

from __future__ import annotations

import logging
import pathlib
import time
from typing import Any, Dict, List, Optional

from repro.harness.cache import (
    CorruptEntry,
    default_cache_dir,
    read_envelope,
    write_envelope,
)

logger = logging.getLogger(__name__)

#: Bump to invalidate every stored job record (envelope layout changes).
#: v2: checksummed envelope — corrupt records are detected and evicted.
#: v3: the shared run-cache envelope (checksum over the stored record
#: bytes, record under ``payload``), stored under ``v3/``.
#: A record's ``progress`` field (the job's capped progress log) is not
#: a layout change: it is optional, and a record without it serves an
#: empty log, as every record did before the field existed.
REGISTRY_SCHEMA_VERSION = 3


def default_registry_dir() -> pathlib.Path:
    """``<run-cache root>/registry`` — one directory tree for both layers.

    The extra path level keeps registry files out of the run cache's
    ``*/*.json`` globs (``stats``/``clear`` never see job records).
    """
    return default_cache_dir() / "registry"


class ExperimentRegistry:
    """On-disk store of job records, one JSON file per job key.

    Like the run cache, files fan out under a two-character prefix
    directory (below the schema directory).  Session counters
    (``hits``/``misses``/``stores``/``corrupt``) feed the service
    metrics.
    """

    def __init__(self, root: Optional[pathlib.Path] = None):
        self.root = pathlib.Path(root) if root is not None else default_registry_dir()
        self._dir = self.root / f"v{REGISTRY_SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.evictions = 0

    def path_for(self, key: str) -> pathlib.Path:
        """File backing ``key``."""
        return self._dir / key[:2] / f"{key}.json"

    # -- record construction -------------------------------------------------

    @staticmethod
    def make_record(
        job,
        *,
        result: Optional[Dict[str, Any]] = None,
        status: Optional[str] = None,
        error: Optional[Dict[str, Any]] = None,
        finished_at: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Build the persistable record for a job.

        The overrides let the scheduler persist a job's *terminal*
        record **before** flipping the in-memory state: any observer
        that sees a terminal status is then guaranteed to find the
        matching registry record (no done-but-not-yet-persisted window).
        The record carries the job's progress log as it stands, so the
        terminal record keeps every line the job's stream served.
        """
        snap = job.snapshot()
        status = status if status is not None else snap["status"]
        error = error if error is not None else snap["error"]
        finished = finished_at if finished_at is not None else snap["finished_at"]
        duration = None
        if job.started_at is not None and finished is not None:
            duration = finished - job.started_at
        return {
            "key": job.key,
            "spec": job.spec.to_dict(),
            "status": status,
            "submitted_at": snap["submitted_at"],
            "started_at": snap["started_at"],
            "finished_at": finished,
            "duration": duration,
            "error": error,
            "result": result,
            "progress": job.progress_log(),
        }

    # -- storage -------------------------------------------------------------

    def put(self, record: Dict[str, Any]) -> None:
        """Persist a record (atomic rename, last write wins)."""
        write_envelope(
            self.path_for(record["key"]), record,
            schema=REGISTRY_SCHEMA_VERSION, stored_at=time.time(),
        )
        self.stores += 1

    def _evict_corrupt(self, path: pathlib.Path, why: str) -> None:
        """Remove a bad record so the job is recomputed, not errored."""
        self.corrupt += 1
        self.misses += 1
        logger.warning(
            "evicting corrupt registry record %s (%s); a resubmit will "
            "recompute it", path, why)
        try:
            path.unlink()
            self.evictions += 1
        except OSError:
            pass

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``key``, or None.

        A corrupt entry — unparseable JSON, a wrong-schema or missing
        envelope, a truncated write, a checksum mismatch — is logged,
        counted (``corrupt``/``evictions``), evicted, and reported as a
        miss, so the next submit of the same work recomputes and heals
        the registry instead of serving garbage or raising.
        """
        path = self.path_for(key)
        try:
            header, record = read_envelope(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CorruptEntry as exc:
            self._evict_corrupt(path, str(exc))
            return None
        if header.get("schema") != REGISTRY_SCHEMA_VERSION:
            self._evict_corrupt(path, "wrong schema")
            return None
        self.hits += 1
        return record

    def delete(self, key: str) -> bool:
        """Remove a record; True when a file was actually deleted."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:
            return False

    # -- listing -------------------------------------------------------------

    def list_records(self) -> List[Dict[str, Any]]:
        """Status summaries of every stored record, newest first.

        Summaries carry identity/lifecycle fields only (no result
        payloads), so listing stays cheap even with large sweeps stored.
        """
        out: List[Dict[str, Any]] = []
        for path in sorted(self._dir.glob("*/*.json")):
            try:
                header, rec = read_envelope(path)
            except (FileNotFoundError, CorruptEntry):
                continue
            if header.get("schema") != REGISTRY_SCHEMA_VERSION:
                continue
            out.append({
                "job_id": rec.get("key"),
                "kind": (rec.get("spec") or {}).get("kind"),
                "client": (rec.get("spec") or {}).get("client"),
                "status": rec.get("status"),
                "submitted_at": rec.get("submitted_at"),
                "finished_at": rec.get("finished_at"),
                "duration": rec.get("duration"),
            })
        out.sort(key=lambda r: r.get("submitted_at") or 0, reverse=True)
        return out

    def stats(self) -> Dict[str, Any]:
        """Session counters plus on-disk record count."""
        entries = sum(1 for _ in self._dir.glob("*/*.json"))
        return {
            "dir": str(self.root),
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
        }
