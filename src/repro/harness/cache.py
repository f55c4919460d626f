"""Persistent, content-addressed cache of simulated runs.

A sweep point is a pure function of its inputs: the workload
configuration, the process/thread counts, the seed, the machine model
and the noise parameters fully determine the resulting
:class:`~repro.core.profile.SectionProfile` (the engine is a
deterministic virtual-time simulation).  That makes every run safely
cacheable: re-running a benchmark suite, regenerating a figure after an
analysis-code change, or repeating a sweep with more repetitions can
skip the simulation for every point it has already executed.

Keys are SHA-256 digests of a canonical JSON rendering of the run
inputs plus a cache schema version (bumped whenever the stored payload
or the simulation semantics change, which leaves old entries
unreachable).  Payloads carry the exported profile (via
:mod:`repro.core.export`, which round-trips floats exactly) plus
whatever side-band values the runner needs (progress line, energy
drift), so a cache hit is indistinguishable from a fresh run.

Every file is a checksummed envelope ``{..., "checksum", "payload"}``
written by :func:`write_envelope` and verified by
:func:`read_envelope`, the one store format shared with the service's
experiment registry.  The payload is serialised once and its SHA-256 is
taken over exactly the bytes written; ``payload`` is the envelope's
last key, so a reader locates that byte slice and hashes it as read.
A warm hit therefore pays for one ``json.loads`` and one hash, never a
re-serialisation of the payload.

The cache directory defaults to ``~/.cache/repro/runs`` and is
overridden by the ``REPRO_CACHE_DIR`` environment variable.  Runners
enable the cache automatically when that variable is set; pass an
explicit :class:`RunCache` (or ``cache=None``) to override.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pathlib
import threading
from typing import Any, Dict, Optional, Tuple

from repro import obs

logger = logging.getLogger(__name__)

#: Bump to invalidate every previously stored entry (payload layout or
#: simulation-semantics changes).  v2: checksummed envelope + fault
#: plans in run keys.  v3: the collective gate pins engine interleaving
#: at collective boundaries, which can shift port-queueing arithmetic
#: relative to v2 runs.  The ``REPRO_COLL_ANALYTIC`` switch itself is
#: deliberately NOT part of the key: fast- and message-path results are
#: bit-identical, so either mode may serve the other's cached entries.
#: v4: scenario point payloads additionally carry the compact interval
#: record (:data:`repro.analysis.INTERVALS_SCHEMA`) behind the
#: time-resolved efficiency timelines, so warm sweeps can answer any
#: window configuration with zero simulations.  v5: the checksum covers
#: the payload bytes as written (:func:`write_envelope`), not a
#: ``sort_keys`` re-rendering.
CACHE_SCHEMA_VERSION = 5

#: Environment variable overriding the cache directory (and opting the
#: runners into caching by default).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/runs``."""
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "runs"


def _canonical(obj: Any) -> Any:
    """Reduce run inputs to a stable JSON-serialisable form.

    Dataclasses (configs, machine specs) become sorted field dicts,
    tuples become lists, dict keys become strings — so logically equal
    inputs always hash equal, regardless of construction order.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache keying")


def run_key(**fields: Any) -> str:
    """SHA-256 key of a run's inputs (schema version included).

    Callers pass every input that influences the simulated result —
    workload config, p, threads, seed, machine spec, noise parameters.
    Logically identical inputs map to the same key; any change to any
    field (or to :data:`CACHE_SCHEMA_VERSION`) yields a different key.
    """
    payload = _canonical(dict(fields, _schema=CACHE_SCHEMA_VERSION))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CorruptEntry(Exception):
    """A stored file is not a verified envelope; the message says why."""


def _envelope_head(header: Dict[str, Any]) -> bytes:
    """Envelope bytes preceding the payload: ``{<header>,"payload":``."""
    text = json.dumps(header, separators=(",", ":"))
    return (text[:-1] + ',"payload":').encode("ascii")


def write_envelope(path: pathlib.Path, payload: Any, **header: Any) -> None:
    """Atomically store ``payload`` in a checksummed envelope at ``path``.

    The payload is serialised once; ``checksum`` is the SHA-256 of those
    bytes, which the envelope wraps verbatim as its last key after the
    ``header`` fields.  Last write wins.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("ascii")
    head = _envelope_head(
        dict(header, checksum=hashlib.sha256(body).hexdigest()))
    path.parent.mkdir(parents=True, exist_ok=True)
    # pid AND thread id: service worker threads sharing one store may
    # write the same key concurrently, and the loser's os.replace must
    # not find its tmp file stolen.
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    with open(tmp, "wb") as fh:
        fh.write(head)
        fh.write(body)
        fh.write(b"}")
    os.replace(tmp, path)


def read_envelope(path: pathlib.Path) -> Tuple[Dict[str, Any], Any]:
    """``(header, payload)`` of an envelope written by :func:`write_envelope`.

    The checksum is verified over the payload bytes as read.  A missing
    file raises :class:`FileNotFoundError`; anything else that is not
    byte for byte such an envelope — unreadable, unparseable, without
    the envelope keys, reformatted or bit-rotted — raises
    :class:`CorruptEntry`.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CorruptEntry(f"unreadable: {exc}") from exc
    try:
        envelope = json.loads(raw)
    except ValueError as exc:
        raise CorruptEntry(f"invalid JSON: {exc}") from exc
    if (
        not isinstance(envelope, dict)
        or "checksum" not in envelope
        or "payload" not in envelope
    ):
        raise CorruptEntry("missing checksum envelope")
    payload = envelope.pop("payload")
    head = _envelope_head(envelope)
    if (
        not raw.startswith(head)
        or not raw.endswith(b"}")
        or hashlib.sha256(memoryview(raw)[len(head):-1]).hexdigest()
        != envelope["checksum"]
    ):
        raise CorruptEntry("checksum mismatch")
    return envelope, payload


class RunCache:
    """On-disk store of run payloads, one JSON file per key.

    Entries are stored inside a checksummed envelope
    (``{"checksum": sha256(payload bytes), "payload": ...}``, see
    :func:`write_envelope`), so silent corruption — a truncated write,
    bit rot, a partial concurrent clear — is *detected*, logged, evicted
    and recomputed instead of feeding garbage into an analysis or
    crashing the sweep.

    Instances count their own traffic (``hits``/``misses``/``stores``/
    ``corrupt``) so callers can report effectiveness; ``stats()`` adds
    on-disk entry and byte totals.
    """

    def __init__(self, root: Optional[pathlib.Path] = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def path_for(self, key: str) -> pathlib.Path:
        """File backing ``key`` (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def _evict_corrupt(self, path: pathlib.Path, why: str) -> None:
        self.corrupt += 1
        self.misses += 1
        logger.warning(
            "evicting corrupt cache entry %s (%s); the point will be "
            "recomputed", path, why,
        )
        try:
            path.unlink()
        except OSError:
            pass

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None (counted as a miss).

        A corrupt entry — unparseable JSON, a missing envelope, or
        stored payload bytes that fail their checksum — is logged,
        counted under ``corrupt``, evicted, and reported as a miss so
        the caller recomputes.
        """
        with obs.span("cache.get", layer="cache", key=key[:12]) as sp:
            path = self.path_for(key)
            try:
                _, payload = read_envelope(path)
            except FileNotFoundError:
                self.misses += 1
                sp.set(outcome="miss")
                return None
            except CorruptEntry as exc:
                self._evict_corrupt(path, str(exc))
                sp.set(outcome="corrupt")
                return None
            self.hits += 1
            sp.set(outcome="hit")
            return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic rename, last wins)."""
        with obs.span("cache.put", layer="cache", key=key[:12]):
            write_envelope(self.path_for(key), payload)
            self.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Session counters plus on-disk entry/byte totals."""
        entries = 0
        nbytes = 0
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                entries += 1
                try:
                    nbytes += path.stat().st_size
                except OSError:
                    pass
        return {
            "dir": str(self.root),
            "entries": entries,
            "bytes": nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


def format_stats(stats: Dict[str, Any]) -> str:
    """Human-readable rendering of a :meth:`RunCache.stats` dict.

    The one formatting path for cache statistics: ``repro cache stats``
    prints this text, and the service's ``/metrics`` endpoint exports
    the same dict's counters — both consume the public ``stats()`` API
    rather than reaching into cache internals.
    """
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    lookups = hits + misses
    rate = f"{hits / lookups:.1%}" if lookups else "n/a"
    return "\n".join([
        f"cache dir:     {stats['dir']}",
        f"entries:       {stats['entries']}",
        f"size:          {stats['bytes']} bytes",
        f"hits:          {hits}",
        f"misses:        {misses}",
        f"stores:        {stats.get('stores', 0)}",
        f"corrupt:       {stats.get('corrupt', 0)}",
        f"hit rate:      {rate}",
    ])


def maybe_default_cache() -> Optional[RunCache]:
    """A :class:`RunCache` iff ``REPRO_CACHE_DIR`` is set, else None.

    This is the runners' default: caching is opt-in via the environment
    so plain test runs never touch the user's cache directory.
    """
    if os.environ.get(CACHE_DIR_ENV, "").strip():
        return RunCache()
    return None
