"""Workload plugin registry: decorator registration plus discovery.

Three ways a plugin lands in the registry (benchbuild's project-registry
idiom, adapted):

* **built-ins** — the paper workloads (:mod:`~repro.workloads.convolution`,
  :mod:`~repro.workloads.lulesh`, :mod:`~repro.workloads.lbm`) and the
  communication-shape zoo (:mod:`repro.workloads.zoo`) register on
  first lookup, so ``get``/``names`` always see them;
* **entry points** — packages installed with a ``repro.workloads`` entry
  point group have each entry loaded (the entry value must resolve to a
  :class:`~repro.workloads.base.WorkloadPlugin` subclass or to a module
  whose import registers one);
* **``REPRO_WORKLOAD_PATH``** — an ``os.pathsep``-separated list of
  ``.py`` files (or directories of them) imported at discovery time;
  module-level :func:`register` decorators fire on import.  This is the
  zero-packaging route for one-off plugins and tests.

Registration is idempotent per class; two *different* classes claiming
one name is an error (loudly, at registration time).
"""

from __future__ import annotations

import importlib
import importlib.util
import logging
import os
import pathlib
import sys
from typing import Dict, List, Optional, Type

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadPlugin

logger = logging.getLogger(__name__)

#: Environment variable naming extra plugin files/directories.
WORKLOAD_PATH_ENV = "REPRO_WORKLOAD_PATH"

#: Entry-point group third-party packages register plugins under.
ENTRY_POINT_GROUP = "repro.workloads"

_REGISTRY: Dict[str, Type[WorkloadPlugin]] = {}
_DISCOVERED = False


def register(cls: Type[WorkloadPlugin]) -> Type[WorkloadPlugin]:
    """Class decorator adding a plugin to the registry.

    Validates the declarative surface eagerly — a plugin missing its
    ``NAME``/``SECTIONS`` or with an unbuildable default parameter set
    fails at import, not at first run.
    """
    if not isinstance(cls, type) or not issubclass(cls, WorkloadPlugin):
        raise WorkloadError(
            f"@register needs a WorkloadPlugin subclass, got {cls!r}"
        )
    if not cls.NAME or cls.NAME != cls.NAME.lower():
        raise WorkloadError(
            f"{cls.__name__}.NAME must be a non-empty lowercase string, "
            f"got {cls.NAME!r}"
        )
    if not cls.SECTIONS:
        raise WorkloadError(f"{cls.__name__} declares no SECTIONS")
    if not cls.COMM_PATTERN:
        raise WorkloadError(f"{cls.__name__} declares no COMM_PATTERN")
    unknown_keys = set(cls.KEY_SECTIONS) - set(cls.SECTIONS)
    if unknown_keys:
        raise WorkloadError(
            f"{cls.__name__}.KEY_SECTIONS {sorted(unknown_keys)} not in "
            f"SECTIONS {list(cls.SECTIONS)}"
        )
    cls.default_params()  # eager schema self-check
    existing = _REGISTRY.get(cls.NAME)
    if existing is not None and existing is not cls:
        raise WorkloadError(
            f"workload name {cls.NAME!r} already registered by "
            f"{existing.__module__}.{existing.__name__}"
        )
    _REGISTRY[cls.NAME] = cls
    return cls


def _ensure_builtins() -> None:
    """Import the modules whose decorators register the built-ins."""
    for module in ("convolution", "lulesh", "lbm", "zoo"):
        importlib.import_module(f"repro.workloads.{module}")


def _import_plugin_file(path: pathlib.Path, strict: bool) -> None:
    """Import one ``.py`` plugin file under a synthetic module name."""
    mod_name = f"repro_workload_ext_{path.stem}"
    try:
        spec = importlib.util.spec_from_file_location(mod_name, path)
        if spec is None or spec.loader is None:
            raise WorkloadError(f"cannot load plugin file {path}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        spec.loader.exec_module(module)
    except WorkloadError:
        raise
    except Exception as exc:
        if strict:
            raise WorkloadError(f"plugin file {path} failed: {exc}") from exc
        logger.warning("skipping workload plugin %s: %s", path, exc)


def _discover_path(strict: bool) -> None:
    """Import every plugin named by ``REPRO_WORKLOAD_PATH``."""
    raw = os.environ.get(WORKLOAD_PATH_ENV, "").strip()
    if not raw:
        return
    for entry in raw.split(os.pathsep):
        entry = entry.strip()
        if not entry:
            continue
        path = pathlib.Path(entry)
        if path.is_dir():
            for file in sorted(path.glob("*.py")):
                _import_plugin_file(file, strict)
        elif path.suffix == ".py" and path.exists():
            _import_plugin_file(path, strict)
        elif strict:
            raise WorkloadError(
                f"{WORKLOAD_PATH_ENV} entry {entry!r} is neither a .py "
                "file nor a directory"
            )
        else:
            logger.warning("%s entry %r does not exist; skipped",
                           WORKLOAD_PATH_ENV, entry)


def _discover_entry_points(strict: bool) -> None:
    """Load plugins advertised via the ``repro.workloads`` group."""
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - stdlib since 3.8
        return
    try:
        eps = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - pre-3.10 interface
        eps = entry_points().get(ENTRY_POINT_GROUP, [])
    for ep in eps:
        try:
            obj = ep.load()
            if isinstance(obj, type) and issubclass(obj, WorkloadPlugin):
                register(obj)
        except WorkloadError:
            raise
        except Exception as exc:
            if strict:
                raise WorkloadError(
                    f"entry point {ep.name!r} failed: {exc}"
                ) from exc
            logger.warning("skipping workload entry point %s: %s", ep.name, exc)


def discover(*, refresh: bool = False, strict: bool = False) -> List[str]:
    """Run full discovery (built-ins, entry points, plugin path).

    Discovery is memoised per process; ``refresh=True`` re-reads the
    environment (tests that mutate ``REPRO_WORKLOAD_PATH`` use this).
    ``strict=True`` turns broken third-party plugins into errors instead
    of logged skips (``repro scenarios validate`` wants loud failures).
    Returns the sorted registered names.
    """
    global _DISCOVERED
    if refresh:
        _DISCOVERED = False
    if not _DISCOVERED:
        _ensure_builtins()
        _discover_entry_points(strict)
        _discover_path(strict)
        _DISCOVERED = True
    return sorted(_REGISTRY)


def get(name: str) -> Type[WorkloadPlugin]:
    """The plugin class registered under ``name``.

    Triggers discovery on first use so built-ins and environment
    plugins are always visible; unknown names raise
    :class:`~repro.errors.WorkloadError` listing what *is* known.
    """
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {names()}"
        ) from None


def names() -> List[str]:
    """Sorted names of every registered plugin (post-discovery)."""
    discover()
    return sorted(_REGISTRY)


def all_plugins() -> Dict[str, Type[WorkloadPlugin]]:
    """Name → class snapshot of the registry (post-discovery)."""
    discover()
    return dict(_REGISTRY)


def unregister(name: str) -> None:
    """Remove one plugin (test isolation helper; no-op if absent)."""
    _REGISTRY.pop(name, None)
