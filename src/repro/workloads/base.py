"""The workload plugin API: one class per benchmarkable program.

A :class:`WorkloadPlugin` declares everything the harness, the CLI, the
service and the docs need to know about a workload *declaratively*:

* ``NAME`` / ``DOMAIN`` — registry identity and a coarse grouping
  (``"paper"`` for the reproduced benchmarks, ``"zoo"`` for the
  communication-shape taxonomy, anything else for third-party plugins);
* ``SECTIONS`` — the MPI_Section labels the rank program traverses, in
  phase order, so every paper analysis (breakdowns, partial speedup
  bounds, inflexion points, imbalance) works on any plugin unmodified;
* ``KEY_SECTIONS`` — the section(s) the paper-style bound/inflexion
  reports single out (the communication phase for stencils, the
  dominant compute phases for Lulesh);
* ``COMM_PATTERN`` — the communication class in El-Nashar's taxonomy
  (``"halo-1d"``, ``"halo-2d"``, ``"master-worker"``, ``"ring"``,
  ``"alltoall"``, ``"sparse-graph"``, ``"collective"`` ...): the thing
  the zoo exists to vary;
* ``PARAMS`` — a typed parameter schema (:class:`Param` per field) that
  validates scenario specs at parse time and supplies defaults, so two
  specs that differ only in spelled-out defaults hash identically;
* :meth:`WorkloadPlugin.main` — the per-rank generator program (the
  ``g_*`` communicator API), runnable bit-identically on the
  thread-free and threaded engines;
* :meth:`WorkloadPlugin.run` — the one driver: the base drives
  :meth:`~WorkloadPlugin.main` through
  :func:`~repro.simmpi.engine.run_mpi`, and a program that needs
  staged arguments (convolution's storage, LULESH's thread count and
  placement) overrides it with the same signature;
* :meth:`WorkloadPlugin.check` — a post-run validity invariant that
  fails loudly (:class:`~repro.errors.WorkloadValidityError`) when a
  run produced corrupt results.

Plugins are *discovered* through :mod:`repro.workloads.registry`; the
scenario layer (:mod:`repro.scenarios`) binds a plugin to a machine,
fault plan, engine and sweep as plain JSON.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import WorkloadError
from repro.simmpi.engine import RunResult, run_mpi


@dataclass(frozen=True)
class Param:
    """One entry of a plugin's parameter schema.

    ``kind`` is the required python type (``int``, ``float``, ``bool``
    or ``str``; ``float`` accepts ints).  ``minimum`` is an optional
    inclusive lower bound for numeric parameters.
    """

    default: Any
    kind: type = int
    doc: str = ""
    minimum: Optional[float] = None

    def coerce(self, name: str, value: Any) -> Any:
        """Validate ``value`` against this schema entry; returns it
        normalised (ints become floats for float params)."""
        if self.kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise WorkloadError(
                    f"parameter {name!r} must be a number, got {value!r}"
                )
            value = float(value)
        elif self.kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise WorkloadError(
                    f"parameter {name!r} must be an integer, got {value!r}"
                )
        elif self.kind is bool:
            if not isinstance(value, bool):
                raise WorkloadError(
                    f"parameter {name!r} must be a boolean, got {value!r}"
                )
        elif self.kind is str:
            if not isinstance(value, str):
                raise WorkloadError(
                    f"parameter {name!r} must be a string, got {value!r}"
                )
        else:  # pragma: no cover - schema author error
            raise WorkloadError(
                f"parameter {name!r} has unsupported kind {self.kind!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise WorkloadError(
                f"parameter {name!r} must be >= {self.minimum}, got {value}"
            )
        return value


def params_from_config(
    cfg_cls,
    docs: Optional[Dict[str, str]] = None,
    exclude: Tuple[str, ...] = (),
) -> Dict[str, Param]:
    """Derive a :class:`Param` schema from a config dataclass.

    The paper workloads read ``*Config`` dataclasses (their
    :attr:`~WorkloadPlugin.CONFIG`); this keeps their schema and the
    dataclass fields from drifting apart.  Only int/float/bool/str
    fields with defaults are supported; fields in ``exclude`` (non-JSON
    knobs like nested dataclasses) are left out of the declarative
    surface.
    """
    docs = docs or {}
    out: Dict[str, Param] = {}
    for f in dataclasses.fields(cfg_cls):
        if f.name in exclude:
            continue
        if f.default is dataclasses.MISSING:
            raise WorkloadError(
                f"{cfg_cls.__name__}.{f.name} has no default; plugin "
                "schemas need fully defaulted configs"
            )
        kind = type(f.default)
        if kind not in (int, float, bool, str):
            raise WorkloadError(
                f"{cfg_cls.__name__}.{f.name} default has unsupported "
                f"type {kind.__name__}"
            )
        out[f.name] = Param(default=f.default, kind=kind,
                            doc=docs.get(f.name, ""))
    return out


class WorkloadPlugin:
    """Base class every workload plugin subclasses.

    Subclasses set the declarative class attributes and implement
    :meth:`main` (and usually :meth:`check`); the base class supplies
    parameter validation, the :func:`~repro.simmpi.engine.run_mpi`
    driver, and registry bookkeeping helpers.
    """

    #: Registry name (unique, lowercase).
    NAME: str = ""
    #: Coarse grouping: "paper", "zoo", or anything a third party picks.
    DOMAIN: str = ""
    #: MPI_Section labels in phase order.
    SECTIONS: Tuple[str, ...] = ()
    #: Sections the bound/inflexion reports single out.
    KEY_SECTIONS: Tuple[str, ...] = ()
    #: Sections whose interior is communication/synchronisation time —
    #: the classifier behind the time-resolved transfer/serialization
    #: efficiencies (:mod:`repro.analysis`).  Classification is by the
    #: *innermost* open section, so a nested comm label inside a compute
    #: phase counts as communication.
    COMM_SECTIONS: Tuple[str, ...] = ()
    #: Communication class (El-Nashar's program taxonomy).
    COMM_PATTERN: str = ""
    #: Typed parameter schema; defaults define the canonical params.
    PARAMS: Dict[str, Param] = {}
    #: Config dataclass the program reads (:meth:`to_config`), for
    #: plugins whose schema mirrors one; None for the others.
    CONFIG: Optional[type] = None

    def __init__(self, params: Optional[Dict[str, Any]] = None):
        """Instantiate with ``params`` validated against :attr:`PARAMS`."""
        self.params = self.validate_params(params or {})
        #: Original config dataclass when built via :meth:`from_config`.
        self._config = None

    # -- schema ---------------------------------------------------------------

    @classmethod
    def validate_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Canonicalise ``params``: defaults applied, types checked,
        unknown keys rejected.  Two logically equal parameter dicts
        canonicalise identically (scenario hashing relies on this)."""
        if not isinstance(params, dict):
            raise WorkloadError(
                f"{cls.NAME}: params must be an object, got "
                f"{type(params).__name__}"
            )
        unknown = set(params) - set(cls.PARAMS)
        if unknown:
            raise WorkloadError(
                f"{cls.NAME}: unknown parameters {sorted(unknown)} "
                f"(known: {sorted(cls.PARAMS)})"
            )
        out = {}
        for name in sorted(cls.PARAMS):
            schema = cls.PARAMS[name]
            value = params.get(name, schema.default)
            out[name] = schema.coerce(name, value)
        return out

    @classmethod
    def default_params(cls) -> Dict[str, Any]:
        """The canonical parameter dict with every default applied."""
        return cls.validate_params({})

    @classmethod
    def check_scale(cls, p: int, params: Dict[str, Any]) -> None:
        """Raise :class:`~repro.errors.WorkloadError` if the workload
        cannot run at ``p`` ranks (e.g. Lulesh needs cubes).  The base
        implementation accepts any ``p >= 1``."""
        if p < 1:
            raise WorkloadError(f"{cls.NAME}: process count must be >= 1, got {p}")

    @classmethod
    def describe(cls) -> Dict[str, Any]:
        """Declarative summary (the ``repro workloads list`` row)."""
        return {
            "name": cls.NAME,
            "domain": cls.DOMAIN,
            "comm_pattern": cls.COMM_PATTERN,
            "sections": list(cls.SECTIONS),
            "key_sections": list(cls.KEY_SECTIONS),
            "comm_sections": list(cls.COMM_SECTIONS),
            "params": {
                name: {
                    "default": cls.PARAMS[name].default,
                    "type": cls.PARAMS[name].kind.__name__,
                    "doc": cls.PARAMS[name].doc,
                }
                for name in sorted(cls.PARAMS)
            },
        }

    @classmethod
    def from_config(cls, config) -> "WorkloadPlugin":
        """Build a plugin instance from a config dataclass whose field
        names mirror :attr:`PARAMS` (the paper workloads).

        The original config object is kept on the instance so
        non-declarative knobs (fields outside :attr:`PARAMS`, e.g.
        Lulesh's ``omp_params``) survive the harness path.
        """
        inst = cls(params={
            name: getattr(config, name) for name in cls.PARAMS
        })
        inst._config = config
        return inst

    def to_config(self):
        """The :attr:`CONFIG` dataclass this instance runs: the one
        :meth:`from_config` was given (with knobs outside
        :attr:`PARAMS`, e.g. Lulesh's ``omp_params``), else one built
        from :attr:`params`."""
        if self._config is None:
            self._config = self.CONFIG(**self.params)
        return self._config

    # -- execution ------------------------------------------------------------

    def main(self, ctx):
        """The per-rank generator program (``g_*`` API).  Subclasses
        implement this; the same source runs on either engine."""
        raise NotImplementedError(f"{type(self).__name__}.main")

    def run(
        self,
        p: int,
        *,
        threads: int = 1,
        machine=None,
        ranks_per_node: Optional[int] = None,
        seed: int = 0,
        compute_jitter: float = 0.0,
        noise_floor: float = 0.0,
        faults=None,
        wall_timeout: Optional[float] = None,
        engine: Optional[str] = None,
        macrostep: Optional[bool] = None,
        tools=(),
    ) -> RunResult:
        """Execute the workload at ``p`` ranks; returns the raw
        :class:`~repro.simmpi.engine.RunResult`.

        The base implementation drives :meth:`main` through
        :func:`~repro.simmpi.engine.run_mpi`; ``threads`` is ignored
        unless a subclass uses it (hybrid workloads).
        """
        del threads  # single-threaded ranks by default
        return run_mpi(
            p,
            self.main,
            machine=machine,
            ranks_per_node=ranks_per_node,
            seed=seed,
            compute_jitter=compute_jitter,
            noise_floor=noise_floor,
            tools=tools,
            faults=faults,
            wall_timeout=wall_timeout,
            engine=engine,
            macrostep=macrostep,
        )

    # -- post-run -------------------------------------------------------------

    def check(self, result: RunResult) -> None:
        """Validity invariant over a finished run.

        Subclasses raise :class:`~repro.errors.WorkloadValidityError`
        when the per-rank results violate the workload's conservation /
        ordering / checksum invariant — the loud corruption telltale the
        harness runs after every scenario point.  The base
        implementation accepts anything.
        """

    def metrics(self, result: RunResult) -> Dict[str, float]:
        """Scalar side-band metrics of one run (e.g. energy drift),
        carried through cache payloads next to the section profile."""
        del result
        return {}
