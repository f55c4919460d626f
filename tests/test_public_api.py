"""Public-surface hygiene: exports resolve, every public item is documented.

This is the documentation gate for deliverable (e): every public module,
class, function and method in the package must carry a docstring, and
every name exported through ``__all__`` must resolve.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.harness",
    "repro.machine",
    "repro.omp",
    "repro.scenarios",
    "repro.simmpi",
    "repro.tools",
    "repro.workloads",
    "repro.workloads.zoo",
]


def _all_modules():
    out = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            out.append(importlib.import_module(info.name))
    return out


MODULES = _all_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_dunder_all_resolves(pkg_name):
    pkg = importlib.import_module(pkg_name)
    for name in getattr(pkg, "__all__", []):
        assert hasattr(pkg, name), f"{pkg_name}.__all__ exports missing {name}"


def _public_members():
    seen = set()
    for module in MODULES:
        if not module.__name__.startswith("repro"):
            continue
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "").startswith("repro") is False:
                continue
            key = (obj.__module__, getattr(obj, "__qualname__", name))
            if key in seen:
                continue
            seen.add(key)
            yield key, obj


PUBLIC = sorted(_public_members(), key=lambda kv: kv[0])


@pytest.mark.parametrize(
    "obj", [o for _, o in PUBLIC], ids=[f"{m}.{q}" for (m, q), _ in PUBLIC]
)
def test_public_item_documented(obj):
    assert obj.__doc__ and obj.__doc__.strip(), (
        f"{obj.__module__}.{obj.__qualname__} lacks a docstring"
    )


@pytest.mark.parametrize(
    "obj", [o for _, o in PUBLIC if inspect.isclass(o)],
    ids=[f"{m}.{q}" for (m, q), o in PUBLIC if inspect.isclass(o)],
)
def test_public_methods_documented(obj):
    undocumented = []
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) and not (
            member.__doc__ and member.__doc__.strip()
        ):
            undocumented.append(name)
    assert not undocumented, (
        f"{obj.__module__}.{obj.__qualname__} has undocumented public "
        f"methods: {undocumented}"
    )


def test_paper_workloads_export_their_plugin_classes():
    """Each paper workload is exported as its one registered class."""
    import repro.workloads as workloads
    from repro.workloads import registry

    for name in ("ConvolutionWorkload", "LuleshWorkload", "LBMWorkload"):
        assert name in workloads.__all__
        cls = getattr(workloads, name)
        assert registry.get(cls.NAME) is cls
    assert not [n for n in workloads.__all__ if n.endswith("Benchmark")]


def test_version_matches_pyproject():
    import pathlib
    import re

    text = pathlib.Path(repro.__file__).parents[2].joinpath(
        "pyproject.toml"
    ).read_text()
    declared = re.search(r'^version = "(.*)"', text, re.M).group(1)
    assert repro.__version__ == declared
