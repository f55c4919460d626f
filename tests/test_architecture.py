"""Architecture rules: each mechanism that keeps per-section times
bit-identical has one owner.

The paper's partial speedup bounds and inflexion points are read off
per-section times, which must come out bit-identical on every engine
and fast path.  Each mechanism that keeps them so (one network kernel,
one fast-path admission rule, one event loop, one sweep loop, one
physics scope, ...) lives in one place.  Each row of ``RULES`` fails a
tree in which a second copy of its mechanism appears.

A rule checks the tree passed to it.  The repository itself is one
case; a snippet planted in a scratch copy of it is another.  The scans
read files as the shell steps these rules replaced did:

* a ``grep`` row scans every text file under its paths, as
  ``grep -rnIE`` does (not only ``*.py``; files with a NUL byte or
  bytes that are not UTF-8 are binary and skipped), and reads a file
  it names directly whatever it holds;
* a scoped row (``used_outside`` / ``defined_outside``) scans ``*.py``
  files only and attributes each line to ``enclosing``'s answer;
* ``occurs_more_than`` counts occurrences, as ``grep -o | wc -l`` does,
  not lines.

This module scans ``tests/`` itself, so it spells the retired class
names of the paper-workload rule in fragments.

Adding a rule means one row in ``RULES`` plus one planted snippet in
``PLANTS`` that the rule must fail.
"""

from __future__ import annotations

import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]

SRC = "src/repro"
SERVICE = "src/repro/service"
NETWORK = "src/repro/simmpi/network.py"
P2P = "src/repro/simmpi/p2p.py"
ENGINE = "src/repro/simmpi/engine.py"
MACROSTEP = "src/repro/simmpi/macrostep.py"
COLL_ANALYTIC = "src/repro/simmpi/coll_analytic.py"
PARALLEL = "src/repro/harness/parallel.py"
PHYSICS_SCOPE = "src/repro/workloads/physics_scope.py"
LULESH = "src/repro/workloads/lulesh.py"
CONVOLUTION = "src/repro/workloads/convolution.py"
SCHEDULER = "src/repro/service/scheduler.py"
REGISTRY = "src/repro/service/registry.py"

#: The hand-wired classes each paper workload's plugin replaced, spelled
#: in fragments so this file does not name them.
OLD_WORKLOAD_CLASSES = tuple(
    name + "Benchmark" for name in ("Convolution", "Lulesh", "LBM"))


class Tree:
    """The files of one checkout, each read at most once."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._data: Dict[str, bytes] = {}

    def _walk(self, paths: Iterable[str]) -> Iterator[Tuple[str, bool]]:
        """``(path, named)`` for each regular file under ``paths``: a
        directory is walked (symlinks inside it are not followed), a
        file is taken as named."""
        for path in paths:
            top = self.root / path
            if top.is_file():
                yield path, True
                continue
            for dirpath, _, names in os.walk(top):
                for name in names:
                    full = os.path.join(dirpath, name)
                    if not os.path.islink(full):
                        yield Path(full).relative_to(self.root).as_posix(), False

    def data(self, path: str) -> bytes:
        if path not in self._data:
            self._data[path] = (self.root / path).read_bytes()
        return self._data[path]

    def text(self, path: str) -> str:
        return _decode(self.data(path))

    def text_files(self, paths: Iterable[str]) -> List[str]:
        """What ``grep -rI`` reads of ``paths``: named files, and the
        walked files that are not binary."""
        return sorted(path for path, named in self._walk(paths)
                      if named or not _binary(self.data(path)))

    def py_files(self, paths: Iterable[str]) -> List[str]:
        """What ``find paths -name '*.py'`` lists."""
        return sorted(path for path, _ in self._walk(paths)
                      if path.endswith(".py"))


# The scans below are pure functions of a file's bytes or text, cached so
# that a scratch copy rescans only the file planted in it.

@lru_cache(maxsize=None)
def _binary(data: bytes) -> bool:
    """A NUL byte or bytes that are not UTF-8, as ``grep -I`` sees it."""
    if b"\0" in data:
        return True
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


@lru_cache(maxsize=None)
def _decode(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


@lru_cache(maxsize=None)
def _matching_lines(regex: "re.Pattern[str]", text: str) -> Tuple[Tuple[int, str], ...]:
    """``(number, line)`` for each line of ``text`` that ``regex`` finds."""
    if not regex.search(text):  # a line's match is also a match in its text
        return ()
    return tuple((n, line) for n, line in enumerate(text.split("\n"), 1)
                 if regex.search(line))


Check = Callable[[Tree], List[str]]

#: A line that opens a scope, as awk's scanners saw it: ``def`` or
#: ``class`` after spaces only, at any indent.
DEF_OR_CLASS = re.compile(r"^ *(?:def|class) +(\w+)")
#: A top-level class line.
TOP_CLASS = re.compile(r"^class +(\w+)")
_DEF_LINE = re.compile(r"^ *def ")


def enclosing(lines: List[str], index: int,
              header: "re.Pattern[str]" = DEF_OR_CLASS) -> Optional[str]:
    """The def or class ``lines[index]`` is in: the name on the nearest
    line above it that ``header`` matches, or None when no such line
    precedes it in its file.

    This is awk's rule (the last header line read), with two ways it is
    stricter than the removed scanners: a class line counts as a header
    for the def-scoped rules, and the search never runs on into the
    previous file.
    """
    for line in reversed(lines[:index]):
        match = header.match(line)
        if match:
            return match.group(1)
    return None


def grep(pattern: str, *paths: str, exempt: Optional[Dict[str, str]] = None) -> Check:
    """The lines ``grep -rnIE pattern paths`` lists, less the exempt ones.

    ``exempt`` maps a path to a regex that its allowed lines match from
    their start (``""`` allows the whole file), as the old steps'
    ``grep -v "^path:"`` filters did.
    """
    regex = re.compile(pattern, re.MULTILINE)
    allowed = {path: re.compile(line) for path, line in (exempt or {}).items()}

    def check(tree: Tree) -> List[str]:
        return [f"{path}:{n}:{line}"
                for path in tree.text_files(paths)
                for n, line in _matching_lines(regex, tree.text(path))
                if not (path in allowed and allowed[path].match(line))]
    return check


def used_outside(pattern: str, *paths: str,
                 allowed: Iterable[Tuple[Optional[str], Optional[str]]]) -> Check:
    """Uses of ``pattern`` in the ``*.py`` files under ``paths`` that are
    not in an allowed place.

    ``allowed`` holds ``(path, name)`` pairs; a use is allowed when its
    file is ``path`` and ``enclosing`` names ``name`` (None in either
    slot matches anything).  A ``def`` line is a definition, not a use.
    """
    regex = re.compile(pattern, re.MULTILINE)
    places = tuple(allowed)

    def check(tree: Tree) -> List[str]:
        hits = []
        for path in tree.py_files(paths):
            text = tree.text(path)
            for n, line in _matching_lines(regex, text):
                if _DEF_LINE.match(line):
                    continue
                owner = enclosing(text.split("\n"), n - 1)
                if not any(p in (None, path) and name in (None, owner)
                           for p, name in places):
                    hits.append(f"{path}:{n}: in {owner}")
        return hits
    return check


def defined_outside(pattern: str, path: str, owner: str) -> Check:
    """Lines of ``path`` matching ``pattern`` whose top-level class is
    not ``owner``."""
    regex = re.compile(pattern, re.MULTILINE)

    def check(tree: Tree) -> List[str]:
        hits = []
        for found in tree.py_files([path]):
            text = tree.text(found)
            for n, _ in _matching_lines(regex, text):
                cls = enclosing(text.split("\n"), n - 1, TOP_CLASS)
                if cls != owner:
                    hits.append(f"{found}:{n}: in {cls}")
        return hits
    return check


def occurs_more_than(pattern: str, path: str, limit: int) -> Check:
    """``path`` when it holds more than ``limit`` matches of ``pattern``."""
    regex = re.compile(pattern)

    def check(tree: Tree) -> List[str]:
        if not (tree.root / path).is_file():
            return []
        count = len(regex.findall(tree.text(path)))
        return [f"{path}: {count} x {pattern}"] if count > limit else []
    return check


@dataclass(frozen=True)
class Plant:
    """A snippet planted in a scratch copy, and the verdict it must get.

    The snippet goes in before the first line of ``path`` that
    ``before`` finds, at that line's indent; with no ``before`` it is
    appended (a missing file is created).
    """

    id: str
    path: str
    snippet: str
    before: Optional[str] = None
    fails: bool = True


@dataclass(frozen=True)
class Rule:
    """One architecture rule: its name, its checks (a tree fails the
    rule when any check lists a line), the error to show, and the
    snippets planted to test it."""

    name: str
    checks: Tuple[Check, ...]
    error: str
    plants: Tuple[Plant, ...]

    def violations(self, tree: Tree) -> List[str]:
        return [hit for check in self.checks for hit in check(tree)]


PLANTED = "src/repro/planted.py"

RULES = (
    Rule(
        "Transport state is private to the network model",
        (grep(r"_chan_cache|_port_free|_in_port_free|_refill_factors|_bitgen|"
              r"_stream_rng|_src_pools|_channel_seed|_draw_block|_open_chunk|"
              r"_OPEN_CHUNK|_block_factors|_absorb_words|_seed_positions|"
              r"_pcg64_set_seq|_mulhi64|_pack_position|_read_position|"
              r"_position_view|\b_position\b|_hi_first|_PROBE_STATE|"
              r"_output_words|_rank_word_error", SRC, exempt={NETWORK: ""}),),
        "only simmpi/network.py may touch the network model's channel, port "
        "and jitter state; call NetworkModel.draw / route instead",
        (Plant("transport-state", PLANTED, "cache = model._chan_cache"),
         Plant("transport-state-in-text-file", "src/repro/notes.txt",
               "model._port_free"),
         Plant("transport-state-in-network", NETWORK,
               "cache = model._chan_cache", fails=False)),
    ),
    Rule(
        "Message queues are private to the message fabric",
        (grep(r"\bfabric\._|\bp2p\.(Envelope|RecvPost)\b|"
              r"\bimport\b.*\b(Envelope|RecvPost)\b|"
              r"^\s*(Envelope|RecvPost),?\s*(#.*)?$", SRC, exempt={P2P: ""}),),
        "only simmpi/p2p.py may queue, match or complete point-to-point "
        "messages; post through MessageFabric.post_send / post_recv / "
        "post_probe / peek instead of touching fabric._* or building "
        "Envelope / RecvPost objects",
        (Plant("fabric-private", PLANTED, "queue = fabric._sends"),
         Plant("envelope-in-import-list", PLANTED,
               "from repro.simmpi.p2p import (\n    Envelope,\n)"),
         Plant("envelope-in-p2p", P2P, "env = p2p.Envelope(0, 1)",
               fails=False)),
    ),
    Rule(
        "Raw bit-generator memory is written only by the network model",
        (grep(r"\bctypes\b", SRC, exempt={NETWORK: ""}),
         grep(r"\.state = \{", NETWORK)),
        "only simmpi/network.py may use ctypes (its view of the PCG64 stream "
        "position), and it writes channel positions through that view, never "
        "through a bit generator state dict",
        (Plant("ctypes", PLANTED, "import ctypes"),
         Plant("ctypes-in-network", NETWORK, "import ctypes", fails=False),
         Plant("state-dict-in-network", NETWORK,
               "bitgen.state = {'state': state}")),
    ),
    Rule(
        "Stores verify stored bytes, never re-serialised payloads",
        (grep(r"_payload_checksum|_record_checksum", SRC),),
        "run cache and registry verify the stored payload bytes through "
        "repro.harness.cache.read_envelope; do not re-serialise payloads to "
        "checksum them",
        (Plant("payload-checksum", PLANTED,
               "digest = _payload_checksum(payload)"),),
    ),
    Rule(
        "One allreduce replay, owned by the collective gate",
        (grep(r"lean_g_Allreduce|_allreduce_plan|_emulate_allreduce", SRC),),
        "world allreduce is resolved by the collective gate "
        "(coll_analytic._flat_allreduce or _Replay); do not add a second "
        "allreduce replay",
        (Plant("second-allreduce", PLANTED,
               "def _emulate_allreduce(engine):\n    pass"),),
    ),
    Rule(
        "One fast-path admission rule, owned by the engine",
        (used_outside(r"has_lifecycle_faults", SRC,
                      allowed=[(ENGINE, "admits_fast_paths")]),
         grep(r"\.wants\(|\._faults\b|engine\.faults\b",
              COLL_ANALYTIC, LULESH, CONVOLUTION)),
        "every fast path that skips work (the collective gate's replay, the "
        "LULESH and convolution timing skeletons) is admitted by one rule, "
        "_EngineBase.admits_fast_paths (no hang or crash fault, no tool "
        "hooking on_send / on_recv); do not test has_lifecycle_faults "
        "anywhere else, or read faults or ask tools.wants() in "
        "coll_analytic.py, workloads/lulesh.py or workloads/convolution.py",
        (Plant("lifecycle-faults", PLANTED,
               "def admit(faults):\n    return faults.has_lifecycle_faults"),
         Plant("lifecycle-faults-elsewhere-in-engine", ENGINE,
               "def _admit(self):\n"
               "    return self.faults.has_lifecycle_faults",
               before=r"^    def _abort\("),
         Plant("lifecycle-faults-in-admits-fast-paths", ENGINE,
               "assert faults is None or faults.has_lifecycle_faults in "
               "(True, False)",
               before=r"faults\.has_lifecycle_faults:", fails=False),
         Plant("lifecycle-faults-in-text-file", "src/repro/notes.md",
               "faults.has_lifecycle_faults", fails=False),
         Plant("tools-wants-in-lulesh", LULESH,
               "hooked = engine.tools.wants('on_send')")),
    ),
    Rule(
        "Finished runs are freed by reference counting, not forced collection",
        (grep(r"gc\.(collect|disable)\(", SRC),),
        "a finished run detaches its object graph (_EngineBase._release) so "
        "reference counting frees it; do not call gc.collect() or "
        "gc.disable() in the library",
        (Plant("gc-collect", PLANTED, "import gc\ngc.collect()"),),
    ),
    Rule(
        "One sweep point loop, owned by parallel.sweep_points",
        (grep(r"def map_points\(", SRC),
         grep(r"map_points_failsoft\(", SRC, exempt={PARALLEL: ""})),
        "every sweep runs its points through "
        "repro.harness.parallel.sweep_points; do not call "
        "map_points_failsoft from another module or bring back a fail-fast "
        "map_points",
        (Plant("map-points", PLANTED,
               "def map_points(worker, points):\n    pass"),
         Plant("map-points-failsoft", PLANTED,
               "done = map_points_failsoft(worker, points)"),
         Plant("map-points-failsoft-in-parallel", PARALLEL,
               "done = map_points_failsoft(worker, points)", fails=False)),
    ),
    Rule(
        "One physics scope, owned by parallel.sweep_points",
        (grep(r"PHYSICS_MEMO|PhysicsMemo", SRC),
         grep(r"physics_scope\(", SRC,
              exempt={PARALLEL: "", PHYSICS_SCOPE: r"def physics_scope\("}),
         grep(r"\b_SCOPE\b", SRC, exempt={PHYSICS_SCOPE: ""})),
        "workload physics is memoised for one sweep only: "
        "repro.harness.parallel.sweep_points opens the one physics_scope, and "
        "drivers read and fill it through physics_scope.recall / remember; do "
        "not open a scope anywhere else or bring back a process-wide "
        "PHYSICS_MEMO / PhysicsMemo",
        (Plant("physics-memo", PLANTED, "PHYSICS_MEMO = {}"),
         Plant("physics-scope-opened", PLANTED,
               "with physics_scope():\n    pass"),
         Plant("physics-scope-in-parallel", PARALLEL,
               "with physics_scope():\n    pass", fails=False),
         Plant("physics-scope-defined", PHYSICS_SCOPE,
               "def physics_scope():\n    pass", fails=False),
         Plant("physics-scope-method-in-physics-scope", PHYSICS_SCOPE,
               "class Scope:\n    def physics_scope(self):\n        pass"),
         Plant("scope-variable", PLANTED, "entry = _SCOPE.get()"),
         Plant("scope-variable-in-physics-scope", PHYSICS_SCOPE,
               "entry = _SCOPE.get()", fails=False)),
    ),
    Rule(
        "One event loop and one ready-heap pop rule",
        (defined_outside(r"^ *def _loop[(]", ENGINE, "_EngineBase"),
         grep(r"pop_ready_progs|\bis_ready\b|\bclock_of\b", SRC)),
        "both engines run _EngineBase._loop and supply only how one rank runs "
        "(_runner); every scheduler pops through ReadyHeap.pop_ready with its "
        "program records, not through is_ready / clock_of closures or a "
        "second pop method",
        (Plant("second-loop", ENGINE,
               "class _Other:\n    def _loop(self):\n        pass"),
         Plant("loop-in-engine-base", ENGINE, "def _loop(self):\n    pass",
               before=r"^    def _loop\(", fails=False),
         Plant("is-ready-closure", PLANTED, "def is_ready(prog):\n    pass")),
    ),
    Rule(
        "One macro-step wrapper set, and only its fused sendrecv posts",
        (grep(r"_install_observers|_install_lean|_OBS_NAMES|_LEAN_NAMES|"
              r"lean_Isend|lean_isend|lean_Irecv|lean_irecv", SRC),
         occurs_more_than(r"\bpost_send\(", MACROSTEP, 1),
         occurs_more_than(r"\bpost_recv\(", MACROSTEP, 1)),
        "macro-step binds one wrapper set per tracked rank (macrostep._bind) "
        "that guards each call and runs the interpreted Communicator method; "
        "only its fused g_Sendrecv posts to the fabric itself, so do not "
        "bring back per-phase observer / lean bindings or hand-copied p2p "
        "posts",
        (Plant("lean-binding", PLANTED, "_LEAN_NAMES = ()"),
         Plant("second-post-send", MACROSTEP,
               "fabric.post_send(ctx, key, dst, tag, buf, nbytes, pooled)"),
         Plant("second-post-recv", MACROSTEP,
               "fabric.post_recv(ctx, key, src, tag, buf, req)")),
    ),
    Rule(
        "One job body and one terminal settle for both worker modes",
        (used_outside(r"execute_job[(]", SERVICE,
                      allowed=[(SCHEDULER, "run_job")]),
         used_outside(r"make_record[(]", SERVICE,
                      allowed=[(REGISTRY, None), (SCHEDULER, "settle")])),
        "both worker modes run a job through scheduler.run_job and end it "
        "through _JobRunner.settle; do not call execute_job or build a "
        "registry record anywhere else in repro.service",
        (Plant("execute-job", "src/repro/service/planted.py",
               "def run(spec):\n    return execute_job(spec)"),
         Plant("execute-job-in-run-job", SCHEDULER,
               "result = execute_job(spec)", before=r"result = execute_job\(",
               fails=False),
         Plant("make-record", "src/repro/service/planted.py",
               "def end(job):\n    return ExperimentRegistry.make_record(job)"),
         Plant("make-record-in-settle", SCHEDULER,
               "record = ExperimentRegistry.make_record(job)",
               before=r"record = ExperimentRegistry\.make_record\(",
               fails=False),
         Plant("make-record-in-registry", REGISTRY,
               "_record = make_record(None)", fails=False)),
    ),
    Rule(
        "One class and one driver per paper workload",
        (grep(r"workloads\.reference|^\s*class \w+Benchmark\b|"
              r"^\s*def run_lulesh\b", SRC),
         grep(r"\b(" + "|".join(OLD_WORKLOAD_CLASSES) + r")\b",
              "tests", "benchmarks", "examples", "docs")),
        "each paper workload is one registered plugin class in its own module "
        "(ConvolutionWorkload, LuleshWorkload, LBMWorkload) whose run is its "
        "one driver; do not bring back workloads/reference.py, a hand-wired "
        "*Benchmark class or run_lulesh, or call them from tests, benchmarks, "
        "examples or docs",
        (Plant("reference-module", PLANTED,
               "from repro.workloads.reference import LBMWorkload"),
         Plant("benchmark-class", PLANTED,
               "class PlantedBenchmark:\n    pass"),
         Plant("run-lulesh", PLANTED, "def run_lulesh(config):\n    pass"),
         Plant("old-class-in-tests", "tests/planted.py",
               "from repro.workloads import " + OLD_WORKLOAD_CLASSES[0]),
         Plant("old-class-in-docs", "docs/planted.md",
               "Run `" + OLD_WORKLOAD_CLASSES[1] + ".run()`."),
         Plant("old-class-in-benchmarks", "benchmarks/planted.json",
               '{"workload": "' + OLD_WORKLOAD_CLASSES[2] + '"}')),
    ),
    Rule(
        "Frozen dataclasses are set only by their own __post_init__",
        (used_outside(r"\bobject\.__setattr__\(", SRC,
                      allowed=[(None, "__post_init__")]),),
        "a frozen dataclass is changed through dataclasses.replace, which "
        "runs its __post_init__ checks again; only a __post_init__ may set a "
        "field with object.__setattr__",
        (Plant("setattr-on-frozen", PLANTED,
               "def configure(sweep):\n"
               "    object.__setattr__(sweep, 'reps', 0)"),
         Plant("setattr-in-post-init", PLANTED,
               "class Spec:\n    def __post_init__(self):\n"
               "        object.__setattr__(self, 'reps', 1)", fails=False)),
    ),
)

PLANTS = [(rule, plant) for rule in RULES for plant in rule.plants]

#: The top-level paths the rules scan; the scratch copy holds these.
SCANNED = ("src", "tests", "benchmarks", "examples", "docs")


@contextmanager
def planted(root: Path, plant: Plant) -> Iterator[None]:
    """``plant`` written into the tree at ``root``, removed on exit."""
    target = root / plant.path
    original = target.read_bytes() if target.exists() else None
    text = "" if original is None else original.decode()
    if plant.before is None:
        text += plant.snippet + "\n"
    else:
        lines = text.split("\n")
        anchor = re.compile(plant.before)
        at = next(i for i, line in enumerate(lines) if anchor.search(line))
        indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
        lines[at:at] = [indent + line for line in plant.snippet.split("\n")]
        text = "\n".join(lines)
    target.write_text(text)
    try:
        yield
    finally:
        if original is None:
            target.unlink()
        else:
            target.write_bytes(original)


@pytest.fixture(scope="module")
def scratch_copy(tmp_path_factory) -> Path:
    """The scanned part of the repository, copied once per module."""
    root = tmp_path_factory.mktemp("tree")
    for top in SCANNED:
        shutil.copytree(REPO / top, root / top,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_holds_on_the_repository(rule):
    hits = rule.violations(Tree(REPO))
    assert not hits, rule.error + "\n" + "\n".join(hits)


@pytest.mark.parametrize("rule, plant", PLANTS,
                         ids=[plant.id for _, plant in PLANTS])
def test_planted_snippet(rule, plant, scratch_copy):
    with planted(scratch_copy, plant):
        hits = rule.violations(Tree(scratch_copy))
    assert bool(hits) == plant.fails, hits


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_fails_one_of_its_plants(rule):
    assert any(plant.fails for plant in rule.plants)


def test_macrostep_posts_are_counted_as_occurrences(tmp_path):
    """Two posts on one line are two posts."""
    target = tmp_path / MACROSTEP
    target.parent.mkdir(parents=True)
    target.write_text("post_send(a); post_send(b)\n")
    rule = next(r for r in RULES if r.name.startswith("One macro-step"))
    assert rule.violations(Tree(tmp_path))


def test_enclosing_names_the_nearest_def_or_class():
    lines = [
        "class _EngineBase:",
        "    def _loop(self):",
        "        pass",
        "    class Inner:",
        "        x = 1",
        "def helper():",
        "    y = 2",
    ]
    assert enclosing(lines, 0) is None
    assert enclosing(lines, 2) == "_loop"
    assert enclosing(lines, 4) == "Inner"
    assert enclosing(lines, 6) == "helper"
    assert enclosing(lines, 4, TOP_CLASS) == "_EngineBase"
