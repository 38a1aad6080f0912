"""Determinism rules (DT).

The reproduction's equivalence claims — serial == parallel, calendar ==
scan, table == model, and the golden corpus across builds — require
bit-identical runs from identical seeds.  These rules keep the classic nondeterminism sources out
of the decision paths:

* ``DT001`` — unseeded global RNG calls (``random.random()``,
  ``np.random.rand()``): state is shared process-wide, so any consumer
  ordering change silently changes every stream.
* ``DT002`` — iteration over a ``set``/``frozenset`` without ``sorted``:
  set order follows hash seeds and object addresses, which vary between
  processes (this is why ``ActiveSet.snapshot`` sorts).
* ``DT003`` — ``id()`` as an ordering key: addresses differ run to run.
* ``DT004`` — wall-clock reads outside the CLI/bench/report layer: time
  must never leak into simulated state.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.framework import Finding, Project, Rule, SourceFile

#: ``random`` module functions that draw from the shared global state.
GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: Legacy ``numpy.random`` module-level functions (global RandomState).
GLOBAL_NP_RANDOM_FNS = frozenset({
    "choice", "normal", "permutation", "poisson", "rand", "randint",
    "randn", "random", "random_sample", "seed", "shuffle", "uniform",
})

#: ``time`` module wall/CPU-clock reads.
CLOCK_FNS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "time", "time_ns",
})

#: ``datetime``/``date`` constructors that read the clock.
DATETIME_FNS = frozenset({"now", "today", "utcnow"})

#: Layers allowed to read the clock: user-facing entry points and the
#: benchmark/report tooling, which measure wall time on purpose.  The
#: phase profiler measures wall time too but takes its clock as an
#: injected callable, so only its *callers* (CLI/bench) touch ``time``.
WALL_CLOCK_ALLOWED = (
    "repro/cli.py",
    "repro/__main__.py",
    "repro/perfbench.py",
    "repro/experiments/report.py",
)

#: Packages whose iteration order feeds simulated decisions.
DETERMINISTIC_LAYERS = (
    "repro/network/",
    "repro/engine/",
    "repro/core/",
    "repro/reliability/",
    "repro/traffic/",
)


def _is_module_attr_call(node: ast.Call, module: str,
                         names: frozenset[str]) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute)
            and func.attr in names
            and isinstance(func.value, ast.Name)
            and func.value.id == module)


class UnseededRandomRule(Rule):
    """DT001: a call to the process-global RNG."""

    rule_id = "DT001"
    name = "unseeded-global-random"
    description = ("calls to ``random.*``/legacy ``numpy.random.*`` "
                   "module functions share unseeded process-global state")
    hint = ("draw from a seeded instance: random.Random(seed) or "
            "numpy.random.default_rng(seed)")

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_module_attr_call(node, "random", GLOBAL_RANDOM_FNS):
                yield self.finding(
                    src.rel, node,
                    f"global random.{node.func.attr}() call "  # type: ignore[union-attr]
                    "(shared unseeded RNG state)",
                )
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in GLOBAL_NP_RANDOM_FNS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "random"
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id in ("np", "numpy")):
                yield self.finding(
                    src.rel, node,
                    f"legacy numpy.random.{func.attr}() call "
                    "(global RandomState)",
                )


class _SetTypeIndex:
    """Names/attributes statically known to hold a ``set``.

    Three sources: annotations (``x: set[...]``), direct construction
    (``x = set(...)`` / ``{a, b}`` / set comprehensions), and dataclass
    or class-level attribute annotations.  Tracking is per enclosing
    function for locals and project-file-wide for ``self.<attr>``.
    """

    def __init__(self, tree: ast.AST):
        self.set_attrs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and \
                    self._is_set_annotation(node.annotation):
                target = node.target
                if isinstance(target, ast.Attribute):
                    self.set_attrs.add(target.attr)
                elif isinstance(target, ast.Name):
                    self.set_attrs.add(target.id)
            elif isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self.set_attrs.add(target.attr)

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            text = annotation.value
            return text.startswith(("set[", "frozenset[")) or \
                text in ("set", "frozenset")
        return isinstance(annotation, ast.Name) and \
            annotation.id in ("set", "frozenset")


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class UnsortedSetIterationRule(Rule):
    """DT002: iterating a set without an ordering wrapper."""

    rule_id = "DT002"
    name = "unsorted-set-iteration"
    description = ("iteration order of a set depends on hashes and object "
                   "addresses; decision paths must iterate sorted views")
    hint = "iterate sorted(the_set) or sorted(..., key=<stable key>)"

    def scope(self, rel: str) -> bool:
        return rel.removeprefix("src/").startswith(DETERMINISTIC_LAYERS)

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        index = _SetTypeIndex(src.tree)
        for scope_node in ast.walk(src.tree):
            if not isinstance(scope_node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                continue
            local_sets = self._local_sets(scope_node)
            for node in ast.walk(scope_node):
                iters: list[ast.expr] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for candidate in iters:
                    if self._is_raw_set(candidate, local_sets, index):
                        yield self.finding(
                            src.rel, candidate,
                            "iteration over a set without sorted() — order "
                            "is not deterministic across processes",
                        )

    @staticmethod
    def _local_sets(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name) and \
                    _SetTypeIndex._is_set_annotation(node.annotation):
                names.add(node.target.id)
        return names

    @staticmethod
    def _is_raw_set(node: ast.expr, local_sets: set[str],
                    index: _SetTypeIndex) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute):
            return node.attr in index.set_attrs
        return False


class IdOrderingRule(Rule):
    """DT003: ``id()`` used as an ordering key."""

    rule_id = "DT003"
    name = "id-based-ordering"
    description = ("object addresses differ between runs; ordering by "
                   "``id()`` is nondeterministic even with equal seeds")
    hint = "sort by a stable domain key (link_id, router_id, packet_id, ...)"

    _ORDERING_FNS = ("sorted", "min", "max")

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_ordering = (
                (isinstance(func, ast.Name)
                 and func.id in self._ORDERING_FNS)
                or (isinstance(func, ast.Attribute) and func.attr == "sort")
            )
            if not is_ordering:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and self._is_id_key(keyword.value):
                    yield self.finding(
                        src.rel, keyword.value,
                        "ordering keyed on id() (object addresses)",
                    )

    @staticmethod
    def _is_id_key(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        if isinstance(node, ast.Lambda):
            body = node.body
            return (isinstance(body, ast.Call)
                    and isinstance(body.func, ast.Name)
                    and body.func.id == "id")
        return False


class WallClockRule(Rule):
    """DT004: clock reads outside the CLI/bench/report layer."""

    rule_id = "DT004"
    name = "wall-clock-read"
    description = ("time.*/datetime.now reads outside the CLI and "
                   "bench/report layers leak wall time into runs")
    hint = ("move the read to the CLI/bench layer, inject a clock "
            "callable, or suppress with a justification")

    def scope(self, rel: str) -> bool:
        normalised = rel.removeprefix("src/")
        return not normalised.startswith(WALL_CLOCK_ALLOWED)

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_module_attr_call(node, "time", CLOCK_FNS):
                yield self.finding(
                    src.rel, node,
                    f"wall-clock read time.{node.func.attr}() outside the "  # type: ignore[union-attr]
                    "CLI/bench layer",
                )
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in DATETIME_FNS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("date", "datetime")):
                yield self.finding(
                    src.rel, node,
                    f"wall-clock read {func.value.id}.{func.attr}() outside "
                    "the CLI/bench layer",
                )

    # Clock *references* (e.g. an injectable default argument) are fine:
    # only calls are flagged, so ``clock=time.perf_counter`` passes while
    # ``t0 = time.perf_counter()`` inside the engine does not.
