"""The determinism rules: one AST visitor per failure class.

Every rule is a :class:`Rule` subclass with a stable kebab-case
``name`` (the key used by ``# lint: ok(name)`` comments and the
:data:`ALLOW` table), an ``applies_to`` path filter, and a ``check``
that yields :class:`~repro.analysis.lint.engine.Finding` tuples.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.lint.engine import Finding

#: Per-rule path allowlists: rule name -> path suffixes (POSIX-style)
#: that the rule never fires in.  ``repro/sim/rng.py`` *is* the
#: sanctioned randomness layer, so the RNG rule cannot apply to it.
ALLOW = {
    "global-random": ("repro/sim/rng.py",),
}

#: NumPy global-state draws (``np.random.<fn>``).  Constructors like
#: ``np.random.Generator``/``SeedSequence``/``default_rng`` are the
#: sanctioned seeded API and stay legal.
GLOBAL_NP_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "exponential", "lognormal", "poisson", "binomial", "bytes",
})

#: Directories whose dataclasses sit on the event-loop hot path.
HOT_DIRS = ("repro/sim/", "repro/kernel/")

#: Layers whose event and frame labels must be static strings.
TRACED_DIRS = ("repro/sim/", "repro/kernel/", "repro/hw/")


def _in_dirs(path: str, dirs: Sequence[str]) -> bool:
    posix = path.replace("\\", "/")
    return any(d in posix for d in dirs)


class Rule:
    """One lint rule."""

    name = "?"

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(path=path, line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0),
                       rule=self.name, message=message)


class WallClockRule(Rule):
    """No wall-clock time sources: simulated time only."""

    name = "wall-clock"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("time", "datetime"):
                        yield self.finding(
                            path, node,
                            f"import of wall-clock module "
                            f"{alias.name!r}; use repro.sim.simtime "
                            f"and the simulator clock")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ("time", "datetime") and node.level == 0:
                    yield self.finding(
                        path, node,
                        f"import from wall-clock module "
                        f"{node.module!r}; use repro.sim.simtime "
                        f"and the simulator clock")


class GlobalRandomRule(Rule):
    """No global RNG state: named repro.sim.rng substreams only."""

    name = "global-random"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            path, node,
                            "import of the global 'random' module; "
                            "draw from a named repro.sim.rng stream")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    continue
                if (module.split(".")[0] == "random"
                        or module == "numpy.random"):
                    yield self.finding(
                        path, node,
                        f"import from global RNG module {module!r}; "
                        f"draw from a named repro.sim.rng stream")
            elif isinstance(node, ast.Attribute):
                # np.random.<fn> / numpy.random.<fn> global draws.
                value = node.value
                if (node.attr in GLOBAL_NP_RANDOM
                        and isinstance(value, ast.Attribute)
                        and value.attr == "random"
                        and isinstance(value.value, ast.Name)
                        and value.value.id in ("np", "numpy")):
                    yield self.finding(
                        path, node,
                        f"NumPy global random state "
                        f"({value.value.id}.random.{node.attr}); "
                        f"draw from a named repro.sim.rng stream")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class UnorderedIterRule(Rule):
    """No iteration over set expressions: hash-seed-dependent order."""

    name = "unordered-iter"

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield self.finding(
                        path, it,
                        "iterating a set expression: order depends on "
                        "the hash seed and can feed event scheduling; "
                        "wrap it in sorted(...)")


class NoSlotsDataclassRule(Rule):
    """Hot-path dataclasses must declare ``slots=True``."""

    name = "no-slots-dataclass"

    def applies_to(self, path: str) -> bool:
        return _in_dirs(path, HOT_DIRS)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                if isinstance(deco, ast.Name) and deco.id == "dataclass":
                    yield self.finding(
                        path, node,
                        f"dataclass {node.name} in a hot module "
                        f"without slots=True")
                elif (isinstance(deco, ast.Call)
                      and isinstance(deco.func, ast.Name)
                      and deco.func.id == "dataclass"):
                    has_slots = any(
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords)
                    if not has_slots:
                        yield self.finding(
                            path, node,
                            f"dataclass {node.name} in a hot module "
                            f"without slots=True")


class UngatedLabelRule(Rule):
    """Event and frame labels must be static strings.

    ``label=f"..."`` builds a string on every call in the hot loop.
    Use a static label: the names a trace needs (task, irq, lock,
    syscall) already ride on the typed tracepoints (``sim.tp``).  Only
    a bare f-string is flagged; a conditional expression is not.
    """

    name = "ungated-label"

    def applies_to(self, path: str) -> bool:
        return _in_dirs(path, TRACED_DIRS)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "label" and isinstance(kw.value,
                                                    ast.JoinedStr):
                    yield self.finding(
                        path, kw.value,
                        "f-string label on a hot path; use a static "
                        "label (typed tracepoints carry the names)")


#: Critical-section openers and their matching closers.
_SECTION_PAIRS = {"Acquire": "Release", "SemDown": "SemUp"}
_SECTION_OPS = frozenset(_SECTION_PAIRS) | frozenset(_SECTION_PAIRS.values())


class PairedAcquireReleaseRule(Rule):
    """Op-program ``Acquire``/``SemDown`` must pair with a
    ``Release``/``SemUp`` on the same lock in the same function.

    An unmatched ``op.Acquire`` in a workload or driver op program is
    a leaked critical section: the simulated task keeps the spinlock
    (and its raised preempt count) forever, which lockdep reports only
    at runtime and only on the paths a given seed happens to walk.
    This rule catches the imbalance statically, per function body and
    per lock expression (``kernel.locks.bkl`` pairs with
    ``kernel.locks.bkl``, counted textually).  Deliberately unpaired
    sites -- e.g. a helper that opens a section its caller closes --
    carry an explicit ``# lint: ok(paired-acquire-release)`` escape.
    """

    name = "paired-acquire-release"

    def applies_to(self, path: str) -> bool:
        return _in_dirs(path, ("repro/kernel/", "repro/workloads/"))

    @staticmethod
    def _op_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return ""

    def _scan_body(self, body: List[ast.stmt], path: str
                   ) -> Iterator[Finding]:
        """Count openers/closers per lock key in one function body,
        without descending into nested function definitions (those
        are balanced -- or escaped -- on their own)."""
        opens: dict = {}
        closes: dict = {}
        nested: List[ast.stmt] = []
        todo: List[ast.AST] = list(body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                nested.append(node)
                continue
            todo.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            name = self._op_name(node)
            if name not in _SECTION_OPS or not node.args:
                continue
            key = ast.unparse(node.args[0])
            if name in _SECTION_PAIRS:
                opens.setdefault((name, key), []).append(node)
            else:
                opener = next(k for k, v in _SECTION_PAIRS.items()
                              if v == name)
                closes.setdefault((opener, key), []).append(node)
        for (name, key), sites in sorted(
                opens.items(), key=lambda kv: kv[1][0].lineno):
            missing = len(sites) - len(closes.get((name, key), []))
            for site in sites[:max(0, missing)]:
                yield self.finding(
                    path, site,
                    f"{name}({key}) has no matching "
                    f"{_SECTION_PAIRS[name]} in this function; a "
                    "leaked critical section pins the preempt count "
                    "forever (pair it, or mark a split-phase section "
                    "with '# lint: ok(paired-acquire-release)')")
        for (name, key), sites in sorted(
                closes.items(), key=lambda kv: kv[1][0].lineno):
            extra = len(sites) - len(opens.get((name, key), []))
            for site in sites[:max(0, extra)]:
                yield self.finding(
                    path, site,
                    f"{_SECTION_PAIRS[name]}({key}) without a "
                    f"matching {name} in this function (releasing a "
                    "lock this path never took underflows the "
                    "preempt count)")
        for node in nested:
            inner = getattr(node, "body", None)
            if isinstance(inner, list):
                yield from self._scan_body(inner, path)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in tree.body if isinstance(tree, ast.Module) else []:
            todo = [node]
            while todo:
                n = todo.pop()
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._scan_body(n.body, path)
                    continue
                todo.extend(ast.iter_child_nodes(n))


ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRandomRule(),
    UnorderedIterRule(),
    NoSlotsDataclassRule(),
    UngatedLabelRule(),
    PairedAcquireReleaseRule(),
)
