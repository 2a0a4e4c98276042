"""Every example script must at least parse and import cleanly.

Full example runs are exercised manually / in documentation; here we
guard against bit-rot (renamed APIs, typos) cheaply by compiling each
file and resolving every name it imports from ``repro`` -- in the
examples and in the benchmark scripts -- without running the scripts.
"""

import ast
import importlib
import pathlib
import py_compile

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").rglob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"),
                       doraise=True)


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # deliverable (b): at least three


def _unresolved(paths):
    """``file:line: module.name`` for every ``from repro... import
    name`` in *paths* that does not resolve."""
    missing = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "repro"):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            try:
                module = importlib.import_module(node.module)
            except ImportError as exc:
                missing.append(f"{where}: {node.module} ({exc})")
                continue
            for alias in node.names:
                if alias.name == "*" or hasattr(module, alias.name):
                    continue
                try:  # a submodule not yet imported
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    missing.append(f"{where}: {node.module}.{alias.name}")
    return missing


def test_example_imports_resolve():
    missing = _unresolved(EXAMPLES)
    assert not missing, "unresolved imports:\n" + "\n".join(missing)


def test_benchmark_imports_resolve():
    missing = _unresolved(BENCHMARKS)
    assert BENCHMARKS
    assert not missing, "unresolved imports:\n" + "\n".join(missing)
