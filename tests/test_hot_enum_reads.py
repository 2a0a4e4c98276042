"""No function on the per-event path reads an Enum member off its class.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so every
read of a member through its class (``FrameKind.TASK``,
``TaskState.RUNNING``) goes through CPython's slow attribute hook.
With ``timeit`` on a shared 2-vCPU Xeon, such a read took 104-177 ns on
3.11, five times a plain class attribute (20-41 ns) and more than ten
times a module global (7-18 ns); 3.12 dropped the hook.  The frame
stack and the kernel's op loop run on every simulated event, and one
1000-sample fig6 run made about 100,000 such reads, five per compute
segment.  So the CPU and APIC modules and every module under
``repro/kernel/`` bind each member their functions compare against to
a private module constant (``_TASK = FrameKind.TASK``) and read that.

The test parses every function body in those modules (methods, nested
functions and lambdas included), resolves each ``Name.attr`` against
the imported module's globals, and fails, naming ``file:line``, when
``Name`` is an Enum class and ``attr`` one of its members.  Default
values, decorators and class bodies at module or class level run once,
so they are not walked.
"""

import ast
import enum
import importlib
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
HOT = (SRC / "repro/hw/cpu.py", SRC / "repro/hw/apic.py",
       *sorted((SRC / "repro/kernel").rglob("*.py")))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_globals(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return vars(importlib.import_module(".".join(parts)))


def _member_reads(tree, namespace):
    """``(line, "Class.MEMBER")`` for each Enum member read in a
    function body of *tree*, with names resolved in *namespace*."""
    reads = []
    for func in ast.walk(tree):
        if not isinstance(func, _FUNCTIONS):
            continue
        body = [func.body] if isinstance(func, ast.Lambda) else func.body
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, _FUNCTIONS):
                # Walked as a body of its own; its defaults and
                # decorators run each time this body does.
                stack.extend(node.args.defaults)
                stack.extend(d for d in node.args.kw_defaults if d)
                stack.extend(getattr(node, "decorator_list", ()))
                continue
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                owner = namespace.get(node.value.id)
                if (isinstance(owner, enum.EnumMeta)
                        and node.attr in owner.__members__):
                    reads.append((node.lineno,
                                  f"{node.value.id}.{node.attr}"))
            stack.extend(ast.iter_child_nodes(node))
    return sorted(reads)


def test_no_enum_member_read_on_the_per_event_path():
    found = []
    for path in HOT:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, read in _member_reads(tree, _module_globals(path)):
            found.append(
                f"{path.relative_to(ROOT).as_posix()}:{line}: {read}")
    assert not found, (
        "Enum members read through their class inside a function (bind "
        "each to a module constant, e.g. _TASK = FrameKind.TASK, and read "
        "that):\n" + "\n".join(found))


def test_the_walk_sees_every_kind_of_body():
    source = '''
class Holder:
    default_kind = Kind.A              # class body: runs once

    def method(self, kind=Kind.A):     # default: runs once
        inner = lambda: Kind.B         # lambda body
        def nested(k=Kind.C):          # default of a nested def
            return Kind.D              # nested body
        return self.kind is Kind.E and Kind.describe

def plain():
    return Other.A
'''

    class Kind(enum.Enum):
        A, B, C, D, E = range(5)

        def describe(self):
            return self.name

    class Other:
        A = 0

    reads = _member_reads(ast.parse(source),
                          {"Kind": Kind, "Other": Other})
    assert reads == [(6, "Kind.B"), (7, "Kind.C"), (8, "Kind.D"),
                     (9, "Kind.E")]
