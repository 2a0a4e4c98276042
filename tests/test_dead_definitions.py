"""Every function and class defined under ``src/`` has a user.

A definition is dead when its name appears nowhere in ``src/``,
``examples/``, ``benchmarks/`` or ``perfbench/`` except in its own
``def`` / ``class`` line.  Names are counted once over the whole text
of those trees, strings and comments included, so a name looked up
with ``getattr`` or wrapped by name in perfbench counts as a use; a
name shared by two definitions keeps both alive.

Exempt are dunders, ``visit_*`` methods (called by ``ast.NodeVisitor``
through the node's class name) and builders registered by decorator
(looked up through the registry by string).  ``TEST_SEAMS`` names the
definitions that only the tests use and that stay on purpose, each
with its reason.
"""

import ast
import collections
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
SCANNED = ("src", "examples", "benchmarks", "perfbench")
REGISTRY_DECORATORS = {"register_load", "register_measurement"}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: ``<path under src>::<qualified name>`` -> why the tests need it.
TEST_SEAMS = {
    "repro/analysis/bounds/crosscheck.py::CrosscheckReport.raise_if_failed":
        "assertion form of a crosscheck report; the bound tests call it",
    "repro/configs/calibration.py::all_keys":
        "the calibration completeness tests enumerate the table with it",
    "repro/core/affinity.py::CpuMask.intersects":
        "part of the mask set algebra the affinity tests cover",
    "repro/core/shield.py::ShieldState.shields_anything":
        "shield state query the shield tests assert on",
    "repro/experiments/campaign.py::CampaignResult.results_for":
        "per-scenario view of a campaign the campaign tests read",
    "repro/hw/devices/nic.py::EthernetNic.remove_flow":
        "counterpart of add_flow; the device tests cover it",
    "repro/hw/devices/rtc.py::RtcDevice.disable_periodic":
        "counterpart of enable_periodic; the device tests cover it",
    "repro/hw/memory.py::MemoryBus.current_level":
        "exposes bus occupancy to the contention tests",
    "repro/kernel/irqflow/timer_tick.py::LocalTimer.is_enabled":
        "local-timer state query the shield and harness tests assert on",
    "repro/kernel/kernel.py::Kernel.runnable_summary":
        "scheduler snapshot the kernel tests assert on",
    "repro/kernel/sched/o1.py::PrioArray.peek_best_prio":
        "O(1) bitmap query the scheduler tests check",
    "repro/kernel/timing.py::Scaled":
        "Dist combinator whose sampling and bound the timing tests check",
    "repro/kernel/timing.py::TimingModel.dist":
        "table lookup the kernel-config tests read distributions through",
    "repro/metrics/recorder.py::LatencyRecorder.count_in":
        "range count the recorder tests check",
    "repro/observe/tracepoints.py::Tracepoints.top_hits":
        "hit ranking the tracepoint tests check",
    "repro/sim/engine.py::Simulator.cancel_pending":
        "teardown aid the harness tests drain a bench with",
    "repro/sim/engine.py::Simulator.run_steps":
        "bounded stepping the engine tests drive",
    "repro/sim/engine.py::Simulator.require_events":
        "deadlock guard the engine tests check",
}


def _word_counts():
    counts = collections.Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _definitions():
    """``(path, line, key, name, decorators)`` for every function and
    class under ``src/``, nested ones included."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = prefix + child.name
                out.append((path, child.lineno,
                            f"{path.relative_to(SRC).as_posix()}::{qualname}",
                            child.name,
                            {_decorator_name(d)
                             for d in child.decorator_list}))
                walk(child, path, qualname + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def _exempt(name, decorators):
    return ((name.startswith("__") and name.endswith("__"))
            or name.startswith("visit_")
            or bool(decorators & REGISTRY_DECORATORS))


@functools.lru_cache(maxsize=None)
def _unused():
    counts = _word_counts()
    return tuple((path, line, key)
                 for path, line, key, name, decorators in _definitions()
                 if not _exempt(name, decorators) and counts[name] <= 1)


def test_every_definition_has_a_user():
    dead = [f"{path.relative_to(ROOT).as_posix()}:{line}: "
            f"{key.split('::')[1]}"
            for path, line, key in _unused() if key not in TEST_SEAMS]
    assert not dead, (
        "defined under src/ but used nowhere in "
        + ", ".join(SCANNED) + " (delete it, or add it to TEST_SEAMS "
        "with the reason a test needs it):\n" + "\n".join(dead))


def test_test_seams_are_defined_and_still_test_only():
    unused = {key for _, _, key in _unused()}
    stale = sorted(set(TEST_SEAMS) - unused)
    assert not stale, (
        "TEST_SEAMS entries that are gone or now have a user outside "
        "the tests (drop them from the list):\n" + "\n".join(stale))
