"""Determinism-linter tests: every rule fires on a minimal repro,
stays quiet on the sanctioned idiom, and honours suppressions."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths
from repro.analysis.lint.engine import iter_python_files

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _lint_snippet(tmp_path, code, name="repro/kernel/snippet.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code, encoding="utf-8")
    return lint_file(str(path))


def _rules(findings):
    return sorted({f.rule for f in findings})


class TestWallClock:
    def test_import_time_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, "import time\n")
        assert _rules(findings) == ["wall-clock"]

    def test_from_datetime_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path,
                                 "from datetime import datetime\n")
        assert _rules(findings) == ["wall-clock"]

    def test_simtime_is_fine(self, tmp_path):
        findings = _lint_snippet(tmp_path,
                                 "from repro.sim.simtime import MSEC\n")
        assert findings == []


class TestGlobalRandom:
    def test_import_random_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, "import random\n")
        assert _rules(findings) == ["global-random"]

    def test_numpy_global_draw_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "import numpy as np\nx = np.random.randint(5)\n")
        assert _rules(findings) == ["global-random"]

    def test_seeded_generator_api_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "gen = np.random.Generator(np.random.PCG64(1))\n")
        assert findings == []

    def test_rng_module_is_allowlisted(self, tmp_path):
        findings = _lint_snippet(tmp_path, "import random\n",
                                 name="repro/sim/rng.py")
        assert findings == []


class TestUnorderedIter:
    def test_for_over_set_literal_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "for cpu in {0, 1, 2}:\n    pass\n")
        assert _rules(findings) == ["unordered-iter"]

    def test_comprehension_over_set_call_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "xs = [x for x in set([3, 1])]\n")
        assert _rules(findings) == ["unordered-iter"]

    def test_sorted_set_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "for cpu in sorted({0, 1, 2}):\n    pass\n")
        assert findings == []


class TestNoSlotsDataclass:
    CODE = ("from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Hot:\n"
            "    x: int = 0\n")

    def test_hot_module_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, self.CODE,
                                 name="repro/sim/hot.py")
        assert _rules(findings) == ["no-slots-dataclass"]

    def test_slots_true_is_fine(self, tmp_path):
        code = self.CODE.replace("@dataclass", "@dataclass(slots=True)")
        findings = _lint_snippet(tmp_path, code, name="repro/sim/hot.py")
        assert findings == []

    def test_cold_module_not_in_scope(self, tmp_path):
        findings = _lint_snippet(tmp_path, self.CODE,
                                 name="repro/plots/cold.py")
        assert findings == []


class TestUngatedLabel:
    def test_fstring_label_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(g, name):\n"
                      "    g(label=f'irq{name}')\n")
        assert _rules(findings) == ["ungated-label"]

    def test_gated_label_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(g, name, trace):\n"
                      "    g(label=(f'irq{name}' if trace else 'irq'))\n")
        assert findings == []


class TestDirectTraceEmit:
    def test_attribute_emit_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(self, now):\n"
                      "    self.sim.trace.emit(now, 'irq', 'x')\n")
        assert _rules(findings) == ["direct-trace-emit"]

    def test_bare_name_emit_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(trace, now):\n"
                      "    trace.emit(now, 'irq', 'x')\n")
        assert _rules(findings) == ["direct-trace-emit"]

    def test_typed_tracepoint_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(tp, now, cpu):\n"
                      "    if tp.enabled:\n"
                      "        tp.irq_raise(now, cpu, 60, 'rtc')\n")
        assert findings == []

    def test_other_emit_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(signal):\n"
                      "    signal.emit('done')\n")
        assert findings == []

    def test_buffer_module_is_allowlisted(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(trace, now):\n"
                      "    trace.emit(now, 'irq', 'x')\n",
            name="repro/sim/trace.py")
        assert findings == []

    def test_experiment_layer_not_in_scope(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(trace, now):\n"
                      "    trace.emit(now, 'irq', 'x')\n",
            name="repro/experiments/snippet.py")
        assert findings == []


class TestPairedAcquireRelease:
    def test_unmatched_acquire_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel):\n"
                      "    yield op.Acquire(kernel.locks.bkl)\n"
                      "    yield op.Compute(10)\n")
        assert _rules(findings) == ["paired-acquire-release"]
        assert "no matching Release" in findings[0].message

    def test_paired_section_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel):\n"
                      "    yield op.Acquire(kernel.locks.bkl)\n"
                      "    yield op.Compute(10)\n"
                      "    yield op.Release(kernel.locks.bkl)\n")
        assert findings == []

    def test_release_without_acquire_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel):\n"
                      "    yield op.Release(kernel.locks.bkl)\n")
        assert _rules(findings) == ["paired-acquire-release"]
        assert "underflows" in findings[0].message

    def test_pairing_is_per_lock_expression(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel):\n"
                      "    yield op.Acquire(kernel.locks.bkl)\n"
                      "    yield op.Release(kernel.locks.dcache)\n")
        assert _rules(findings) == ["paired-acquire-release"]
        assert len(findings) == 2

    def test_semaphore_pairing_checked(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel, sem):\n"
                      "    yield op.SemDown(sem)\n")
        assert _rules(findings) == ["paired-acquire-release"]

    def test_balanced_semaphore_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel, sem):\n"
                      "    yield op.SemDown(sem)\n"
                      "    yield op.Compute(5)\n"
                      "    yield op.SemUp(sem)\n")
        assert findings == []

    def test_nested_function_counted_separately(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def outer(self, kernel):\n"
                      "    def inner():\n"
                      "        yield op.Acquire(kernel.locks.bkl)\n"
                      "    yield op.Release(kernel.locks.bkl)\n")
        assert len(findings) == 2
        assert _rules(findings) == ["paired-acquire-release"]

    def test_branchy_but_balanced_is_fine(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel, fast):\n"
                      "    yield op.Acquire(kernel.locks.bkl)\n"
                      "    if fast:\n"
                      "        yield op.Compute(1)\n"
                      "    else:\n"
                      "        yield op.Compute(9)\n"
                      "    yield op.Release(kernel.locks.bkl)\n")
        assert findings == []

    def test_escape_comment_for_split_phase_helper(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def sem_down(self, sem):\n"
            "    yield op.SemDown(sem)"
            "  # lint: ok(paired-acquire-release)\n")
        assert findings == []

    def test_workloads_dir_in_scope(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel):\n"
                      "    yield op.Acquire(kernel.locks.bkl)\n",
            name="repro/workloads/snippet.py")
        assert _rules(findings) == ["paired-acquire-release"]

    def test_experiment_layer_not_in_scope(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def body(self, kernel):\n"
                      "    yield op.Acquire(kernel.locks.bkl)\n",
            name="repro/experiments/snippet.py")
        assert findings == []


class TestSuppression:
    def test_inline_ok_comment(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "import time  # lint: ok(wall-clock)\n")
        assert findings == []

    def test_ok_comment_is_rule_specific(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "import time  # lint: ok(global-random)\n")
        assert _rules(findings) == ["wall-clock"]


class TestTreeAndCli:
    def test_repo_src_is_clean(self):
        """The gate the CI job enforces: zero findings across src."""
        assert lint_paths([str(REPO_SRC)]) == []

    def test_src_sweep_covers_the_tree(self):
        files = iter_python_files([str(REPO_SRC)])
        assert len(files) > 50
        assert any(f.endswith("kernel.py") for f in files)

    def test_cli_exit_codes_and_json(self, tmp_path):
        dirty = tmp_path / "repro" / "kernel"
        dirty.mkdir(parents=True)
        (dirty / "bad.py").write_text("import time\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint",
             str(tmp_path), "--json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        data = json.loads(proc.stdout)
        assert data["count"] == 1
        assert data["findings"][0]["rule"] == "wall-clock"

        (dirty / "bad.py").write_text("x = 1\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(tmp_path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0

    def test_cli_sarif_output(self, tmp_path):
        dirty = tmp_path / "repro" / "kernel"
        dirty.mkdir(parents=True)
        (dirty / "bad.py").write_text("import time\n", encoding="utf-8")
        out = tmp_path / "lint.sarif"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(tmp_path),
             "--format", "sarif", "--output", str(out)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        sarif = json.loads(out.read_text(encoding="utf-8"))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "paired-acquire-release" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "wall-clock"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1
        assert region["startColumn"] >= 1

    def test_cli_sarif_clean_tree_is_empty_run(self, tmp_path):
        clean = tmp_path / "repro" / "kernel"
        clean.mkdir(parents=True)
        (clean / "ok.py").write_text("x = 1\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(tmp_path),
             "--format", "sarif"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0
        sarif = json.loads(proc.stdout)
        assert sarif["runs"][0]["results"] == []
