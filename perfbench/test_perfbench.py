"""The benchmark's own tests: layer-map closure and repeatable counts.

Run from the repository root::

    python3 -m pytest perfbench -q

The traced-run tests start the benchmark twice per workload at the
reduced ``--size small`` and compare the two results, so they take a
minute or two.
"""

from __future__ import annotations

import glob
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, HERE)

import layers  # noqa: E402


def package_modules():
    paths = glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)
    return sorted(os.path.relpath(p, PACKAGE).replace(os.sep, "/")
                  for p in paths)


def test_every_module_maps_to_exactly_one_layer():
    modules = package_modules()
    assert modules
    wrong = {rel: layers.layers_of(rel) for rel in modules
             if len(layers.layers_of(rel)) != 1}
    assert wrong == {}


def test_every_layer_pattern_names_a_module():
    modules = package_modules()
    unused = [(layer, pattern)
              for layer, patterns in layers.LAYERS.items()
              for pattern in patterns
              if not any(layers._owns(pattern, rel) for rel in modules)]
    assert unused == []


def traced(workload: str, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "1", "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


#: Counts a later change may rest a claim on, per workload.
EXACT = {
    "figure": ["sim.events"] + [f"{layer}.calls"
                                for layer in layers.LAYER_NAMES],
    "sweep": ["sim.events", "store.puts", "store.gets"],
    "serve": ["store.puts", "store.gets", "service.cells_cached"],
}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_traced_runs_close_and_repeat(workload):
    first, second = traced(workload), traced(workload)
    for metrics in (first, second):
        layer_sum = math.fsum(metrics[f"{layer}.self_s"]
                              for layer in layers.LAYER_NAMES)
        assert layer_sum == pytest.approx(metrics["traced_total_s"],
                                          rel=1e-9)
        assert metrics["traced_total_s"] > 0
    for name in EXACT[workload]:
        assert first[name] == second[name], name
    assert first[EXACT[workload][0]] > 0
