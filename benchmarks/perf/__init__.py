"""Tracked performance microbenchmarks for the simulation core.

The suite measures the discrete-event hot path (one-shot drain,
periodic-tick throughput, cancel-heavy churn), then writes
``BENCH_core.json`` so the perf trajectory is tracked PR-over-PR.
End-to-end figure wall time is perfbench's ``figure`` workload
(``fig6_s``, ``fig2_s``).

Every microbenchmark runs twice: once against the *current* core
(:mod:`repro.sim.engine`) and once against a frozen copy of the
pre-optimization core (:mod:`benchmarks.perf.legacy_core`).  The
speedup ratio between the two is what CI gates on -- ratios are
portable across machines in a way absolute events/sec numbers are
not.

Run it with::

    python -m benchmarks.perf --output BENCH_core.json
    python -m benchmarks.perf --check BENCH_core.json   # CI regression gate
"""
