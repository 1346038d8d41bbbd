"""Performance infrastructure: benchmarking over the unified store.

* :mod:`repro.perf.bench` — the ``repro bench`` harness timing cold,
  warm-kernel-cache and warm-run-store whole-network simulations
  (emits ``BENCH_sim.json``).
* :mod:`repro.perf.serve_bench` — the ``repro bench --serve`` harness
  timing the serving event loop on a synthetic fleet (emits
  ``BENCH_serve.json``).

The result store they read and fill lives in :mod:`repro.runs.store`.
"""
