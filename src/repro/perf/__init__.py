"""Performance infrastructure: benchmarking over the unified store.

* :mod:`repro.perf.bench` — the ``repro bench`` harness timing cold,
  warm-kernel-cache and warm-run-store whole-network simulations
  (emits ``BENCH_sim.json``).
* :mod:`repro.perf.serve_bench` — the ``repro bench --serve`` harness
  timing the serving event loop on a synthetic fleet (emits
  ``BENCH_serve.json``).

The kernel-cache layer lives in :mod:`repro.runs.store`; the package
re-exports its public names for convenience.  (The old
``repro.perf.cache`` shim completed its deprecation cycle and is gone.)
"""

from repro.runs.store import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    CachedKernel,
    KernelResultCache,
    cache_key,
    default_cache_dir,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "CachedKernel",
    "KernelResultCache",
    "cache_key",
    "default_cache_dir",
]
