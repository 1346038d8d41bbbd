"""Engine benchmark: cold vs warm-cache whole-network simulation times.

Backs the ``repro bench`` subcommand.  For each network it times

* **cold** — a plain :func:`~repro.gpu.simulator.simulate_network` call,
  no persistent cache (pure engine speed);
* **warm** — the same call against the kernel layer of a freshly
  opened :class:`~repro.runs.store.ResultStore` whose directory was
  populated by a prior run, so every unique kernel is a disk hit;
* **run-warm** — an :class:`~repro.runs.executor.Executor` read of the
  whole-network run entry (the harness/serve fast path: one file, no
  per-kernel replay);
* **seed** (optional) — the frozen reference engine in
  :mod:`repro.gpu.seed_engine`, for before/after speedup reporting.

Each timing is taken ``runs`` times.  The legacy scalar fields
(``cold_s`` etc.) keep best-of-N semantics (the minimum, to suppress
scheduler noise), and every per-run sample is kept under ``samples`` so
:func:`compare_bench` can run a rank test instead of comparing two
noisy minima.  The emitted JSON maps each network to ``{cold_s,
warm_s, run_warm_s, kernels, unique_kernels, engine, engine_version,
wave_workers, samples, cold_mean_s, cold_std_s, cold_ci95_s}`` (plus
``seed_s`` when requested) — the schema of the committed
``BENCH_sim.json``, a superset of the pre-``--runs`` one.  The cold path
runs with canonical-signature dedup on (the default), so
``unique_kernels`` is the number of simulations the engine actually
performed per network, and ``wave_workers`` is the number of processes
its waves ran on (1: in-process; see
:func:`~repro.gpu.simulator.simulate_network`).

:func:`compare_bench` is the regression gate behind ``repro bench
--compare``: per network it feeds the baseline's and the fresh run's
cold samples to :func:`repro.perf.stats.compare_samples` and flags
statistically significant slowdowns (one-sided Mann–Whitney, ratio
threshold); the CLI exits non-zero when any network regresses.
Baselines and candidates should come from the *same machine* — the
committed ``BENCH_sim.json`` documents one reference box, and the CI
gate benches two engines back-to-back on one runner rather than
comparing against the committed file across hardware.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.engine import engine_version, get_engine
from repro.gpu.simulator import simulate_network
from repro.perf.stats import compare_samples, summarize
from repro.runs import Executor, ResultStore, RunSpec


def _sample(fn, runs: int) -> list[float]:
    """Wall-clock each of ``runs`` calls of *fn* (all samples kept)."""
    samples: list[float] = []
    for _ in range(max(1, runs)):
        start = time.perf_counter()
        fn()
        samples.append(round(time.perf_counter() - start, 6))
    return samples


def bench_network(
    name: str,
    config: GpuConfig,
    options: SimOptions,
    cache_dir: str | Path,
    runs: int = 1,
    seed: bool = False,
) -> dict:
    """Time one network cold, warm-cache, and optionally on the seed engine."""
    result = simulate_network(name, config, options)
    cold = _sample(lambda: simulate_network(name, config, options), runs)
    stats = summarize(cold)
    samples = {"cold": cold}
    entry: dict = {
        "cold_s": min(cold),
        "cold_mean_s": round(stats["mean"], 6),
        "cold_std_s": round(stats["std"], 6),
        "cold_ci95_s": round(stats["ci95"], 6),
        "kernels": len(result.kernels),
        "unique_kernels": result.unique_kernels,
        "engine": get_engine(),
        "engine_version": engine_version(),
        "wave_workers": result.wave_workers,
        "samples": samples,
    }
    # Populate the unified store through the shared executor, then time
    # disk-hit reloads through fresh store objects (no in-memory layer
    # carry-over): per-kernel replays first, whole-run entries second.
    spec = RunSpec(name, config, options)
    Executor(ResultStore(cache_dir)).run(spec)
    samples["warm"] = _sample(
        lambda: simulate_network(
            name, config, options, cache=ResultStore(cache_dir).kernels
        ),
        runs,
    )
    entry["warm_s"] = min(samples["warm"])
    samples["run_warm"] = _sample(
        lambda: Executor(ResultStore(cache_dir)).run(spec), runs
    )
    entry["run_warm_s"] = min(samples["run_warm"])
    if seed:
        from repro.gpu import seed_engine

        samples["seed"] = _sample(
            lambda: seed_engine.simulate_network(name, config, options), runs
        )
        entry["seed_s"] = min(samples["seed"])
    return entry


def run_bench(
    networks: list[str],
    config: GpuConfig,
    options: SimOptions,
    cache_dir: str | Path | None = None,
    runs: int = 1,
    seed: bool = False,
    verbose: bool = True,
) -> dict:
    """Benchmark *networks*; returns the ``BENCH_sim.json`` payload."""
    out: dict = {}
    for name in networks:
        if cache_dir is None:
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
                entry = bench_network(name, config, options, tmp, runs, seed)
        else:
            entry = bench_network(name, config, options, cache_dir, runs, seed)
        out[name] = entry
        if verbose:
            line = (f"{name:12s} cold={entry['cold_s']:8.3f}s"
                    f"±{entry['cold_std_s']:.3f} "
                    f"warm={entry['warm_s']:7.4f}s "
                    f"run-warm={entry['run_warm_s']:7.4f}s "
                    f"kernels={entry['kernels']} "
                    f"unique={entry['unique_kernels']}")
            if seed:
                ratio = entry["seed_s"] / entry["cold_s"] if entry["cold_s"] else 0.0
                line += f" seed={entry['seed_s']:8.3f}s ({ratio:.1f}x)"
            print(line, flush=True)
    return out


def _cold_samples(entry: dict) -> list[float]:
    """Cold samples of one payload entry; pre-``--runs`` payloads only
    carry the best-of scalar, which degrades the test to ratio-only."""
    samples = entry.get("samples", {}).get("cold")
    if samples:
        return [float(x) for x in samples]
    return [float(entry["cold_s"])]


def compare_bench(
    baseline: dict,
    candidate: dict,
    threshold: float = 1.10,
    alpha: float = 0.05,
) -> dict:
    """Per-network regression verdicts of *candidate* against *baseline*.

    Both arguments are ``run_bench`` payloads.  Returns ``{networks:
    {name: verdict}, regressions: [names], threshold, alpha}`` where
    each verdict comes from :func:`repro.perf.stats.compare_samples`
    over the cold samples (see its docstring for the slower rule).
    Networks missing from either side are skipped (listed under
    ``skipped``).  A verdict's ``digest_changed`` is true when both
    entries carry an output ``digest`` (serve entries do) and the two
    differ: the timings then measure different work.
    """
    verdicts: dict = {}
    regressions: list[str] = []
    skipped: list[str] = []
    for name in sorted(set(baseline) | set(candidate)):
        if name not in baseline or name not in candidate:
            skipped.append(name)
            continue
        verdict = compare_samples(
            _cold_samples(baseline[name]),
            _cold_samples(candidate[name]),
            threshold=threshold,
            alpha=alpha,
        )
        verdict["baseline_engine"] = baseline[name].get("engine_version")
        verdict["candidate_engine"] = candidate[name].get("engine_version")
        digests = (baseline[name].get("digest"), candidate[name].get("digest"))
        verdict["digest_changed"] = None not in digests and digests[0] != digests[1]
        verdicts[name] = verdict
        if verdict["slower"]:
            regressions.append(name)
    return {
        "networks": verdicts,
        "regressions": regressions,
        "skipped": skipped,
        "threshold": threshold,
        "alpha": alpha,
    }


def read_bench(path: str | Path) -> dict:
    """Load a ``BENCH_sim.json``-schema payload."""
    return json.loads(Path(path).read_text())


def write_bench(payload: dict, path: str | Path) -> None:
    """Write the benchmark payload as pretty JSON."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
