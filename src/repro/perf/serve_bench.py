"""Serving-engine benchmark: event-loop throughput on a synthetic fleet.

Backs ``repro bench --serve``.  The scenario is fixed — a 20-device
GP102 fleet, two tenants (a diurnal interactive stream and a Poisson
batch stream), least-loaded scheduling, SLO-aware admission and the
queue-depth autoscaler — and the latency profiles are *synthetic*
(built analytically, no GPU simulation), so the numbers measure the
discrete-event engine alone: arrivals through admission, scheduling,
batching, dispatch and completion.

The engine's one event loop is timed ``runs`` times over the identical
scenario after an untimed warmup, and every run's
:meth:`~repro.serve.stats.ServeStats.digest` must match the warmup's — a
rerun of one :class:`~repro.serve.engine.ServeSim` that drifts is a
correctness bug, not a perf number.  The payload maps ``serve-heap``
to a ``BENCH_sim.json``-shaped entry (``cold_s`` best-of-N,
mean/std/ci95, ``samples.cold``), so the committed ``BENCH_serve.json``
— or a bench of the base commit on the same machine — plugs straight
into :func:`repro.perf.bench.compare_bench` for regression tracking.
"""

from __future__ import annotations

import time

from repro.perf.stats import summarize
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.devices import build_fleet
from repro.serve.engine import ServeConfig, ServeSim
from repro.serve.pipeline import make_pipeline
from repro.serve.profiles import KernelTerm, LatencyProfile
from repro.serve.tenants import MultiTenantWorkload, Tenant
from repro.serve.workload import DiurnalWorkload, PoissonWorkload

#: Scenario scale: enough events that a run takes whole seconds (so
#: the Mann-Whitney test sees signal over scheduler noise), small
#: enough that ``--runs 5`` stays about a minute.
REQUESTS = 200_000
DEVICES = 20


def _profile(network: str, base_ms: float, per_item_ms: float) -> LatencyProfile:
    """An analytic profile: ``base_ms + per_item_ms * batch`` shape."""
    clock_ghz = 1.0
    return LatencyProfile(
        network, "GP102", clock_ghz,
        launch_overhead_cycles=base_ms * clock_ghz * 1e6,
        terms=(KernelTerm(per_item_ms * clock_ghz * 1e6, 1, 1, 1),),
        dynamic_j=0.05, static_watts=40.0,
    )


def _scenario(requests: int, devices: int, seed: int):
    """The fixed benchmark scenario (fleet, profiles, workload, sim)."""
    profiles = {
        ("alexnet", "GP102"): _profile("alexnet", 1.0, 0.5),
        ("resnet", "GP102"): _profile("resnet", 2.0, 1.0),
    }
    fleet = build_fleet(f"gp102:{devices}")
    interactive = requests * 7 // 10
    workload = MultiTenantWorkload([
        (Tenant("interactive", slo_ms=20.0),
         DiurnalWorkload(6000.0, interactive, ["alexnet"],
                         period_ms=30_000.0, segments=32)),
        (Tenant("batch", slo_ms=100.0, priority=1),
         PoissonWorkload(2500.0, requests - interactive, ["resnet"])),
    ])
    pipeline = make_pipeline(
        admission="slo-aware",
        autoscale=AutoscaleConfig(
            template="gp102", min_devices=max(1, devices // 2),
            max_devices=devices, interval_ms=1000.0,
        ),
    )
    config = ServeConfig(scheduler="least-loaded", seed=seed,
                         admission="slo-aware")
    return ServeSim(fleet, profiles, workload, config, pipeline)


def run_serve_bench(
    requests: int = REQUESTS,
    devices: int = DEVICES,
    runs: int = 3,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Benchmark the event loop; returns the ``BENCH_serve.json`` payload.

    One discarded warmup run primes allocator and profile memo state.
    Raises :class:`RuntimeError` if a timed run's stats digest differs
    from the warmup's.
    """
    sim = _scenario(requests, devices, seed)
    digest = sim.run().digest()  # untimed warmup; its digest is the reference
    samples: list[float] = []
    for _ in range(max(1, runs)):
        start = time.perf_counter()
        stats = sim.run()
        samples.append(round(time.perf_counter() - start, 6))
        if stats.digest() != digest:
            raise RuntimeError(
                f"serve run diverged: digest {stats.digest()[:16]}... "
                f"!= warmup's {digest[:16]}..."
            )
    best = min(samples)
    spread = summarize(samples)
    entry = {
        "cold_s": best,
        "cold_mean_s": round(spread["mean"], 6),
        "cold_std_s": round(spread["std"], 6),
        "cold_ci95_s": round(spread["ci95"], 6),
        "samples": {"cold": samples},
        "requests": requests,
        "devices": devices,
        "throughput_rps": round(requests / best),
        "digest": digest,
    }
    if verbose:
        print(f"serve-heap   cold={entry['cold_s']:8.3f}s"
              f"±{entry['cold_std_s']:.3f} "
              f"throughput={entry['throughput_rps']:,} req/s "
              f"({requests:,} requests, {devices} devices)", flush=True)
    return {"serve-heap": entry}
