"""The benchmark's workloads: set-up, one closed-loop pass, output checks.

Each workload drives the program only through public entry points:
``repro.gpu.simulator.simulate_network``, ``repro.harness.suite.run_all``
and ``repro.serve.ServeSim`` built from public ``repro.serve``
constructors.  The workload seed never reaches the simulators directly:
it orders the networks a sim-cold pass submits, and it is the serving
run's ``ServeConfig.seed`` (serve-steady).  harness-light always runs the
suite in paper order: the planner assigns runs to pool chunks in
experiment order, so a seeded order would change the pool's load
balance from seed to seed.

A pass returns a :class:`PassResult`.  An op is one network simulation
(sim-cold), one planned run (harness-light) or one serving run
(serve-steady); it fails if it raises, if the executor reports it failed, or
if its output digest disagrees with the committed one in
``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Seed whose serving digests are committed; other seeds are checked by
#: conservation (offered = completed + shed) and run-to-run repeatability.
DEFAULT_SEED = 0

#: Networks simulated per sim-cold pass, by size.  AlexNet bypasses
#: canonical dedup (23 launches, 23 signatures); ResNet exercises it
#: (228 launches, 55 signatures).
SIM_NETWORKS = {
    "full": ("alexnet", "squeezenet", "resnet"),
    "small": ("cifarnet", "gru"),
}

#: Worker processes for the harness pass (the box has two cores).
HARNESS_JOBS = 2

#: Serving scenario scale, by size: (requests, devices).
SERVE_SCALE = {
    "full": (200_000, 20),
    "small": (4_000, 20),
}


def sha256_json(value) -> str:
    """SHA-256 of the canonical JSON form of *value*."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_s() -> float:
    """Median time of three runs of a fixed pure-Python loop (~50 ms each).

    Dictionary updates, integer arithmetic and a sort, like the
    simulators' own interpreter work.  The collector is off while it runs,
    so the size of the program's heap does not change the result.
    """
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            table: dict[int, int] = {}
            acc = 0
            for i in range(150_000):
                key = (i * 2654435761) & 1023
                table[key] = table.get(key, 0) + 1
                acc += key % 7
            sorted(table, key=table.__getitem__)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


@dataclass
class PassResult:
    """Outcome of one closed-loop pass."""

    wall_s: float
    ops: int
    failed: int = 0
    #: One line per failed op or failed check.
    errors: list[str] = field(default_factory=list)
    #: Output identity, compared between the traced and untraced runs.
    digest: object = None
    #: Workload-specific sub-timings (seconds), e.g. per network.
    times: dict[str, float] = field(default_factory=dict)
    #: Workload-specific exact counts, e.g. shed requests.
    counts: dict[str, int] = field(default_factory=dict)
    #: Reference-loop time to divide ``wall_s`` by, when the pass timed
    #: the loop itself (None: the session times it around the pass).
    ref_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s, "ops": self.ops, "failed": self.failed,
            "errors": self.errors, "digest": self.digest,
            "times": self.times, "counts": self.counts, "ref_s": self.ref_s,
        }


class Workload:
    """Base: ``setup()`` once per process, then ``run_pass()`` repeatedly."""

    name = ""

    def __init__(self, size: str, seed: int, digests: dict, workdir: Path) -> None:
        self.size = size
        self.seed = seed
        self.expected = digests.get(self.name, {}).get(size, {})
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError


class SimCold(Workload):
    """Whole-network GPU simulation, default fidelity, no result store."""

    name = "sim-cold"

    def setup(self) -> None:
        from repro.gpu import simulator
        from repro.gpu.config import SimOptions
        from repro.kernels.compile import compiled_network
        from repro.platforms.registry import GP102

        self.simulator = simulator
        self.config = GP102
        self.options = SimOptions() if self.size == "full" else SimOptions().light()
        self.networks = SIM_NETWORKS[self.size]
        self.rng = random.Random(self.seed)
        for network in self.networks:
            compiled_network(network)

    def run_pass(self, index: int) -> PassResult:
        """Simulate each network once, in seeded order.

        A pass lasts ~10 s, longer than the host's speed swings, so the
        reference loop is timed between networks (outside ``wall_s``) and
        each network's time is divided by the mean of the two around it.
        """
        order = list(self.networks)
        self.rng.shuffle(order)
        result = PassResult(wall_s=0.0, ops=0, digest={})
        ref_before = reference_s()
        units = 0.0
        for network in order:
            result.ops += 1
            net_start = time.perf_counter()
            try:
                # Looked up on the module at call time, so a traced run's
                # wrapper (installed on the module) is the one called.
                sim = self.simulator.simulate_network(network, self.config, self.options)
            except Exception as exc:  # a failed op, reported, not raised
                result.failed += 1
                result.errors.append(f"{network}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - net_start
            result.times[network] = elapsed
            result.wall_s += elapsed
            ref_after = reference_s()
            units += elapsed / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            digest = sha256_json([k.stats.to_dict() for k in sim.kernels])
            result.digest[network] = digest
            result.counts[f"{network}.launches"] = len(sim.kernels)
            result.counts[f"{network}.unique"] = sim.unique_kernels
            if digest != self.expected.get(network):
                result.failed += 1
                result.errors.append(f"{network}: KernelStats digest {digest[:16]} "
                                     f"!= committed {str(self.expected.get(network))[:16]}")
        if units:
            result.ref_s = result.wall_s / units
        return result


class HarnessLight(Workload):
    """All 21 experiments at light fidelity: one cold pass, then warm ones.

    Pass 0 runs into an empty store (the session is a fresh process);
    later passes re-run the suite over the store that pass filled, and
    must simulate nothing.
    """

    name = "harness-light"

    def setup(self) -> None:
        from repro.gpu.config import SimOptions
        from repro.harness import suite
        from repro.runs import Executor, PlanContext, ResultStore
        from repro.runs.registry import all_experiments

        self.suite = suite
        self.ids = list(all_experiments())
        options = SimOptions().light()
        if self.size == "full":
            self.ctx = PlanContext(options=options)
        else:
            self.ctx = PlanContext(networks=("cifarnet", "gru"), options=options)
        self.store_dir = self.workdir / "store"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        ResultStore(self.store_dir)
        # run_all keeps its ExecutionReport internal; record each one as
        # it is returned so fresh/cached/failed counts can be checked.
        self.reports: list = []
        original = Executor.execute
        reports = self.reports

        def execute(executor, plan, jobs=1):
            report = original(executor, plan, jobs)
            reports.append(report)
            return report

        Executor.execute = execute

    def run_pass(self, index: int) -> PassResult:
        del self.reports[:]
        start = time.perf_counter()
        try:
            results = self.suite.run_all(
                self.ids, cache_dir=self.store_dir, verbose=False,
                jobs=HARNESS_JOBS, ctx=self.ctx,
            )
        except Exception as exc:
            wall = time.perf_counter() - start
            return PassResult(wall, 1, 1, [f"run_all: {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        report = self.reports[-1]
        result = PassResult(wall_s=wall, ops=report.planned)
        result.counts = {"fresh": report.fresh, "cached": report.cached,
                         "failed": len(report.failed)}
        result.failed = len(report.failed)
        result.errors.extend(sorted(report.failed.values()))
        outcome = [(r.exp_id, r.series, [(c.claim, c.passed) for c in r.checks])
                   for r in results]
        result.digest = sha256_json(outcome)
        result.counts["checks_failed"] = sum(
            not c.passed for r in results for c in r.checks
        )
        problems = []
        if result.digest != self.expected.get("digest"):
            problems.append(f"suite digest {result.digest[:16]} != committed "
                            f"{str(self.expected.get('digest'))[:16]}")
        if index > 0 and report.fresh:
            problems.append(f"warm pass simulated {report.fresh} runs (expected 0)")
        if problems:
            result.errors.extend(problems)
            result.failed = max(1, report.planned)
        return result


class ServeSteady(Workload):
    """One ``ServeSim.run()`` on the engine's default event loop.

    The ``repro bench --serve`` scenario, rebuilt from public
    constructors: 20 GP102 devices, a diurnal interactive tenant and a
    Poisson batch tenant, SLO-aware admission, the queue-depth
    autoscaler, least-loaded scheduling and synthetic latency profiles.
    Nothing is shed, so event-loop, dispatch and completion work dominate.
    """

    name = "serve-steady"

    def setup(self) -> None:
        from repro.serve import (
            AutoscaleConfig, DiurnalWorkload, LatencyProfile,
            MultiTenantWorkload, PoissonWorkload, ServeConfig, ServeSim, Tenant,
            build_fleet, make_pipeline,
        )
        from repro.serve.profiles import KernelTerm

        requests, devices = SERVE_SCALE[self.size]

        def profile(network: str, base_ms: float, per_item_ms: float):
            # Synthetic ``base + per_item * batch`` shape at a 1 GHz clock:
            # the run measures the event engine, not GPU simulation.
            return LatencyProfile(
                network, "GP102", 1.0,
                launch_overhead_cycles=base_ms * 1e6,
                terms=(KernelTerm(per_item_ms * 1e6, 1, 1, 1),),
                dynamic_j=0.05, static_watts=40.0,
            )

        profiles = {
            ("alexnet", "GP102"): profile("alexnet", 1.0, 0.5),
            ("resnet", "GP102"): profile("resnet", 2.0, 1.0),
        }
        interactive = requests * 7 // 10
        parts = [
            (Tenant("interactive", slo_ms=20.0),
             DiurnalWorkload(6000.0, interactive, ["alexnet"],
                             period_ms=30_000.0, segments=32)),
            (Tenant("batch", slo_ms=100.0, priority=1),
             PoissonWorkload(2500.0, requests - interactive, ["resnet"])),
        ]
        pipeline = make_pipeline(
            admission="slo-aware",
            autoscale=AutoscaleConfig(
                template="gp102", min_devices=max(1, devices // 2),
                max_devices=devices, interval_ms=1000.0,
            ),
        )
        config = ServeConfig(scheduler="least-loaded", seed=self.seed,
                             admission="slo-aware")
        self.sim = ServeSim(build_fleet(f"gp102:{devices}"), profiles,
                            MultiTenantWorkload(parts), config, pipeline)
        self.first_digest: str | None = None

    def run_pass(self, index: int) -> PassResult:
        start = time.perf_counter()
        try:
            stats = self.sim.run()
        except Exception as exc:
            wall = time.perf_counter() - start
            return PassResult(wall, 1, 1, [f"run: {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        digest = stats.digest()
        result = PassResult(wall_s=wall, ops=1, digest=digest)
        result.counts = {"offered": stats.offered, "completed": stats.completed,
                         "shed": stats.shed}
        if self.first_digest is None:
            self.first_digest = digest
        if self.seed == DEFAULT_SEED:
            expected = self.expected.get("digest")
            if digest != expected:
                result.errors.append(f"ServeStats digest {digest[:16]} != "
                                     f"committed {str(expected)[:16]}")
        else:
            if stats.offered != stats.completed + stats.shed:
                result.errors.append(
                    f"offered {stats.offered} != completed {stats.completed} "
                    f"+ shed {stats.shed}")
            if digest != self.first_digest:
                result.errors.append("digest differs from this session's first run")
        result.failed = 1 if result.errors else 0
        return result


WORKLOADS = {cls.name: cls for cls in (SimCold, HarnessLight, ServeSteady)}
