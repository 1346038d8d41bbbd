"""Engine tests on synthetic latency profiles (no GPU simulation).

Synthetic profiles make the arithmetic exact: ``latency_ms(b) = base +
per_item * b`` with a 1 GHz clock, so timeout/batching/scheduling
behaviour can be asserted to the millisecond.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import capture_trace
from repro.perf.serve_bench import bench_scenario
from repro.platforms import make_config, register_platform, unregister_platform
from repro.serve import (
    AutoscaleConfig,
    BurstyWorkload,
    ClosedLoopWorkload,
    DiurnalWorkload,
    MultiTenantWorkload,
    PoissonWorkload,
    ServeConfig,
    ServeDevice,
    ServeSim,
    Tenant,
    TraceWorkload,
    build_fleet,
    make_pipeline,
    run_serve,
)
from repro.serve.profiles import KernelTerm, LatencyProfile


def make_profile(
    network: str, platform: str, base_ms: float, per_item_ms: float = 0.0,
    **energy: float,
) -> LatencyProfile:
    terms = (
        (KernelTerm(per_item_ms * 1e6, 1, 1, 1),) if per_item_ms else ()
    )
    return LatencyProfile(network, platform, 1.0, base_ms * 1e6, terms, **energy)


def dev_fleet(tiny_gpu, devices: int) -> list[ServeDevice]:
    return [
        ServeDevice(f"dev#{i}", replace(tiny_gpu, name="Dev"))
        for i in range(devices)
    ]


#: Energy coefficients of the determinism cases' profiles.
ENERGY = {"dynamic_j": 0.02, "static_watts": 30.0}


def dev_profiles(platform: str = "Dev") -> dict:
    return {
        ("net", platform): make_profile("net", platform, 2.0, 0.4, **ENERGY),
        ("rnn", platform): make_profile("rnn", platform, 0.3, 0.05, **ENERGY),
    }


#: Request streams of the determinism matrix (a fresh one per case).
WORKLOADS = {
    "poisson": lambda: PoissonWorkload(800.0, 400, ["net", "rnn"]),
    "bursty": lambda: BurstyWorkload(
        1200.0, 400, ["net"], on_ms=20.0, off_ms=60.0, off_factor=0.2
    ),
    "diurnal": lambda: DiurnalWorkload(
        900.0, 400, ["net", "rnn"], period_ms=200.0, segments=16
    ),
    "closed": lambda: ClosedLoopWorkload(8, 300, ["net"], think_ms=1.0),
    "tenants": lambda: MultiTenantWorkload([
        (Tenant("a", slo_ms=8.0),
         DiurnalWorkload(500.0, 200, ["net"], period_ms=100.0, segments=8)),
        (Tenant("b", slo_ms=30.0, priority=1),
         PoissonWorkload(400.0, 150, ["rnn"])),
        (Tenant("c", slo_ms=60.0, priority=2),
         ClosedLoopWorkload(3, 100, ["net"], think_ms=2.0)),
    ]),
}
SCHEDULERS = ("round-robin", "least-loaded", "latency-aware")


def matrix_case(workload: str, scheduler: str):
    def build(tiny_gpu):
        config = ServeConfig(
            slo_ms=10.0, max_batch=4, batch_timeout_ms=1.0,
            max_queue=16, scheduler=scheduler, seed=5,
        )
        return (dev_fleet(tiny_gpu, 3), dev_profiles(), WORKLOADS[workload](),
                config, None, lambda stats: True)
    return build


def full_pipeline_case(tiny_gpu):
    # Scale-ups clone the gp102 template, which needs its own profile
    # slice (keyed by the platform's canonical name).
    profiles = {**dev_profiles(), **dev_profiles("GP102")}
    config = ServeConfig(
        slo_ms=10.0, max_batch=4, max_queue=8,
        scheduler="least-loaded", seed=2, admission="slo-aware",
    )
    pipeline = make_pipeline(
        admission="slo-aware",
        autoscale=AutoscaleConfig(
            template="gp102", min_devices=1, max_devices=5,
            interval_ms=5.0, cooldown_ms=10.0,
        ),
    )
    # The pipeline must actually scale, not just idle through.
    return (dev_fleet(tiny_gpu, 3), profiles, WORKLOADS["tenants"](), config,
            pipeline, lambda stats: bool(stats.autoscale["events"]))


def single_device_case(tiny_gpu):
    config = ServeConfig(
        slo_ms=5.0, max_batch=1, max_queue=4,
        scheduler="round-robin", seed=9, admission="slo-aware",
    )
    # An overloaded tiny queue: the shed paths must be covered.
    return (dev_fleet(tiny_gpu, 1), dev_profiles(),
            PoissonWorkload(600.0, 300, ["net"]), config, None,
            lambda stats: stats.shed > 0)


#: Scheduler x workload x pipeline cases for the same-seed property.
SAME_SEED_CASES = {
    f"{workload}-{scheduler}": matrix_case(workload, scheduler)
    for workload in sorted(WORKLOADS) for scheduler in SCHEDULERS
}
SAME_SEED_CASES["full-pipeline"] = full_pipeline_case
SAME_SEED_CASES["single-device"] = single_device_case

#: ``ServeStats.digest()`` of every matrix case, committed so that a
#: change to the engine that alters any statistic fails here even when
#: it is rerun-stable (regen: ``tests/golden/regen.py serve-matrix``).
SERVE_MATRIX = Path(__file__).parent / "golden" / "serve_matrix.json"

#: The ``repro bench --serve`` scenario at test size, seed 0.
SERVE_STEADY_SMALL = "serve-steady-small"


def matrix_sim(name: str, tiny_gpu) -> ServeSim:
    """A fresh simulation of one :data:`SERVE_MATRIX` case."""
    if name == SERVE_STEADY_SMALL:
        return bench_scenario(4_000, 20, 0)
    fleet, profiles, workload, config, pipeline, _ = SAME_SEED_CASES[name](tiny_gpu)
    return ServeSim(fleet, profiles, workload, config, pipeline)


MATRIX_NAMES = [*SAME_SEED_CASES, SERVE_STEADY_SMALL]


def matrix_digests(tiny_gpu) -> dict[str, str]:
    """Digest of every :data:`SERVE_MATRIX` case, by case name."""
    return {name: matrix_sim(name, tiny_gpu).run().digest() for name in MATRIX_NAMES}


def assert_reruns_identical(sim: ServeSim):
    """Run *sim* twice; both runs must give identical statistics."""
    first = sim.run()
    second = sim.run()
    # Whole payloads, not just digests, so a failure shows the field.
    assert first.to_dict() == second.to_dict()
    assert first.digest() == second.digest()
    return first


@pytest.fixture()
def fast_slow_fleet(tiny_gpu):
    fast = ServeDevice("fast#0", replace(tiny_gpu, name="Fast"))
    slow = ServeDevice("slow#0", replace(tiny_gpu, name="Slow"))
    profiles = {
        ("net", "Fast"): make_profile("net", "Fast", 5.0, 0.5),
        ("net", "Slow"): make_profile("net", "Slow", 80.0, 8.0),
    }
    return [fast, slow], profiles


class TestDeterminism:
    def test_same_seed_identical_stats(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=200.0, requests=500, networks=["net"])
        config = ServeConfig(seed=11, scheduler="latency-aware")
        first = run_serve(fleet, profiles, workload, config)
        second = run_serve(fleet, profiles, workload, config)
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("case", list(SAME_SEED_CASES))
    def test_same_seed_identical_stats_matrix(self, tiny_gpu, case):
        fleet, profiles, workload, config, pipeline, covered = (
            SAME_SEED_CASES[case](tiny_gpu)
        )
        stats = assert_reruns_identical(
            ServeSim(fleet, profiles, workload, config, pipeline)
        )
        assert covered(stats)

    @pytest.mark.parametrize("case", MATRIX_NAMES)
    def test_matches_cross_version_golden(self, tiny_gpu, case):
        golden = json.loads(SERVE_MATRIX.read_text())
        assert matrix_sim(case, tiny_gpu).run().digest() == golden[case]

    def test_golden_names_every_case(self):
        assert sorted(json.loads(SERVE_MATRIX.read_text())) == sorted(MATRIX_NAMES)

    @pytest.mark.parametrize("case", MATRIX_NAMES)
    def test_tracing_does_not_change_stats(self, tiny_gpu, case):
        untraced = matrix_sim(case, tiny_gpu).run()
        with capture_trace() as tracer:
            traced = matrix_sim(case, tiny_gpu).run()
        assert tracer.spans  # the traced branches really ran
        assert traced.to_dict() == untraced.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rps=st.floats(50.0, 2000.0),
        requests=st.integers(1, 250),
        max_batch=st.integers(1, 6),
        max_queue=st.integers(1, 32),
        timeout_ms=st.floats(0.0, 4.0),
        scheduler=st.sampled_from(SCHEDULERS),
        admission=st.sampled_from(["none", "slo-aware"]),
        devices=st.integers(1, 4),
    )
    def test_same_seed_identical_stats_random_scenarios(
        self, tiny_gpu, seed, rps, requests, max_batch, max_queue,
        timeout_ms, scheduler, admission, devices,
    ):
        config = ServeConfig(
            slo_ms=6.0, max_batch=max_batch, batch_timeout_ms=timeout_ms,
            max_queue=max_queue, scheduler=scheduler, seed=seed,
            admission=admission,
        )
        profiles = {("net", "Dev"): make_profile("net", "Dev", 1.0, 0.2, **ENERGY)}
        workload = PoissonWorkload(rps, requests, ["net"])
        assert_reruns_identical(
            ServeSim(dev_fleet(tiny_gpu, devices), profiles, workload, config)
        )

    def test_different_seed_differs(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=200.0, requests=500, networks=["net"])
        first = run_serve(fleet, profiles, workload, ServeConfig(seed=1))
        second = run_serve(fleet, profiles, workload, ServeConfig(seed=2))
        assert first.to_dict() != second.to_dict()

    def test_closed_loop_deterministic(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = ClosedLoopWorkload(
            clients=4, requests=200, networks=["net"], think_ms=1.0
        )
        config = ServeConfig(seed=3)
        first = run_serve(fleet, profiles, workload, config)
        second = run_serve(fleet, profiles, workload, config)
        assert first.to_dict() == second.to_dict()
        assert first.completed == 200


class TestBatchingSemantics:
    def test_lone_request_waits_exactly_the_timeout(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = TraceWorkload([(0.0, "net")])
        config = ServeConfig(
            batch_timeout_ms=2.0, max_batch=4, scheduler="latency-aware"
        )
        stats = run_serve(fleet[:1], profiles, workload, config)
        # flush at 2.0 ms, then a batch-1 inference: 5 + 0.5 ms.
        assert stats.latency_max_ms == pytest.approx(2.0 + 5.5)

    def test_full_batch_launches_without_waiting(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = TraceWorkload([(0.0, "net")] * 4)
        config = ServeConfig(batch_timeout_ms=50.0, max_batch=4)
        stats = run_serve(fleet[:1], profiles, workload, config)
        # Launches at t=0 as soon as the 4th request lands: 5 + 4*0.5.
        assert stats.latency_max_ms == pytest.approx(7.0)
        assert stats.devices[0].batches == 1
        assert stats.devices[0].mean_batch == pytest.approx(4.0)

    def test_zero_timeout_serves_singly_when_idle(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = TraceWorkload([(0.0, "net"), (100.0, "net")])
        config = ServeConfig(batch_timeout_ms=0.0, max_batch=8)
        stats = run_serve(fleet[:1], profiles, workload, config)
        assert stats.devices[0].batches == 2
        assert stats.latency_max_ms == pytest.approx(5.5)


class TestAdmissionControl:
    def test_sheds_on_overflow_and_accounts_every_request(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=1000.0, requests=400, networks=["net"])
        config = ServeConfig(max_queue=4, max_batch=2, scheduler="round-robin")
        stats = run_serve([fleet[1]], profiles, workload, config)
        assert stats.shed > 0
        assert stats.offered == 400
        assert stats.completed + stats.shed == stats.offered

    def test_no_shed_below_capacity(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=50.0, requests=300, networks=["net"])
        stats = run_serve([fleet[0]], profiles, workload, ServeConfig())
        assert stats.shed == 0
        assert stats.completed == 300


class TestSchedulers:
    def test_latency_aware_beats_round_robin_p99(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=100.0, requests=2000, networks=["net"])
        rr = run_serve(
            fleet, profiles, workload, ServeConfig(seed=5, scheduler="round-robin")
        )
        la = run_serve(
            fleet, profiles, workload, ServeConfig(seed=5, scheduler="latency-aware")
        )
        # Round-robin sends half the traffic to the 16x-slower device.
        assert la.latency_p99_ms < rr.latency_p99_ms
        assert la.goodput_rps >= rr.goodput_rps

    def test_least_loaded_balances_queues(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=100.0, requests=500, networks=["net"])
        stats = run_serve(
            fleet, profiles, workload, ServeConfig(scheduler="least-loaded")
        )
        assert all(device.requests > 0 for device in stats.devices)

    def test_unknown_scheduler_raises(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=10.0, requests=5, networks=["net"])
        with pytest.raises(KeyError):
            run_serve(fleet, profiles, workload, ServeConfig(scheduler="fifo"))


class TestWorkloads:
    def test_trace_replay_is_exact(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        trace = [(1.0, "net"), (2.5, "net"), (40.0, "net")]
        stats = run_serve(
            [fleet[0]], profiles, TraceWorkload(trace), ServeConfig()
        )
        assert stats.offered == 3
        assert stats.completed == 3

    def test_closed_loop_respects_concurrency(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = ClosedLoopWorkload(
            clients=1, requests=20, networks=["net"], think_ms=0.0
        )
        stats = run_serve([fleet[0]], profiles, workload, ServeConfig(max_batch=8))
        # One client: every batch holds exactly one request.
        assert stats.completed == 20
        assert stats.devices[0].batches == 20


class SpyWorkload(PoissonWorkload):
    """Poisson arrivals that count the engine's ``on_completion`` calls."""

    def __init__(self, closed_loop: bool) -> None:
        super().__init__(600.0, 300, ["net"])
        self.closed_loop = closed_loop
        self.calls = 0

    def on_completion(self, request, now_ms, issued, rng):
        self.calls += 1
        return None


class TestOpenLoopContract:
    """``on_completion`` runs only for ``closed_loop`` workloads."""

    @pytest.mark.parametrize("closed_loop", [False, True])
    def test_on_completion_calls(self, tiny_gpu, closed_loop):
        # The overloaded single-device case, so both completions and
        # sheds happen.
        fleet, profiles, _, config, _, _ = single_device_case(tiny_gpu)
        workload = SpyWorkload(closed_loop)
        stats = run_serve(fleet, profiles, workload, config)
        assert stats.completed and stats.shed
        expected = stats.completed + stats.shed if closed_loop else 0
        assert workload.calls == expected


class TestFleetConstruction:
    def test_build_fleet_counts_and_names(self):
        fleet = build_fleet("gp102:2,tx1")
        assert [d.name for d in fleet] == ["gp102#0", "gp102#1", "tx1#0"]
        assert fleet[0].platform is make_config("gp102")

    def test_build_fleet_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            build_fleet("gp102:0")
        with pytest.raises(ValueError):
            build_fleet("gp102:x")
        with pytest.raises(ValueError):
            build_fleet("   ")
        with pytest.raises(KeyError):
            build_fleet("warpdrive")

    def test_registered_platform_is_servable(self, tiny_gpu):
        register_platform(replace(tiny_gpu, name="Toy"))
        try:
            fleet = build_fleet("toy:2")
            assert [d.name for d in fleet] == ["toy#0", "toy#1"]
            profiles = {("net", "Toy"): make_profile("net", "Toy", 1.0)}
            stats = run_serve(
                fleet, profiles, TraceWorkload([(0.0, "net")]), ServeConfig()
            )
            assert stats.completed == 1
        finally:
            unregister_platform("Toy")

    def test_register_platform_guards(self, tiny_gpu):
        with pytest.raises(ValueError):
            register_platform(replace(tiny_gpu, name="GP102"))
        with pytest.raises(ValueError):
            unregister_platform("gp102")


class TestEngineValidation:
    def test_empty_fleet_rejected(self, fast_slow_fleet):
        _, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=1.0, requests=1, networks=["net"])
        with pytest.raises(ValueError):
            ServeSim([], profiles, workload)

    def test_missing_profiles_rejected(self, fast_slow_fleet):
        fleet, _ = fast_slow_fleet
        workload = PoissonWorkload(rps=1.0, requests=1, networks=["net"])
        with pytest.raises(ValueError):
            ServeSim(fleet, {}, workload)

    def test_stats_shape(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=100.0, requests=50, networks=["net"])
        stats = run_serve(fleet, profiles, workload, ServeConfig(slo_ms=0.001))
        data = stats.to_dict()
        assert data["slo_violations"] == data["completed"]
        assert data["latency_ms"]["p99"] >= data["latency_ms"]["p50"]
        assert len(data["devices"]) == 2
        assert data["per_network"]["net"]["completed"] == stats.completed
        for device in data["devices"]:
            assert 0.0 <= device["utilization"] <= 1.0
