"""Tests for multi-tenant workloads (``repro.serve.tenants``).

The load-bearing guarantee: each tenant's arrival stream is drawn from
its own private generator, so the offered load is independent of how
streams interleave — and therefore of the scheduler/admission policy
under test.  Comparing policies on a multi-tenant scenario compares
policies, not accidentally-perturbed workloads.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.serve import (
    ClosedLoopWorkload,
    MultiTenantWorkload,
    PoissonWorkload,
    ServeConfig,
    ServeDevice,
    ServeSim,
    Tenant,
)
from repro.serve.tenants import DEFAULT_TENANT_NAME, default_tenant
from repro.serve.profiles import KernelTerm, LatencyProfile


def make_profile(network, platform, base_ms, per_item_ms=0.0):
    terms = (
        (KernelTerm(per_item_ms * 1e6, 1, 1, 1),) if per_item_ms else ()
    )
    return LatencyProfile(network, platform, 1.0, base_ms * 1e6, terms)


def drain(workload, seed=0, limit=10_000):
    """Exhaust an open-loop workload; returns tagged arrivals."""
    rng = Random(seed)
    frontier = list(workload.prime(rng))
    out = []
    while frontier and len(out) < limit:
        frontier.sort(key=lambda a: (a.time_ms, a.index))
        arrival = frontier.pop(0)
        out.append(arrival)
        nxt = workload.next_arrival(arrival, rng)
        if nxt is not None:
            frontier.append(nxt)
    return out


class TestTenantValidation:
    @pytest.mark.parametrize("kwargs,msg", [
        ({"name": "", "slo_ms": 10.0}, "non-empty"),
        ({"name": "t", "slo_ms": 0.0}, "slo_ms"),
        ({"name": "t", "slo_ms": 10.0, "priority": -1}, "priority"),
        ({"name": "t", "slo_ms": 10.0, "weight": 0.0}, "weight"),
    ])
    def test_invalid_tenants_rejected(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            Tenant(**kwargs)

    def test_default_tenant(self):
        tenant = default_tenant(42.0)
        assert tenant.name == DEFAULT_TENANT_NAME
        assert tenant.slo_ms == 42.0
        assert tenant.priority == 0

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MultiTenantWorkload([
                (Tenant("a", slo_ms=1.0), PoissonWorkload(10.0, 5, ["net"])),
                (Tenant("a", slo_ms=2.0), PoissonWorkload(10.0, 5, ["net"])),
            ])

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiTenantWorkload([])


class TestStreamIndependence:
    def parts(self):
        return [
            (Tenant("a", slo_ms=10.0),
             PoissonWorkload(200.0, 80, ["net"])),
            (Tenant("b", slo_ms=20.0, priority=1),
             PoissonWorkload(300.0, 120, ["rnn"])),
        ]

    def test_arrivals_tagged_with_owner(self):
        arrivals = drain(MultiTenantWorkload(self.parts()))
        assert {a.tenant for a in arrivals} == {"a", "b"}
        assert all(a.network == "net" for a in arrivals if a.tenant == "a")
        assert all(a.network == "rnn" for a in arrivals if a.tenant == "b")
        assert sum(a.tenant == "a" for a in arrivals) == 80
        assert sum(a.tenant == "b" for a in arrivals) == 120

    def test_stream_unperturbed_by_other_tenants(self):
        """Tenant a's arrival times are identical whether or not
        tenant b exists — each stream owns its generator."""
        alone = drain(MultiTenantWorkload(self.parts()[:1]))
        mixed = drain(MultiTenantWorkload(self.parts()))
        a_alone = [(x.time_ms, x.network) for x in alone]
        a_mixed = [(x.time_ms, x.network) for x in mixed if x.tenant == "a"]
        assert a_mixed == a_alone

    def test_reprime_reproduces_stream(self):
        workload = MultiTenantWorkload(self.parts())
        first = [(a.time_ms, a.tenant) for a in drain(workload, seed=3)]
        second = [(a.time_ms, a.tenant) for a in drain(workload, seed=3)]
        assert second == first


class TestEngineAttribution:
    def test_per_tenant_stats_partition_totals(self, tiny_gpu):
        fleet = [
            ServeDevice(f"dev#{i}", replace(tiny_gpu, name="Dev"))
            for i in range(2)
        ]
        profiles = {("net", "Dev"): make_profile("net", "Dev", 1.0, 0.2)}
        workload = MultiTenantWorkload([
            (Tenant("open", slo_ms=15.0),
             PoissonWorkload(400.0, 200, ["net"])),
            (Tenant("closed", slo_ms=50.0, priority=1),
             ClosedLoopWorkload(4, 100, ["net"], think_ms=0.5)),
        ])
        config = ServeConfig(
            slo_ms=15.0, max_batch=4, max_queue=16,
            scheduler="least-loaded", seed=17, admission="slo-aware",
        )
        stats = ServeSim(fleet, profiles, workload, config).run()
        per = stats.per_tenant
        assert set(per) == {"open", "closed"}
        assert sum(t.offered for t in per.values()) == stats.offered
        assert sum(t.completed for t in per.values()) == stats.completed
        assert sum(t.shed for t in per.values()) == stats.shed
        assert sum(t.energy_j for t in per.values()) == pytest.approx(
            stats.energy["total_j"]
        )
        # Per-tenant SLOs differ from the fleet default and are the
        # ones attainment is judged against.
        assert per["open"].slo_ms == 15.0
        assert per["closed"].slo_ms == 50.0

    def test_single_stream_runs_attribute_to_default_tenant(self, tiny_gpu):
        fleet = [ServeDevice("dev#0", replace(tiny_gpu, name="Dev"))]
        profiles = {("net", "Dev"): make_profile("net", "Dev", 1.0)}
        config = ServeConfig(slo_ms=10.0, seed=1)
        stats = ServeSim(
            fleet, profiles, PoissonWorkload(100.0, 50, ["net"]), config
        ).run()
        assert set(stats.per_tenant) == {DEFAULT_TENANT_NAME}
        assert stats.per_tenant[DEFAULT_TENANT_NAME].offered == 50
        assert stats.per_tenant[DEFAULT_TENANT_NAME].slo_ms == 10.0
