"""``repro.serve`` — discrete-event inference serving over simulated fleets.

The benchmark suite characterizes each network on each accelerator in
isolation; this package answers the deployment question those numbers
set up: given a *fleet* of simulated devices (any mix of the Table II
platforms), a request stream, per-tenant SLOs and a batching policy,
what latency distribution, goodput, utilization and cost-per-request
does each policy mix deliver?

The layer cake — the staged request pipeline is documented in
:mod:`repro.serve.pipeline` and DESIGN.md §15:

* :mod:`repro.serve.events` — the deterministic event queue (a binary
  heap);
* :mod:`repro.serve.profiles` — per-(network, device, batch) latency
  profiles derived from batch-1 :func:`simulate_network` runs (through
  the persistent kernel-result cache), carrying the GPUWattch energy
  split;
* :mod:`repro.serve.devices` — fleet construction and per-device state;
* :mod:`repro.serve.batching` — the FIFO dynamic batcher;
* :mod:`repro.serve.schedulers` — the :class:`Scheduler` protocol and
  the round-robin / least-loaded / latency-aware policies;
* :mod:`repro.serve.admission` — SLO-aware admission control with
  priority classes and load shedding;
* :mod:`repro.serve.autoscale` — queue-depth/SLO autoscaling with
  structural hysteresis;
* :mod:`repro.serve.tenants` — multi-tenant workload overlays with
  per-tenant SLOs and priorities;
* :mod:`repro.serve.workload` — open-loop (Poisson, bursty, diurnal,
  trace replay) and closed-loop request generators;
* :mod:`repro.serve.pipeline` — the pluggable stage bundle;
* :mod:`repro.serve.scenario` — the TOML scenario loader;
* :mod:`repro.serve.engine` — the simulator itself (one heap event loop);
* :mod:`repro.serve.stats` — the :class:`ServeStats` result container;
* :mod:`repro.serve.report` — markdown reporting in the harness style.

Everything is deterministic: one ``random.Random(seed)`` drives all
stochastic choices and the event queue breaks time ties by insertion
order, so a fixed seed reproduces ``ServeStats`` bit-for-bit.
"""

from repro.serve.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    NullAdmission,
    SloAwareAdmission,
    make_admission,
)
from repro.serve.autoscale import (
    AutoscaleConfig,
    AutoscaleSignals,
    QueueDepthAutoscaler,
)
from repro.serve.batching import DynamicBatcher, Request
from repro.serve.devices import ServeDevice, build_fleet
from repro.serve.engine import ServeConfig, ServeSim, run_serve
from repro.serve.events import EventQueue, SlottedEventQueue
from repro.serve.pipeline import ServePipeline, make_pipeline
from repro.serve.profiles import LatencyProfile, build_profiles, profile_from_result
from repro.serve.scenario import ScenarioError, ServeScenario, load_scenario
from repro.serve.schedulers import SCHEDULERS, Scheduler, make_scheduler
from repro.serve.stats import ServeStats, TenantServeStats
from repro.serve.tenants import (
    DEFAULT_TENANT_NAME,
    MultiTenantWorkload,
    Tenant,
    default_tenant,
)
from repro.serve.workload import (
    Arrival,
    BurstyWorkload,
    ClosedLoopWorkload,
    DiurnalWorkload,
    PoissonWorkload,
    TraceWorkload,
    Workload,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "Arrival",
    "AutoscaleConfig",
    "AutoscaleSignals",
    "BurstyWorkload",
    "ClosedLoopWorkload",
    "DEFAULT_TENANT_NAME",
    "DiurnalWorkload",
    "DynamicBatcher",
    "EventQueue",
    "LatencyProfile",
    "MultiTenantWorkload",
    "NullAdmission",
    "PoissonWorkload",
    "QueueDepthAutoscaler",
    "Request",
    "SCHEDULERS",
    "ScenarioError",
    "Scheduler",
    "ServeConfig",
    "ServeDevice",
    "ServePipeline",
    "ServeScenario",
    "ServeSim",
    "ServeStats",
    "SloAwareAdmission",
    "SlottedEventQueue",
    "Tenant",
    "TenantServeStats",
    "TraceWorkload",
    "Workload",
    "build_fleet",
    "build_profiles",
    "default_tenant",
    "load_scenario",
    "make_admission",
    "make_pipeline",
    "make_scheduler",
    "profile_from_result",
    "run_serve",
]
