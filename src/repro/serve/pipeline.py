"""The staged request pipeline: pluggable policies around the engine.

Every request that enters the simulator flows through five stages
(DESIGN.md §15):

1. **admission** — the class gate (:meth:`~repro.serve.admission.
   AdmissionPolicy.assess`) sheds low-priority work from fleet-
   aggregate signals before any per-device state is touched;
2. **scheduling** — the :class:`~repro.serve.schedulers.Scheduler`
   names the target device (or none, which sheds on overflow), then
   the admission SLO gate (:meth:`~repro.serve.admission.
   AdmissionPolicy.place`) may still reject an infeasible placement;
3. **batching** — the device's per-network
   :class:`~repro.serve.batching.DynamicBatcher` accumulates the
   request until its batch is full or times out;
4. **dispatch** — the engine launches the oldest ready batch of an
   idle device and prices it with the latency profile;
5. **completion** — latencies, SLO outcomes, tenant energy shares and
   closed-loop reissues are recorded, and the device redispatches.

Orthogonally, the **autoscaler** observes the fleet at a fixed
simulated cadence (tick events) and grows or drains it.

:class:`ServePipeline` bundles the pluggable stages.  Policies must be
deterministic — same inputs, same answers — because rerunning one
:class:`~repro.serve.engine.ServeSim` must reproduce bit-identical
statistics.  Policies may keep per-run state if they
expose ``reset()``, which the engine calls at the start of every run;
schedulers may additionally expose ``attach(depths, max_queue)`` (see
:mod:`repro.serve.schedulers`) to scan the fleet-shared depth array
instead of device objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.admission import AdmissionPolicy, NullAdmission, make_admission
from repro.serve.autoscale import AutoscaleConfig, QueueDepthAutoscaler
from repro.serve.schedulers import Scheduler, make_scheduler


@dataclass
class ServePipeline:
    """The pluggable stages of one serving simulation.

    ``scheduler=None`` defers to the engine's ``ServeConfig.scheduler``
    name; ``autoscaler=None`` runs a fixed fleet.
    """

    admission: AdmissionPolicy = field(default_factory=NullAdmission)
    scheduler: Scheduler | None = None
    autoscaler: QueueDepthAutoscaler | None = None


def make_pipeline(
    admission: str = "none",
    scheduler: str | None = None,
    autoscale: AutoscaleConfig | None = None,
    admission_options: dict | None = None,
) -> ServePipeline:
    """Build a :class:`ServePipeline` from policy names and configs."""
    return ServePipeline(
        admission=make_admission(admission, **(admission_options or {})),
        scheduler=make_scheduler(scheduler) if scheduler else None,
        autoscaler=QueueDepthAutoscaler(autoscale) if autoscale else None,
    )
