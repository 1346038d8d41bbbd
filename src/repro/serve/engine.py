"""The discrete-event serving simulator: one event loop, one pipeline.

One :class:`ServeSim` run drives the staged request pipeline
(:mod:`repro.serve.pipeline`) over four event kinds:

* **arrival** — the request passes the admission class gate, the
  scheduler names a device, the admission SLO gate checks feasibility,
  and the survivor is enqueued (sheds record their reason; open-loop
  workloads chain the next arrival here, so the event queue stays
  O(fleet) deep);
* **flush** — a dynamic-batch deadline: an idle device launches its
  timed-out partial batch instead of waiting for it to fill;
* **complete** — a batch retires: per-request latencies, per-tenant
  SLO outcomes and energy shares are recorded, closed-loop clients
  think-and-reissue, and the freed device immediately launches its
  next ready batch (or schedules a flush for the earliest deadline);
* **tick** — the autoscaler (when configured) reads the fleet signals
  and grows or drains the fleet; ticks reschedule themselves only
  while other events remain, so they never keep a finished run alive
  (and they never advance the result clock).

Devices are work-conserving up to the batching policy: an idle device
with a non-full, non-timed-out batch *waits* for the deadline — that is
what a batch timeout means — but never holds requests beyond it, and a
device that frees up takes the oldest ready batch at once.

Determinism: all randomness flows from one ``random.Random(seed)``, the
event queue breaks ties by insertion order, and every fleet scan is in
fleet order — a fixed seed reproduces :class:`ServeStats` exactly.

**Event loop.**  :meth:`ServeSim.run` pops one event at a time off
the binary heap (:class:`~repro.serve.events.EventQueue`) and hands it
to its handler; DESIGN.md §15 records why this is the only loop.

When a tracer is installed (:mod:`repro.obs`), each request leaves a
queue-wait span (arrival → launch) and an execute span nested inside
its batch's span, all in simulated milliseconds
(:data:`repro.obs.tracer.SIM_MS`), plus shed/SLO counters (sheds also
by reason), batch-size, latency and per-tenant latency histograms, a
per-device queue-depth gauge and a fleet-size gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Mapping, Sequence

from repro.obs.tracer import SIM_MS, get_tracer
from repro.platforms import make_config
from repro.serve.admission import SHED_OVERFLOW
from repro.serve.autoscale import AutoscaleSignals
from repro.serve.batching import Request
from repro.serve.devices import DeviceState, ServeDevice
from repro.serve.events import (
    ARRIVAL,
    COMPLETE,
    FLUSH,
    TICK,
    EventQueue,
)
from repro.serve.pipeline import ServePipeline, make_pipeline
from repro.serve.profiles import LatencyProfile, profiles_for_platform
from repro.serve.schedulers import make_scheduler
from repro.serve.stats import (
    DeviceServeStats,
    ServeStats,
    TenantServeStats,
    downsample,
    latency_summary,
    percentile,
)
from repro.serve.tenants import DEFAULT_TENANT_NAME, Tenant, default_tenant
from repro.serve.workload import Arrival, Workload

@dataclass(frozen=True)
class ServeConfig:
    """Policy knobs of one serving run."""

    slo_ms: float = 50.0
    max_batch: int = 8
    batch_timeout_ms: float = 2.0
    max_queue: int = 256
    scheduler: str = "latency-aware"
    seed: int = 0
    #: Admission policy name (used when no explicit pipeline is given).
    admission: str = "none"


class _TenantAcc:
    """Per-tenant accumulators of one run (hot-path mutable state)."""

    __slots__ = ("tenant", "offered", "shed", "violations", "energy_j", "latencies")

    def __init__(self, tenant: Tenant) -> None:
        self.tenant = tenant
        self.offered = 0
        self.shed = 0
        self.violations = 0
        self.energy_j = 0.0
        self.latencies: list[float] = []


class ServeSim:
    """One serving simulation over a fleet, workload and pipeline."""

    def __init__(
        self,
        fleet: Sequence[ServeDevice],
        profiles: Mapping[tuple[str, str], LatencyProfile],
        workload: Workload,
        config: ServeConfig | None = None,
        pipeline: ServePipeline | None = None,
    ) -> None:
        if not fleet:
            raise ValueError("fleet must contain at least one device")
        self.config = config or ServeConfig()
        self.workload = workload
        self.pipeline = pipeline or make_pipeline(admission=self.config.admission)
        self.fleet = list(fleet)
        self._slices: list[dict[str, LatencyProfile]] = []
        for device in self.fleet:
            slice_ = profiles_for_platform(profiles, device.platform.name)
            if not slice_:
                raise ValueError(
                    f"no latency profiles for platform {device.platform.name!r}"
                )
            self._slices.append(slice_)
        scaler = self.pipeline.autoscaler
        if scaler is not None:
            self._template_platform = make_config(scaler.config.template)
            self._template_slice = profiles_for_platform(
                profiles, self._template_platform.name
            )
            if not self._template_slice:
                raise ValueError(
                    "no latency profiles for autoscale template "
                    f"{scaler.config.template!r}"
                )
        self.devices: list[DeviceState] = []

    # ------------------------------------------------------------------
    def _make_state(
        self,
        device: ServeDevice,
        slice_: Mapping[str, LatencyProfile],
        index: int,
        start_ms: float,
    ) -> DeviceState:
        config = self.config
        self._depths.append(0)
        state = DeviceState(
            device,
            slice_,
            max_batch=config.max_batch,
            batch_timeout_ms=config.batch_timeout_ms,
            max_queue=config.max_queue,
            index=index,
            depths=self._depths,
        )
        state.static_watts = max(p.static_watts for p in slice_.values())
        if start_ms:
            state.finalize(0.0)  # discard the span opened at t=0 ...
            state.active_ms = 0.0
            state.activate(start_ms)  # ... and open one at creation time
        return state

    def _setup_run(self) -> None:
        """(Re)build all per-run state: a ServeSim can run repeatedly
        from the same constructor args."""
        config = self.config
        self._depths: list[int] = []
        self.devices = []
        for index, device in enumerate(self.fleet):
            self.devices.append(
                self._make_state(device, self._slices[index], index, 0.0)
            )
        scheduler = self.pipeline.scheduler or make_scheduler(config.scheduler)
        reset = getattr(scheduler, "reset", None)
        if reset is not None:
            reset()
        attach = getattr(scheduler, "attach", None)
        if attach is not None:
            attach(self._depths, config.max_queue)
        self._scheduler = scheduler
        self._scheduler_label = getattr(scheduler, "name", config.scheduler)
        self._admission = self.pipeline.admission
        self._autoscaler = self.pipeline.autoscaler
        if self._autoscaler is not None:
            self._autoscaler.reset()
        tenants = getattr(self.workload, "tenants", None)
        if tenants:
            self._tacc = {t.name: _TenantAcc(t) for t in tenants}
        else:
            self._tacc = {
                DEFAULT_TENANT_NAME: _TenantAcc(default_tenant(config.slo_ms))
            }
        self._issued = 0
        self._offered = 0
        self._shed = 0
        self._violations = 0
        self._clock = 0.0
        self._latencies: list[float] = []
        self._per_network: dict[str, list[float]] = {}
        self._shed_reasons: dict[str, int] = {}
        self._pending_total = 0
        self._accepting_count = len(self.devices)
        self._peak_devices = self._accepting_count
        self._win_completed = 0
        self._win_good = 0
        self._drained: list[int] = []
        self._created = 0
        self._scale_events: list[list] = []
        self._tracer = get_tracer()
        self._obs = self._tracer.enabled
        self._batch_seq = 0

    # ------------------------------------------------------------------
    def run(self) -> ServeStats:
        """Drain the workload and return the aggregate statistics."""
        rng = Random(self.config.seed)
        self._setup_run()
        queue = EventQueue()
        for arrival in self.workload.prime(rng):
            queue.push(arrival.time_ms, ARRIVAL, arrival)
            self._issued += 1
        scaler = self._autoscaler
        if scaler is not None and queue:
            queue.push(scaler.config.interval_ms, TICK, None)
        self._drain_heap(queue, rng)
        return self._build_stats()

    def _drain_heap(self, queue: EventQueue, rng: Random) -> None:
        """The event loop: one heap pop per event."""
        while queue:
            event = queue.pop()
            kind = event.kind
            now = event.time_ms
            if kind == ARRIVAL:
                self._clock = now
                self._on_arrival(event.payload, now, queue, rng)
            elif kind == COMPLETE:
                self._clock = now
                self._on_complete(event.payload, now, queue, rng)
            elif kind == FLUSH:
                self._clock = now
                self._on_flush(event.payload, now, queue)
            else:
                self._on_tick(now, queue, len(queue))

    # ------------------------------------------------------------------
    def _push_arrival(self, arrival: Arrival | None, queue) -> None:
        if arrival is not None:
            queue.push(arrival.time_ms, ARRIVAL, arrival)
            self._issued += 1

    def _on_arrival(self, arrival: Arrival, now: float, queue, rng: Random) -> None:
        self._push_arrival(self.workload.next_arrival(arrival, rng), queue)
        tenant_name = arrival.tenant or DEFAULT_TENANT_NAME
        request = Request(self._offered, arrival.network, now, tenant_name)
        self._offered += 1
        acc = self._tacc[tenant_name]
        acc.offered += 1
        tenant = acc.tenant
        admission = self._admission
        index: int | None = None
        reason = admission.assess(
            request,
            tenant,
            self._pending_total,
            self._accepting_count * self.config.max_queue,
            now,
        )
        if reason is None:
            index = self._scheduler.choose(request, self.devices, now)
            if index is None:
                reason = SHED_OVERFLOW
            else:
                state = self.devices[index]
                if not state.accepting or state.full:
                    reason = SHED_OVERFLOW
                else:
                    reason = admission.place(request, tenant, state, now)
        if reason is not None:
            self._shed += 1
            acc.shed += 1
            self._shed_reasons[reason] = self._shed_reasons.get(reason, 0) + 1
            if index is not None:
                self.devices[index].shed += 1
            if self._obs:
                tracer = self._tracer
                tracer.instant(
                    f"shed {request.network}", "serve", SIM_MS, now,
                    process="serve", thread="workload",
                    args={"request": request.id, "reason": reason},
                )
                tracer.metrics.counter("serve.shed").inc()
                tracer.metrics.counter(f"serve.shed.{reason}").inc()
            # Closed-loop clients observe the rejection and issue again.
            self._push_arrival(
                self.workload.on_completion(request, now, self._issued, rng), queue
            )
            return
        state = self.devices[index]
        state.enqueue(request, now)
        self._pending_total += 1
        if self._obs:
            tracer = self._tracer
            tracer.instant(
                f"enqueue {request.network}", "serve", SIM_MS, now,
                process="serve", thread="workload",
                args={"request": request.id, "device": state.device.name},
            )
            tracer.metrics.counter("serve.enqueued").inc()
        self._dispatch(state, index, now, queue)

    def _on_flush(self, index: int, now: float, queue) -> None:
        state = self.devices[index]
        if state.flush_at == now:
            state.flush_at = None
        if not state.busy:
            self._dispatch(state, index, now, queue)

    def _on_complete(
        self, payload: tuple[int, list[Request]], now: float, queue, rng: Random
    ) -> None:
        index, batch = payload
        state = self.devices[index]
        state.busy = False
        first = batch[0]
        size = len(batch)
        # Attribute the batch's energy to its member requests: each
        # carries its own dynamic energy plus an equal share of the
        # static energy burned over the batch window.
        duration = first.finish_ms - first.start_ms
        profile = state.profiles[first.network]
        share = profile.dynamic_j + state.static_watts * duration / 1e3 / size
        latencies = self._latencies
        per_network = self._per_network
        tacc = self._tacc
        obs = self._obs
        good = 0
        for request in batch:
            latency = request.finish_ms - request.arrival_ms
            latencies.append(latency)
            network_lats = per_network.get(request.network)
            if network_lats is None:
                network_lats = per_network[request.network] = []
            network_lats.append(latency)
            acc = tacc[request.tenant]
            acc.latencies.append(latency)
            acc.energy_j += share
            if latency > acc.tenant.slo_ms:
                acc.violations += 1
                self._violations += 1
            else:
                good += 1
            if obs:
                metrics = self._tracer.metrics
                metrics.histogram("serve.latency_ms").observe(latency)
                metrics.histogram(
                    f"serve.tenant_latency_ms.{request.tenant}"
                ).observe(latency)
                metrics.counter("serve.completed").inc()
                if latency > acc.tenant.slo_ms:
                    metrics.counter("serve.slo_violations").inc()
            self._push_arrival(
                self.workload.on_completion(request, now, self._issued, rng), queue
            )
        self._win_completed += size
        self._win_good += good
        self._dispatch(state, index, now, queue)
        if not state.accepting:
            state.maybe_retire(now)

    def _on_tick(self, now: float, queue, outstanding: int) -> None:
        scaler = self._autoscaler
        signals = AutoscaleSignals(
            now_ms=now,
            accepting=self._accepting_count,
            pending_total=self._pending_total,
            window_completed=self._win_completed,
            window_good=self._win_good,
        )
        delta = scaler.decide(signals)
        if delta > 0:
            self._scale_up(now)
        elif delta < 0:
            self._scale_down(now)
        self._win_completed = 0
        self._win_good = 0
        # Reschedule only while other events remain: an exhausted
        # simulation must not be kept alive by its own ticks.
        if outstanding:
            queue.push(now + scaler.config.interval_ms, TICK, None)

    def _scale_up(self, now: float) -> None:
        if self._drained:
            # Reactivate the most recently drained device: it is the
            # most likely to still have warm (undrained) queue state.
            index = self._drained.pop()
            self.devices[index].activate(now)
        else:
            scaler = self._autoscaler
            index = len(self.devices)
            device = ServeDevice(
                f"{scaler.config.template}~{self._created}", self._template_platform
            )
            self._created += 1
            self.devices.append(
                self._make_state(device, self._template_slice, index, now)
            )
        self._accepting_count += 1
        if self._accepting_count > self._peak_devices:
            self._peak_devices = self._accepting_count
        self._scale_events.append([now, 1, self._accepting_count])
        if self._obs:
            self._tracer.metrics.gauge("serve.fleet_size", domain=SIM_MS).set(
                float(self._accepting_count), now
            )

    def _scale_down(self, now: float) -> None:
        # Drain the highest-index accepting device (the most recently
        # added); decide() guarantees one above min_devices exists.
        for index in range(len(self.devices) - 1, -1, -1):
            state = self.devices[index]
            if state.accepting:
                state.drain(now)
                self._drained.append(index)
                self._accepting_count -= 1
                self._scale_events.append([now, -1, self._accepting_count])
                if self._obs:
                    self._tracer.metrics.gauge(
                        "serve.fleet_size", domain=SIM_MS
                    ).set(float(self._accepting_count), now)
                return

    # ------------------------------------------------------------------
    def _dispatch(self, state: DeviceState, index: int, now: float, queue) -> None:
        """Launch the oldest ready batch of an idle device, or schedule
        the flush for the earliest pending deadline."""
        if state.busy or not state.pending:
            return
        ready_network: str | None = None
        ready_oldest = 0.0
        pending_deadline: float | None = None
        for network, batcher in state.batchers.items():
            oldest = batcher.oldest_arrival_ms
            if oldest is None:
                continue
            if batcher.ready(now):
                if ready_network is None or oldest < ready_oldest:
                    ready_network, ready_oldest = network, oldest
            else:
                deadline = batcher.deadline_ms()
                if pending_deadline is None or deadline < pending_deadline:
                    pending_deadline = deadline
        if ready_network is not None:
            self._launch(state, index, ready_network, now, queue)
        elif pending_deadline is not None and (
            state.flush_at is None or pending_deadline < state.flush_at
        ):
            state.flush_at = pending_deadline
            queue.push(pending_deadline, FLUSH, index)

    def _launch(
        self, state: DeviceState, index: int, network: str, now: float, queue
    ) -> None:
        batch = state.take_batch(network, now)
        size = len(batch)
        self._pending_total -= size
        profile = state.profiles[network]
        duration = profile.latency_ms(size)
        finish = now + duration
        state.busy = True
        state.busy_until = finish
        state.busy_ms += duration
        state.batches += 1
        state.served += size
        state.dynamic_j += profile.dynamic_j * size
        for request in batch:
            request.start_ms = now
            request.finish_ms = finish
        if self._obs:
            tracer = self._tracer
            device = state.device.name
            batch_id = self._batch_seq
            self._batch_seq += 1
            # Batch first, then its member requests on the same thread
            # and interval: Perfetto nests the request spans inside.
            tracer.span(
                f"batch {network}", "batch", SIM_MS, now, duration,
                process="serve", thread=device,
                args={"batch_id": batch_id, "size": size, "network": network},
            )
            for request in batch:
                tracer.span(
                    f"execute r{request.id}", "request", SIM_MS, now, duration,
                    process="serve", thread=device,
                    args={"request": request.id, "batch_id": batch_id},
                )
                tracer.span(
                    f"queue r{request.id}", "queue", SIM_MS,
                    request.arrival_ms, now - request.arrival_ms,
                    process="serve", thread=f"{device} queue",
                    args={"request": request.id, "batch_id": batch_id},
                )
            metrics = tracer.metrics
            metrics.histogram("serve.batch_size").observe(float(size))
            metrics.gauge(f"serve.queue_depth.{device}", domain=SIM_MS).set(
                float(state.pending), now
            )
        queue.push(finish, COMPLETE, (index, batch))

    # ------------------------------------------------------------------
    def _tenant_stats(self) -> dict[str, TenantServeStats]:
        per_tenant: dict[str, TenantServeStats] = {}
        for name in sorted(self._tacc):
            acc = self._tacc[name]
            ordered = sorted(acc.latencies)
            completed = len(ordered)
            per_tenant[name] = TenantServeStats(
                name=name,
                slo_ms=acc.tenant.slo_ms,
                priority=acc.tenant.priority,
                offered=acc.offered,
                completed=completed,
                shed=acc.shed,
                slo_violations=acc.violations,
                latency_p50_ms=percentile(ordered, 50),
                latency_p95_ms=percentile(ordered, 95),
                latency_p99_ms=percentile(ordered, 99),
                latency_mean_ms=sum(ordered) / completed if completed else 0.0,
                latency_max_ms=ordered[-1] if ordered else 0.0,
                energy_j=acc.energy_j,
                cost_per_request_j=acc.energy_j / completed if completed else 0.0,
            )
        return per_tenant

    def _build_stats(self) -> ServeStats:
        duration = self._clock
        duration_s = duration / 1e3 if duration > 0 else 0.0
        ordered = sorted(self._latencies)
        completed = len(ordered)
        violations = self._violations
        good = completed - violations
        for state in self.devices:
            state.finalize(duration)
        devices = [
            DeviceServeStats(
                name=state.device.name,
                platform=state.device.platform.name,
                requests=state.served,
                batches=state.batches,
                shed=state.shed,
                busy_ms=state.busy_ms,
                utilization=state.busy_ms / duration if duration > 0 else 0.0,
                mean_batch=state.served / state.batches if state.batches else 0.0,
                queue_depth=downsample(state.timeline.points),
                active_ms=state.active_ms,
                energy_j=state.energy_j(),
            )
            for state in self.devices
        ]
        total_j = sum(state.energy_j() for state in self.devices)
        busy_j = sum(
            state.static_watts * state.busy_ms / 1e3 + state.dynamic_j
            for state in self.devices
        )
        autoscale: dict = {}
        if self._autoscaler is not None:
            autoscale = {
                "events": self._scale_events,
                "peak_devices": self._peak_devices,
                "final_devices": self._accepting_count,
            }
        return ServeStats(
            scheduler=self._scheduler_label,
            seed=self.config.seed,
            slo_ms=self.config.slo_ms,
            offered=self._offered,
            completed=completed,
            shed=self._shed,
            slo_violations=violations,
            duration_ms=duration,
            latency_p50_ms=percentile(ordered, 50),
            latency_p95_ms=percentile(ordered, 95),
            latency_p99_ms=percentile(ordered, 99),
            latency_mean_ms=sum(ordered) / completed if completed else 0.0,
            latency_max_ms=ordered[-1] if ordered else 0.0,
            throughput_rps=completed / duration_s if duration_s else 0.0,
            goodput_rps=good / duration_s if duration_s else 0.0,
            devices=devices,
            per_network={
                network: latency_summary(values, self.config.slo_ms)
                for network, values in sorted(self._per_network.items())
            },
            per_tenant=self._tenant_stats(),
            shed_reasons={
                reason: self._shed_reasons[reason]
                for reason in sorted(self._shed_reasons)
            },
            energy={
                "total_j": total_j,
                "busy_j": busy_j,
                "idle_j": total_j - busy_j,
                "cost_per_request_j": total_j / completed if completed else 0.0,
            },
            autoscale=autoscale,
        )


def run_serve(
    fleet: Sequence[ServeDevice],
    profiles: Mapping[tuple[str, str], LatencyProfile],
    workload: Workload,
    config: ServeConfig | None = None,
    pipeline: ServePipeline | None = None,
) -> ServeStats:
    """Convenience wrapper: build a :class:`ServeSim` and run it."""
    return ServeSim(fleet, profiles, workload, config, pipeline).run()
