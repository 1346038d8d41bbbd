"""Serving-run result containers: latency tails, goodput, utilization,
per-tenant SLO attainment and cost-per-request.

Percentiles use the nearest-rank method on the sorted latency sample —
no interpolation, so two runs with identical request outcomes report
bit-identical tails (the determinism tests compare ``to_dict`` output
wholesale).  Shed requests never enter a latency sample; they count
only in ``offered`` and therefore in the offered-based ratios
(``goodput_ratio``), never in percentiles.

The ``repro serve --json`` schema is the :meth:`ServeStats.to_dict`
tree; every key is documented on the field it serializes.
:meth:`ServeStats.digest` hashes the canonical JSON form — the
CI ``serve-scale`` job pins one scenario's digest as a golden value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a sorted sample."""
    if not sorted_values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without floats
    return sorted_values[int(rank) - 1]


def downsample(timeline: list[tuple[float, int]], limit: int = 128) -> list[tuple[float, int]]:
    """Stride-sample a (time, depth) timeline to at most *limit* points,
    always keeping the final point."""
    if len(timeline) <= limit:
        return list(timeline)
    stride = -(-len(timeline) // limit)
    sampled = timeline[::stride]
    if sampled[-1] != timeline[-1]:
        sampled.append(timeline[-1])
    return sampled


class DepthTimeline:
    """Bounded online queue-depth recorder.

    A million-request run records a depth sample per enqueue and per
    launch; keeping them all would dwarf the simulation itself.  This
    recorder keeps every ``stride``-th sample and, whenever the buffer
    reaches ``2 * limit`` points, drops every other retained point and
    doubles the stride — a deterministic online downsample whose output
    depends only on the sequence of ``record`` calls, so a rerun of the
    same simulation records the identical timeline.
    """

    __slots__ = ("limit", "stride", "_count", "points")

    def __init__(self, limit: int = 1024) -> None:
        self.limit = limit
        self.stride = 1
        self._count = 0
        self.points: list[tuple[float, int]] = [(0.0, 0)]

    def record(self, time_ms: float, depth: int) -> None:
        count = self._count
        self._count = count + 1
        if count % self.stride:
            return
        points = self.points
        points.append((time_ms, depth))
        if len(points) >= 2 * self.limit:
            del points[::2]
            self.stride *= 2


@dataclass
class TenantServeStats:
    """Per-tenant outcome of one serving run.

    JSON schema (``per_tenant.<name>`` in ``repro serve --json``):
    latency percentiles cover *completed* requests only; shed requests
    count in ``offered`` and ``shed`` and therefore lower
    ``goodput_ratio`` (good completions over offered) but never enter a
    percentile.  ``slo_attainment`` is the completed-only view.
    ``energy_j`` is the tenant's attributed busy energy — its requests'
    share of each batch's GPUWattch dynamic energy plus the static
    energy of the batch window — and ``cost_per_request_j`` divides it
    over the tenant's completions.
    """

    name: str
    slo_ms: float
    priority: int
    offered: int
    completed: int
    shed: int
    slo_violations: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    energy_j: float
    cost_per_request_j: float

    @property
    def slo_attainment(self) -> float:
        """Fraction of *completed* requests inside the tenant SLO."""
        if not self.completed:
            return 0.0
        return (self.completed - self.slo_violations) / self.completed

    @property
    def goodput_ratio(self) -> float:
        """Good completions over *offered* requests — shed counts against."""
        if not self.offered:
            return 0.0
        return (self.completed - self.slo_violations) / self.offered

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "slo_ms": self.slo_ms,
            "priority": self.priority,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "slo_violations": self.slo_violations,
            "slo_attainment": self.slo_attainment,
            "goodput_ratio": self.goodput_ratio,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p95": self.latency_p95_ms,
                "p99": self.latency_p99_ms,
                "mean": self.latency_mean_ms,
                "max": self.latency_max_ms,
            },
            "energy_j": self.energy_j,
            "cost_per_request_j": self.cost_per_request_j,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantServeStats":
        latency = data["latency_ms"]
        return cls(
            name=data["name"],
            slo_ms=data["slo_ms"],
            priority=data["priority"],
            offered=data["offered"],
            completed=data["completed"],
            shed=data["shed"],
            slo_violations=data["slo_violations"],
            latency_p50_ms=latency["p50"],
            latency_p95_ms=latency["p95"],
            latency_p99_ms=latency["p99"],
            latency_mean_ms=latency["mean"],
            latency_max_ms=latency["max"],
            energy_j=data["energy_j"],
            cost_per_request_j=data["cost_per_request_j"],
        )

    def summary(self) -> str:
        return (
            f"{self.name or 'default'}: {self.completed}/{self.offered} "
            f"p99={self.latency_p99_ms:.2f}ms slo={self.slo_attainment:.1%} "
            f"good={self.goodput_ratio:.1%} "
            f"cost={self.cost_per_request_j:.4f}J shed={self.shed}"
        )


@dataclass
class DeviceServeStats:
    """Per-device outcome of one serving run."""

    name: str
    platform: str
    requests: int
    batches: int
    shed: int
    busy_ms: float
    utilization: float
    mean_batch: float
    queue_depth: list[tuple[float, int]] = field(default_factory=list)
    #: Simulated time the device was part of the fleet (equals the run
    #: duration for static fleets; shorter for autoscaled devices).
    active_ms: float = 0.0
    #: GPUWattch energy over the active span: static power integrated
    #: over ``active_ms`` plus per-batch dynamic energy.
    energy_j: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "platform": self.platform,
            "requests": self.requests,
            "batches": self.batches,
            "shed": self.shed,
            "busy_ms": self.busy_ms,
            "active_ms": self.active_ms,
            "utilization": self.utilization,
            "mean_batch": self.mean_batch,
            "energy_j": self.energy_j,
            "queue_depth": [[t, d] for t, d in self.queue_depth],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceServeStats":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        return cls(
            name=data["name"],
            platform=data["platform"],
            requests=data["requests"],
            batches=data["batches"],
            shed=data["shed"],
            busy_ms=data["busy_ms"],
            utilization=data["utilization"],
            mean_batch=data["mean_batch"],
            queue_depth=[(t, d) for t, d in data["queue_depth"]],
            active_ms=data.get("active_ms", 0.0),
            energy_j=data.get("energy_j", 0.0),
        )

    def summary(self) -> str:
        """One-line rendering (the :class:`repro.stats.Stats` protocol)."""
        return (
            f"{self.name} ({self.platform}): util={self.utilization:.3f} "
            f"requests={self.requests} batches={self.batches} "
            f"mean_batch={self.mean_batch:.2f} shed={self.shed}"
        )


@dataclass
class ServeStats:
    """Aggregate outcome of one serving run.

    The ``repro serve --json`` schema is exactly :meth:`to_dict`:

    * fleet-level counters (``offered``/``completed``/``shed``/
      ``slo_violations``) always satisfy ``completed + shed ==
      offered``;
    * ``latency_ms`` percentiles cover completed requests only — shed
      requests never contribute a latency sample;
    * ``slo_attainment`` is good completions over *completed* while
      ``goodput_ratio`` is good completions over *offered*, so load
      shedding shows up in the latter but can never flatter the former;
    * ``per_tenant`` maps tenant name to the
      :class:`TenantServeStats` schema (per-tenant SLOs, priorities,
      attainment and cost-per-request);
    * ``energy`` carries the GPUWattch split: ``busy_j`` (dynamic plus
      busy-window static, attributed to tenants), ``idle_j`` (static
      leakage of idle capacity), ``total_j`` and the fleet-level
      ``cost_per_request_j`` (total over completions);
    * ``shed_reasons`` breaks ``shed`` down by admission phase
      (``overflow`` / ``priority`` / ``slo``);
    * ``autoscale`` lists scaling actions as ``[time_ms, delta,
      accepting_after]`` triples plus the peak fleet size.
    """

    scheduler: str
    seed: int
    slo_ms: float
    offered: int
    completed: int
    shed: int
    slo_violations: int
    duration_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    throughput_rps: float
    goodput_rps: float
    devices: list[DeviceServeStats] = field(default_factory=list)
    per_network: dict[str, dict] = field(default_factory=dict)
    per_tenant: dict[str, TenantServeStats] = field(default_factory=dict)
    shed_reasons: dict[str, int] = field(default_factory=dict)
    energy: dict[str, float] = field(default_factory=dict)
    autoscale: dict = field(default_factory=dict)

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests inside the SLO."""
        if not self.completed:
            return 0.0
        return (self.completed - self.slo_violations) / self.completed

    @property
    def goodput_ratio(self) -> float:
        """Good completions over offered requests: shed requests count
        in the denominator (they are failures the fleet turned away),
        but never in any latency percentile."""
        if not self.offered:
            return 0.0
        return (self.completed - self.slo_violations) / self.offered

    def to_dict(self) -> dict:
        """Stable JSON-serializable form (insertion-ordered)."""
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "slo_ms": self.slo_ms,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "slo_violations": self.slo_violations,
            "slo_attainment": self.slo_attainment,
            "goodput_ratio": self.goodput_ratio,
            "duration_ms": self.duration_ms,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p95": self.latency_p95_ms,
                "p99": self.latency_p99_ms,
                "mean": self.latency_mean_ms,
                "max": self.latency_max_ms,
            },
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "devices": [device.to_dict() for device in self.devices],
            "per_network": self.per_network,
            "per_tenant": {
                name: tenant.to_dict()
                for name, tenant in self.per_tenant.items()
            },
            "shed_reasons": dict(self.shed_reasons),
            "energy": dict(self.energy),
            "autoscale": dict(self.autoscale),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServeStats":
        """Inverse of :meth:`to_dict`; raises on malformed input.

        Derived ratios (``slo_attainment``/``goodput_ratio``) are
        recomputed, not read back.  The multi-tenant keys are optional
        so pre-pipeline payloads still load.
        """
        latency = data["latency_ms"]
        return cls(
            scheduler=data["scheduler"],
            seed=data["seed"],
            slo_ms=data["slo_ms"],
            offered=data["offered"],
            completed=data["completed"],
            shed=data["shed"],
            slo_violations=data["slo_violations"],
            duration_ms=data["duration_ms"],
            latency_p50_ms=latency["p50"],
            latency_p95_ms=latency["p95"],
            latency_p99_ms=latency["p99"],
            latency_mean_ms=latency["mean"],
            latency_max_ms=latency["max"],
            throughput_rps=data["throughput_rps"],
            goodput_rps=data["goodput_rps"],
            devices=[DeviceServeStats.from_dict(d) for d in data["devices"]],
            per_network=dict(data["per_network"]),
            per_tenant={
                name: TenantServeStats.from_dict(t)
                for name, t in data.get("per_tenant", {}).items()
            },
            shed_reasons=dict(data.get("shed_reasons", {})),
            energy=dict(data.get("energy", {})),
            autoscale=dict(data.get("autoscale", {})),
        )

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form.

        Two runs produce the same digest iff they produced identical
        statistics; the CI ``serve-scale`` job pins one scenario's
        digest golden, and ``repro bench --serve`` checks every timed
        run against the first.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def summary(self) -> str:
        """One-line rendering (the :class:`repro.stats.Stats` protocol)."""
        return (
            f"{self.scheduler}: {self.completed}/{self.offered} completed "
            f"p99={self.latency_p99_ms:.2f}ms "
            f"slo={self.slo_attainment:.1%} "
            f"goodput={self.goodput_rps:.1f}rps shed={self.shed}"
        )


def latency_summary(latencies: list[float], slo_ms: float) -> dict:
    """p50/p95/p99/mean summary of one latency sample (helper for the
    per-network breakdown)."""
    ordered = sorted(latencies)
    count = len(ordered)
    return {
        "completed": count,
        "p50_ms": percentile(ordered, 50),
        "p95_ms": percentile(ordered, 95),
        "p99_ms": percentile(ordered, 99),
        "mean_ms": sum(ordered) / count if count else 0.0,
        "slo_violations": sum(1 for value in ordered if value > slo_ms),
    }
