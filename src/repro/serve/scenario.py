"""Declarative serving scenarios: files (TOML/JSON) or dicts -> runs.

A scenario describes one multi-tenant serving simulation — fleet,
policies, autoscaling and per-tenant request streams — as data rather
than code, in the load-time-validation style of
:mod:`repro.campaign.spec`: anything that loads at all can run.  The
grammar (TOML shown; the JSON/dict form is the same tree):

.. code-block:: toml

    [scenario]
    name = "day-in-the-life"       # required
    description = "..."            # optional
    seed = 0                       # optional (default 0)

    [fleet]
    devices = "gp102:4,tx1:2"      # required fleet spec (build_fleet)

    [serving]                      # optional; ServeConfig defaults
    scheduler = "least-loaded"     # serving policy (SCHEDULERS)
    max_batch = 8
    batch_timeout_ms = 2.0
    max_queue = 256
    slo_ms = 50.0                  # fallback SLO for untagged requests

    [admission]                    # optional; omitted = no shedding
    policy = "slo-aware"           # ADMISSION_POLICIES
    priority_fill = [1.0, 0.75, 0.5]
    slo_slack = 1.0

    [autoscale]                    # optional; omitted = fixed fleet
    template = "gp102"             # required inside the table
    min_devices = 2                # remaining keys = AutoscaleConfig
    max_devices = 8

    [[tenants]]                    # at least one required
    name = "interactive"           # unique
    slo_ms = 25.0                  # required
    priority = 0
    weight = 1.0
    [tenants.arrival]
    kind = "diurnal"               # poisson|bursty|diurnal|closed|trace
    base_rps = 120.0               # remaining keys are kind-specific
    requests = 100000              # (the workload constructor kwargs)
    networks = ["alexnet"]

Every key is checked, through the same :class:`repro.specfile.SpecReader`
checks campaigns use: unknown tables, unknown keys inside a table,
ill-typed values, unknown networks/platforms/schedulers/policies and
malformed arrival specs all raise :class:`ScenarioError` naming the
offending field.  ``trace`` arrivals resolve relative ``path`` values
against the scenario file's directory.  Every serving run is a
scenario (``repro serve`` flags compile to a one-tenant tree), and
:meth:`ServeScenario.sim` builds its simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.platforms import list_platforms, make_config
from repro.serve.admission import ADMISSION_POLICIES
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.devices import ServeDevice, build_fleet
from repro.serve.engine import ServeConfig, ServeSim
from repro.serve.pipeline import ServePipeline, make_pipeline
from repro.serve.schedulers import SCHEDULERS
from repro.serve.tenants import MultiTenantWorkload, Tenant
from repro.serve.workload import (
    BurstyWorkload,
    ClosedLoopWorkload,
    DiurnalWorkload,
    PoissonWorkload,
    TraceWorkload,
    Workload,
)
from repro.specfile import SpecReader


class ScenarioError(ValueError):
    """A malformed or unsatisfiable serving scenario."""


def _fail(message: str) -> ScenarioError:
    return ScenarioError(f"serve scenario: {message}")


_spec = SpecReader(_fail)

#: Keys each fixed table of the grammar accepts.
TOP_LEVEL_KEYS = (
    "scenario", "fleet", "serving", "admission", "autoscale", "tenants",
)
SCENARIO_KEYS = ("name", "description", "seed")
TENANT_KEYS = ("name", "slo_ms", "priority", "weight", "arrival")

#: Typed ``[serving]`` knobs and their defaults: the fields of
#: :class:`ServeConfig` that no other table or key sets.
SERVING_FIELDS = {
    knob.name: knob.default
    for knob in fields(ServeConfig)
    if knob.name not in ("scheduler", "seed", "admission")
}

#: Per generated arrival kind: its workload class and typed keyword
#: fields with defaults.  Every kind also takes ``requests`` (see
#: :func:`arrival_fields`), ``networks`` and ``weights``; ``trace``
#: takes only ``path``.
_ARRIVALS = {
    "poisson": (PoissonWorkload, {"rps": 100.0}),
    "bursty": (BurstyWorkload, {
        "rps": 100.0, "on_ms": 100.0, "off_ms": 400.0, "off_factor": 0.1,
    }),
    "diurnal": (DiurnalWorkload, {
        "base_rps": 100.0, "period_ms": 86_400_000.0, "amplitude": 0.8,
        "phase_ms": 0.0, "segments": 96,
    }),
    "closed": (ClosedLoopWorkload, {"clients": 32, "think_ms": 10.0}),
}
ARRIVAL_KINDS = (*_ARRIVALS, "trace")
#: Arrival kind of each workload class, for :meth:`ServeScenario.describe`.
_KIND_OF = {cls: kind for kind, (cls, _) in _ARRIVALS.items()} | {TraceWorkload: "trace"}


def arrival_fields(kind: str) -> dict:
    """The typed keyword fields of generated arrival *kind*, with defaults."""
    return {"requests": 10_000, **_ARRIVALS[kind][1]}


@dataclass(frozen=True)
class ServeScenario:
    """One validated serving scenario, ready to build and run."""

    name: str
    description: str = ""
    seed: int = 0
    #: Fleet spec string (``build_fleet`` grammar).
    fleet_spec: str = "gp102"
    #: Engine knobs (scheduler, batching, queue bound, fallback SLO).
    config: ServeConfig = field(default_factory=ServeConfig)
    #: Constructor kwargs of the admission policy (policy name is in
    #: ``config.admission``).
    admission_options: dict = field(default_factory=dict)
    #: Autoscaler configuration, or None for a fixed fleet.
    autoscale: AutoscaleConfig | None = None
    #: Validated ``(tenant, workload)`` pairs, in declaration order.
    parts: tuple = ()

    @property
    def networks(self) -> tuple[str, ...]:
        """Every network any tenant serves, sorted and deduplicated."""
        return tuple(sorted({
            name for _, workload in self.parts for name in workload.networks
        }))

    @property
    def tenants(self) -> tuple[Tenant, ...]:
        return tuple(tenant for tenant, _ in self.parts)

    def fleet(self) -> list[ServeDevice]:
        """A fresh fleet instance from the validated spec."""
        return build_fleet(self.fleet_spec)

    def workload(self) -> MultiTenantWorkload:
        """A fresh multi-tenant workload over the validated parts."""
        return MultiTenantWorkload(list(self.parts))

    def pipeline(self) -> ServePipeline:
        """A fresh pipeline with the scenario's policies."""
        return make_pipeline(
            admission=self.config.admission,
            autoscale=self.autoscale,
            admission_options=dict(self.admission_options),
        )

    def platforms(self) -> list:
        """Every platform that needs latency profiles: the fleet's, plus
        the autoscale template (scale-ups may add a platform it lacks)."""
        platforms = [device.platform for device in self.fleet()]
        if self.autoscale is not None:
            platforms.append(make_config(self.autoscale.template))
        return platforms

    def sim(self, profiles) -> ServeSim:
        """A fresh, ready-to-run simulation over *profiles* (keyed
        ``(network, platform name)``, covering :meth:`platforms`)."""
        return ServeSim(
            self.fleet(), profiles, self.workload(), self.config, self.pipeline()
        )

    def describe(self) -> dict:
        """Flat parameter mapping for the report's scenario table.

        Each tenant's arrival kind, rate, request count and networks
        follow the policies, keyed by field name alone for a one-tenant
        scenario and ``<tenant>.<field>`` otherwise.
        """
        config = self.config
        out: dict = {
            "scenario": self.name,
            "devices": self.fleet_spec,
            "scheduler": config.scheduler,
            "admission": config.admission,
            **{knob: getattr(config, knob) for knob in SERVING_FIELDS},
            "seed": self.seed,
            "tenants": ", ".join(
                f"{t.name} (slo {t.slo_ms:g} ms, prio {t.priority})"
                for t in self.tenants
            ),
        }
        if self.autoscale is not None:
            out["autoscale"] = (
                f"{self.autoscale.template} x "
                f"[{self.autoscale.min_devices}, {self.autoscale.max_devices}]"
            )
        for tenant, workload in self.parts:
            prefix = f"{tenant.name}." if len(self.parts) > 1 else ""
            out[prefix + "arrival"] = _KIND_OF[type(workload)]
            if hasattr(workload, "rps"):
                out[prefix + "rps"] = workload.rps
            out[prefix + "requests"] = workload.requests
            out[prefix + "networks"] = ",".join(workload.networks)
        return out


def _weights(table: dict, count: int, where: str):
    raw = table.get("weights")
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) != count:
        raise _fail(
            f"{where}.weights must list one weight per network ({count})"
        )
    return tuple(float(_spec.number(w, f"{where}.weights")) for w in raw)


def _build_arrival(table, where: str, base_dir: Path) -> Workload:
    _spec.table(table, where)
    kind = _spec.choice(table.get("kind"), f"{where}.kind", ARRIVAL_KINDS)
    if kind == "trace":
        _spec.keys(table, ("kind", "path"), where)
        path = Path(_spec.string(table.get("path"), f"{where}.path"))
        if not path.is_absolute():
            path = base_dir / path
        try:
            return TraceWorkload.from_json(path)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise _fail(f"{where}: {exc}") from exc
    defaults = arrival_fields(kind)
    _spec.keys(table, ("kind", "networks", "weights", *defaults), where)
    networks = _spec.networks(table.get("networks"), f"{where}.networks")
    kwargs = _spec.fields(table, defaults, where)
    try:
        return _ARRIVALS[kind][0](
            networks=networks,
            weights=_weights(table, len(networks), where),
            **kwargs,
        )
    except ValueError as exc:
        raise _fail(f"{where}: {exc}") from exc


def _build_tenant(table, index: int, base_dir: Path):
    where = f"tenants[{index}]"
    _spec.table(table, where, TENANT_KEYS)
    name = _spec.string(table.get("name"), f"{where}.name")
    arrival = table.get("arrival")
    if arrival is None:
        raise _fail(f"{where} is missing its [tenants.arrival] table")
    knobs = _spec.fields(
        table, {"slo_ms": 0.0, "priority": 0, "weight": 1.0}, where
    )
    try:
        tenant = Tenant(name, **knobs)
    except ValueError as exc:
        raise _fail(f"{where}: {exc}") from exc
    return tenant, _build_arrival(arrival, f"{where}.arrival", base_dir)


def scenario_from_dict(data: dict, base_dir: str | Path = ".") -> ServeScenario:
    """Validate a raw scenario tree into a :class:`ServeScenario`."""
    _spec.table(data, "the scenario file", TOP_LEVEL_KEYS)
    base_dir = Path(base_dir)

    meta = _spec.table(data.get("scenario", {}), "[scenario]", SCENARIO_KEYS)
    name = _spec.string(meta.get("name"), "[scenario].name")
    description = _spec.string(
        meta.get("description", ""), "[scenario].description", optional=True
    )
    seed = _spec.integer(meta.get("seed", ServeConfig.seed), "[scenario].seed")

    fleet_table = _spec.table(data.get("fleet", {}), "[fleet]", ("devices",))
    fleet_spec = _spec.string(fleet_table.get("devices"), "[fleet].devices")
    try:
        build_fleet(fleet_spec)
    except (KeyError, ValueError) as exc:
        raise _fail(f"[fleet] devices: {exc}") from exc

    serving = _spec.table(
        data.get("serving", {}), "[serving]", ("scheduler", *SERVING_FIELDS)
    )
    # Labelled plainly: ``repro serve --scheduler`` errors come from here.
    scheduler = _spec.choice(
        serving.get("scheduler", ServeConfig.scheduler), "scheduler", SCHEDULERS
    )
    knobs = _spec.fields(serving, SERVING_FIELDS, "[serving]")

    admission_table = _spec.table(data.get("admission", {}), "[admission]")
    admission = _spec.choice(
        admission_table.get("policy", ServeConfig.admission), "[admission].policy",
        ADMISSION_POLICIES,
    )
    admission_options = {
        key: value for key, value in admission_table.items() if key != "policy"
    }

    autoscale = None
    if data.get("autoscale") is not None:
        autoscale = _autoscale(data["autoscale"])

    raw_tenants = data.get("tenants")
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise _fail("at least one [[tenants]] table is required")
    parts = tuple(
        _build_tenant(table, index, base_dir)
        for index, table in enumerate(raw_tenants)
    )
    names = [tenant.name for tenant, _ in parts]
    if len(set(names)) != len(names):
        raise _fail(f"duplicate tenant names in {names}")

    try:
        scenario = ServeScenario(
            name=name,
            description=description,
            seed=seed,
            fleet_spec=fleet_spec,
            config=ServeConfig(
                **knobs, scheduler=scheduler, seed=seed, admission=admission
            ),
            admission_options=admission_options,
            autoscale=autoscale,
            parts=parts,
        )
        # Surface bad admission kwargs (e.g. a typo'd priority_fill) at
        # load time, not at run time.
        scenario.pipeline()
    except (TypeError, ValueError) as exc:
        raise _fail(str(exc)) from exc
    return scenario


def _autoscale(table) -> AutoscaleConfig:
    """The ``[autoscale]`` table: a registered template platform plus
    :class:`AutoscaleConfig` knobs typed by their defaults."""
    defaults = {
        knob.name: knob.default
        for knob in fields(AutoscaleConfig) if knob.name != "template"
    }
    _spec.table(table, "[autoscale]", ("template", *defaults))
    template = _spec.string(table.get("template"), "[autoscale].template")
    if template.lower() not in list_platforms():
        raise _fail(
            f"[autoscale] template {template!r} is not a registered "
            f"platform; available: {', '.join(list_platforms())}"
        )
    try:
        return AutoscaleConfig(
            template=template, **_spec.fields(table, defaults, "[autoscale]")
        )
    except ValueError as exc:
        raise _fail(f"[autoscale]: {exc}") from exc


def load_scenario(source) -> ServeScenario:
    """Load a scenario from a TOML/JSON file path or a raw dict.

    Reading follows :meth:`repro.specfile.SpecReader.read` (``trace``
    arrival paths resolve against the file's directory); IO, parse and
    validation errors all surface as :class:`ScenarioError`.
    """
    data, base_dir = _spec.read(source)
    return scenario_from_dict(data, base_dir)
