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

Every key is checked: unknown tables, unknown keys inside a table,
unknown networks/platforms/schedulers/policies and malformed
arrival specs all raise :class:`ScenarioError` naming the offending
value.  ``trace`` arrivals resolve relative ``path`` values against
the scenario file's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.suite import EXTENSION_NETWORKS, NETWORK_ORDER
from repro.serve.admission import ADMISSION_POLICIES
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.devices import ServeDevice, build_fleet
from repro.serve.engine import ServeConfig
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


class ScenarioError(ValueError):
    """A malformed or unsatisfiable serving scenario."""


def _fail(message: str) -> ScenarioError:
    return ScenarioError(f"serve scenario: {message}")


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
        names: set[str] = set()
        for _, workload in self.parts:
            names.update(getattr(workload, "networks", ()))
            # Trace replays carry no declared network list; collect
            # from the recorded arrivals instead.
            for arrival in getattr(workload, "arrivals", ()):
                names.add(arrival.network)
        return tuple(sorted(names))

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

    def describe(self) -> dict:
        """Flat parameter mapping for the report's scenario table."""
        out: dict = {
            "scenario": self.name,
            "devices": self.fleet_spec,
            "scheduler": self.config.scheduler,
            "admission": self.config.admission,
            "max_batch": self.config.max_batch,
            "batch_timeout_ms": self.config.batch_timeout_ms,
            "max_queue": self.config.max_queue,
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
        return out


def _check_keys(table: dict, known: tuple[str, ...], where: str) -> None:
    unknown = [key for key in table if key not in known]
    if unknown:
        raise _fail(
            f"unknown key {unknown[0]!r} in {where}; "
            f"known keys: {', '.join(known)}"
        )


def _number(table: dict, key: str, where: str, default):
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{where}.{key} must be a number, got {value!r}")
    return value


def _integer(table: dict, key: str, where: str, default):
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _networks(raw, where: str) -> tuple[str, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise _fail(f"{where}.networks must be a non-empty list")
    known = tuple(NETWORK_ORDER) + tuple(EXTENSION_NETWORKS)
    for name in raw:
        if name not in known:
            raise _fail(
                f"{where}: unknown network {name!r}; "
                f"available: {', '.join(known)}"
            )
    return tuple(raw)


def _weights(table: dict, count: int, where: str):
    raw = table.get("weights")
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) != count:
        raise _fail(
            f"{where}.weights must list one weight per network ({count})"
        )
    return tuple(float(w) for w in raw)


#: Keys accepted by each arrival kind (beyond "kind" itself).
_ARRIVAL_KEYS = {
    "poisson": ("rps", "requests", "networks", "weights"),
    "bursty": ("rps", "requests", "networks", "weights",
               "on_ms", "off_ms", "off_factor"),
    "diurnal": ("base_rps", "requests", "networks", "weights",
                "period_ms", "amplitude", "phase_ms", "segments"),
    "closed": ("clients", "requests", "networks", "weights", "think_ms"),
    "trace": ("path",),
}


def _build_arrival(table: dict, where: str, base_dir: Path) -> Workload:
    if not isinstance(table, dict):
        raise _fail(f"{where} must be a table")
    kind = table.get("kind")
    if kind not in _ARRIVAL_KEYS:
        raise _fail(
            f"{where}.kind must be one of {', '.join(_ARRIVAL_KEYS)}; "
            f"got {kind!r}"
        )
    _check_keys(table, ("kind",) + _ARRIVAL_KEYS[kind], where)
    try:
        if kind == "trace":
            raw_path = table.get("path")
            if not isinstance(raw_path, str) or not raw_path:
                raise _fail(f"{where}.path is required for trace arrivals")
            path = Path(raw_path)
            if not path.is_absolute():
                path = base_dir / path
            return TraceWorkload.from_json(path)
        networks = _networks(table.get("networks"), where)
        weights = _weights(table, len(networks), where)
        requests = _integer(table, "requests", where, 10_000)
        if kind == "poisson":
            return PoissonWorkload(
                _number(table, "rps", where, 100.0), requests, networks,
                weights=weights,
            )
        if kind == "bursty":
            return BurstyWorkload(
                _number(table, "rps", where, 100.0), requests, networks,
                on_ms=_number(table, "on_ms", where, 100.0),
                off_ms=_number(table, "off_ms", where, 400.0),
                off_factor=_number(table, "off_factor", where, 0.1),
                weights=weights,
            )
        if kind == "diurnal":
            return DiurnalWorkload(
                _number(table, "base_rps", where, 100.0), requests, networks,
                period_ms=_number(table, "period_ms", where, 86_400_000.0),
                amplitude=_number(table, "amplitude", where, 0.8),
                phase_ms=_number(table, "phase_ms", where, 0.0),
                segments=_integer(table, "segments", where, 96),
                weights=weights,
            )
        return ClosedLoopWorkload(
            _integer(table, "clients", where, 32), requests, networks,
            think_ms=_number(table, "think_ms", where, 10.0),
            weights=weights,
        )
    except ScenarioError:
        raise
    except (OSError, KeyError, ValueError) as exc:
        raise _fail(f"{where}: {exc}") from exc


def _build_tenant(table: dict, index: int, base_dir: Path):
    where = f"tenants[{index}]"
    if not isinstance(table, dict):
        raise _fail(f"{where} must be a table")
    _check_keys(
        table, ("name", "slo_ms", "priority", "weight", "arrival"), where
    )
    name = table.get("name")
    if not isinstance(name, str) or not name:
        raise _fail(f"{where}.name must be a non-empty string")
    arrival = table.get("arrival")
    if arrival is None:
        raise _fail(f"{where} is missing its [tenants.arrival] table")
    try:
        tenant = Tenant(
            name,
            slo_ms=_number(table, "slo_ms", where, 0.0),
            priority=_integer(table, "priority", where, 0),
            weight=_number(table, "weight", where, 1.0),
        )
    except ValueError as exc:
        raise _fail(f"{where}: {exc}") from exc
    return tenant, _build_arrival(arrival, f"{where}.arrival", base_dir)


def scenario_from_dict(data: dict, base_dir: str | Path = ".") -> ServeScenario:
    """Validate a raw scenario tree into a :class:`ServeScenario`."""
    if not isinstance(data, dict):
        raise _fail(
            f"expected a table/dict at the top level, got {type(data).__name__}"
        )
    base_dir = Path(base_dir)
    _check_keys(
        data,
        ("scenario", "fleet", "serving", "admission", "autoscale", "tenants"),
        "the scenario file",
    )

    meta = data.get("scenario", {})
    if not isinstance(meta, dict) or not meta.get("name"):
        raise _fail("missing [scenario] name")
    _check_keys(meta, ("name", "description", "seed"), "[scenario]")
    seed = _integer(meta, "seed", "[scenario]", 0)

    fleet_table = data.get("fleet", {})
    if not isinstance(fleet_table, dict) or not fleet_table.get("devices"):
        raise _fail("missing [fleet] devices spec")
    _check_keys(fleet_table, ("devices",), "[fleet]")
    fleet_spec = str(fleet_table["devices"])
    try:
        build_fleet(fleet_spec)
    except (KeyError, ValueError) as exc:
        raise _fail(f"[fleet] devices: {exc}") from exc

    serving = data.get("serving", {})
    if not isinstance(serving, dict):
        raise _fail("[serving] must be a table")
    _check_keys(
        serving,
        ("scheduler", "max_batch", "batch_timeout_ms", "max_queue", "slo_ms"),
        "[serving]",
    )
    scheduler = serving.get("scheduler", "latency-aware")
    if scheduler not in SCHEDULERS:
        raise _fail(
            f"unknown scheduler {scheduler!r}; "
            f"available: {', '.join(SCHEDULERS)}"
        )

    admission_table = data.get("admission", {})
    if not isinstance(admission_table, dict):
        raise _fail("[admission] must be a table")
    admission = admission_table.get("policy", "none") if admission_table else "none"
    if admission not in ADMISSION_POLICIES:
        raise _fail(
            f"unknown admission policy {admission!r}; "
            f"available: {', '.join(ADMISSION_POLICIES)}"
        )
    admission_options = {
        key: value for key, value in admission_table.items() if key != "policy"
    }

    autoscale_table = data.get("autoscale")
    autoscale = None
    if autoscale_table is not None:
        if not isinstance(autoscale_table, dict) or not autoscale_table.get("template"):
            raise _fail("[autoscale] requires a template platform name")
        try:
            autoscale = AutoscaleConfig(**autoscale_table)
        except (TypeError, ValueError) as exc:
            raise _fail(f"[autoscale]: {exc}") from exc
        from repro.platforms import list_platforms

        if autoscale.template.lower() not in list_platforms():
            raise _fail(
                f"[autoscale] template {autoscale.template!r} is not a "
                f"registered platform; available: {', '.join(list_platforms())}"
            )

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
        config = ServeConfig(
            slo_ms=_number(serving, "slo_ms", "[serving]", 50.0),
            max_batch=_integer(serving, "max_batch", "[serving]", 8),
            batch_timeout_ms=_number(
                serving, "batch_timeout_ms", "[serving]", 2.0
            ),
            max_queue=_integer(serving, "max_queue", "[serving]", 256),
            scheduler=scheduler,
            seed=seed,
            admission=admission,
        )
        # Surface bad admission kwargs (e.g. a typo'd priority_fill) at
        # load time, not at run time.
        make_pipeline(
            admission=admission,
            autoscale=autoscale,
            admission_options=dict(admission_options),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise _fail(str(exc)) from exc

    return ServeScenario(
        name=str(meta["name"]),
        description=str(meta.get("description", "")),
        seed=seed,
        fleet_spec=fleet_spec,
        config=config,
        admission_options=admission_options,
        autoscale=autoscale,
        parts=parts,
    )


def load_scenario(source) -> ServeScenario:
    """Load a scenario from a TOML/JSON file path or a raw dict.

    File format follows the suffix (``.toml`` / ``.json``); anything
    else is tried as TOML first, then JSON.  Parse errors, IO errors
    and validation errors all surface as :class:`ScenarioError`.
    """
    if isinstance(source, dict):
        return scenario_from_dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".json":
        parsers = (_parse_json,)
    elif suffix == ".toml":
        parsers = (_parse_toml,)
    else:
        parsers = (_parse_toml, _parse_json)
    errors = []
    for parse in parsers:
        try:
            return scenario_from_dict(parse(text), path.parent)
        except ScenarioError:
            raise
        except ValueError as exc:
            errors.append(str(exc))
    raise _fail(f"cannot parse {path}: {'; '.join(errors)}")


def _parse_toml(text: str) -> dict:
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValueError(f"TOML: {exc}") from exc


def _parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"JSON: {exc}") from exc
