"""Declarative campaign specs: files (TOML/JSON) or dicts -> validated grids.

A campaign describes a design-space sweep over six axes —

    network x platform x l1_kb x scheduler x fidelity x batch

— as data rather than code, the way the VTR task runner describes flow
sweeps.  The grammar (TOML shown; the JSON/dict form is the same tree):

.. code-block:: toml

    [campaign]
    name = "l1-sweep"              # required
    description = "..."            # optional
    mode = "cartesian"             # "cartesian" (default) or "zip"
    fidelity = "light"             # base fidelity when not an axis

    [axes]                         # every axis takes a value list
    network = ["alexnet", "gru"]   # required, validated vs the suite
    platform = ["gp102"]           # validated vs platforms.registry
    l1_kb = [0, 64, 128, 256]      # KB; "default" keeps the platform L1
    scheduler = ["gto", "lrr"]     # warp schedulers
    batch = [1, 4, 8]              # inference batch sizes

    [[filters]]                    # drop points matching ALL entries
    network = ["gru", "lstm"]
    l1_kb = [128, 256]

    [frontier]                     # optional
    objectives = ["latency_ms", "energy_per_inf_j", "footprint_kb"]
    tolerance = 0.02               # compare tolerance (relative)

``mode = "zip"`` pairs the axes element-wise instead of taking the
cross product: every multi-valued axis must then have the same length
(single-valued axes broadcast).  Objectives minimize by default; prefix
with ``max:`` to maximize (e.g. ``"max:throughput_rps"``).

Everything is validated at load time, through the same
:class:`repro.specfile.SpecReader` checks serve scenarios use: unknown
tables, unknown keys in ``[campaign]``, ``[axes]``, ``[frontier]`` or a
filter, ill-typed values, and unknown networks, platforms, schedulers,
fidelities or metrics all raise :class:`CampaignError` naming the
offending field — so a campaign that plans at all can execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.expand import AXIS_ORDER
from repro.campaign.qor import QOR_METRICS
from repro.gpu.config import FIDELITIES
from repro.gpu.scheduler import SCHEDULERS
from repro.platforms import list_platforms
from repro.specfile import SpecReader

#: Default Pareto objectives: the paper's cycles/energy/footprint
#: trade-off, batch-amortized.  All minimized.
DEFAULT_OBJECTIVES = ("latency_ms", "energy_per_inf_j", "footprint_kb")

#: Expansion-size guard: campaigns beyond this are almost certainly a
#: spec typo (e.g. a batch list pasted into l1_kb).
MAX_POINTS = 1_000_000

#: Keys each table of the grammar accepts; anything else is an error.
TOP_LEVEL_KEYS = ("campaign", "axes", "filters", "frontier")
CAMPAIGN_KEYS = ("name", "description", "mode", "fidelity")
FRONTIER_KEYS = ("objectives", "tolerance")


class CampaignError(ValueError):
    """A malformed or unsatisfiable campaign spec."""


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign: metadata, axis grids, filters, frontier."""

    name: str
    description: str = ""
    #: "cartesian" (cross product) or "zip" (element-wise pairing).
    mode: str = "cartesian"
    #: axis name -> value tuple, complete over :data:`AXIS_ORDER`.
    axes: dict = field(default_factory=dict)
    #: Drop rules: a point matching every entry of any rule is dropped.
    filters: tuple = ()
    #: ``(metric, sign)`` pairs; sign +1 minimizes, -1 maximizes.
    objectives: tuple = ()
    #: Relative tolerance for golden-frontier comparison.
    tolerance: float = 0.02

    def axis(self, name: str) -> tuple:
        """The validated value tuple of one axis."""
        return self.axes[name]

    def objective_labels(self) -> tuple[str, ...]:
        """Objectives in their serialized ``min:metric`` spelling."""
        return tuple(
            f"{'min' if sign > 0 else 'max'}:{metric}"
            for metric, sign in self.objectives
        )


def _fail(message: str) -> "CampaignError":
    return CampaignError(f"campaign spec: {message}")


_spec = SpecReader(_fail)


def _as_tuple(value) -> tuple:
    """A single scalar or a list, as a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _validate_axis(name: str, values: tuple) -> tuple:
    """One axis' values: typed, known, non-empty, deduplicated."""
    if not values:
        raise _fail(f"axis {name!r} has no values")
    what = f"[axes].{name}"
    if name == "network":
        out = _spec.networks(values, what)
    elif name == "platform":
        known = list_platforms()
        out = tuple(
            _spec.choice(_spec.string(value, what).lower(), what, known)
            for value in values
        )
    elif name == "l1_kb":
        out = tuple(
            None if value == "default"
            else _spec.integer(value, f"{what} (KB or 'default')", minimum=0)
            for value in values
        )
    elif name == "scheduler":
        out = tuple(_spec.choice(value, what, SCHEDULERS) for value in values)
    elif name == "fidelity":
        out = tuple(_spec.choice(value, what, FIDELITIES) for value in values)
    else:  # batch; [axes] keys are checked against AXIS_ORDER
        out = tuple(_spec.integer(value, what, minimum=1) for value in values)
    # Every raw value is now a str or an int, so hashing is safe.
    if len(set(values)) != len(values):
        raise _fail(f"axis {name!r} repeats a value: {list(values)}")
    return out


def _validate_filters(raw_filters) -> tuple:
    if not isinstance(raw_filters, (list, tuple)):
        raise _fail(f"[[filters]] must be a list of tables, got {raw_filters!r}")
    rules = []
    for index, rule in enumerate(raw_filters):
        _spec.table(rule, f"filters[{index}]", AXIS_ORDER)
        if not rule:
            raise _fail(f"filters[{index}] must not be empty")
        rules.append({axis: _as_tuple(values) for axis, values in rule.items()})
    return tuple(rules)


def _parse_objective(raw) -> tuple[str, int]:
    raw = _spec.string(raw, "[frontier].objectives entry")
    sign = 1
    metric = raw
    if ":" in raw:
        direction, metric = raw.split(":", 1)
        if direction == "max":
            sign = -1
        elif direction != "min":
            raise _fail(
                f"objective direction must be 'min' or 'max', got {raw!r}"
            )
    return _spec.choice(metric, "QoR metric", QOR_METRICS), sign


def campaign_from_dict(data: dict) -> CampaignSpec:
    """Validate a raw spec tree into a :class:`CampaignSpec`."""
    _spec.table(data, "the campaign file", TOP_LEVEL_KEYS)
    meta = _spec.table(data.get("campaign", {}), "[campaign]", CAMPAIGN_KEYS)
    name = _spec.string(meta.get("name"), "[campaign].name")
    description = _spec.string(
        meta.get("description", ""), "[campaign].description", optional=True
    )
    mode = _spec.choice(
        meta.get("mode", "cartesian"), "[campaign].mode", ("cartesian", "zip")
    )
    base_fidelity = _spec.choice(
        meta.get("fidelity", "default"), "[campaign].fidelity", FIDELITIES
    )

    raw_axes = _spec.table(data.get("axes", {}), "[axes]", AXIS_ORDER)
    if "network" not in raw_axes:
        raise _fail("axis 'network' is required")
    defaults = {
        "platform": ("gp102",),
        "l1_kb": (None,),
        "scheduler": ("gto",),
        "fidelity": (base_fidelity,),
        "batch": (1,),
    }
    axes = {}
    for axis in AXIS_ORDER:
        if axis in raw_axes:
            axes[axis] = _validate_axis(axis, _as_tuple(raw_axes[axis]))
        else:
            axes[axis] = defaults[axis]

    if mode == "zip":
        lengths = {len(values) for values in axes.values() if len(values) > 1}
        if len(lengths) > 1:
            detail = ", ".join(
                f"{axis}={len(values)}" for axis, values in axes.items()
            )
            raise _fail(f"zip mode needs equal-length axes, got {detail}")
        size = lengths.pop() if lengths else 1
    else:
        size = 1
        for values in axes.values():
            size *= len(values)
    if size > MAX_POINTS:
        raise _fail(f"campaign expands to {size} points (limit {MAX_POINTS})")

    filters = _validate_filters(data.get("filters", ()))

    frontier = _spec.table(data.get("frontier", {}), "[frontier]", FRONTIER_KEYS)
    raw_objectives = frontier.get("objectives", list(DEFAULT_OBJECTIVES))
    objectives = tuple(_parse_objective(raw) for raw in _as_tuple(raw_objectives))
    if not objectives:
        raise _fail("frontier objectives must not be empty")
    tolerance = _spec.number(
        frontier.get("tolerance", 0.02), "[frontier].tolerance"
    )
    if tolerance < 0:
        raise _fail(f"frontier tolerance must be >= 0, got {tolerance!r}")

    return CampaignSpec(
        name=name,
        description=description,
        mode=mode,
        axes=axes,
        filters=filters,
        objectives=objectives,
        tolerance=float(tolerance),
    )


def load_campaign(source) -> CampaignSpec:
    """Load a campaign from a TOML/JSON file path or a raw dict.

    Reading follows :meth:`repro.specfile.SpecReader.read`; IO, parse
    and validation errors all surface as :class:`CampaignError`.
    """
    data, _ = _spec.read(source)
    return campaign_from_dict(data)
