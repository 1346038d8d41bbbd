"""Tests for the declarative scenario loader (``repro.serve.scenario``).

Scenarios are validated eagerly and completely at load time — every
unknown key, unknown network, or out-of-range knob is a
:class:`ScenarioError` naming the offender, never a mid-run surprise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ScenarioError, load_scenario
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.scenario import (
    SCENARIO_KEYS,
    SERVING_FIELDS,
    TENANT_KEYS,
    TOP_LEVEL_KEYS,
    scenario_from_dict,
)
from tests.spec_trees import mutations, tables


def minimal(**overrides):
    data = {
        "scenario": {"name": "t"},
        "fleet": {"devices": "gp102:2"},
        "serving": {"scheduler": "least-loaded", "slo_ms": 30.0},
        "tenants": [
            {
                "name": "only",
                "slo_ms": 30.0,
                "arrival": {
                    "kind": "poisson",
                    "rps": 100.0,
                    "requests": 50,
                    "networks": ["gru"],
                },
            },
        ],
    }
    data.update(overrides)
    return data


class TestHappyPath:
    def test_minimal_scenario(self):
        scenario = scenario_from_dict(minimal())
        assert scenario.name == "t"
        assert scenario.networks == ("gru",)
        assert [t.name for t in scenario.tenants] == ["only"]
        assert scenario.config.scheduler == "least-loaded"
        assert scenario.config.slo_ms == 30.0
        assert scenario.autoscale is None
        assert len(scenario.fleet()) == 2

    def test_defaults_flow_through(self):
        scenario = scenario_from_dict(minimal())
        assert scenario.seed == 0
        assert scenario.config.admission == "none"

    def test_full_scenario_round_trip(self):
        data = minimal()
        data["scenario"].update(seed=9, description="d")
        data["admission"] = {
            "policy": "slo-aware",
            "priority_fill": [1.0, 0.5],
            "slo_slack": 2.0,
        }
        data["autoscale"] = {
            "template": "gp102",
            "min_devices": 1,
            "max_devices": 4,
        }
        scenario = scenario_from_dict(data)
        assert scenario.seed == 9
        assert scenario.config.admission == "slo-aware"
        assert scenario.autoscale.max_devices == 4
        described = scenario.describe()
        assert described["scenario"] == "t"
        assert described["admission"] == "slo-aware"
        assert "gp102" in described["autoscale"]
        # The pipeline builds with the declared admission kwargs.
        pipeline = scenario.pipeline()
        assert pipeline.admission.priority_fill == (1.0, 0.5)

    def test_workload_mixes_all_arrival_kinds(self):
        data = minimal()
        data["tenants"] = [
            {"name": "a", "slo_ms": 10.0, "arrival": {
                "kind": "poisson", "rps": 10.0, "requests": 5,
                "networks": ["gru"]}},
            {"name": "b", "slo_ms": 10.0, "arrival": {
                "kind": "bursty", "rps": 10.0, "requests": 5,
                "networks": ["alexnet"], "on_ms": 5.0, "off_ms": 5.0}},
            {"name": "c", "slo_ms": 10.0, "arrival": {
                "kind": "diurnal", "base_rps": 10.0, "requests": 5,
                "networks": ["gru"], "period_ms": 100.0}},
            {"name": "d", "slo_ms": 10.0, "priority": 1, "arrival": {
                "kind": "closed", "clients": 2, "requests": 5,
                "networks": ["gru"], "think_ms": 1.0}},
        ]
        scenario = scenario_from_dict(data)
        workload = scenario.workload()
        assert [t.name for t in workload.tenants] == ["a", "b", "c", "d"]
        assert scenario.networks == ("alexnet", "gru")

    def test_describe_lists_each_stream(self):
        one = scenario_from_dict(minimal()).describe()
        assert (one["arrival"], one["rps"], one["requests"], one["networks"]) == (
            "poisson", 100.0, 50, "gru",
        )
        data = minimal()
        data["tenants"].append({"name": "loop", "slo_ms": 10.0, "arrival": {
            "kind": "closed", "clients": 2, "requests": 5,
            "networks": ["gru", "alexnet"]}})
        two = scenario_from_dict(data).describe()
        assert "arrival" not in two
        assert two["only.arrival"] == "poisson" and two["only.rps"] == 100.0
        assert two["loop.arrival"] == "closed" and "loop.rps" not in two
        assert two["loop.requests"] == 5
        assert two["loop.networks"] == "gru,alexnet"

    def test_sim_covers_fleet_and_autoscale_template(self):
        from repro.serve.profiles import KernelTerm, LatencyProfile

        data = minimal()
        data["autoscale"] = {"template": "tx1", "max_devices": 3}
        scenario = scenario_from_dict(data)
        platforms = [platform.name for platform in scenario.platforms()]
        assert platforms[:2] == ["GP102", "GP102"] and len(platforms) == 3
        profiles = {
            ("gru", name): LatencyProfile(
                "gru", name, 1.0, launch_overhead_cycles=1e6,
                terms=(KernelTerm(5e5, 1, 1, 1),), dynamic_j=0.01,
                static_watts=10.0,
            )
            for name in platforms
        }
        stats = scenario.sim(profiles).run()
        assert stats.offered == 50
        assert stats.scheduler == "least-loaded"


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="serv1ng"):
            scenario_from_dict({**minimal(), "serv1ng": {}})

    def test_unknown_serving_key(self):
        data = minimal()
        data["serving"]["schduler"] = "x"
        with pytest.raises(ScenarioError, match="schduler"):
            scenario_from_dict(data)

    def test_unknown_network_named(self):
        data = minimal()
        data["tenants"][0]["arrival"]["networks"] = ["transformer9000"]
        with pytest.raises(ScenarioError, match="transformer9000"):
            scenario_from_dict(data)

    def test_unknown_scheduler(self):
        data = minimal()
        data["serving"]["scheduler"] = "psychic"
        with pytest.raises(ScenarioError, match="psychic"):
            scenario_from_dict(data)

    def test_unknown_loop(self):
        # The engine has one event loop; a scenario still picking one
        # fails at load time, naming the key.
        data = minimal()
        data["scenario"]["loop"] = "fast"
        with pytest.raises(ScenarioError, match=r"unknown key 'loop' in \[scenario\]"):
            scenario_from_dict(data)

    def test_unknown_arrival_kind(self):
        data = minimal()
        data["tenants"][0]["arrival"]["kind"] = "fractal"
        with pytest.raises(ScenarioError, match="fractal"):
            scenario_from_dict(data)

    def test_arrival_key_from_wrong_kind(self):
        data = minimal()
        # think_ms belongs to closed-loop arrivals, not poisson.
        data["tenants"][0]["arrival"]["think_ms"] = 5.0
        with pytest.raises(ScenarioError, match="think_ms"):
            scenario_from_dict(data)

    def test_bad_admission_kwargs_fail_at_load(self):
        data = minimal()
        data["admission"] = {"policy": "slo-aware", "slo_slack": -1.0}
        with pytest.raises(ScenarioError, match="slo_slack"):
            scenario_from_dict(data)

    def test_bad_batching_knobs_fail_at_load(self):
        for knob, value in (("max_batch", 0), ("batch_timeout_ms", -1.0)):
            data = minimal()
            data["serving"][knob] = value
            with pytest.raises(ScenarioError, match=knob):
                scenario_from_dict(data)

    def test_bad_autoscale_bounds_fail_at_load(self):
        data = minimal()
        data["autoscale"] = {
            "template": "gp102", "min_devices": 5, "max_devices": 2,
        }
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_missing_tenants(self):
        data = minimal()
        data["tenants"] = []
        with pytest.raises(ScenarioError, match="tenant"):
            scenario_from_dict(data)

    def test_non_table_sections_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({**minimal(), "serving": "fast please"})


class TestFileLoading:
    def test_toml_file(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            "[scenario]\nname = \"from-toml\"\n"
            "[fleet]\ndevices = \"gp102:1\"\n"
            "[serving]\nslo_ms = 25.0\n"
            "[[tenants]]\nname = \"t\"\nslo_ms = 25.0\n"
            "[tenants.arrival]\nkind = \"poisson\"\nrps = 50.0\n"
            "requests = 10\nnetworks = [\"gru\"]\n"
        )
        scenario = load_scenario(path)
        assert scenario.name == "from-toml"
        assert scenario.networks == ("gru",)

    def test_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal()))
        scenario = load_scenario(path)
        assert scenario.name == "t"

    def test_dict_passthrough(self):
        assert load_scenario(minimal()).name == "t"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.toml")

    def test_malformed_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[scenario\nname=")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_trace_paths_resolve_against_scenario_dir(self, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([
            {"time_ms": 0.0, "network": "gru"},
            {"time_ms": 1.0, "network": "gru"},
        ]))
        data = minimal()
        data["tenants"][0]["arrival"] = {
            "kind": "trace", "path": "arrivals.json",
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        scenario = load_scenario(path)
        assert scenario.networks == ("gru",)

    def test_committed_examples_load(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parents[1] / "examples"
        day = load_scenario(examples / "day_in_the_life.toml")
        assert [t.name for t in day.tenants] == [
            "interactive", "scoring", "reporting",
        ]
        assert len(day.fleet()) == 100
        smoke = load_scenario(examples / "serve_scale.toml")
        assert len(smoke.fleet()) == 20
        assert smoke.autoscale is not None


#: Every key of the grammar plus a near-miss typo, and the words its
#: valid values are made of (trace files live in ``arrivals_dir``).
GRAMMAR_KEYS = (
    TOP_LEVEL_KEYS + SCENARIO_KEYS + TENANT_KEYS
    + ("devices", "scheduler", *SERVING_FIELDS)
    + ("policy", "priority_fill", "slo_slack")
    + tuple(knob.name for knob in fields(AutoscaleConfig))
    + ("kind", "path", "requests", "networks", "weights", "rps", "base_rps",
       "on_ms", "off_ms", "off_factor", "period_ms", "amplitude", "phase_ms",
       "segments", "clients", "think_ms", "serv1ng")
)
GRAMMAR_WORDS = (
    "t", "gp102", "gp102:2", "tx1", "gru", "alexnet", "poisson", "bursty",
    "diurnal", "closed", "trace", "least-loaded", "latency-aware",
    "slo-aware", "none", "good.json", "rows.json", "table.json",
)


def _tenant(name, arrival):
    return {"name": name, "slo_ms": 30.0, "priority": 1, "weight": 1.0,
            "arrival": arrival}


#: A valid scenario touching every table and every arrival kind.
FULL_SCENARIO = {
    "scenario": {"name": "full", "description": "d", "seed": 3},
    "fleet": {"devices": "gp102:2"},
    "serving": {"scheduler": "least-loaded", "max_batch": 4,
                "batch_timeout_ms": 1.0, "max_queue": 16, "slo_ms": 30.0},
    "admission": {"policy": "slo-aware", "priority_fill": [1.0, 0.5],
                  "slo_slack": 1.0},
    "autoscale": {"template": "gp102", "min_devices": 1, "max_devices": 3},
    "tenants": [
        _tenant("p", {"kind": "poisson", "rps": 50.0, "requests": 5,
                      "networks": ["gru", "alexnet"], "weights": [1.0, 2.0]}),
        _tenant("b", {"kind": "bursty", "rps": 50.0, "requests": 5,
                      "networks": ["gru"], "on_ms": 10.0, "off_ms": 20.0,
                      "off_factor": 0.5}),
        _tenant("d", {"kind": "diurnal", "base_rps": 50.0, "requests": 5,
                      "networks": ["gru"], "period_ms": 1000.0,
                      "amplitude": 0.5, "phase_ms": 0.0, "segments": 4}),
        _tenant("c", {"kind": "closed", "clients": 2, "requests": 5,
                      "networks": ["gru"], "think_ms": 1.0}),
        _tenant("r", {"kind": "trace", "path": "good.json"}),
    ],
}


@pytest.fixture(scope="module")
def arrivals_dir(tmp_path_factory):
    """Trace files the trees may name: one valid, two malformed."""
    root = tmp_path_factory.mktemp("arrivals")
    (root / "good.json").write_text(json.dumps([{"time_ms": 0.0, "network": "gru"}]))
    (root / "rows.json").write_text("[1, 2]")
    (root / "table.json").write_text(json.dumps({"requests": 3}))
    return root


def _set(data: dict, path: tuple, value) -> dict:
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


#: Inputs that crashed the loader: each must now raise ScenarioError
#: naming the field.
MALFORMED = [
    (("tenants", 0, "arrival", "kind"), ["poisson"]),
    (("serving", "scheduler"), ["x"]),
    (("admission",), {"policy": ["x"]}),
    (("autoscale",), {"template": 5}),
]


class TestLoaderRobustness:
    def test_full_scenario_is_valid(self, arrivals_dir):
        scenario = scenario_from_dict(FULL_SCENARIO, arrivals_dir)
        assert [t.name for t in scenario.tenants] == ["p", "b", "d", "c", "r"]
        assert scenario.autoscale.max_devices == 3

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(
        tables(GRAMMAR_KEYS, GRAMMAR_WORDS),
        mutations(FULL_SCENARIO, GRAMMAR_KEYS, GRAMMAR_WORDS),
    ))
    def test_any_tree_loads_or_raises_scenario_error(self, arrivals_dir, data):
        try:
            scenario_from_dict(data, arrivals_dir)
        except ScenarioError:
            pass

    @pytest.mark.parametrize(
        "path, value", MALFORMED,
        ids=[".".join(map(str, path)) for path, _ in MALFORMED],
    )
    def test_malformed_field_raises_scenario_error(self, path, value):
        data = _set(minimal(), path, value)
        field_name = str(path[-1]) if len(path) > 1 else next(iter(value))
        with pytest.raises(ScenarioError, match=field_name):
            scenario_from_dict(data)

    def test_cli_rejects_malformed_file_without_traceback(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            '[scenario]\nname = "x"\n[fleet]\ndevices = "gp102"\n'
            "[autoscale]\ntemplate = 5\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--scenario", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert "serve scenario:" in proc.stderr
        assert "Traceback" not in proc.stderr
