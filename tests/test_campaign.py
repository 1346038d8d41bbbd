"""Campaign specs, expansion, dedup and end-to-end execution.

Everything here runs at light fidelity on one or two small networks so
the whole module stays in unit-test time; the full-size example
campaign (``examples/l1_sweep_campaign.toml``) is exercised by CI's
campaign-smoke job instead.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignError,
    campaign_from_dict,
    expand_points,
    load_campaign,
    plan_campaign,
    point_spec,
    run_campaign,
)
from repro.campaign.expand import AXIS_ORDER, CampaignPoint, point_options
from repro.campaign.spec import CAMPAIGN_KEYS, FRONTIER_KEYS, TOP_LEVEL_KEYS
from repro.runs import Executor, ResultStore
from tests.spec_trees import mutations, tables

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def spec_dict(**over) -> dict:
    """A small valid raw spec; keyword args replace [axes] entries."""
    axes = {"network": ["cifarnet", "gru"]}
    axes.update(over)
    return {
        "campaign": {"name": "t", "fidelity": "light"},
        "axes": axes,
    }


class TestSpecValidation:
    def test_minimal_spec_fills_axis_defaults(self):
        spec = campaign_from_dict(spec_dict())
        assert spec.axis("network") == ("cifarnet", "gru")
        assert spec.axis("platform") == ("gp102",)
        assert spec.axis("l1_kb") == (None,)
        assert spec.axis("scheduler") == ("gto",)
        assert spec.axis("fidelity") == ("light",)
        assert spec.axis("batch") == (1,)
        assert spec.objective_labels() == (
            "min:latency_ms", "min:energy_per_inf_j", "min:footprint_kb",
        )

    def test_missing_name_rejected(self):
        with pytest.raises(CampaignError, match="name"):
            campaign_from_dict({"axes": {"network": ["gru"]}})

    def test_missing_network_axis_rejected(self):
        with pytest.raises(CampaignError, match="network"):
            campaign_from_dict({"campaign": {"name": "t"}, "axes": {}})

    def test_unknown_network_named_in_error(self):
        with pytest.raises(CampaignError, match="nonsense"):
            campaign_from_dict(spec_dict(network=["nonsense"]))

    def test_unknown_platform_rejected(self):
        with pytest.raises(CampaignError, match="platform"):
            campaign_from_dict(spec_dict(platform=["gtx9000"]))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(CampaignError, match="scheduler"):
            campaign_from_dict(spec_dict(scheduler=["fifo"]))

    def test_unknown_axis_rejected(self):
        with pytest.raises(CampaignError, match="voltage"):
            campaign_from_dict(spec_dict(voltage=[1, 2]))

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "big"])
    def test_bad_l1_values_rejected(self, bad):
        with pytest.raises(CampaignError, match="l1_kb"):
            campaign_from_dict(spec_dict(l1_kb=[bad]))

    def test_l1_default_keyword_maps_to_none(self):
        spec = campaign_from_dict(spec_dict(l1_kb=["default", 128]))
        assert spec.axis("l1_kb") == (None, 128)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, False])
    def test_bad_batch_values_rejected(self, bad):
        with pytest.raises(CampaignError, match="batch"):
            campaign_from_dict(spec_dict(batch=[bad]))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(CampaignError, match="repeats"):
            campaign_from_dict(spec_dict(batch=[1, 2, 1]))

    def test_zip_mode_length_mismatch_rejected(self):
        data = spec_dict(l1_kb=[16, 32, 64])
        data["campaign"]["mode"] = "zip"
        with pytest.raises(CampaignError, match="zip"):
            campaign_from_dict(data)

    def test_unknown_objective_metric_rejected(self):
        data = spec_dict()
        data["frontier"] = {"objectives": ["min:goodness"]}
        with pytest.raises(CampaignError, match="goodness"):
            campaign_from_dict(data)

    def test_bad_objective_direction_rejected(self):
        data = spec_dict()
        data["frontier"] = {"objectives": ["least:latency_ms"]}
        with pytest.raises(CampaignError, match="direction"):
            campaign_from_dict(data)

    def test_max_objective_parses_with_negative_sign(self):
        data = spec_dict()
        data["frontier"] = {"objectives": ["max:throughput_rps", "energy_j"]}
        spec = campaign_from_dict(data)
        assert spec.objectives == (("throughput_rps", -1), ("energy_j", 1))
        assert spec.objective_labels() == ("max:throughput_rps", "min:energy_j")

    def test_negative_tolerance_rejected(self):
        data = spec_dict()
        data["frontier"] = {"tolerance": -0.1}
        with pytest.raises(CampaignError, match="tolerance"):
            campaign_from_dict(data)

    def test_filter_with_unknown_axis_rejected(self):
        data = spec_dict()
        data["filters"] = [{"wattage": [5]}]
        with pytest.raises(CampaignError, match="wattage"):
            campaign_from_dict(data)

    def test_expansion_size_guard(self):
        data = spec_dict(
            batch=list(range(1, 1001)), l1_kb=list(range(0, 1000))
        )
        with pytest.raises(CampaignError, match="limit"):
            campaign_from_dict(data)


class TestLoadCampaign:
    def test_toml_file(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            '[campaign]\nname = "toml-c"\nfidelity = "light"\n'
            '[axes]\nnetwork = ["gru"]\nbatch = [1, 2]\n'
        )
        spec = load_campaign(path)
        assert spec.name == "toml-c"
        assert spec.axis("batch") == (1, 2)

    def test_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec_dict()))
        assert load_campaign(path).name == "t"

    def test_suffixless_file_tries_both_formats(self, tmp_path):
        path = tmp_path / "campaign"
        path.write_text(json.dumps(spec_dict()))
        assert load_campaign(path).name == "t"

    def test_missing_file_raises_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            load_campaign(tmp_path / "nope.toml")

    def test_unparseable_file_raises_campaign_error(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("this is not toml [")
        with pytest.raises(CampaignError, match="cannot parse"):
            load_campaign(path)

    def test_dict_passes_through(self):
        assert load_campaign(spec_dict()).name == "t"


class TestExpansion:
    def test_cartesian_size_is_the_product(self):
        spec = campaign_from_dict(
            spec_dict(l1_kb=[16, 32], scheduler=["gto", "lrr"], batch=[1, 4])
        )
        points = expand_points(spec)
        assert len(points) == 2 * 2 * 2 * 2
        assert len(set(points)) == len(points)

    def test_zip_pairs_elementwise_with_broadcast(self):
        data = spec_dict(network=["cifarnet", "gru"], l1_kb=[16, 32])
        data["campaign"]["mode"] = "zip"
        spec = campaign_from_dict(data)
        points = expand_points(spec)
        assert [(p.network, p.l1_kb, p.batch) for p in points] == [
            ("cifarnet", 16, 1), ("gru", 32, 1),
        ]

    def test_filters_drop_only_full_matches(self):
        data = spec_dict(l1_kb=[16, 32], batch=[1, 4])
        data["filters"] = [{"network": ["gru"], "l1_kb": [16]}]
        spec = campaign_from_dict(data)
        points = expand_points(spec)
        assert not any(p.network == "gru" and p.l1_kb == 16 for p in points)
        # partial matches survive: gru@32 and cifarnet@16 both remain
        assert any(p.network == "gru" and p.l1_kb == 32 for p in points)
        assert any(p.network == "cifarnet" and p.l1_kb == 16 for p in points)
        assert len(points) == 2 * 2 * 2 - 2

    def test_filter_matches_resolved_default_l1(self):
        # gp102's default L1 is 64 KB, so filtering l1_kb=64 also drops
        # the "default" points.
        data = spec_dict(l1_kb=["default", 128])
        data["filters"] = [{"l1_kb": [64]}]
        spec = campaign_from_dict(data)
        assert all(p.l1_kb == 128 for p in expand_points(spec))

    def test_batch_variants_share_one_run_spec(self):
        spec = campaign_from_dict(spec_dict(batch=[1, 2, 4, 8]))
        plan = plan_campaign(spec)
        assert plan.requested == 2 * 4
        assert len(plan.specs) == 2  # one per network
        assert plan.deduped == 6

    def test_default_l1_dedupes_with_explicit_platform_size(self):
        spec = campaign_from_dict(spec_dict(l1_kb=["default", 64]))
        plan = plan_campaign(spec)
        assert plan.requested == 4
        assert len(plan.specs) == 2

    def test_point_options_follow_fidelity_and_scheduler(self):
        point = CampaignPoint("gru", "gp102", 64, "lrr", "light", 1)
        options = point_options(point)
        assert options.scheduler == "lrr"
        assert options != point_options(
            CampaignPoint("gru", "gp102", 64, "lrr", "default", 1)
        )

    def test_point_spec_applies_l1_override(self):
        run = point_spec(CampaignPoint("gru", "gp102", 16, "gto", "light", 1))
        assert run.config.l1_size == 16 * 1024


class TestRunCampaign:
    def test_end_to_end_and_warm_rerun_is_free(self, tmp_path):
        spec = campaign_from_dict(spec_dict(l1_kb=[16, 64], batch=[1, 8]))
        store = ResultStore(tmp_path)
        cold = run_campaign(spec, store=store)
        assert cold.report.fresh == len(cold.plan.specs) == 4
        assert len(cold.rows) == cold.plan.requested == 8
        assert cold.frontier and len(cold.frontier) <= len(cold.rows)
        assert cold.ok

        warm = run_campaign(spec, store=ResultStore(tmp_path))
        assert warm.report.fresh == 0
        assert warm.report.cached == 4
        assert [r.to_dict() for r in warm.rows] == [
            r.to_dict() for r in cold.rows
        ]

    def test_qor_batch_scaling_is_coherent(self, tmp_path):
        spec = campaign_from_dict(spec_dict(network=["gru"], batch=[1, 8]))
        result = run_campaign(spec, store=ResultStore(tmp_path))
        by_batch = {row.point.batch: row.metrics for row in result.rows}
        b1, b8 = by_batch[1], by_batch[8]
        # batching amortizes static energy but can only add latency
        assert b8["latency_ms"] >= b1["latency_ms"]
        assert b8["energy_per_inf_j"] < b1["energy_per_inf_j"]
        assert b8["footprint_kb"] > b1["footprint_kb"]
        assert b8["throughput_rps"] == pytest.approx(
            8.0 / (b8["latency_ms"] / 1e3), rel=1e-4
        )
        from repro.platforms import make_config

        clock_ghz = make_config("gp102").clock_ghz
        # latency_ms is rounded to 6 decimals in the row, so allow a
        # few cycles of slack
        assert b1["cycles"] == pytest.approx(
            b1["latency_ms"] * clock_ghz * 1e6, abs=2.0
        )

    def test_failed_run_skips_points_not_campaign(self, tmp_path, monkeypatch):
        import repro.runs.executor as executor_mod

        real = executor_mod._simulate_spec

        def boom(spec, store):
            if spec.network == "gru":
                raise RuntimeError("injected")
            return real(spec, store)

        monkeypatch.setattr(executor_mod, "_simulate_spec", boom)
        spec = campaign_from_dict(spec_dict(batch=[1, 4]))
        result = run_campaign(spec, store=ResultStore(tmp_path))
        assert not result.ok
        assert len(result.skipped) == 2  # both gru batch points
        assert all(s["axes"]["network"] == "gru" for s in result.skipped)
        assert "injected" in result.skipped[0]["error"]
        # cifarnet still priced and on the frontier
        assert len(result.rows) == 2
        assert all(r.point.network == "cifarnet" for r in result.rows)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crash is injected into pool workers by fork inheritance",
    )
    def test_resume_after_worker_crash_reaches_the_same_frontier(
        self, tmp_path, monkeypatch
    ):
        import repro.runs.executor as executor_mod

        spec = load_campaign(EXAMPLES / "smoke_campaign.toml")
        store_dir = tmp_path / "store"
        marker = tmp_path / "crashed"
        parent = os.getpid()
        real = executor_mod._simulate_spec

        def crash_one_worker(run, store):
            if os.getpid() != parent:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return real(run, store)

        # Patched before the pool forks, so its workers inherit it.
        monkeypatch.setattr(executor_mod, "_simulate_spec", crash_one_worker)
        crashed = run_campaign(spec, store=ResultStore(store_dir), jobs=2)
        monkeypatch.undo()
        assert marker.exists()
        assert not crashed.ok and crashed.report.failed
        assert len(crashed.rows) + len(crashed.skipped) == 8
        assert all(
            "BrokenProcessPool" in error
            for error in crashed.report.failed.values()
        )
        assert not list(store_dir.rglob("*.tmp"))

        resumed = run_campaign(spec, store=ResultStore(store_dir), jobs=2)
        assert resumed.ok
        assert resumed.report.fresh == len(crashed.report.failed)
        uninterrupted = run_campaign(spec)
        assert resumed.frontier_payload() == uninterrupted.frontier_payload()

    def test_to_dict_roundtrips_through_json(self, tmp_path):
        spec = campaign_from_dict(spec_dict(network=["gru"]))
        result = run_campaign(spec, store=ResultStore(tmp_path))
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["campaign"] == "t"
        assert doc["unique_runs"] == 1
        assert doc["frontier"]["points"]
        assert doc["execution"]["failed"] == {}


#: Every key of the grammar plus near-miss typos, and the words its
#: valid values are made of.
GRAMMAR_KEYS = (
    TOP_LEVEL_KEYS + CAMPAIGN_KEYS + AXIS_ORDER + FRONTIER_KEYS
    + ("fidelty", "frontiers", "objective")
)
GRAMMAR_WORDS = (
    "gru", "cifarnet", "gp102", "zcu102", "gto", "lrr", "default", "light",
    "cartesian", "zip", "min:latency_ms", "max:throughput_rps", "energy_j",
)
#: A valid spec touching every table and axis (zip mode: equal lengths).
FULL_SPEC = {
    "campaign": {
        "name": "full", "description": "d", "mode": "zip", "fidelity": "light",
    },
    "axes": {
        "network": ["gru", "cifarnet"],
        "platform": ["gp102", "zcu102"],
        "l1_kb": ["default", 64],
        "scheduler": ["gto", "lrr"],
        "fidelity": ["light", "default"],
        "batch": [1, 4],
    },
    "filters": [{"network": ["gru"], "batch": [4]}],
    "frontier": {
        "objectives": ["min:latency_ms", "max:throughput_rps"],
        "tolerance": 0.05,
    },
}

#: Inputs that crashed the loader or were silently accepted: each must
#: now raise CampaignError naming the field.  ``None`` = top level.
MALFORMED = [
    ("axes", "network", [["gru"]]),
    ("axes", "batch", [{"a": 1}]),
    ("axes", "platform", [{"a": 1}]),
    ("frontier", "objectives", [3]),
    (None, "filters", 3),
    ("campaign", "fidelty", "light"),
    (None, "frontiers", {"objectives": ["min:latency_ms"]}),
    ("frontier", "objective", ["min:latency_ms"]),
    ("frontier", "tolerance", True),
]


class TestLoaderRobustness:
    def test_full_spec_is_valid(self):
        spec = campaign_from_dict(FULL_SPEC)
        assert spec.axis("l1_kb") == (None, 64)
        assert spec.objectives == (("latency_ms", 1), ("throughput_rps", -1))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        tables(GRAMMAR_KEYS, GRAMMAR_WORDS),
        mutations(FULL_SPEC, GRAMMAR_KEYS, GRAMMAR_WORDS),
    ))
    def test_any_tree_loads_or_raises_campaign_error(self, data):
        try:
            campaign_from_dict(data)
        except CampaignError:
            pass

    @pytest.mark.parametrize(
        "table, key, value", MALFORMED,
        ids=[f"{table or 'top'}.{key}" for table, key, _ in MALFORMED],
    )
    def test_malformed_field_raises_campaign_error(self, table, key, value):
        data = spec_dict()
        (data if table is None else data.setdefault(table, {}))[key] = value
        with pytest.raises(CampaignError, match=key):
            campaign_from_dict(data)

    def test_cli_list_rejects_malformed_file_without_traceback(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[campaign]\nname = "x"\n[axes]\nnetwork = [["gru"]]\n')
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "list", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert "campaign spec:" in proc.stderr
        assert "Traceback" not in proc.stderr
