"""Tests for the ``repro serve`` and ``repro cache`` subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestServeCli:
    def test_light_poisson_run_json(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102,tx1",
            "--rps", "400", "--requests", "300", "--light",
            "--cache-dir", str(tmp_path), "--seed", "1", "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["scheduler"] == "latency-aware"
        assert stats["offered"] == 300
        assert stats["completed"] + stats["shed"] == 300
        assert len(stats["devices"]) == 2

    def test_seed_reproducibility(self, capsys, tmp_path):
        args = [
            "serve", "--networks", "gru", "--devices", "gp102",
            "--rps", "200", "--requests", "200", "--light",
            "--cache-dir", str(tmp_path), "--seed", "9", "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_scheduler_comparison_text_and_report(self, capsys, tmp_path):
        report = tmp_path / "serve.md"
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102,tx1",
            "--rps", "300", "--requests", "200", "--light",
            "--cache-dir", str(tmp_path),
            "--scheduler", "round-robin,latency-aware",
            "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "scheduler=round-robin" in out
        assert "scheduler=latency-aware" in out
        text = report.read_text()
        assert "| scheduler" in text and "round-robin" in text

    def test_extension_network_served(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "mobilenet", "--devices", "gp102",
            "--rps", "100", "--requests", "50", "--light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["per_network"].get("mobilenet", {}).get("completed", 0) > 0

    def test_trace_workload(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([
            {"time_ms": 0.0, "network": "gru"},
            {"time_ms": 1.0, "network": "gru"},
            {"time_ms": 2.0, "network": "gru"},
        ]))
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102",
            "--arrival", "trace", "--trace", str(trace), "--light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out)["offered"] == 3

    def test_trace_without_path_errors(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "gru", "--arrival", "trace",
            "--light", "--cache-dir", str(tmp_path),
        ])
        assert exit_code == 2

    def test_unknown_network_errors(self, capsys):
        assert main(["serve", "--networks", "transformer"]) == 2

    @pytest.mark.parametrize("command", ["serve", "trace serve"])
    def test_no_event_loop_flag(self, capsys, command):
        # The engine has one event loop; nothing selects another.
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--loop", "heap"])
        assert exc.value.code == 2
        assert "--loop" in capsys.readouterr().err

    def test_unknown_scheduler_errors(self, capsys):
        assert main([
            "serve", "--networks", "gru", "--scheduler", "fifo",
        ]) == 2

    def test_bad_fleet_errors(self, capsys):
        assert main([
            "serve", "--networks", "gru", "--devices", "warpdrive",
        ]) == 2


SCENARIO_TOML = """\
[scenario]
name = "cli-test"
seed = 3

[fleet]
devices = "gp102:2"

[serving]
scheduler = "least-loaded"
slo_ms = 30.0
max_queue = 16

[admission]
policy = "slo-aware"

[[tenants]]
name = "rt"
slo_ms = 5.0
[tenants.arrival]
kind = "poisson"
rps = 800.0
requests = 200
networks = ["gru"]

[[tenants]]
name = "bulk"
slo_ms = 60.0
priority = 2
[tenants.arrival]
kind = "closed"
clients = 4
requests = 100
networks = ["gru"]
think_ms = 1.0
"""


class TestScenarioCli:
    def write_scenario(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(SCENARIO_TOML)
        return path

    def test_scenario_json_schema(self, capsys, tmp_path):
        path = self.write_scenario(tmp_path)
        exit_code = main([
            "serve", "--scenario", str(path), "--light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["scheduler"] == "least-loaded"
        assert stats["offered"] == 300
        # The documented per-tenant schema: SLO attainment and
        # cost-per-request for every declared tenant.
        assert set(stats["per_tenant"]) == {"rt", "bulk"}
        for tenant in stats["per_tenant"].values():
            assert {"slo_attainment", "goodput_ratio",
                    "cost_per_request_j", "shed"} <= set(tenant)
        assert {"total_j", "cost_per_request_j"} <= set(stats["energy"])
        assert sum(stats["shed_reasons"].values()) == stats["shed"]

    def test_scenario_with_loop_key_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(SCENARIO_TOML.replace(
            'name = "cli-test"', 'name = "cli-test"\nloop = "fast"'
        ))
        assert main([
            "serve", "--scenario", str(path), "--light",
            "--cache-dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'loop' in [scenario]" in err
        assert "Traceback" not in err

    def test_scenario_text_output_mentions_tenants(self, capsys, tmp_path):
        path = self.write_scenario(tmp_path)
        assert main([
            "serve", "--scenario", str(path), "--light",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "rt" in out and "bulk" in out

    def test_scenario_flags_conflict_with_workload_flags(self, tmp_path):
        path = self.write_scenario(tmp_path)
        # --scenario owns the workload; a bad scenario path must fail
        # loudly rather than fall back to flag defaults.
        assert main([
            "serve", "--scenario", str(tmp_path / "missing.toml"),
            "--light", "--cache-dir", str(tmp_path),
        ]) == 2

    def test_admission_flag_without_scenario(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102",
            "--rps", "2000", "--requests", "400", "--light",
            "--cache-dir", str(tmp_path), "--slo-ms", "2",
            "--queue", "8", "--admission", "slo-aware", "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["shed"] > 0
        assert set(stats["shed_reasons"]) <= {"overflow", "priority", "slo"}


class TestCacheCli:
    def test_stats_empty_dir(self, capsys, tmp_path):
        exit_code = main([
            "cache", "stats", "--cache-dir", str(tmp_path / "nope"), "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_stats_then_clear_roundtrip(self, capsys, tmp_path):
        # Populate the cache through a simulation run.
        assert main([
            "simulate", "gru", "--light", "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert stats["bytes"] > 0
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_stats_text_output(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache dir:" in out and "entries:" in out
