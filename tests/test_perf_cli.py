"""Tests for the ``repro simulate`` and ``repro bench`` subcommands,
and the small-sample statistics behind ``repro bench --compare``."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.perf.bench import compare_bench
from repro.perf.stats import compare_samples, mann_whitney_u, summarize


class TestSimulateCli:
    def test_light_run_prints_table(self, capsys, tmp_path):
        exit_code = main([
            "simulate", "gru", "--light", "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "gru" in out and "cycles" in out

    def test_json_output(self, capsys, tmp_path):
        exit_code = main([
            "simulate", "gru", "--light", "--json",
            "--cache-dir", str(tmp_path),
        ])
        assert exit_code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["network"] == "gru"
        assert rows[0]["total_cycles"] > 0
        assert rows[0]["kernels"] > 0

    def test_no_cache_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        exit_code = main(["simulate", "gru", "--light", "--no-cache"])
        assert exit_code == 0
        assert not (tmp_path / "cache").exists()

    def test_cache_reused_across_invocations(self, capsys, tmp_path):
        args = ["simulate", "gru", "--light", "--json",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert list(tmp_path.glob("*.json"))
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        serial_args = ["simulate", "gru", "lstm", "--light", "--json",
                       "--no-cache"]
        assert main(serial_args) == 0
        serial = json.loads(capsys.readouterr().out)
        parallel_args = ["simulate", "gru", "lstm", "--light", "--json",
                         "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(parallel_args) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel  # same results, same (input) order

    def test_unknown_network_rejected(self, capsys):
        assert main(["simulate", "nonesuch", "--light"]) == 2
        assert "unknown network" in capsys.readouterr().err


class TestBenchCli:
    def test_writes_bench_json(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_sim.json"
        exit_code = main([
            "bench", "gru", "--light",
            "--output", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert exit_code == 0
        payload = json.loads(out_path.read_text())
        entry = payload["gru"]
        assert entry["cold_s"] > 0
        assert entry["warm_s"] > 0
        assert entry["kernels"] > 0
        assert entry["engine_version"]

    def test_seed_timing_included_on_request(self, tmp_path):
        out_path = tmp_path / "bench.json"
        exit_code = main([
            "bench", "gru", "--light", "--seed",
            "--output", str(out_path),
        ])
        assert exit_code == 0
        assert json.loads(out_path.read_text())["gru"]["seed_s"] > 0

    def test_unknown_network_rejected(self, capsys):
        assert main(["bench", "nonesuch", "--light"]) == 2
        assert "unknown network" in capsys.readouterr().err

    def test_runs_records_samples_and_stats(self, tmp_path):
        out_path = tmp_path / "bench.json"
        exit_code = main([
            "bench", "gru", "--light", "--runs", "3",
            "--output", str(out_path),
        ])
        assert exit_code == 0
        entry = json.loads(out_path.read_text())["gru"]
        for series in ("cold", "warm", "run_warm"):
            assert len(entry["samples"][series]) == 3
        assert entry["cold_s"] == min(entry["samples"]["cold"])
        assert entry["cold_mean_s"] >= entry["cold_s"]
        assert entry["cold_std_s"] >= 0
        assert entry["cold_ci95_s"] >= 0
        assert entry["engine"] == "vector"
        assert entry["engine_version"] == "fast-3"

    def test_engine_flag_recorded(self, tmp_path):
        from repro.gpu import engine as engine_registry

        out_path = tmp_path / "bench.json"
        try:
            exit_code = main([
                "bench", "gru", "--light", "--engine", "fast",
                "--output", str(out_path),
            ])
        finally:
            engine_registry.set_engine(None)
        assert exit_code == 0
        entry = json.loads(out_path.read_text())["gru"]
        assert entry["engine"] == "fast"
        assert entry["engine_version"] == "fast-2.1"

    def test_compare_against_self_passes(self, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main([
            "bench", "gru", "--light", "--runs", "5",
            "--output", str(out_path),
        ]) == 0
        # Re-benching against the just-written baseline on the same
        # machine must not flag a regression.
        assert main([
            "bench", "gru", "--light", "--runs", "5",
            "--output", str(tmp_path / "again.json"),
            "--compare", str(out_path),
            "--threshold", "2.0",  # generous: CI runners are noisy
        ]) == 0

    def test_compare_flags_regression(self, capsys, tmp_path):
        # A fabricated baseline 1000x faster than reality forces a
        # statistically significant slowdown -> exit 1.
        baseline = {
            "gru": {
                "cold_s": 1e-6,
                "samples": {"cold": [1e-6, 1.1e-6, 0.9e-6, 1.05e-6, 0.95e-6]},
                "engine_version": "fast-2.1",
            }
        }
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        exit_code = main([
            "bench", "gru", "--light", "--runs", "5",
            "--output", str(tmp_path / "bench.json"),
            "--compare", str(base_path),
        ])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "significantly slower" in captured.err


class TestStats:
    def test_summarize_single_sample(self):
        stats = summarize([2.5])
        assert stats == {"n": 1, "mean": 2.5, "std": 0.0, "ci95": 0.0}

    def test_summarize_known_values(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0
        assert stats["std"] == pytest.approx(1.0)
        # t(0.975, df=2) = 4.303; CI = t * s / sqrt(n)
        assert stats["ci95"] == pytest.approx(4.303 / 3 ** 0.5, rel=1e-3)

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_mann_whitney_separated_samples(self):
        test = mann_whitney_u([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
        assert test["u"] == 25.0  # candidate wins every pair
        assert test["p"] < 0.01

    def test_mann_whitney_identical_samples(self):
        assert mann_whitney_u([1, 2, 3], [1, 2, 3])["p"] > 0.5
        assert mann_whitney_u([5, 5, 5], [5, 5, 5])["p"] == 1.0

    def test_mann_whitney_direction_is_one_sided(self):
        # A *faster* candidate must never look significant.
        test = mann_whitney_u([6, 7, 8, 9, 10], [1, 2, 3, 4, 5])
        assert test["p"] > 0.95

    def test_compare_requires_threshold_and_significance(self):
        slow = compare_samples(
            [1.0, 1.02, 0.98, 1.01, 0.99], [2.0, 2.02, 1.98, 2.01, 1.99]
        )
        assert slow["slower"] and slow["method"] == "mann-whitney"
        # Significant but under the ratio threshold: not a regression.
        small = compare_samples(
            [1.0, 1.02, 0.98, 1.01, 0.99],
            [1.05, 1.07, 1.03, 1.06, 1.04],
            threshold=1.10,
        )
        assert small["p"] < 0.05 and not small["slower"]
        # Over the threshold but pure noise: not a regression either.
        noisy = compare_samples([1.0, 2.0, 0.5], [1.1, 2.2, 0.55], threshold=1.05)
        assert not noisy["slower"]

    def test_compare_single_sample_falls_back_to_ratio(self):
        verdict = compare_samples([1.0], [1.5])
        assert verdict["method"] == "ratio-only"
        assert verdict["p"] is None
        assert verdict["slower"]
        assert not compare_samples([1.0], [1.05])["slower"]

    def test_compare_bench_payloads(self):
        def entry(samples):
            return {
                "cold_s": min(samples),
                "samples": {"cold": samples},
                "engine_version": "x",
            }

        baseline = {
            "gru": entry([1.0, 1.1, 0.9, 1.05, 0.95]),
            "lstm": entry([1.0, 1.1, 0.9, 1.05, 0.95]),
            "only_base": entry([1.0]),
        }
        candidate = {
            "gru": entry([3.0, 3.1, 2.9, 3.05, 2.95]),  # regressed
            "lstm": entry([1.0, 1.1, 0.9, 1.05, 0.95]),  # unchanged
            "only_cand": entry([1.0]),
        }
        report = compare_bench(baseline, candidate)
        assert report["regressions"] == ["gru"]
        assert not report["networks"]["lstm"]["slower"]
        assert sorted(report["skipped"]) == ["only_base", "only_cand"]


class TestServeBench:
    def test_run_serve_bench_payload(self):
        from repro.perf.serve_bench import run_serve_bench

        # Tiny synthetic scenario: fast enough for tier-1, but it still
        # exercises the timed reruns and their digest cross-check.
        payload = run_serve_bench(requests=1500, devices=3, runs=2, seed=1)
        assert list(payload) == ["serve-heap"]
        entry = payload["serve-heap"]
        assert entry["requests"] == 1500
        assert entry["devices"] == 3
        assert len(entry["samples"]["cold"]) == 2
        assert entry["cold_s"] == min(entry["samples"]["cold"])
        assert entry["digest"]

    def test_bench_serve_cli_writes_payload(self, capsys, tmp_path):
        out_path = tmp_path / "bench-serve.json"
        exit_code = main([
            "bench", "--serve", "--serve-requests", "1000",
            "--serve-devices", "2", "--runs", "1",
            "--output", str(out_path),
        ])
        assert exit_code == 0
        payload = json.loads(out_path.read_text())
        assert list(payload) == ["serve-heap"]

    @pytest.mark.parametrize("flag", ["--gate", "--repeats=3"])
    def test_retired_bench_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--serve", flag])
        assert exc.value.code == 2
        assert flag.split("=")[0] in capsys.readouterr().err

    def test_bench_serve_compares_against_two_loop_baseline(
        self, capsys, tmp_path
    ):
        # A base commit that still timed both loops: only the shared
        # serve-heap entry is compared, serve-fast is reported skipped.
        slow = {"cold_s": 100.0, "samples": {"cold": [100.0] * 5}}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"serve-fast": slow, "serve-heap": slow}))
        exit_code = main([
            "bench", "--serve", "--serve-requests", "1000",
            "--serve-devices", "2", "--runs", "1",
            "--output", str(tmp_path / "head.json"),
            "--compare", str(baseline),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert re.search(r"serve-heap .* vs baseline", out)
        assert "serve-fast" in out and "skipped" in out
