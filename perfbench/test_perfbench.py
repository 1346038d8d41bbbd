"""The benchmark's own tests, at reduced input size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The workload-specific timings each workload prints besides the JSON.
NAMED = {
    "sim-cold": ["sim_wall_s", "sim_cifarnet_s", "sim_gru_s"],
    "harness-light": ["harness_cold_s", "harness_warm_s"],
    "serve-steady": ["serve_wall_s"],
}


def bench(cwd: Path, *args: str, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "small", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(stdout: str, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2] == unit
               for line in stdout.splitlines() if len(line.split()) >= 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_prints_every_metric(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--seed", "0")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert printed(proc.stdout, name, unit), name
    for name in NAMED[workload] + ["ops", "ops_failed"]:
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines()), name


def test_other_seed_checks_conservation(tmp_path):
    result = result_of(bench(tmp_path, "--workload", "serve-steady", "--seed", "7"))
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", ["harness-light", "serve-steady"])
def test_traced_run_prints_every_layer_metric(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--seed", "0", "--trace", "1")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed(proc.stdout, name, unit), name
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    trace = json.loads((tmp_path / ".perfbench" / "traces"
                        / f"{workload}-seed0.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.export import validate_chrome_trace

    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all("parent" in e["args"] for e in spans)
    if workload == "harness-light":
        # Spans of the forked pool workers are merged into the trace.
        assert metrics["runs.worker_busy_s"] > 0 and metrics["gpu.waves"] > 0
        assert metrics["runs.fresh"] > 0 and metrics["runs.failed"] == 0
    else:
        assert metrics["serve.events"] > 0 and metrics["serve.batches"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_digest_counts_as_failed(tmp_path, workload):
    digests = json.loads((HERE / "digests.json").read_text())
    for key, value in digests[workload]["small"].items():
        digests[workload]["small"][key] = "0" * len(value)
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(digests))
    result = result_of(bench(tmp_path, "--workload", workload, "--seed", "0",
                             "--digests", str(tampered)))
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "sim-cold", "--seed", "0",
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
