"""The run pipeline: planner dedup, executor read-through, unified store.

The planner must collapse the 21 registered experiments' requested runs
into the minimal unique matrix; the executor must simulate each unique
spec at most once (memory -> store -> simulate); the store must round-
trip whole-network results byte-identically and invalidate on any key
ingredient change.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.gpu.config import SimOptions
from repro.platforms import GP102, TX1
from repro.runs import (
    Executor,
    PlanContext,
    ResultStore,
    RunSpec,
    build_plan,
    run_key,
)
from repro.runs import store as store_mod
from repro.runs.registry import all_experiments
from repro.runs.store import cache_stats, clear_cache, result_from_payload, result_to_payload

LIGHT = SimOptions(max_trips=4, max_outer_trips=1, max_sim_blocks=1)


def _writer_payload(writer: int) -> dict:
    # Distinct lengths: a shorter payload written over a longer one in a
    # shared file leaves the longer one's tail behind.
    return {"writer": writer, "blob": [writer] * (20_000 * (writer + 1))}


def _put_run_repeatedly(cache_dir: str, writer: int, rounds: int) -> None:
    """Write one key *rounds* times, reading it back after each write;
    exits non-zero if a read ever sees anything but a whole payload."""
    store = ResultStore(cache_dir)
    spec = RunSpec("gru", GP102, LIGHT)
    path = store.run_path(spec)
    for _ in range(rounds):
        store.put_run(spec, _writer_payload(writer))
        try:
            seen = json.loads(path.read_text())
        except (OSError, ValueError):
            raise SystemExit(1)
        if seen != _writer_payload(seen.get("writer", -1)):
            raise SystemExit(1)


class TestPlanner:
    def test_full_suite_dedupes_to_59_unique_runs(self):
        plan = build_plan(all_experiments().values())
        assert len(plan.specs) == 59
        assert plan.total_requested > len(plan.specs)
        # Dedup really is by content: no two specs share a key.
        keys = [spec.key() for spec in plan.specs]
        assert len(set(keys)) == len(keys)

    def test_every_simulating_experiment_contributes(self):
        plan = build_plan(all_experiments().values())
        assert set(plan.by_experiment) == set(all_experiments())
        analytic = {exp_id for exp_id, specs in plan.by_experiment.items() if not specs}
        assert analytic == {
            "table1", "table2", "table3", "table4",
            "fig08", "fig09", "fig10", "fig11", "fig12",
        }

    def test_shared_runs_planned_once(self):
        experiments = all_experiments()
        plan = build_plan([experiments["fig01"], experiments["fig02"]])
        # Figure 1's default-config CNN runs are inside Figure 2's L1
        # sweep: together they need no more than the sweep alone.
        assert len(plan.specs) == len(build_plan([experiments["fig02"]]).specs)

    def test_restricted_context_shrinks_matrix(self):
        ctx = PlanContext(networks=("cifarnet", "gru"), options=LIGHT)
        plan = build_plan(all_experiments().values(), ctx)
        assert 0 < len(plan.specs) < 59
        assert {spec.network for spec in plan.specs} == {"cifarnet", "gru"}

    def test_describe_lists_each_unique_run_once(self):
        plan = build_plan(all_experiments().values())
        lines = plan.describe().splitlines()
        assert "-> 59 unique" in lines[0]
        assert len(lines) == 1 + 59


class TestRunKey:
    def test_key_differs_by_network(self):
        assert run_key("gru", GP102, LIGHT) != run_key("lstm", GP102, LIGHT)

    def test_key_differs_by_config(self):
        assert run_key("gru", GP102, LIGHT) != run_key("gru", TX1, LIGHT)
        assert run_key("gru", GP102, LIGHT) != run_key("gru", GP102.with_l1(0), LIGHT)

    def test_key_differs_by_options(self):
        assert run_key("gru", GP102, LIGHT) != run_key(
            "gru", GP102, replace(LIGHT, scheduler="lrr")
        )

    def test_key_differs_by_engine_version(self, monkeypatch):
        import repro.gpu.vector as vector

        before = run_key("gru", GP102, LIGHT)
        monkeypatch.setattr(vector, "ENGINE_VERSION", "test-engine")
        assert run_key("gru", GP102, LIGHT) != before

    def test_key_differs_by_engine(self, monkeypatch):
        from repro.gpu import engine

        before = run_key("gru", GP102, LIGHT)
        monkeypatch.setattr(engine, "_forced", "fast")
        assert run_key("gru", GP102, LIGHT) != before


class TestExecutor:
    def test_memory_read_through(self):
        executor = Executor()
        spec = RunSpec("gru", GP102, LIGHT)
        first = executor.run(spec)
        second = executor.run(spec)
        assert executor.fresh == 1
        assert second is first

    def test_store_read_through_is_value_identical(self, tmp_path):
        spec = RunSpec("gru", GP102, LIGHT)
        fresh = Executor(ResultStore(tmp_path)).run(spec)
        cached = Executor(ResultStore(tmp_path)).run(spec)
        assert cached.total_cycles == fresh.total_cycles
        assert cached.total_time_ms == fresh.total_time_ms
        assert cached.cycles_by_category() == fresh.cycles_by_category()
        assert cached.aggregate().issued == fresh.aggregate().issued

    def test_execute_reports_fresh_then_cached(self, tmp_path):
        specs = [RunSpec("gru", GP102, LIGHT), RunSpec("gru", TX1, LIGHT)]
        store = ResultStore(tmp_path)
        report = Executor(store).execute(specs)
        assert (report.planned, report.fresh, report.cached) == (2, 2, 0)
        rerun = Executor(ResultStore(tmp_path)).execute(specs)
        assert (rerun.planned, rerun.fresh, rerun.cached) == (2, 0, 2)
        assert "2 unique runs: 0 fresh, 2 cached" in rerun.summary()

    def test_parallel_execute_matches_serial(self, tmp_path):
        specs = [RunSpec("gru", GP102, LIGHT), RunSpec("cifarnet", GP102, LIGHT)]
        serial = Executor()
        for spec in specs:
            serial.run(spec)
        parallel = Executor(ResultStore(tmp_path))
        report = parallel.execute(specs, jobs=2)
        assert report.fresh == 2
        for spec in specs:
            assert parallel.run(spec).total_cycles == serial.run(spec).total_cycles

    def test_every_path_returns_the_simulator_result_types(self, tmp_path):
        from repro.gpu.simulator import KernelResult, NetworkResult
        from repro.platforms import make_config

        gpu = RunSpec("gru", GP102, LIGHT)
        runs = {
            "fresh": Executor(ResultStore(tmp_path)).run(gpu),
            "stored": Executor(ResultStore(tmp_path)).run(gpu),
            "mapped": Executor().run(RunSpec("gru", make_config("s2npu"), LIGHT)),
        }
        for how, result in runs.items():
            assert type(result) is NetworkResult, how
            assert result.kernels, how
            assert all(type(k) is KernelResult for k in result.kernels), how

    def test_undecodable_entries_are_simulated_in_the_pool(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.runs import executor as executor_mod

        specs = [
            RunSpec("gru", GP102, LIGHT),
            RunSpec("gru", TX1, LIGHT),
            RunSpec("cifarnet", GP102, LIGHT),
        ]
        store = ResultStore(tmp_path)
        Executor(store).execute(specs)
        store.run_path(specs[0]).write_text("{broken")
        schema = json.loads(store.run_path(specs[2]).read_text())
        del schema["kernels"]
        store.run_path(specs[2]).write_text(json.dumps(schema))

        parent = os.getpid()
        in_parent: list[str] = []
        real = executor_mod._simulate_spec

        def spy(spec, store):
            if os.getpid() == parent:
                in_parent.append(spec.describe())
            return real(spec, store)

        monkeypatch.setattr(executor_mod, "_simulate_spec", spy)
        report = Executor(ResultStore(tmp_path)).execute(specs, jobs=2)
        assert (report.fresh, report.cached, report.failed) == (2, 1, {})
        assert in_parent == []
        healed = ResultStore(tmp_path)
        assert all(healed.get_run(spec) is not None for spec in specs)

    def test_parallel_execute_chunks_large_plans(self, tmp_path):
        from repro.runs import executor as executor_mod

        # 2 pending specs at jobs=2 -> ceil(2/8)=1 spec per chunk; the
        # chunk math must never produce an empty or oversize chunk.
        for pending, jobs in ((2, 2), (100, 4), (1, 8)):
            chunk = max(1, min(
                executor_mod.CHUNK_MAX_SPECS,
                -(-pending // (jobs * executor_mod.CHUNKS_PER_JOB)),
            ))
            assert 1 <= chunk <= executor_mod.CHUNK_MAX_SPECS

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_spec_is_surfaced_not_raised(self, tmp_path, jobs):
        good = [RunSpec("gru", GP102, LIGHT), RunSpec("cifarnet", GP102, LIGHT)]
        bad = RunSpec("no_such_net", GP102, LIGHT)
        report = Executor(ResultStore(tmp_path)).execute(good + [bad], jobs=jobs)
        assert report.planned == 3
        assert report.fresh == 2
        assert report.cached == 0
        assert list(report.failed) == [bad.key()]
        message = report.failed[bad.key()]
        assert "no_such_net" in message and "KeyError" in message
        assert "1 failed" in report.summary()

    def test_failed_report_roundtrips_and_stays_compatible(self):
        from repro.runs.executor import ExecutionReport

        with_failure = ExecutionReport(
            planned=2, fresh=1, cached=0, failed={"k": "boom"}
        )
        assert ExecutionReport.from_dict(with_failure.to_dict()) == with_failure
        # pre-failure payloads (no 'failed' key) still load
        legacy = ExecutionReport.from_dict(
            {"planned": 5, "fresh": 2, "cached": 3}
        )
        assert legacy.failed == {}


class TestStore:
    def test_payload_roundtrip_is_exact(self):
        result = Executor().run(RunSpec("gru", GP102, LIGHT))
        payload = json.loads(json.dumps(result_to_payload(result)))
        clone = result_from_payload(payload, "gru", GP102)
        assert clone.total_cycles == result.total_cycles
        assert clone.cycles_by_category() == result.cycles_by_category()
        for ka, kb in zip(result.kernels, clone.kernels):
            assert ka.stats.to_dict() == kb.stats.to_dict()
            assert ka.kernel.signature() == kb.kernel.signature()

    def test_single_store_holds_both_granularities(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store).run(RunSpec("gru", GP102, LIGHT))
        stats = cache_stats(tmp_path)
        assert stats["kernel_entries"] > 0
        assert stats["run_entries"] == 1
        assert stats["entries"] == stats["kernel_entries"] + stats["run_entries"]
        assert stats["bytes"] > 0

    def test_stats_break_down_by_engine(self, tmp_path):
        Executor(ResultStore(tmp_path)).run(RunSpec("gru", GP102, LIGHT))
        (tmp_path / "stale000.json").write_text(
            json.dumps({"engine": "old-engine", "stats": {}})
        )
        stats = cache_stats(tmp_path)
        by_engine = stats["by_engine"]
        assert set(by_engine) == {stats["engine_version"], "old-engine"}
        assert by_engine["old-engine"]["entries"] == 1
        assert by_engine["old-engine"]["bytes"] > 0
        live = by_engine[stats["engine_version"]]
        assert live["entries"] == stats["entries"] - 1
        assert sum(b["bytes"] for b in by_engine.values()) == stats["bytes"]

    def test_clear_by_engine_prunes_only_that_engine(self, tmp_path):
        Executor(ResultStore(tmp_path)).run(RunSpec("gru", GP102, LIGHT))
        before = cache_stats(tmp_path)
        (tmp_path / "stale000.json").write_text(
            json.dumps({"engine": "old-engine", "stats": {}})
        )
        removed = clear_cache(tmp_path, engine="old-engine")
        assert removed == 1
        after = cache_stats(tmp_path)
        assert "old-engine" not in after["by_engine"]
        assert after["entries"] == before["entries"]
        # the surviving entries are still valid warm hits
        rerun = Executor(ResultStore(tmp_path)).execute(
            [RunSpec("gru", GP102, LIGHT)]
        )
        assert rerun.fresh == 0

    def test_clear_covers_runs_dir(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store).run(RunSpec("gru", GP102, LIGHT))
        assert cache_stats(tmp_path)["run_entries"] == 1
        removed = clear_cache(tmp_path)
        assert removed > 0
        assert not (tmp_path / "runs").exists()
        assert cache_stats(tmp_path)["entries"] == 0

    def test_corrupt_run_entry_reads_as_miss(self, tmp_path):
        spec = RunSpec("gru", GP102, LIGHT)
        store = ResultStore(tmp_path)
        Executor(store).run(spec)
        store.run_path(spec).write_text("{broken")
        reread = ResultStore(tmp_path)
        assert reread.get_run(spec) is None
        result = Executor(reread).run(spec)
        assert result.total_cycles > 0

    def test_concurrent_writers_of_one_key_never_tear(self, tmp_path):
        writers = 4
        context = multiprocessing.get_context("spawn")
        procs = [
            context.Process(
                target=_put_run_repeatedly, args=(str(tmp_path), writer, 40)
            )
            for writer in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        path = ResultStore(tmp_path).run_path(RunSpec("gru", GP102, LIGHT))
        entry = json.loads(path.read_text())
        assert entry in [_writer_payload(writer) for writer in range(writers)]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_mod.os, "replace", refuse)
        store = ResultStore(tmp_path)
        spec = RunSpec("gru", GP102, LIGHT)
        store.put_run(spec, _writer_payload(0))  # best-effort: no raise
        assert not store.run_path(spec).exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_engine_bump_misses_stale_run(self, tmp_path, monkeypatch):
        import repro.gpu.vector as vector

        spec = RunSpec("gru", GP102, LIGHT)
        Executor(ResultStore(tmp_path)).run(spec)
        monkeypatch.setattr(vector, "ENGINE_VERSION", "test-engine")
        assert ResultStore(tmp_path).get_run(spec) is None
