"""Outside-in layer trace for the benchmark's traced run.

:func:`install` wraps the public functions of each program layer (module
functions and class methods, patched where callers look them up) with
timers that feed one per-process :class:`Recorder`.  Nothing in the
program changes, and its own tracer stays uninstalled, so the program
still runs its disabled-tracer path.

Every wrapped call opens a frame on the recorder's stack.  When the call
returns, its duration is charged to its parent frame, and its self time
(duration minus the time its wrapped children cover) is added to its key.
Coarse calls (a network, a wave, a run, an experiment, a serving run) are
also kept as spans that name their parent; µs-scale calls (memory
accesses, event-queue and serving-policy calls) are only aggregated, so
the trace stays small.  Wrapper cost is charged to the caller's self
time, so self times of layers with many tiny calls (``serve.*``) are
approximate; their call counts are exact.

The harness pass forks its pool workers after :func:`install` ran, so the
workers inherit the wrappers.  Each worker resets its recorder at fork
and rewrites its totals to ``proc-<pid>.json`` each time a top-level call
returns; :meth:`Recorder.collect` merges those files with the session's
own totals.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from pathlib import Path

from workloads import HARNESS_JOBS


class Recorder:
    """Frames, per-key totals, counts and spans of one process."""

    def __init__(self, proc_dir: Path) -> None:
        self.proc_dir = proc_dir
        proc_dir.mkdir(parents=True, exist_ok=True)
        self.t0 = time.perf_counter()
        #: Open frames: ``[child_s, span_index]`` (-1 when not a span).
        self.stack: list[list] = []
        #: key -> ``[calls, self_s, total_s]``; lists are reset in place so
        #: the wrappers' references to them survive a fork.
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        #: ``[key, start_s, dur_s, parent_index, self_s]`` per span.
        self.spans: list[list] = []
        #: Total duration of top-level frames (time covered by wrappers).
        self.root_s = 0.0
        self.worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]
        self.root_s = 0.0
        self.worker = True

    def entry(self, key: str) -> list:
        return self.totals.setdefault(key, [0, 0.0, 0.0])

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _root_closed(self, dur: float) -> None:
        self.root_s += dur
        if self.worker:
            self._flush()

    def _snapshot(self) -> dict:
        return {
            "pid": os.getpid(), "worker": self.worker, "root_s": self.root_s,
            "totals": self.totals, "counts": self.counts, "spans": self.spans,
        }

    def _flush(self) -> None:
        path = self.proc_dir / f"proc-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._snapshot()))
        tmp.replace(path)

    # ------------------------------------------------------------------
    def timed(self, key: str, fn, span: bool = False, observe=None):
        """*fn* wrapped to time itself under *key*."""
        stack = self.stack
        spans = self.spans
        entry = self.entry(key)
        perf = time.perf_counter
        t0 = self.t0
        closed = self._root_closed

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                frame[1] = len(spans)
                spans.append([key, 0.0, 0.0, parent, 0.0])
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                entry[0] += 1
                entry[1] += dur - frame[0]
                entry[2] += dur
                if span:
                    record = spans[frame[1]]
                    record[1] = start - t0
                    record[2] = dur
                    record[4] = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    closed(dur)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        """*fn* wrapped to count its calls only (its time stays with the caller)."""
        entry = self.entry(key)

        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def collect(self) -> list[dict]:
        """This process's snapshot plus every worker's, workers last."""
        procs = [self._snapshot()]
        for path in sorted(self.proc_dir.glob("proc-*.json")):
            procs.append(json.loads(path.read_text()))
        return procs


def _patch(owner, name: str, make) -> None:
    setattr(owner, name, make(getattr(owner, name)))


def _patch_methods(rec: Recorder, key: str, classes, names=None) -> None:
    """Wrap each public plain method a class defines itself."""
    for cls in classes:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            if names is not None and name not in names:
                continue
            setattr(cls, name, rec.timed(key, value))


def install(proc_dir: Path) -> Recorder:
    """Wrap every traced layer; returns the process's recorder."""
    from repro.gpu import simulator
    from repro.gpu.sm import SmWave
    from repro.gpu.vector import VectorWave
    from repro.harness import suite
    from repro.kernels import compile as kernels_compile
    from repro.mapping import execute as mapping_execute
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.power.accel import AcceleratorPowerModel
    from repro.power.gpuwattch import GpuWattchModel
    from repro.power.wattsup import WattsupMeter
    from repro.runs import executor as runs_executor
    from repro.runs import store as runs_store
    from repro.serve import admission, autoscale, batching, engine, events
    from repro.serve import profiles, schedulers, tenants

    rec = Recorder(proc_dir)
    timed = rec.timed

    def on_network(result) -> None:
        rec.count("analysis.dedup_requested", len(result.kernels))
        rec.count("analysis.dedup_unique", result.unique_kernels)

    def on_report(report) -> None:
        rec.count("runs.fresh", report.fresh)
        rec.count("runs.cached", report.cached)
        rec.count("runs.failed", len(report.failed))

    def on_kernel_get(entry) -> None:
        rec.count("runs.kernel_cache_gets")
        if entry is not None:
            rec.count("runs.kernel_cache_hits")

    def on_plan(plan) -> None:
        rec.count("mapping.tiles", plan.n_tiles)

    def on_batch(batch) -> None:
        if batch:
            rec.count("serve.batches")
            rec.count("serve.batched", len(batch))

    def on_decide(delta) -> None:
        if delta:
            rec.count("serve.autoscale_actions")

    # gpu / memory / isa / kernels / analysis
    _patch(simulator, "simulate_network",
           lambda fn: timed("sim.network", fn, span=True, observe=on_network))
    _patch(simulator, "decode_program", lambda fn: timed("gpu.decode", fn, span=True))
    _patch(simulator, "expand_program", lambda fn: timed("isa.expand", fn, span=True))
    for wave in (SmWave, VectorWave):
        _patch(wave, "run", lambda fn: timed("gpu.issue_loop", fn, span=True))
    _patch(MemoryHierarchy, "load", lambda fn: timed("memory.load", fn))
    _patch(MemoryHierarchy, "store", lambda fn: timed("memory.store", fn))
    _patch(kernels_compile, "compile_network",
           lambda fn: timed("kernels.compile", fn, span=True))
    # runs / harness / mapping / power
    _patch(suite, "run_all", lambda fn: timed("harness.run_all", fn, span=True))
    _patch(suite, "build_plan", lambda fn: timed("runs.plan", fn, span=True))
    _patch(suite, "run_experiment", lambda fn: timed("harness.aggregate", fn, span=True))
    _patch(runs_executor.Executor, "execute",
           lambda fn: timed("runs.execute", fn, span=True, observe=on_report))
    _patch(runs_store.ResultStore, "get_run", lambda fn: timed("runs.store_get", fn))
    _patch(runs_store.ResultStore, "put_run", lambda fn: timed("runs.store_put", fn))
    _patch(runs_store.KernelResultCache, "get",
           lambda fn: timed("runs.store_get", fn, observe=on_kernel_get))
    _patch(runs_store.KernelResultCache, "put", lambda fn: timed("runs.store_put", fn))
    for module in (runs_store, runs_executor):
        _patch(module, "result_from_payload",
               lambda fn: timed("runs.payload_decode", fn))
    _patch(mapping_execute, "run_mapped_network",
           lambda fn: timed("mapping.run", fn, span=True))
    _patch(mapping_execute, "map_network",
           lambda fn: timed("mapping.map", fn, observe=on_plan))
    _patch_methods(rec, "power.model",
                   (GpuWattchModel, AcceleratorPowerModel, WattsupMeter))
    # serve
    _patch(engine.ServeSim, "run", lambda fn: timed("serve.engine", fn, span=True))
    for queue in (events.EventQueue, events.SlottedEventQueue):
        _patch(queue, "push", lambda fn: timed("serve.events.push", fn))
        _patch(queue, "pop", lambda fn: timed("serve.events.pop", fn))
    _patch(events.SlottedEventQueue, "pop_same_time",
           lambda fn: timed("serve.events.pop", fn))
    _patch_methods(rec, "serve.admission",
                   (admission.NullAdmission, admission.SloAwareAdmission),
                   names=("assess", "place"))
    _patch_methods(rec, "serve.choose",
                   (schedulers.RoundRobinScheduler, schedulers.LeastLoadedScheduler,
                    schedulers.LatencyAwareScheduler), names=("choose",))
    _patch_methods(rec, "serve.workload_next", (tenants.MultiTenantWorkload,),
                   names=("prime", "next_arrival"))
    _patch(profiles.LatencyProfile, "latency_ms",
           lambda fn: rec.counted("serve.latency", fn))
    _patch(batching.DynamicBatcher, "add", lambda fn: timed("serve.batching", fn))
    _patch(batching.DynamicBatcher, "pop_batch",
           lambda fn: timed("serve.batching", fn, observe=on_batch))
    _patch(autoscale.QueueDepthAutoscaler, "decide",
           lambda fn: timed("serve.autoscale", fn, observe=on_decide))
    return rec


def _merge(procs: list[dict]) -> tuple[dict, dict, float]:
    totals: dict[str, list] = {}
    counts: dict[str, float] = {}
    worker_busy = 0.0
    for proc in procs:
        for key, (calls, self_s, total_s) in proc["totals"].items():
            acc = totals.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        for key, value in proc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if proc["worker"]:
            worker_busy += proc["root_s"]
    return totals, counts, worker_busy


def layer_metrics(procs: list[dict], passes: list[dict], store_bytes: int) -> dict:
    """Per-layer metric values (unit-less; units live in BENCHMARK.json).

    *passes* are the traced session's pass records; serving counts that
    the engine already reports exactly (offered, shed) come from them.
    """
    totals, counts, worker_busy = _merge(procs)

    def calls(key: str) -> int:
        return totals.get(key, (0, 0.0, 0.0))[0]

    def self_s(key: str) -> float:
        return totals.get(key, (0, 0.0, 0.0))[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    execute_wall = totals.get("runs.execute", (0, 0.0, 0.0))[2]
    offered = sum(p["counts"].get("offered", 0) for p in passes)
    shed = sum(p["counts"].get("shed", 0) for p in passes)
    return {
        "gpu.issue_loop_s": self_s("gpu.issue_loop"),
        "gpu.waves": calls("gpu.issue_loop"),
        "gpu.driver_s": self_s("sim.network"),
        "memory.load_s": self_s("memory.load"),
        "memory.load_calls": calls("memory.load"),
        "memory.store_s": self_s("memory.store"),
        "gpu.decode_s": self_s("gpu.decode"),
        "isa.expand_s": self_s("isa.expand"),
        "analysis.dedup_requested": counts.get("analysis.dedup_requested", 0),
        "analysis.dedup_unique": counts.get("analysis.dedup_unique", 0),
        "kernels.compile_s": self_s("kernels.compile"),
        "runs.execute_s": self_s("runs.execute"),
        "runs.worker_busy_s": worker_busy,
        "runs.pool_util": ratio(worker_busy, HARNESS_JOBS * execute_wall),
        "runs.fresh": counts.get("runs.fresh", 0),
        "runs.cached": counts.get("runs.cached", 0),
        "runs.failed": counts.get("runs.failed", 0),
        "runs.store_put_s": self_s("runs.store_put"),
        "runs.store_put_bytes": store_bytes,
        "runs.store_get_s": self_s("runs.store_get"),
        "runs.payload_decode_s": self_s("runs.payload_decode"),
        "runs.kernel_cache_hit_ratio": ratio(
            counts.get("runs.kernel_cache_hits", 0),
            counts.get("runs.kernel_cache_gets", 0)),
        "mapping.map_s": self_s("mapping.map"),
        "mapping.run_s": self_s("mapping.run"),
        "mapping.tiles": counts.get("mapping.tiles", 0),
        "power.model_s": self_s("power.model"),
        "harness.aggregate_s": self_s("harness.aggregate"),
        "runs.plan_s": self_s("runs.plan"),
        "serve.events": calls("serve.events.push"),
        "serve.events.push_s": self_s("serve.events.push"),
        "serve.events.pop_s": self_s("serve.events.pop"),
        "serve.admission_s": self_s("serve.admission"),
        "serve.shed": shed,
        "serve.shed_ratio": ratio(shed, offered),
        "serve.choose_s": self_s("serve.choose"),
        "serve.workload_next_s": self_s("serve.workload_next"),
        "serve.latency_calls": calls("serve.latency"),
        "serve.batching_s": self_s("serve.batching"),
        "serve.batches": counts.get("serve.batches", 0),
        "serve.batch_mean": ratio(counts.get("serve.batched", 0),
                                  counts.get("serve.batches", 0)),
        "serve.autoscale_actions": counts.get("serve.autoscale_actions", 0),
        "serve.engine_self_s": self_s("serve.engine"),
    }


def write_chrome_trace(procs: list[dict], path: Path, meta: dict) -> None:
    """Write every process's spans and totals as Chrome-trace JSON.

    ``repro.obs.Tracer`` serves as the container only (it is never
    installed), so the file opens in Perfetto like ``repro trace`` output.
    Each span's args name its own id, its parent's id and its self time.
    """
    from repro.obs.export import write_trace
    from repro.obs.tracer import WALL_S, Tracer

    tracer = Tracer(warps=False)
    for proc in procs:
        pid = proc["pid"]
        process = f"{'pool worker' if proc['worker'] else 'session'} {pid}"
        for index, (key, start, dur, parent, own) in enumerate(proc["spans"]):
            tracer.span(
                key, key.split(".")[0], WALL_S, start, dur, process, "main",
                args={"id": f"{pid}:{index}",
                      "parent": f"{pid}:{parent}" if parent >= 0 else None,
                      "self_s": own},
            )
        for key, (calls, own, total) in proc["totals"].items():
            tracer.metrics.counter(f"{key}.calls").inc(calls)
            tracer.metrics.counter(f"{key}.self_s").inc(own)
            tracer.metrics.counter(f"{key}.total_s").inc(total)
        for key, value in proc["counts"].items():
            tracer.metrics.counter(key).inc(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(tracer, path, meta)
