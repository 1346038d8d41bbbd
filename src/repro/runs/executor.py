"""Execute a run plan against the unified store.

:class:`Executor` is the cached read-through front door to
:func:`repro.gpu.simulator.simulate_network`: memory -> stored network
run -> fresh simulation (which itself reads/writes the store's kernel
layer, so even a network-entry miss is cheap when sibling combos share
kernels).  :meth:`Executor.execute` fans a plan's missing entries out
over a process pool, merging results in submission order so the store's
contents are deterministic regardless of worker completion order.

Every path returns a :class:`~repro.gpu.simulator.NetworkResult`
decoded from the run's JSON payload — fresh or stored, GPU or mapped —
so every consumer sees byte-identical values whether the run was fresh
or a hit.  A run entry that does not decode counts as missing, so a
corrupt entry is re-simulated in the pool like any other miss.

``jobs`` counts whole runs at a time, not cores: ``--jobs 1`` simulates
one run at a time in this process, and that run's missing waves still
fan out over every usable core
(:func:`~repro.gpu.simulator.simulate_network`).  Runs handed to pool
workers (``jobs > 1``) keep their waves in the worker, so pools never
nest.  A run whose wave worker dies fails with one error naming its
network, recorded per spec like any other failure.

When a tracer is installed (:mod:`repro.obs`), the executor records
wall-clock spans for store probes, fresh simulations and whole-plan
passes, plus ``runs.*`` hit/miss counters.  Worker processes spawned by
:meth:`Executor.execute` do not inherit the tracer — only in-process
work appears in a trace (the ``repro trace`` CLI therefore runs
serially).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.gpu.config import GpuConfig
from repro.gpu.simulator import NetworkResult
from repro.obs.tracer import WALL_S, get_tracer
from repro.runs.planner import Plan
from repro.runs.spec import RunSpec
from repro.runs.store import ResultStore, result_from_payload, result_to_payload


@dataclass
class ExecutionReport:
    """Outcome of one :meth:`Executor.execute` pass.

    ``failed`` maps the content key of every spec whose simulation
    raised to ``"<describe>: <ErrorType>: <message>"`` — a failing run
    no longer aborts the batch, it is reported per-spec and its
    sibling runs complete.
    """

    planned: int
    fresh: int
    cached: int
    failed: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line log: '[plan] N unique runs: F fresh, C cached'."""
        failed = f", {len(self.failed)} failed" if self.failed else ""
        return (
            f"[plan] {self.planned} unique runs: "
            f"{self.fresh} fresh, {self.cached} cached{failed}"
        )

    def to_dict(self) -> dict:
        """Stable JSON form (the :class:`repro.stats.Stats` protocol)."""
        return {
            "planned": self.planned,
            "fresh": self.fresh,
            "cached": self.cached,
            "failed": dict(self.failed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionReport":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        return cls(
            planned=data["planned"],
            fresh=data["fresh"],
            cached=data["cached"],
            failed=dict(data.get("failed", {})),
        )


class Executor:
    """Cached, parallelizable runner of :class:`RunSpec` simulations.

    ``store=None`` keeps results in memory only (no disk IO) — used by
    ``--no-cache`` runs and unit tests.
    """

    def __init__(self, store: ResultStore | None = None, verbose: bool = False) -> None:
        self.store = store
        self.verbose = verbose
        self._memory: dict[str, NetworkResult] = {}
        #: Fresh simulations performed through this executor.
        self.fresh = 0
        #: Lookups served from memory or the store.
        self.hits = 0

    # ------------------------------------------------------------------
    def run(self, spec: RunSpec, refresh: bool = False) -> NetworkResult:
        """Run (or load) one network simulation.

        ``refresh=True`` skips the memory and store reads — the run
        entry and the kernel layer alike — and simulates every kernel,
        re-storing the run entry.  The ``repro trace`` CLI uses it so a
        trace always contains live GPU spans (stalls and warps included)
        even when the run is already cached.
        """
        found = None if refresh else self._lookup(spec)
        return found if found is not None else self._simulate(spec, refresh)

    def _lookup(self, spec: RunSpec) -> NetworkResult | None:
        """*spec*'s result from memory, else from a store entry that
        decodes (kept in memory from then on); None when neither has it."""
        tracer = get_tracer()
        key = spec.key()
        found = self._memory.get(key)
        if found is not None:
            if tracer.enabled:
                tracer.metrics.counter("runs.memory_hits").inc()
        elif self.store is not None:
            probe_start = tracer.wall()
            found = self.store.get_run(spec)
            if tracer.enabled:
                tracer.span(
                    f"probe {spec.network}", "cache", WALL_S,
                    probe_start, tracer.wall() - probe_start,
                    process="runs", thread="executor",
                    args={"run": spec.describe(), "hit": found is not None},
                )
                tracer.metrics.counter(
                    "runs.store_hits" if found is not None else "runs.store_misses"
                ).inc()
            if found is not None:
                self._memory[key] = found
        if found is not None:
            self.hits += 1
        return found

    def _simulate(self, spec: RunSpec, refresh: bool = False) -> NetworkResult:
        """Simulate *spec* in this process and store its run entry."""
        tracer = get_tracer()
        if self.verbose:
            print(f"[run] simulating {spec.describe()}", flush=True)
        sim_start = tracer.wall()
        payload = _simulate_spec(spec, None if refresh else self.store)
        if tracer.enabled:
            tracer.span(
                f"simulate {spec.network}", "run", WALL_S,
                sim_start, tracer.wall() - sim_start,
                process="runs", thread="executor",
                args={"run": spec.describe(), "refresh": refresh},
            )
            tracer.metrics.counter("runs.fresh").inc()
        return self._keep(spec, payload)

    def _keep(self, spec: RunSpec, payload: dict) -> NetworkResult:
        """Store a fresh run's payload and hold its decoded result."""
        if self.store is not None:
            self.store.put_run(spec, payload)
        result = result_from_payload(payload, spec.config, spec.options)
        assert result is not None  # freshly encoded payloads always decode
        self._memory[spec.key()] = result
        self.fresh += 1
        return result

    def execute(self, plan: Plan | Sequence[RunSpec], jobs: int = 1) -> ExecutionReport:
        """Materialize every planned run, fanning misses over *jobs*
        worker processes; returns fresh/cached counts.

        A run whose simulation raises does not abort the pass: the
        failure is recorded under the spec's content key in
        :attr:`ExecutionReport.failed` (with the spec's human identity
        and the error) and every sibling run still completes.
        """
        tracer = get_tracer()
        pass_start = tracer.wall()
        specs = plan.specs if isinstance(plan, Plan) else tuple(plan)
        # Loads every stored run into memory; the rest are simulated
        # below, so memory ends up holding the full matrix.
        pending = self._missing(specs)
        fresh_before = self.fresh
        failed: dict[str, str] = {}
        if jobs > 1 and len(pending) > 1:
            failed = self._execute_parallel(pending, jobs)
        else:
            for spec in pending:
                try:
                    self._simulate(spec)
                except Exception as exc:  # surfaced per-run, not raised
                    failed[spec.key()] = _failure_message(spec, exc)
        fresh = self.fresh - fresh_before
        report = ExecutionReport(
            planned=len(specs),
            fresh=fresh,
            cached=len(specs) - fresh - len(failed),
            failed=failed,
        )
        if tracer.enabled:
            if failed:
                tracer.metrics.counter("runs.failed").inc(len(failed))
            tracer.span(
                "execute-plan", "plan", WALL_S,
                pass_start, tracer.wall() - pass_start,
                process="runs", thread="executor",
                args={
                    "planned": report.planned,
                    "fresh": report.fresh,
                    "cached": report.cached,
                    "failed": len(report.failed),
                    "jobs": jobs,
                },
            )
        return report

    # ------------------------------------------------------------------
    def _missing(self, specs: Iterable[RunSpec]) -> list[RunSpec]:
        """Planned specs with no result in memory or the store (dedup by
        key).  Stored entries are read here, once: one that decodes is
        kept in memory, one that does not is missing like an absent one."""
        missing: dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.key()
            if key not in missing and self._lookup(spec) is None:
                missing[key] = spec
        return list(missing.values())

    def _execute_parallel(self, pending: list[RunSpec], jobs: int) -> dict[str, str]:
        """Fan *pending* out over worker processes in chunks.

        Campaign-scale plans submit thousands of specs; chunking caps
        the submission queue and per-future IPC at a few dozen tasks
        per worker instead of one task per spec.  Workers catch
        per-spec exceptions and report them alongside successful
        payloads, so one failing combo costs one table cell, not the
        batch.  Returns ``key -> failure message``.
        """
        cache_dir = None if self.store is None else self.store.cache_dir
        chunk_size = max(
            1, min(CHUNK_MAX_SPECS, math.ceil(len(pending) / (jobs * CHUNKS_PER_JOB)))
        )
        chunks = [
            pending[i:i + chunk_size]
            for i in range(0, len(pending), chunk_size)
        ]
        failed: dict[str, str] = {}
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            futures = [
                pool.submit(_simulate_chunk_worker, chunk, cache_dir)
                for chunk in chunks
            ]
            # Canonical-order merge: collect in submission order so the
            # store contents are deterministic no matter which worker
            # finishes first.
            for chunk, future in zip(chunks, futures):
                try:
                    outcomes = future.result()
                except Exception as exc:  # the worker process itself died
                    outcomes = [(None, f"{type(exc).__name__}: {exc}")] * len(chunk)
                for spec, (payload, error) in zip(chunk, outcomes):
                    if error is not None:
                        failed[spec.key()] = f"{spec.describe()}: {error}"
                        continue
                    self._keep(spec, payload)
        return failed


#: Upper bound on specs per worker task.
CHUNK_MAX_SPECS = 16
#: Target number of tasks per worker (keeps the pool load-balanced
#: when per-spec cost varies, e.g. resnet vs gru).
CHUNKS_PER_JOB = 4


def _failure_message(spec: RunSpec, exc: Exception) -> str:
    return f"{spec.describe()}: {type(exc).__name__}: {exc}"


def _simulate_spec(spec: RunSpec, store: ResultStore | None) -> dict:
    """One full network run, as a JSON-ready payload.

    GPU configs go through the cycle-level simulator; accelerator
    configs go through the tiling mapper's analytic execution model.
    """
    if not isinstance(spec.config, GpuConfig):
        from repro.mapping.execute import run_mapped_network

        live = run_mapped_network(spec.network, spec.config, spec.options)
        return result_to_payload(live)
    from repro.gpu.simulator import simulate_network

    cache = store.kernels if store is not None else None
    live = simulate_network(spec.network, spec.config, spec.options, cache=cache)
    return result_to_payload(live)


def _simulate_chunk_worker(specs: Sequence[RunSpec], cache_dir) -> list[tuple]:
    """Simulate a chunk of specs, catching per-spec failures.

    Returns one ``(payload, None)`` or ``(None, "ErrType: message")``
    pair per spec, aligned with the input order.
    """
    store = ResultStore(cache_dir) if cache_dir is not None else None
    outcomes: list[tuple] = []
    for spec in specs:
        try:
            outcomes.append((_simulate_spec(spec, store), None))
        except Exception as exc:
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
    return outcomes
