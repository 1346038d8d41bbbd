"""Run orchestration: plan the experiment matrix, execute it once, aggregate.

The paper's evaluation is a matrix of experiments over (network x
platform x L1 size x scheduler) combinations.  This package is the
single orchestration layer behind all of them:

* :mod:`repro.runs.spec` — :class:`RunSpec`, the identity of one
  whole-network simulation, and :class:`PlanContext`, the knobs a
  planning pass is parameterized by (network subset, base options).
* :mod:`repro.runs.store` — :class:`ResultStore`, the one
  content-addressed on-disk store (``.repro-cache/`` or
  ``$REPRO_CACHE_DIR``) holding both per-kernel results and serialized
  whole-network runs, decoded back to the simulator's own
  :class:`~repro.gpu.simulator.NetworkResult` /
  :class:`~repro.gpu.simulator.KernelResult`.
* :mod:`repro.runs.planner` — collects every registered experiment's
  required runs and dedupes them into a minimal :class:`Plan`.
* :mod:`repro.runs.executor` — :class:`Executor`, the cached
  read-through front door to :func:`repro.gpu.simulator.simulate_network`
  (and, for accelerator configs, the tiling mapper) with process-pool
  fan-out over a plan's missing entries; every run it returns is a
  ``NetworkResult``, fresh or stored, GPU or mapped.
* :mod:`repro.runs.experiment` — the declarative :class:`Experiment`
  spec (required runs, aggregate fn, checks, render hint) and
  :func:`run_experiment`.
* :mod:`repro.runs.registry` — the single registry of all paper
  experiments (Tables I-IV, Figures 1-16).

Typical use::

    from repro.runs import Executor, PlanContext, ResultStore, build_plan
    from repro.runs.registry import all_experiments

    experiments = all_experiments()
    ctx = PlanContext()
    executor = Executor(ResultStore())
    plan = build_plan(experiments.values(), ctx)
    executor.execute(plan, jobs=4)          # each unique combo, once
    results = [run_experiment(e, executor, ctx) for e in experiments.values()]
"""

from repro.runs.executor import ExecutionReport, Executor
from repro.runs.experiment import Experiment, RunView, run_experiment
from repro.runs.planner import Plan, build_plan
from repro.runs.spec import PlanContext, RunSpec, run_key
from repro.runs.store import ResultStore

__all__ = [
    "ExecutionReport",
    "Executor",
    "Experiment",
    "Plan",
    "PlanContext",
    "ResultStore",
    "RunSpec",
    "RunView",
    "build_plan",
    "run_experiment",
    "run_key",
]
