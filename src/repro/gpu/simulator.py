"""Kernel- and network-level simulation drivers.

:func:`simulate_kernel` runs one resident wave of a kernel on one SM
(:mod:`repro.gpu.sm`) and rescales the outcome to the full launch:

* event counters scale by ``total_blocks / simulated_blocks``;
* wave cycles scale by the instruction-sampling factor (dynamic /
  sampled instructions) and by the number of waves the launch needs
  across all SMs (``ceil(blocks / (resident * num_sms))``);
* a fixed launch overhead is added per kernel, which is what keeps the
  tiny RNN kernels launch-bound (and scheduler-insensitive, Figure 15).

:func:`simulate_network` drives a compiled network kernel-by-kernel,
reusing results across signature-identical kernels (ResNet repeats its
bottleneck shapes dozens of times) and returning per-kernel and
per-layer-type aggregates.  Reuse happens at two levels, both keyed by
the canonical identities of :mod:`repro.analysis.canonical`:

* **launch level** — equal :meth:`~repro.kernels.launch.KernelLaunch.signature`
  launches share one scaled :class:`KernelResult` (stats copied per
  occurrence so aggregation stays independent);
* **wave level** — launches in the same :func:`~repro.analysis.canonical.wave_class`
  (same program and block geometry, *any* grid) share one expensive
  :class:`~repro.gpu.sm.SmWave` run and redo only the cheap per-launch
  scaling, e.g. an element-wise kernel over two different map sizes.

``dedup=False`` disables both levels (every launch simulates from
scratch); ``tests/test_engine_equivalence.py`` pins that the two modes
are bit-identical on every suite network.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.gpu import engine as engine_registry
from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.decode import decode_program
from repro.gpu.occupancy import Occupancy, compute_occupancy
from repro.isa.program import expand_program
from repro.kernels.compile import compiled_network
from repro.kernels.launch import KernelLaunch
from repro.kernels.program_builder import build_guard_program
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.tracer import CYCLES, get_tracer
from repro.profiling.stats import KernelStats

if TYPE_CHECKING:
    from repro.runs.store import StoredKernelInfo

#: Guard program shared by all kernels (fully-inactive warps),
#: expanded and decoded once at module scope (the seed engine
#: re-expanded it on every simulate_kernel call).  Sharing one decoded
#: guard across kernels is safe because it contains no addressed
#: global/local accesses, so no per-kernel-geometry state is cached on it.
_GUARD_PROGRAM = build_guard_program()
_GUARD_EXPANDED = expand_program(_GUARD_PROGRAM)
_GUARD_DECODED = decode_program(_GUARD_EXPANDED)


@dataclass
class KernelResult:
    """Scaled simulation outcome of one kernel launch.

    The one per-kernel result type: a live simulation carries its
    :class:`KernelLaunch`; a kernel decoded from the result store or
    timed by the tiling mapper carries a
    :class:`~repro.runs.store.StoredKernelInfo` with the same identity
    fields (``name``, ``node_name``, ``category``, ``total_blocks``,
    ``signature()``).
    """

    kernel: KernelLaunch | StoredKernelInfo
    stats: KernelStats
    occupancy: Occupancy
    #: dynamic / simulated instruction ratio (per-warp sampling factor).
    sample_factor: float
    #: total_blocks / simulated_blocks (block sampling factor).
    block_factor: float

    @property
    def cycles(self) -> float:
        """Estimated full-launch cycles including launch overhead."""
        return self.stats.cycles

    @property
    def category(self) -> str:
        """Layer-type category of the kernel."""
        return self.kernel.category


@dataclass
class NetworkResult:
    """Outcome of a whole network's kernel sequence.

    The one network-run type: :func:`simulate_network`, the run store's
    decoder (:func:`repro.runs.store.result_from_payload`) and the tiling
    mapper (:func:`repro.mapping.execute.run_mapped_network`) all return
    it, so power, profiling, serving and campaign code reads GPU, FPGA
    and NPU runs, live or stored, through one API.
    """

    network: str
    config: GpuConfig
    options: SimOptions
    kernels: list[KernelResult] = field(default_factory=list)
    #: Distinct canonical signatures among the launches (dedup collapses
    #: the launch list to this many simulations on a cold run).
    unique_kernels: int = 0
    #: Processes the run's missing waves ran on (1: in-process, and for
    #: every result that was not simulated here).
    wave_workers: int = 1

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles (kernels run back-to-back, as in Tango)."""
        return sum(k.stats.cycles for k in self.kernels)

    @property
    def total_time_ms(self) -> float:
        """End-to-end time in milliseconds at the config's core clock."""
        return self.total_cycles / (self.config.clock_ghz * 1e6)

    def cycles_by_category(self) -> dict[str, float]:
        """Execution cycles aggregated per layer-type category (Fig 1)."""
        out: dict[str, float] = {}
        for k in self.kernels:
            out[k.category] = out.get(k.category, 0.0) + k.stats.cycles
        return out

    def stats_by_category(self) -> dict[str, KernelStats]:
        """Merged counters per layer-type category (Figs 4, 7, 13, 14)."""
        out: dict[str, KernelStats] = {}
        for k in self.kernels:
            agg = out.setdefault(k.category, KernelStats())
            agg.merge(k.stats)
        return out

    def aggregate(self) -> KernelStats:
        """Whole-network merged counters."""
        total = KernelStats()
        for k in self.kernels:
            total.merge(k.stats)
        return total


def _make_hierarchy(config: GpuConfig) -> MemoryHierarchy:
    """Fresh per-kernel memory hierarchy for one simulated SM.

    The simulated SM sees the *full* L2: the L2 is physically shared and
    in these workloads the other SMs run sibling blocks of the same
    kernel touching the same weights/feature maps, so cross-SM sharing
    keeps their lines resident rather than evicting ours.  DRAM
    bandwidth, by contrast, is genuinely divided among SMs, so the
    channel model gets a 1/num_sms share.
    """
    return MemoryHierarchy(
        l1_size=config.l1_size,
        l2_size=config.l2_size,
        mshr_entries=config.mshr_entries,
        dram_latency=config.dram_latency,
        dram_bytes_per_cycle=config.dram_bytes_per_cycle_per_sm,
    )


#: Address range of the canonical "input" slot (repro.kernels.memory_layout);
#: decode.WARM_LO/WARM_HI mirror it (padded convolutions shift their base
#: a little below the slot start).
_INPUT_SLOT = (1 << 30, 2 << 30)


class _WaveRun:
    """Unscaled outcome of one resident-wave simulation.

    Holds everything the per-launch scaling step reads: the raw wave
    statistics plus the hierarchy counters of the wave's private memory
    system.  Instances are immutable by convention — scaling always
    operates on a copy — so one ``_WaveRun`` can back every launch of a
    :func:`~repro.analysis.canonical.wave_class`.
    """

    __slots__ = (
        "stats", "n_expanded",
        "l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
        "dram_bytes", "load_transactions", "store_transactions",
        "shared_accesses", "const_accesses",
    )

    def __init__(self, stats: KernelStats, n_expanded: int, hierarchy: MemoryHierarchy):
        self.stats = stats
        self.n_expanded = n_expanded
        self.l1_accesses = hierarchy.l1.stats.accesses
        self.l1_misses = hierarchy.l1.stats.misses
        self.l2_accesses = hierarchy.l2.stats.accesses
        self.l2_misses = hierarchy.l2.stats.misses
        self.dram_bytes = hierarchy.dram.bytes_served
        self.load_transactions = hierarchy.load_transactions
        self.store_transactions = hierarchy.store_transactions
        self.shared_accesses = hierarchy.shared_accesses
        self.const_accesses = hierarchy.const_accesses


@dataclass
class _Wave:
    """One resident wave a network run must simulate.

    The plan step makes one per missing :func:`~repro.analysis.canonical.wave_class`
    (one per missing launch without dedup): the first launch of the
    class, its simulated block count and its program, expanded once
    here and handed to :func:`_run_wave` as is.  The run step fills
    :attr:`run`.
    """

    kernel: KernelLaunch
    sim_blocks: int
    expanded: list
    run: _WaveRun | None = None

    @property
    def cost(self) -> int:
        """Relative wall cost: expanded length x simulated blocks x warps per block."""
        return len(self.expanded) * self.sim_blocks * self.kernel.warps_per_block


def _expand(kernel: KernelLaunch, options: SimOptions) -> list:
    """*kernel*'s program flattened under the options' loop budgets."""
    return expand_program(kernel.program, options.max_trips, options.max_outer_trips)


def _residency(
    kernel: KernelLaunch, config: GpuConfig, options: SimOptions
) -> tuple[Occupancy, int]:
    """*kernel*'s occupancy and the number of blocks its sampled wave simulates."""
    occupancy = compute_occupancy(kernel, config)
    sim_blocks = occupancy.blocks
    if options.max_sim_blocks is not None:
        sim_blocks = max(1, min(sim_blocks, options.max_sim_blocks))
    return occupancy, sim_blocks


def _run_wave(
    kernel: KernelLaunch,
    config: GpuConfig,
    options: SimOptions,
    sim_blocks: int,
    expanded: list,
) -> _WaveRun:
    """Decode and execute one resident wave of *kernel* on one SM.

    The wave class comes from the engine registry
    (:func:`repro.gpu.engine.wave_class`): ``SmWave`` for the fast
    engine, ``VectorWave`` for the vector engine.  The seed engine never
    reaches here — :func:`simulate_kernel` delegates to its frozen
    driver wholesale.  Each call builds a private memory hierarchy and
    reads nothing but its arguments, so waves may run in any order and
    in any process.
    """
    decoded = decode_program(expanded)
    hierarchy = _make_hierarchy(config)
    wave_cls = engine_registry.wave_class()
    wave = wave_cls(kernel, decoded, _GUARD_DECODED, sim_blocks, config, options, hierarchy)
    if kernel.shared_input and kernel.total_blocks > sim_blocks:
        wave.warm_shared_input()
    stats = wave.run()
    return _WaveRun(stats, len(expanded), hierarchy)


def simulate_kernel(
    kernel: KernelLaunch,
    config: GpuConfig,
    options: SimOptions | None = None,
) -> KernelResult:
    """Simulate one kernel launch and scale to the full grid.

    When the seed engine is active (``REPRO_ENGINE=seed`` or
    ``--engine seed``), the call delegates to the frozen seed driver
    wholesale.
    """
    if engine_registry.get_engine() == "seed":
        from repro.gpu import seed_engine

        return seed_engine.simulate_kernel(kernel, config, options)
    options = options or SimOptions()
    occupancy, sim_blocks = _residency(kernel, config, options)
    run = _run_wave(kernel, config, options, sim_blocks, _expand(kernel, options))
    return _scale(kernel, run, occupancy, sim_blocks, config)


def _scale(
    kernel: KernelLaunch,
    run: _WaveRun,
    occupancy: Occupancy,
    sim_blocks: int,
    config: GpuConfig,
) -> KernelResult:
    """Scale one unscaled wave outcome to *kernel*'s full launch."""
    # Always scale a copy: the wave stats stay pristine for the next
    # launch of the class (copying is exact, so the dedup-off path
    # produces bit-identical numbers).
    stats = _copy_stats(run.stats)
    dynamic = kernel.program.dynamic_count()
    sample_factor = dynamic / max(1, run.n_expanded)
    block_factor = kernel.total_blocks / sim_blocks
    waves = math.ceil(kernel.total_blocks / (occupancy.blocks * config.num_sms))

    stats.waves = waves
    stats.cycles = (
        stats.wave_cycles * sample_factor * waves + config.launch_overhead_cycles
    )
    stats.scale_events(block_factor)
    # Stall samples count warp-cycles of the sampled wave; scale by the
    # instruction-sampling factor (block scaling was applied above) so
    # kernels weight correctly in per-layer aggregates.
    for reason in stats.stalls:
        stats.stalls[reason] *= sample_factor
    stats.l1_accesses = run.l1_accesses * block_factor
    stats.l1_misses = run.l1_misses * block_factor
    stats.l2_accesses = run.l2_accesses * block_factor
    stats.l2_misses = run.l2_misses * block_factor
    stats.dram_bytes = run.dram_bytes * block_factor
    stats.load_transactions = run.load_transactions * block_factor
    stats.store_transactions = run.store_transactions * block_factor
    stats.shared_accesses = run.shared_accesses * block_factor
    stats.const_accesses = run.const_accesses * block_factor
    stats.active_sms = min(
        config.num_sms, math.ceil(kernel.total_blocks / occupancy.blocks)
    )
    stats.resident_warps = occupancy.warps

    return KernelResult(
        kernel=kernel,
        stats=stats,
        occupancy=occupancy,
        sample_factor=sample_factor,
        block_factor=block_factor,
    )


@dataclass
class _Plan:
    """How one network run resolves each launch (the plan step's output).

    ``steps`` holds one ``(source, signature, detail)`` per launch, in
    launch order: source ``"local"`` repeats an earlier launch of the
    same signature (detail None), ``"cache"`` is a kernel-store hit
    (detail: its :class:`KernelResult`), ``"fresh"`` scales a wave of
    :attr:`waves` (detail: ``(occupancy, sim_blocks, wave)``).
    """

    steps: list[tuple]
    waves: list[_Wave]
    unique: int


def _plan(kernels, config: GpuConfig, options: SimOptions, cache, dedup: bool) -> _Plan:
    """Resolve each unique signature once: a local repeat, a kernel-store
    hit, or a launch scaled from a (possibly shared) wave to simulate."""
    from repro.analysis.canonical import wave_class

    steps: list[tuple] = []
    waves: list[_Wave] = []
    by_class: dict[tuple, _Wave] = {}
    seen: set[str] = set()
    for kernel in kernels:
        signature = kernel.signature()
        if dedup and signature in seen:
            steps.append(("local", signature, None))
            continue
        seen.add(signature)
        hit = cache.get(kernel, config, options) if cache is not None else None
        if hit is not None:
            steps.append(("cache", signature, hit))
            continue
        occupancy, sim_blocks = _residency(kernel, config, options)
        wave = None
        if dedup:
            warm = kernel.shared_input and kernel.total_blocks > sim_blocks
            key = wave_class(kernel, sim_blocks, warm)
            wave = by_class.get(key)
        if wave is None:
            wave = _Wave(kernel, sim_blocks, _expand(kernel, options))
            waves.append(wave)
            if dedup:
                by_class[key] = wave
        steps.append(("fresh", signature, (occupancy, sim_blocks, wave)))
    return _Plan(steps, waves, len(seen))


#: Predicted saving, in wave-cost units (:attr:`_Wave.cost`), below which
#: the waves of one call run in-process.  Forking, feeding and joining a
#: two-worker pool costs about 50 ms per call on the 2-core reference box
#: (GRU at light fidelity: 12 ms in-process, 48 ms fanned out).  The
#: fastest whole-network rate measured there is CifarNet's, ~4e5 cost
#: units/s (AlexNet 1.4e5, ResNet 2.1e5, SqueezeNet 6.5e4), so 50 ms is
#: taken as 20,000 units: a saving is never overestimated.
FANOUT_MIN_SAVING = 20_000

#: ``(waves, config, options)`` of a fan-out worker's run, set in the
#: worker by :func:`_fanout_init`; fork hands the plan over without
#: pickling it, so only a wave's position crosses the pipe.
_FANOUT: tuple | None = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _fanout_width(waves: list[_Wave]) -> int:
    """Processes to run *waves* on: one per usable CPU when fanning out
    pays, else 1 (in-process).

    Only a top-level process fans out (pool workers never nest), only
    untraced (spans and counters stay in the tracer's process), only
    where fork is available and safe (no other thread is running), and
    only when the predicted saving — the summed cost minus the largest
    wave — beats :data:`FANOUT_MIN_SAVING`.
    """
    width = min(len(waves), _usable_cpus())
    if (
        width < 2
        or multiprocessing.parent_process() is not None
        or get_tracer().enabled
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    costs = [wave.cost for wave in waves]
    return width if sum(costs) - max(costs) > FANOUT_MIN_SAVING else 1


def _fanout_init(waves: list[_Wave], config: GpuConfig, options: SimOptions) -> None:
    global _FANOUT
    _FANOUT = (waves, config, options)


def _fanout_wave(position: int) -> _WaveRun:
    """Pool-worker entry: run the wave at *position* of the inherited fan-out."""
    waves, config, options = _FANOUT
    wave = waves[position]
    return _run_wave(wave.kernel, config, options, wave.sim_blocks, wave.expanded)


def _run_waves(name: str, waves: list[_Wave], config: GpuConfig, options: SimOptions) -> int:
    """Fill every planned wave's :attr:`~_Wave.run`; returns the process
    count used (1: in-process).

    Fanned-out waves are submitted longest first to a fork pool and
    collected in plan order, so the outcome — and the first error, when
    a wave raises — is the in-process one.  A worker that dies takes the
    run with it: that surfaces as one ``RuntimeError`` naming the
    network.
    """
    width = _fanout_width(waves)
    if width == 1:
        for wave in waves:
            wave.run = _run_wave(wave.kernel, config, options, wave.sim_blocks, wave.expanded)
        return 1
    order = sorted(range(len(waves)), key=lambda n: waves[n].cost, reverse=True)
    pool = ProcessPoolExecutor(
        width, mp_context=multiprocessing.get_context("fork"),
        initializer=_fanout_init, initargs=(waves, config, options),
    )
    try:
        futures = {n: pool.submit(_fanout_wave, n) for n in order}
        for n, wave in enumerate(waves):
            wave.run = futures[n].result()
    except BrokenProcessPool:
        raise RuntimeError(
            f"{name}: a wave worker process died (BrokenProcessPool); "
            "the run produced no result"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)
    return width


def simulate_network(
    name: str,
    config: GpuConfig,
    options: SimOptions | None = None,
    cache=None,
    dedup: bool = True,
) -> NetworkResult:
    """Simulate every kernel of the named suite network, in order.

    With *dedup* (the default), signature-identical kernels (same
    canonical form, :mod:`repro.analysis.canonical`) reuse one
    simulation and launches sharing a wave class reuse one SM issue-loop
    run; each occurrence still contributes its own entry — and its own
    launch overhead — to the result.  ``dedup=False`` simulates every
    launch from scratch; the two modes are bit-identical by construction
    and by test.

    *cache*, when given, is a
    :class:`repro.runs.store.KernelResultCache`: unique-signature
    kernels are looked up there before simulating (all lookups happen
    in the plan step) and stored after.
    The default (no persistent cache) leaves library behaviour
    unchanged; the ``repro simulate`` CLI and the run pipeline opt in.

    The call has three steps.  *Plan* resolves every launch (local
    repeat, store hit, or a wave to run) and expands each missing
    wave's program once.  *Run* executes the missing waves through
    :func:`_run_wave`, in-process or, when it pays, across a fork pool
    with one worker per usable CPU (:func:`_fanout_width`).  *Assemble*
    scales, stores and traces every launch in launch order, so the
    result and the store's contents do not depend on where or in which
    order the waves ran.

    When the seed engine is active the call delegates wholesale to
    :func:`repro.gpu.seed_engine.simulate_network` (which ignores
    *cache* and *dedup* — the frozen driver predates both and always
    applies its own signature-level reuse).
    """
    if engine_registry.get_engine() == "seed":
        from repro.gpu import seed_engine

        return seed_engine.simulate_network(name, config, options)
    options = options or SimOptions()
    kernels = compiled_network(name)
    plan = _plan(kernels, config, options, cache, dedup)
    width = _run_waves(name, plan.waves, config, options)

    tracer = get_tracer()
    result = NetworkResult(network=name, config=config, options=options,
                           unique_kernels=plan.unique, wave_workers=width)
    local: dict[str, KernelResult] = {}
    offset = 0.0  # back-to-back network timeline position, in cycles
    for kernel, (source, signature, detail) in zip(kernels, plan.steps):
        if source == "local":
            first = local[signature]
            hit = replace(first, kernel=kernel, stats=_copy_stats(first.stats))
        elif source == "cache":
            hit = detail
        else:
            occupancy, sim_blocks, wave = detail
            hit = _scale(kernel, wave.run, occupancy, sim_blocks, config)
            if cache is not None:
                cache.put(hit, config, options)
        local.setdefault(signature, hit)
        result.kernels.append(hit)
        if tracer.enabled:
            tracer.span(
                kernel.name, "kernel", CYCLES, offset, hit.stats.cycles,
                process="gpu.network", thread=f"{name}@{config.name}",
                args={"category": hit.category, "source": source},
            )
            tracer.metrics.counter(f"gpu.kernel_{source}").inc()
            offset += hit.stats.cycles
    if tracer.enabled:
        requested = len(plan.steps)
        tracer.metrics.counter("analysis.dedup.requested").inc(requested)
        tracer.metrics.counter("analysis.dedup.unique").inc(plan.unique)
        tracer.metrics.counter("analysis.dedup.replicated").inc(requested - plan.unique)
    return result


def _copy_stats(stats: KernelStats) -> KernelStats:
    """Deep-enough copy so repeated kernels aggregate independently."""
    clone = KernelStats()
    clone.merge(stats)
    clone.cycles = stats.cycles
    clone.wave_cycles = stats.wave_cycles
    clone.waves = stats.waves
    return clone
