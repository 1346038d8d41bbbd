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


def _run_wave(
    kernel: KernelLaunch, config: GpuConfig, options: SimOptions, sim_blocks: int
) -> _WaveRun:
    """Expand, decode and execute one resident wave on one SM.

    The wave class comes from the engine registry
    (:func:`repro.gpu.engine.wave_class`): ``SmWave`` for the fast
    engine, ``VectorWave`` for the vector engine.  The seed engine never
    reaches here — :func:`simulate_kernel` delegates to its frozen
    driver wholesale.
    """
    expanded = expand_program(kernel.program, options.max_trips, options.max_outer_trips)
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
    _wave_cache: dict | None = None,
) -> KernelResult:
    """Simulate one kernel launch and scale to the full grid.

    *_wave_cache* (internal, used by :func:`simulate_network`) maps
    :func:`~repro.analysis.canonical.wave_class` keys to :class:`_WaveRun`
    records so launches in the same class run the SM issue loop once.
    The cache is only valid for a fixed ``(config, options)`` pair —
    callers own that scoping.

    When the seed engine is active (``REPRO_ENGINE=seed`` or
    ``--engine seed``), the call delegates to the frozen seed driver
    wholesale — no wave-class dedup, no pluggable wave class.
    """
    if engine_registry.get_engine() == "seed":
        from repro.gpu import seed_engine

        return seed_engine.simulate_kernel(kernel, config, options)
    options = options or SimOptions()
    occupancy = compute_occupancy(kernel, config)
    sim_blocks = occupancy.blocks
    if options.max_sim_blocks is not None:
        sim_blocks = max(1, min(sim_blocks, options.max_sim_blocks))

    run = None
    wave_key = None
    if _wave_cache is not None:
        from repro.analysis.canonical import wave_class

        warm = kernel.shared_input and kernel.total_blocks > sim_blocks
        wave_key = wave_class(kernel, sim_blocks, warm)
        run = _wave_cache.get(wave_key)
    if run is None:
        run = _run_wave(kernel, config, options, sim_blocks)
        if _wave_cache is not None:
            _wave_cache[wave_key] = run

    # --- scaling ------------------------------------------------------
    # Always scale a copy: the cached wave stats stay pristine for the
    # next launch of the class (copying is exact, so the dedup-off path
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
    kernels are looked up there before simulating and stored after.
    The default (no persistent cache) leaves library behaviour
    unchanged; the ``repro simulate`` CLI and the run pipeline opt in.

    When the seed engine is active the call delegates wholesale to
    :func:`repro.gpu.seed_engine.simulate_network` (which ignores
    *cache* and *dedup* — the frozen driver predates both and always
    applies its own signature-level reuse).
    """
    if engine_registry.get_engine() == "seed":
        from repro.gpu import seed_engine

        return seed_engine.simulate_network(name, config, options)
    options = options or SimOptions()
    tracer = get_tracer()
    result = NetworkResult(network=name, config=config, options=options)
    local: dict[str, KernelResult] = {}
    wave_cache: dict | None = {} if dedup else None
    seen: set[str] = set()
    requested = 0
    offset = 0.0  # back-to-back network timeline position, in cycles
    for kernel in compiled_network(name):
        requested += 1
        signature = kernel.signature()
        seen.add(signature)
        hit = local.get(signature) if dedup else None
        if hit is None:
            hit = cache.get(kernel, config, options) if cache is not None else None
            if hit is not None:
                source = "cache"
            else:
                source = "fresh"
                hit = simulate_kernel(kernel, config, options, _wave_cache=wave_cache)
                if cache is not None:
                    cache.put(hit, config, options)
            if dedup:
                local[signature] = hit
        else:
            source = "local"
            hit = replace(hit, kernel=kernel, stats=_copy_stats(hit.stats))
        result.kernels.append(hit)
        if tracer.enabled:
            tracer.span(
                kernel.name, "kernel", CYCLES, offset, hit.stats.cycles,
                process="gpu.network", thread=f"{name}@{config.name}",
                args={"category": hit.category, "source": source},
            )
            tracer.metrics.counter(f"gpu.kernel_{source}").inc()
            offset += hit.stats.cycles
    result.unique_kernels = len(seen)
    if tracer.enabled:
        tracer.metrics.counter("analysis.dedup.requested").inc(requested)
        tracer.metrics.counter("analysis.dedup.unique").inc(len(seen))
        tracer.metrics.counter("analysis.dedup.replicated").inc(requested - len(seen))
    return result


def _copy_stats(stats: KernelStats) -> KernelStats:
    """Deep-enough copy so repeated kernels aggregate independently."""
    clone = KernelStats()
    clone.merge(stats)
    clone.cycles = stats.cycles
    clone.wave_cycles = stats.wave_cycles
    clone.waves = stats.waves
    return clone
