"""Execute a tiled plan on an accelerator's analytic timing model.

One layer plan becomes one stored "kernel": its tiles are scheduled in
waves across the device's compute tiles (exactly how GPU thread blocks
wave across SMs), each tile costing the max (or sum, without DMA
overlap) of its MAC-array compute cycles and its DMA cycles at the
per-tile share of DRAM bandwidth.  A per-layer launch overhead models
control/configuration cost (code loading on the PynQ, NoC setup on the
SpiNNaker2 mesh).

The result is a :class:`~repro.gpu.simulator.NetworkResult` whose
kernels carry a :class:`~repro.runs.store.StoredKernelInfo` identity:
the same types the GPU simulator and the run store return, so the
serving latency profiles, power meters, campaign QoR rows and report
renderers consume accelerator runs unchanged.  The stats are populated so that
:func:`repro.serve.profiles.profile_from_result` reproduces
``total_time_ms`` exactly at batch 1 (``wave_cycles`` x wave count plus
launch overhead), mirroring the GPU contract.
"""

from __future__ import annotations

from repro.core.graph import NetworkGraph
from repro.gpu.config import SimOptions
from repro.gpu.occupancy import Occupancy
from repro.gpu.simulator import KernelResult, NetworkResult
from repro.mapping.mapper import map_network
from repro.mapping.plan import LayerPlan
from repro.platforms.accel import AcceleratorConfig
from repro.profiling.stats import KernelStats
from repro.runs.store import StoredKernelInfo


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def layer_kernel(plan: LayerPlan, config: AcceleratorConfig) -> KernelResult:
    """Time one layer plan on *config* as a kernel result."""
    n_tiles = plan.n_tiles
    concurrency = min(n_tiles, config.tiles)
    # concurrent tiles share DRAM bandwidth equally
    bw_per_tile = config.dram_gb_per_s / concurrency
    wave_cycles = 0.0
    for tile in plan.tiles:
        dma = tile.transfer_bytes * config.clock_ghz / bw_per_tile
        if config.dma_overlap:
            cost = max(float(tile.compute_cycles), dma)
        else:
            cost = tile.compute_cycles + dma
        wave_cycles = max(wave_cycles, cost)
    waves = _ceil(n_tiles, config.tiles)

    stats = KernelStats()
    stats.wave_cycles = wave_cycles
    stats.waves = waves
    stats.cycles = wave_cycles * waves + config.launch_overhead_cycles
    stats.issued = float(plan.total_macs)
    stats.dram_bytes = float(plan.total_transfer_bytes)
    stats.active_sms = concurrency

    info = StoredKernelInfo(
        name=f"{plan.strategy}:{plan.node_name}",
        node_name=plan.node_name,
        category=plan.category,
        sig=plan.signature(),
        total_blocks=n_tiles,
    )
    occupancy = Occupancy(
        blocks=1,
        warps=1,
        threads=1,
        limiter="tile-memory",
        allocated_register_bytes=0,
    )
    return KernelResult(
        kernel=info,
        stats=stats,
        occupancy=occupancy,
        sample_factor=1.0,
        block_factor=float(n_tiles),
    )


def run_mapped_network(
    network: str | NetworkGraph,
    config: AcceleratorConfig,
    options: SimOptions | None = None,
) -> NetworkResult:
    """Map *network* onto *config* and time the tiled plan.

    ``options`` only rides along for result bookkeeping (the mapper is
    exact, not sampled); pass-through layers contribute no kernels.
    """
    plan = map_network(network, config)
    kernels = [layer_kernel(layer, config) for layer in plan.layers if layer.tiles]
    return NetworkResult(
        network=plan.network,
        config=config,
        options=options if options is not None else SimOptions(),
        kernels=kernels,
        unique_kernels=len({k.kernel.sig for k in kernels}),
    )
