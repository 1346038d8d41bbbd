"""The platform registry (Table II GPUs plus accelerator backends).

GPU parameters follow the paper's Table II plus the public
specifications of each part:

* **GK210** (server, Kepler): one die of a Tesla K80 — 13 SMX of 192
  cores, 24 GB GDDR5, 128 KB shared/L1 per block group.
* **Tegra X1** (mobile, Maxwell): 2 SMM of 128 cores, 4 GB LPDDR4,
  48 KB L1/texture, 256 KB L2.
* **GP102** (simulator, Pascal): 28 SMs of 128 cores (the development
  GPGPU-Sim Pascal model the paper uses), 11 GB GDDR5X, 64 KB default
  L1D (the Figure 2 sweep rescales it), 96 KB shared memory.

The registry itself is capability-based: every entry implements the
:class:`~repro.platforms.base.Platform` protocol (``name``, ``kind``,
``memory_budget()``, ``compute_budget()``, ``make_config()``), so GPUs,
FPGAs and NPUs list, resolve and sweep through one surface:

* :func:`platform` — name -> Platform (the capability object);
* :func:`make_config` — name -> frozen execution config, with
  per-platform overrides (``l1_kb`` for the Figure 2 sweep);
* :func:`list_platforms` — all names, optionally filtered by kind.
"""

from __future__ import annotations

from repro.gpu.config import GpuConfig
from repro.platforms.accel import (
    PYNQ_Z1_MAPPED,
    S2NPU,
    ZCU102,
    AcceleratorConfig,
    AcceleratorPlatform,
)
from repro.platforms.base import KINDS, GpuPlatform, Platform

KB = 1024
MB = 1024 * 1024

#: NVIDIA GK210 (one die of the Tesla K80 board the paper profiles).
GK210 = GpuConfig(
    name="GK210",
    num_sms=13,
    cores_per_sm=192,
    clock_ghz=0.875,
    registers_per_sm=65536 * 2,  # Kepler GK210 doubles the SMX register file
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    shared_mem_per_sm=112 * KB,
    l1_size=48 * KB,
    l2_size=1536 * KB,
    dram_gb_per_s=240.0,
    mshr_entries=44,  # Kepler's LSU tracks up to 44 in-flight loads per SMX
    tdp_watts=150.0,
    idle_watts=25.0,
)

#: NVIDIA Tegra X1 (Jetson TX1 board).
TX1 = GpuConfig(
    name="TX1",
    num_sms=2,
    cores_per_sm=128,
    clock_ghz=0.998,
    registers_per_sm=32768,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    shared_mem_per_sm=48 * KB,
    l1_size=24 * KB,
    l2_size=256 * KB,
    dram_gb_per_s=25.6,
    mshr_entries=16,
    tdp_watts=15.0,
    idle_watts=2.0,
)

#: Pascal GP102 as modelled by the development branch of GPGPU-Sim.
GP102 = GpuConfig(
    name="GP102",
    num_sms=28,
    cores_per_sm=128,
    clock_ghz=1.48,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    shared_mem_per_sm=96 * KB,
    l1_size=64 * KB,  # Pascal default; Figure 2 sweeps 0/64K/128K/256K
    l2_size=3 * MB,
    dram_gb_per_s=484.0,
    mshr_entries=32,
    tdp_watts=250.0,
    idle_watts=50.0,
)

_REGISTRY: dict[str, Platform] = {
    "gk210": GpuPlatform(GK210),
    "tx1": GpuPlatform(TX1),
    "gp102": GpuPlatform(GP102),
    "zcu102": AcceleratorPlatform(ZCU102),
    "s2npu": AcceleratorPlatform(S2NPU),
    "pynqz1": AcceleratorPlatform(PYNQ_Z1_MAPPED),
}

#: Names that can never be unregistered.
_BUILTIN = frozenset(_REGISTRY)


def list_platforms(kind: str | None = None) -> tuple[str, ...]:
    """Names of the registered platforms, optionally one kind only."""
    if kind is None:
        return tuple(_REGISTRY)
    if kind not in KINDS:
        raise ValueError(f"unknown platform kind {kind!r}; kinds: {', '.join(KINDS)}")
    return tuple(
        name for name, entry in _REGISTRY.items() if entry.kind == kind
    )


def platform(name: str) -> Platform:
    """Look up a platform's capability object by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def make_config(name: str, **overrides):
    """The execution config of a platform, with optional overrides.

    The single entry point the run/serve/campaign layers resolve
    platforms through: ``make_config("gp102")`` is the canonical
    :data:`GP102` instance, ``make_config("gp102", l1_kb=128)`` the
    Figure 2 sweep's derived config, ``make_config("s2npu")`` an
    :class:`~repro.platforms.accel.AcceleratorConfig` the tiling mapper
    executes.  ``l1_kb=None`` keeps the platform default, matching the
    campaign planner's axis semantics.
    """
    return platform(name).make_config(**overrides)


def register_platform(entry, *, replace: bool = False) -> Platform:
    """Register a platform under its (lower-cased) name.

    Accepts a :class:`~repro.platforms.base.Platform` implementation,
    or a raw :class:`GpuConfig`/:class:`AcceleratorConfig` which is
    wrapped in the matching adapter — so downstream code (the serving
    fleet builder, tests, user studies) keeps registering plain configs.
    Re-registering an existing name requires ``replace=True`` so the
    paper platforms can't be shadowed silently.
    """
    if isinstance(entry, GpuConfig):
        entry = GpuPlatform(entry)
    elif isinstance(entry, AcceleratorConfig):
        entry = AcceleratorPlatform(entry)
    key = entry.name.lower()
    if not replace and key in _REGISTRY:
        raise ValueError(f"platform {entry.name!r} is already registered")
    _REGISTRY[key] = entry
    return entry


def unregister_platform(name: str) -> None:
    """Remove a registered platform (for test cleanup); the built-in
    platforms cannot be removed."""
    key = name.lower()
    if key in _BUILTIN:
        raise ValueError(f"cannot unregister built-in platform {name!r}")
    _REGISTRY.pop(key, None)
