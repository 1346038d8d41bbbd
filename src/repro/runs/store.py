"""The single content-addressed result store.

One directory (default ``.repro-cache/``, overridable with the
``REPRO_CACHE_DIR`` environment variable) persists every deterministic
simulation result the project produces, at two granularities:

* **kernel entries** — one JSON file per (kernel signature, config,
  options, engine) key in the store root, written by
  :func:`repro.gpu.simulator.simulate_network` through
  :class:`KernelResultCache`;
* **network-run entries** — one JSON file per
  :class:`~repro.runs.spec.RunSpec` key under the ``runs/``
  subdirectory, written by :class:`~repro.runs.executor.Executor`.

Both layers hold :class:`~repro.gpu.simulator.KernelResult` records
through one codec (:func:`kernel_to_record` / :func:`kernel_from_record`),
and both decode back to the simulator's own result types: a kernel
entry to a ``KernelResult``, a run entry to a
:class:`~repro.gpu.simulator.NetworkResult` whose kernels carry a
:class:`StoredKernelInfo` as their launch identity.

Both layers share the invalidation contract: every field of the frozen
config/options dataclasses plus the active engine's version string
(:func:`repro.gpu.engine.engine_version` — resolved at call time, so
``--engine``/``REPRO_ENGINE`` switches key correctly) folds into a
SHA-256 key, so stale entries are never returned — they
are simply never looked up again.  Corrupt, truncated or
schema-mismatched files read as misses (and are rewritten on the next
store), never as errors: the cache must not be able to make a
simulation fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.engine import engine_version
from repro.gpu.occupancy import Occupancy
from repro.gpu.simulator import KernelResult, NetworkResult
from repro.profiling.stats import KernelStats
from repro.runs.spec import RunSpec

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory of the store holding whole-network run entries.
RUNS_SUBDIR = "runs"


def default_cache_dir() -> Path:
    """The cache directory honouring ``REPRO_CACHE_DIR``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def cache_key(signature: str, config: GpuConfig, options: SimOptions) -> str:
    """SHA-256 over the full kernel key tuple, as a hex digest."""
    payload = json.dumps(
        {
            "engine": engine_version(),
            "signature": signature,
            "config": asdict(config),
            "options": asdict(options),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Errors a malformed or schema-mismatched payload raises while decoding.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def kernel_to_record(result: KernelResult) -> dict:
    """The per-kernel fields every stored entry carries, JSON-ready."""
    return {
        "stats": result.stats.to_dict(),
        "occupancy": asdict(result.occupancy),
        "sample_factor": result.sample_factor,
        "block_factor": result.block_factor,
    }


def kernel_from_record(kernel, record: dict) -> KernelResult:
    """Inverse of :func:`kernel_to_record` for the launch *kernel*;
    raises one of ``_MALFORMED`` on a malformed record."""
    return KernelResult(
        kernel=kernel,
        stats=KernelStats.from_dict(record["stats"]),
        occupancy=Occupancy(**record["occupancy"]),
        sample_factor=record["sample_factor"],
        block_factor=record["block_factor"],
    )


class KernelResultCache:
    """Content-addressed store of scaled per-kernel simulation results.

    ``cache_dir=None`` resolves through ``REPRO_CACHE_DIR`` to the
    default location.  The in-memory layer keeps raw payload dicts, not
    live objects: every :meth:`get` deserializes afresh so callers own
    their stats and cannot alias each other's counters.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self._memory: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(
        self, kernel, config: GpuConfig, options: SimOptions
    ) -> KernelResult | None:
        """Look up the result of launch *kernel* (anything with a
        ``signature()``); None on miss or unreadable entry."""
        key = cache_key(kernel.signature(), config, options)
        payload = self._memory.get(key)
        if payload is None:
            try:
                payload = json.loads(self._path(key).read_text())
            except (OSError, ValueError):
                self.misses += 1
                return None
        try:
            if payload["engine"] != engine_version():
                raise ValueError("stale engine")
            result = kernel_from_record(kernel, payload)
        except _MALFORMED:
            # Corrupt/stale schema: forget it so a store can heal it.
            self._memory.pop(key, None)
            self.misses += 1
            return None
        self._memory[key] = payload
        self.hits += 1
        return result

    def put(
        self, result: KernelResult, config: GpuConfig, options: SimOptions
    ) -> None:
        """Store one kernel result (best-effort; IO errors are ignored)."""
        key = cache_key(result.kernel.signature(), config, options)
        payload = {"engine": engine_version(), **kernel_to_record(result)}
        self._memory[key] = payload
        self.stores += 1
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(self._path(key), json.dumps(payload))
        except OSError:
            pass


def _write_atomic(path: Path, text: str) -> None:
    """Publish *text* at *path* through a temp file unique to this call.

    Concurrent writers of one key each fill their own temp file in the
    same directory and ``os.replace`` it into place, so the entry is
    always one writer's complete payload; the temp file never outlives
    a failed write.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.",
                               suffix=".tmp")
    try:
        os.fchmod(fd, 0o644)  # mkstemp creates 0600; entries stay shareable
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# whole-network run entries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoredKernelInfo:
    """Launch identity of a decoded or mapped kernel.

    Stands in for :class:`~repro.kernels.launch.KernelLaunch` as a
    :class:`~repro.gpu.simulator.KernelResult`'s ``kernel`` when no live
    launch exists: a kernel decoded from a run entry, or a layer plan
    timed by :mod:`repro.mapping.execute`.
    """

    name: str
    node_name: str
    category: str
    sig: str
    total_blocks: int

    def signature(self) -> str:
        """Launch signature (method, mirroring ``KernelLaunch``)."""
        return self.sig


def result_to_payload(result: NetworkResult) -> dict:
    """JSON payload of a network run (live, decoded or mapped)."""
    return {
        "engine": engine_version(),
        "network": result.network,
        "unique_kernels": len({k.kernel.signature() for k in result.kernels}),
        "kernels": [
            {
                "name": k.kernel.name,
                "node_name": k.kernel.node_name,
                "category": k.category,
                "signature": k.kernel.signature(),
                "total_blocks": k.kernel.total_blocks,
                **kernel_to_record(k),
            }
            for k in result.kernels
        ],
    }


def result_from_payload(
    payload: dict, config: GpuConfig, options: SimOptions
) -> NetworkResult | None:
    """Payload dict -> NetworkResult, or None when malformed."""
    try:
        if payload["engine"] != engine_version():
            return None
        kernels = [
            kernel_from_record(
                StoredKernelInfo(
                    name=entry["name"],
                    node_name=entry["node_name"],
                    category=entry["category"],
                    sig=entry["signature"],
                    total_blocks=entry["total_blocks"],
                ),
                entry,
            )
            for entry in payload["kernels"]
        ]
        unique = payload.get(
            "unique_kernels", len({k.kernel.sig for k in kernels})
        )
        return NetworkResult(
            network=payload["network"], config=config, options=options,
            kernels=kernels, unique_kernels=unique,
        )
    except _MALFORMED:
        return None


class ResultStore:
    """The unified on-disk store: kernel entries plus network runs.

    ``cache_dir=None`` resolves through ``REPRO_CACHE_DIR``.  The
    kernel layer is exposed as :attr:`kernels` (a
    :class:`KernelResultCache` on the same directory) so
    ``simulate_network(..., cache=store.kernels)`` fills both layers of
    one store.  Run-entry writes are atomic (tmp + replace), making
    concurrent worker processes safe.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.kernels = KernelResultCache(self.cache_dir)
        self.run_hits = 0
        self.run_misses = 0
        self.run_stores = 0

    # ------------------------------------------------------------------
    def run_path(self, spec: RunSpec) -> Path:
        """On-disk location of one network-run entry."""
        name = f"{spec.network}-{spec.config.name}-{spec.key()[:24]}.json"
        return self.cache_dir / RUNS_SUBDIR / name

    def get_run(self, spec: RunSpec) -> NetworkResult | None:
        """Look up one network run; None on miss or unreadable entry."""
        try:
            payload = json.loads(self.run_path(spec).read_text())
        except (OSError, ValueError):
            self.run_misses += 1
            return None
        result = result_from_payload(payload, spec.config, spec.options)
        if result is None:
            self.run_misses += 1
            return None
        self.run_hits += 1
        return result

    def put_run(self, spec: RunSpec, payload: dict) -> None:
        """Store one network-run payload (best-effort, atomic)."""
        self.run_stores += 1
        try:
            path = self.run_path(spec)
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(path, json.dumps(payload))
        except OSError:
            pass


# ----------------------------------------------------------------------
# maintenance (backs ``repro cache stats|clear``)
# ----------------------------------------------------------------------
def cache_stats(cache_dir: str | Path | None = None) -> dict:
    """Entry count / byte size summary of the whole unified store.

    Covers both layers — kernel entries in the store root and network
    runs under ``runs/``.  A missing directory reads as an empty cache,
    never an error.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    kernel_entries = 0
    run_entries = 0
    total_bytes = 0
    engines: dict[str, dict] = {}
    kernels_requested = 0
    kernels_simulated = 0

    def scan(paths) -> int:
        nonlocal total_bytes, kernels_requested, kernels_simulated
        count = 0
        for path in paths:
            size = 0
            try:
                size = path.stat().st_size
                total_bytes += size
                payload = json.loads(path.read_text())
                engine = payload.get("engine", "?")
            except (OSError, ValueError):
                payload = {}
                engine = "corrupt"
            count += 1
            bucket = engines.setdefault(engine, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            kernels = payload.get("kernels")
            if isinstance(kernels, list):  # a run entry
                kernels_requested += len(kernels)
                kernels_simulated += payload.get(
                    "unique_kernels",
                    len({k.get("signature") for k in kernels}),
                )
        return count

    if directory.is_dir():
        kernel_entries = scan(sorted(directory.glob("*.json")))
        run_entries = scan(sorted((directory / RUNS_SUBDIR).glob("*.json")))
    return {
        "dir": str(directory),
        "entries": kernel_entries + run_entries,
        "kernel_entries": kernel_entries,
        "run_entries": run_entries,
        "bytes": total_bytes,
        "engine_version": engine_version(),
        "by_engine": dict(sorted(engines.items())),
        "dedup": {
            "kernels_requested": kernels_requested,
            "kernels_simulated": kernels_simulated,
            "replicated": kernels_requested - kernels_simulated,
        },
    }


def clear_cache(
    cache_dir: str | Path | None = None, engine: str | None = None
) -> int:
    """Delete store entries; returns the number removed.

    With ``engine=None`` everything goes — both layers and stray
    ``.tmp`` files.  With an engine version
    string (see ``repro cache stats`` for the versions present) only
    entries written by that engine are pruned, which is how a store
    that has accumulated results from several engine revisions is
    trimmed back to the live one without losing warm entries.  Backs
    ``repro cache clear [--engine VER]``.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    removed = 0
    for root in (directory, directory / RUNS_SUBDIR):
        if not root.is_dir():
            continue
        targets = list(root.glob("*.json"))
        if engine is None:
            targets += list(root.glob("*.tmp"))
        for path in targets:
            if engine is not None and not _entry_matches_engine(path, engine):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    if engine is None:
        try:
            (directory / RUNS_SUBDIR).rmdir()
        except OSError:
            pass
    return removed


def _entry_matches_engine(path: Path, engine: str) -> bool:
    """True when the entry was written by *engine* (corrupt entries
    match the special engine name ``"corrupt"`` that ``cache_stats``
    reports them under)."""
    try:
        return json.loads(path.read_text()).get("engine", "?") == engine
    except (OSError, ValueError):
        return engine == "corrupt"
