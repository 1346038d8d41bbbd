"""The result store's on-disk bytes are pinned by a golden hash.

A light ``gru`` run on GP102 (cycle-level simulator: kernel entries plus
a run entry) and a ``cifarnet`` run on S2NPU (tiling mapper: a run entry
only) fill a fresh store.  The sha256 over every file they write —
relative path, size and bytes, in path order — must match
``tests/golden/store_bytes.sha256``, so a refactor of the store's codecs
cannot silently orphan the entries of stores that already exist
(regen: ``tests/golden/regen.py store-bytes``, only for an intentional
format or engine change).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.gpu.config import SimOptions
from repro.platforms import GP102, make_config
from repro.runs import Executor, ResultStore, RunSpec

STORE_BYTES = Path(__file__).parent / "golden" / "store_bytes.sha256"


def fill_store(cache_dir: Path) -> None:
    """Write the golden runs' entries into *cache_dir*."""
    options = SimOptions().light()
    executor = Executor(ResultStore(cache_dir))
    executor.run(RunSpec("gru", GP102, options))
    executor.run(RunSpec("cifarnet", make_config("s2npu"), options))


def store_digest(cache_dir: Path) -> str:
    """sha256 over every file under *cache_dir*, path-ordered."""
    digest = hashlib.sha256()
    for path in sorted(p for p in cache_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rel = path.relative_to(cache_dir).as_posix()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def test_store_bytes_match_golden(tmp_path):
    fill_store(tmp_path)
    assert store_digest(tmp_path) == STORE_BYTES.read_text().strip()
