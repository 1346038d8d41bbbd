"""Persistent kernel-result cache: key contract and robustness.

The cache key must change when *any* field of the key tuple changes —
kernel signature, every GpuConfig field, every SimOptions field, and
the engine version — so a stale entry can never be returned.  Broken
cache files (corrupt JSON, truncation, schema or engine mismatches)
must read as misses, never as errors.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.simulator import simulate_network
from repro.kernels.compile import compiled_network
from repro.platforms import GP102
from repro.runs.store import KernelResultCache, cache_key, default_cache_dir

#: A replacement value per field type, distinct from any default.
_BUMP = {
    str: lambda v: v + "-x",
    float: lambda v: v + 1.25,
    bool: lambda v: not v,
}


def _bumped(value):
    if value is None:
        return 5
    fn = _BUMP.get(type(value))
    if fn is not None:
        return fn(value)
    return value + 1  # int


class TestKeyContract:
    SIG = "Conv|(2, 2, 1)|(64, 1, 1)|24|0|128|False|100|1000"

    def test_every_options_field_invalidates(self):
        base = SimOptions()
        base_key = cache_key(self.SIG, GP102, base)
        for f in fields(SimOptions):
            varied = replace(base, **{f.name: _bumped(getattr(base, f.name))})
            key = cache_key(self.SIG, GP102, varied)
            assert key != base_key, f"SimOptions.{f.name} not in cache key"

    def test_every_config_field_invalidates(self):
        base = SimOptions()
        base_key = cache_key(self.SIG, GP102, base)
        for f in fields(GpuConfig):
            varied = replace(GP102, **{f.name: _bumped(getattr(GP102, f.name))})
            key = cache_key(self.SIG, varied, base)
            assert key != base_key, f"GpuConfig.{f.name} not in cache key"

    def test_signature_invalidates(self):
        base = SimOptions()
        assert cache_key(self.SIG, GP102, base) != cache_key(
            self.SIG + "|extra", GP102, base
        )

    def test_engine_version_invalidates(self, monkeypatch):
        import repro.gpu.vector as vector

        base = SimOptions()
        before = cache_key(self.SIG, GP102, base)
        monkeypatch.setattr(vector, "ENGINE_VERSION", "test-engine")
        assert cache_key(self.SIG, GP102, base) != before

    def test_stale_engine_entry_not_returned(self, tmp_path, monkeypatch):
        options = SimOptions().light()
        cache = KernelResultCache(tmp_path)
        simulate_network("gru", GP102, options, cache=cache)
        # Rewrite every stored payload as if an older engine produced it
        # *at the same key* (simulating an on-disk collision).
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["engine"] = "fast-0"
            path.write_text(json.dumps(payload))
        stale = KernelResultCache(tmp_path)
        assert stale.get(compiled_network("gru")[0], GP102, options) is None
        result = simulate_network("gru", GP102, options, cache=stale)
        assert stale.hits == 0 and result.kernels


class TestRobustness:
    def _populated(self, tmp_path):
        options = SimOptions().light()
        cache = KernelResultCache(tmp_path)
        baseline = simulate_network("gru", GP102, options, cache=cache)
        files = sorted(tmp_path.glob("*.json"))
        assert files
        return options, baseline, files

    def test_corrupt_files_read_as_misses(self, tmp_path):
        options, baseline, files = self._populated(tmp_path)
        files[0].write_text("{not json at all")
        cache = KernelResultCache(tmp_path)
        result = simulate_network("gru", GP102, options, cache=cache)
        assert cache.misses >= 1
        for ka, kb in zip(baseline.kernels, result.kernels):
            assert ka.stats.__dict__ == kb.stats.__dict__

    def test_truncated_files_read_as_misses(self, tmp_path):
        options, baseline, files = self._populated(tmp_path)
        for path in files:
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        cache = KernelResultCache(tmp_path)
        result = simulate_network("gru", GP102, options, cache=cache)
        assert cache.hits == 0
        for ka, kb in zip(baseline.kernels, result.kernels):
            assert ka.stats.__dict__ == kb.stats.__dict__

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        options, _, files = self._populated(tmp_path)
        payload = json.loads(files[0].read_text())
        del payload["stats"]
        files[0].write_text(json.dumps(payload))
        cache = KernelResultCache(tmp_path)
        simulate_network("gru", GP102, options, cache=cache)
        assert cache.misses >= 1

    def test_misses_are_healed_by_store(self, tmp_path):
        options, _, files = self._populated(tmp_path)
        files[0].write_text("garbage")
        cache = KernelResultCache(tmp_path)
        simulate_network("gru", GP102, options, cache=cache)
        assert cache.stores >= 1
        healed = KernelResultCache(tmp_path)
        simulate_network("gru", GP102, options, cache=healed)
        assert healed.misses == 0

    def test_unwritable_directory_is_nonfatal(self, tmp_path):
        options = SimOptions().light()
        blocked = tmp_path / "blocked"
        blocked.write_text("")  # a file where the cache dir should be
        cache = KernelResultCache(blocked)
        result = simulate_network("gru", GP102, options, cache=cache)
        assert result.kernels and cache.stores > 0  # memory layer still works


class TestEnvironment:
    def test_env_var_overrides_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"
        assert KernelResultCache().cache_dir == tmp_path / "env-cache"

    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()) == ".repro-cache"
