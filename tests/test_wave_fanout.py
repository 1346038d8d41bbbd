"""Wave fan-out: a network run's missing waves across a fork pool.

:func:`repro.gpu.simulator.simulate_network` plans a run, executes the
missing resident waves (in-process, or across one worker per usable CPU
when the predicted saving beats the pool's start-up cost) and assembles
the result in launch order.  Where a wave runs must never change what
the run returns or stores.  These tests force the fan-out by lowering
the :data:`~repro.gpu.simulator.FANOUT_MIN_SAVING` threshold and
pretending two CPUs are usable; no gate is loosened.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.gpu import simulator
from repro.gpu import vector
from repro.gpu.config import SimOptions
from repro.gpu.simulator import simulate_network
from repro.kernels.compile import compiled_network
from repro.obs.tracer import capture_trace
from repro.platforms import GP102
from repro.runs import Executor, RunSpec
from repro.runs.store import KernelResultCache

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="wave fan-out needs the fork start method",
)

LIGHT = SimOptions().light()


@pytest.fixture
def in_process(monkeypatch):
    """Every wave runs in this process."""
    monkeypatch.setattr(simulator, "FANOUT_MIN_SAVING", float("inf"))


@pytest.fixture
def fanned(monkeypatch):
    """Any run with two or more missing waves fans out over two workers."""
    monkeypatch.setattr(simulator, "FANOUT_MIN_SAVING", 0)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)


@pytest.fixture(scope="module")
def serial_runs():
    """In-process light runs, computed once for the module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "FANOUT_MIN_SAVING", float("inf"))
        return {
            name: simulate_network(name, GP102, LIGHT)
            for name in ("resnet", "squeezenet")
        }


def _stats(result) -> list[dict]:
    return [k.stats.to_dict() for k in result.kernels]


@pytest.mark.parametrize("network", ["resnet", "squeezenet"])
def test_fanout_matches_in_process(network, serial_runs, fanned):
    serial = serial_runs[network]
    out = simulate_network(network, GP102, LIGHT)
    assert serial.wave_workers == 1 and out.wave_workers == 2
    assert out.unique_kernels == serial.unique_kernels
    assert [k.kernel.name for k in out.kernels] == [k.kernel.name for k in serial.kernels]
    assert _stats(out) == _stats(serial)


def test_half_filled_store_ends_byte_identical(tmp_path, serial_runs, monkeypatch):
    network = "squeezenet"
    reference = serial_runs[network]
    firsts: dict[str, object] = {}
    for kr in reference.kernels:
        firsts.setdefault(kr.kernel.signature(), kr)
    half = list(firsts.values())[::2]
    stores = {}
    for mode, threshold in (("serial", float("inf")), ("fanned", 0)):
        root = tmp_path / mode
        seeded = KernelResultCache(root)
        for kr in half:
            seeded.put(kr, GP102, LIGHT)
        monkeypatch.setattr(simulator, "FANOUT_MIN_SAVING", threshold)
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        cache = KernelResultCache(root)
        result = simulate_network(network, GP102, LIGHT, cache=cache)
        assert result.wave_workers == (1 if mode == "serial" else 2)
        assert cache.hits == len(half)
        assert _stats(result) == _stats(reference)
        stores[mode] = {p.name: p.read_bytes() for p in root.iterdir()}
    assert len(stores["serial"]) == len(firsts)
    assert stores["fanned"] == stores["serial"]


def _trace_view(tracer) -> tuple:
    spans = [
        (s.name, s.cat, s.domain, s.ts, s.dur, s.process, s.thread, s.args)
        for s in tracer.spans
    ]
    counters = tracer.metrics.to_dict()["counters"]
    return spans, {k: v for k, v in counters.items() if k.startswith("engine.vector.")}


def test_traced_run_stays_in_process(monkeypatch, serial_runs):
    views = {}
    for mode, threshold in (("serial", float("inf")), ("forced", 0)):
        monkeypatch.setattr(simulator, "FANOUT_MIN_SAVING", threshold)
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        with capture_trace(warps=True) as tracer:
            result = simulate_network("squeezenet", GP102, LIGHT)
        assert result.wave_workers == 1
        assert _stats(result) == _stats(serial_runs["squeezenet"])
        views[mode] = _trace_view(tracer)
    spans, counters = views["forced"]
    assert any(span[1] == "warp" for span in spans)
    assert counters
    assert views["forced"] == views["serial"]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the spy reaches the executor's pool workers by fork inheritance",
)
def test_pool_workers_start_no_nested_pool(tmp_path, monkeypatch, serial_runs, fanned):
    marker = tmp_path / "nested"
    real = simulator.ProcessPoolExecutor

    def spy(*args, **kwargs):
        if multiprocessing.parent_process() is not None:
            marker.touch()
        return real(*args, **kwargs)

    # Patched before the executor's pool forks, so its workers inherit it.
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", spy)
    specs = [RunSpec(name, GP102, LIGHT) for name in ("squeezenet", "gru")]
    executor = Executor()
    report = executor.execute(specs, jobs=2)
    assert report.failed == {} and report.fresh == 2
    assert not marker.exists()
    assert _stats(executor.run(specs[0])) == _stats(serial_runs["squeezenet"])


def test_worker_error_reaches_caller_unchanged(monkeypatch):
    # vector.py reads its own binding of the cycle cap; forked workers
    # inherit the patch.
    monkeypatch.setattr(vector, "_MAX_CYCLES", 10)
    errors = {}
    for mode, threshold in (("serial", float("inf")), ("fanned", 0)):
        monkeypatch.setattr(simulator, "FANOUT_MIN_SAVING", threshold)
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError) as info:
            simulate_network("squeezenet", GP102, LIGHT)
        errors[mode] = (type(info.value), str(info.value))
    assert errors["fanned"] == errors["serial"]
    assert "exceeded 10 cycles" in errors["serial"][1]


def test_crashed_worker_is_one_clear_per_spec_error(tmp_path, monkeypatch, fanned):
    marker = tmp_path / "crashed"
    parent = os.getpid()
    real = simulator._run_wave

    def crash_one_worker(*args):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return real(*args)

    # Patched before the fan-out pool forks, so its workers inherit it.
    monkeypatch.setattr(simulator, "_run_wave", crash_one_worker)
    with pytest.raises(RuntimeError, match="squeezenet: a wave worker process died"):
        simulate_network("squeezenet", GP102, LIGHT)
    assert marker.exists()

    marker.unlink()
    spec = RunSpec("squeezenet", GP102, LIGHT)
    report = Executor().execute([spec], jobs=1)
    assert marker.exists()
    assert list(report.failed.values()) == [
        f"{spec.describe()}: RuntimeError: squeezenet: a wave worker process "
        "died (BrokenProcessPool); the run produced no result"
    ]
    # The process is left able to fan out again.
    assert simulate_network("squeezenet", GP102, LIGHT).wave_workers == 2


def test_running_thread_keeps_the_run_in_process(fanned):
    # fork copies only the calling thread: a lock another thread holds
    # would stay locked forever in the child.
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        assert simulate_network("gru", GP102, LIGHT).wave_workers == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert simulate_network("gru", GP102, LIGHT).wave_workers == 2


def test_default_threshold_keeps_small_runs_in_process():
    # GRU's two waves save a few ms at most: never worth a pool.
    assert simulate_network("gru", GP102, LIGHT).wave_workers == 1


def test_plan_hands_its_expansion_to_the_run(monkeypatch, in_process):
    waves = simulator._plan(compiled_network("resnet"), GP102, LIGHT, None, True).waves
    calls = []
    real = simulator.expand_program

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(simulator, "expand_program", counting)
    simulate_network("resnet", GP102, LIGHT)
    # One expansion per simulated wave, none repeated by the run step.
    assert len(calls) == len(waves)
