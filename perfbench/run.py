"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-cold --seed 0 --seconds 40 --trace 0

Run it from the repository root; the program is imported from ``src/``.
Workloads, metrics and units are declared in ``BENCHMARK.json``.

Every measurement happens in a fresh child process (``session.py``), so
each session starts with cold program state.  An untraced run
(``--trace 0``) starts measuring sessions that share the run's
``--seconds``, with set-up-only sessions before, between and after them;
each measuring session runs one cold pass and then warm passes while
they fit.  It prints:

* ``setup_s``: median set-up time over all sessions of the run;
* ``warm_ref``: median of the passes that follow the first one in each
  session, in units of the reference loop timed around them (see
  ``session.py``);
* ``peak_rss_mb``: peak RSS of this process plus its largest child.

The workload's own named timings, the raw pass times (``cold_s``,
``warm_s``) and the first pass in reference units (``cold_ref``) are
printed above the JSON line.  ``cold_ref`` is not in the JSON: with one
cold pass per session, two or three samples per run, its run-to-run
spread reached the largest bound the benchmark may set.

A traced run (``--trace 1``) runs one untraced and one traced session
of one cold and one warm pass each, checks that both produce the same
outputs, and prints the per-layer metrics plus the tracing overhead
(traced minus untraced pass time).  The Chrome trace lands in
``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"

#: Measuring sessions per untraced run, each with one cold pass: a
#: sim-cold pass takes ~10 s and a cold harness pass ~15 s, a serving
#: run ~4.5 s.  Host speed on a shared machine swings by tens of percent
#: over seconds, so every metric takes samples from several sessions.
MAIN_SESSIONS = {"sim-cold": 2, "harness-light": 2, "serve-steady": 3}
#: Set-up samples per untraced run; set-up-only sessions make up the count.
SETUP_SAMPLES = 7
#: Time kept back from the measuring sessions for each set-up-only
#: session still to come.
SETUP_RESERVE_S = 0.6
#: Hard cap on one run, kept under the 180 s a run may take.
RUN_CAP_S = 170.0


class SessionError(Exception):
    """A session process failed, timed out or printed no result."""


def run_session(argv: list[str], deadline: float) -> dict:
    """Run one session to completion and return its JSON result.

    The session gets its own process group, which is killed afterwards
    so no pool worker outlives it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(SESSION), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SessionError(f"session timed out: {' '.join(argv)}") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SessionError(f"session exited {proc.returncode}:\n{err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise SessionError("session printed no result")
    return json.loads(lines[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (waited-for) descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def issue_metrics(workload: str, sessions: list[dict]) -> dict[str, tuple]:
    """The workload's own named timings: name -> (value, unit, samples)."""
    passes = [p for s in sessions for p in s["passes"]]
    cold = [s["passes"][0]["wall_s"] for s in sessions]
    warm = [p["wall_s"] for s in sessions for p in s["passes"][1:]]
    walls = [p["wall_s"] for p in passes]
    if workload == "sim-cold":
        named = {"sim_wall_s": (median(walls), "s", len(walls))}
        for network in sorted({n for p in passes for n in p["times"]}):
            times = [p["times"][network] for p in passes if network in p["times"]]
            named[f"sim_{network}_s"] = (median(times), "s", len(times))
        return named
    if workload == "harness-light":
        return {"harness_cold_s": (median(cold), "s", len(cold)),
                "harness_warm_s": (median(warm), "s", len(warm))}
    return {"serve_wall_s": (median(walls), "s", len(walls))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_SESSIONS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size; 'small' is for the benchmark's own tests")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="committed output digests to check against")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    base = Path.cwd() / ".perfbench"
    workdir = base / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--digests", str(args.digests.resolve())]
    hard_deadline = start + RUN_CAP_S

    def session(tag: str, *extra: str) -> dict:
        return run_session(
            [*common, "--workdir", str(workdir / tag), *extra], hard_deadline)

    try:
        if args.trace:
            trace_file = base / "traces" / f"{args.workload}-seed{args.seed}.json"
            plain = session("plain", "--mode", "measure", "--max-passes", "2")
            traced = session("traced", "--mode", "trace", "--max-passes", "2",
                             "--trace-file", str(trace_file))
            sessions = [plain, traced]
        else:
            # Set-up-only sessions go before, between and after the
            # measuring ones, so the set-up samples span the whole run.
            mains = MAIN_SESSIONS[args.workload]
            extra = SETUP_SAMPLES - mains
            setups, sessions = [], []

            def setup_only(count: int) -> None:
                for _ in range(count):
                    tag = f"setup{len(setups)}"
                    setups.append(session(tag, "--mode", "setup")["setup_s"])

            for index in range(mains):
                setup_only(extra // (mains + 1))
                budget = (args.seconds - (time.perf_counter() - start)
                          - SETUP_RESERVE_S * (extra - len(setups))) / (mains - index)
                sessions.append(session(f"main{index}", "--mode", "measure",
                                        "--budget", f"{budget:.3f}"))
            setup_only(extra - len(setups))
            setups += [s["setup_s"] for s in sessions]
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [p for s in sessions for p in s["passes"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  sessions {len(sessions)}  passes {len(passes)}")
    samples: dict[str, int] = {}
    if args.trace:
        plain, traced = sessions
        for index, (a, b) in enumerate(zip(plain["passes"], traced["passes"])):
            if a["digest"] != b["digest"]:
                failed += 1
                errors.append(f"pass {index}: traced output differs from untraced")
        untraced_wall = sum(p["wall_s"] for p in plain["passes"])
        traced_wall = sum(p["wall_s"] for p in traced["passes"])
        metrics = dict(traced["layers"])
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.unaccounted_s"] = traced_wall - traced["covered_s"]
        print(f"  trace written to {trace_file}")
        print("  serve.*_s self times are approximate; counts are exact")
    else:
        cold = [s["passes"][0] for s in sessions]
        warm = [p for s in sessions for p in s["passes"][1:]]
        named = issue_metrics(args.workload, sessions)
        named["cold_s"] = (median([p["wall_s"] for p in cold]), "s", len(cold))
        named["warm_s"] = (median([p["wall_s"] for p in warm]), "s", len(warm))
        named["reference_s"] = (median([p["ref_s"] for p in passes]), "s", len(passes))
        named["cold_ref"] = (median([p["wall_s"] / p["ref_s"] for p in cold]),
                             "ref", len(cold))
        for name, (value, unit, count) in named.items():
            print(f"  {name:<28} {value:14.6f} {unit:<6} (median of {count})")
        metrics = {
            "setup_s": median(setups),
            "warm_ref": median([p["wall_s"] / p["ref_s"] for p in warm]),
            "peak_rss_mb": peak_rss_mb(),
        }
        samples = {"setup_s": len(setups), "warm_ref": len(warm)}
    for name, value in metrics.items():
        note = f" (median of {samples[name]})" if name in samples else ""
        print(f"  {name:<28} {value:14.6f} {units[name]:<6}{note}")
    print(f"  {'ops':<28} {attempted:14d} count")
    print(f"  {'ops_failed':<28} {failed:14d} count")
    for line in errors[:20]:
        print(f"  FAIL {line}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
