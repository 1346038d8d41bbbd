"""One benchmark session: a fresh process that sets up a workload and runs passes.

``run.py`` starts every session as its own process, so each one begins
with cold program state (imports, compiled networks, an empty result
store).  The session times its own set-up from before the program is
imported, then runs closed-loop passes: the next pass starts only after
the previous one returned.  It prints one JSON object as the last line
of its standard output.

Between passes the session times a fixed reference loop (at most every
``REF_INTERVAL_S``) and gives each pass the mean of the reference times
taken just before and just after it; a sim-cold pass times the loop
between its networks itself.  Host speed on a shared machine
swings by tens of percent over seconds to minutes; the reference loop
slows with it, so a pass time divided by its reference time is much
steadier from run to run than the pass time alone.

Modes: ``setup`` stops after set-up; ``measure`` runs passes untraced;
``trace`` installs the layer wrappers (:mod:`layers`) before set-up and
writes a Chrome trace.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from START)
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, reference_s  # noqa: E402


#: Shortest time between two reference measurements.
REF_INTERVAL_S = 2.0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--digests", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds this session may take; passes stop "
                             "when the next one would overrun it")
    parser.add_argument("--max-passes", type=int, default=0,
                        help="stop after this many passes (0: budget only)")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    digests = json.loads(args.digests.read_text())
    recorder = None
    if args.mode == "trace":
        import layers

        recorder = layers.install(args.workdir / "procs")
    workload = WORKLOADS[args.workload](args.size, args.seed, digests, args.workdir)
    workload.setup()
    out = {"setup_s": time.perf_counter() - START, "passes": []}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    # At least one cold and one warm pass; then more while they fit.
    passes = []
    covered_before = recorder.root_s if recorder is not None else 0.0
    ref_before = reference_s()
    ref_at = time.perf_counter()
    unreferenced: list[dict] = []
    while True:
        result = workload.run_pass(len(passes))
        passes.append(result.to_dict())
        if result.ref_s is None:
            unreferenced.append(passes[-1])
        done = bool(args.max_passes) and len(passes) >= args.max_passes
        elapsed = time.perf_counter() - START
        done = done or (len(passes) >= 2 and elapsed + result.wall_s > args.budget)
        if unreferenced and (done or time.perf_counter() - ref_at >= REF_INTERVAL_S):
            ref_after = reference_s()
            for record in unreferenced:
                record["ref_s"] = (ref_before + ref_after) / 2
            unreferenced.clear()
            ref_before, ref_at = ref_after, time.perf_counter()
        if done:
            break
    out["passes"] = passes
    store_dir = getattr(workload, "store_dir", None)
    store_bytes = _tree_bytes(store_dir) if store_dir is not None else 0
    if recorder is not None:
        procs = recorder.collect()
        out["layers"] = layers.layer_metrics(procs, passes, store_bytes)
        # Pass time spent inside some wrapped call of this process.
        out["covered_s"] = recorder.root_s - covered_before
        layers.write_chrome_trace(procs, args.trace_file, {
            "tool": "perfbench (traced run)",
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "per_layer": out["layers"],
            "note": "serve.*_s self times are approximate (wrapper cost is "
                    "charged to callers); all counts are exact",
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
