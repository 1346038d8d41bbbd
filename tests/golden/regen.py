"""Regenerate the golden series files (run from the repo root).

    PYTHONPATH=src python tests/golden/regen.py fixture      # seconds
    PYTHONPATH=src python tests/golden/regen.py full         # minutes
    PYTHONPATH=src python tests/golden/regen.py campaign     # < 1 minute
    PYTHONPATH=src python tests/golden/regen.py serve-scale  # seconds
    PYTHONPATH=src python tests/golden/regen.py serve-matrix # seconds
    PYTHONPATH=src python tests/golden/regen.py store-bytes  # seconds

``campaign`` rewrites the committed golden Pareto frontiers in
``examples/`` (``smoke_frontier.json``, ``l1_sweep_frontier.json``)
that ``repro campaign compare`` and CI's campaign-smoke job gate on.
``serve-scale`` rewrites ``serve_scale.digest``, the stats digest of
``examples/serve_scale.toml`` at light fidelity that CI's serve-scale
job gates on.  ``serve-matrix`` rewrites ``serve_matrix.json``, the
stats digest of every serving determinism-matrix case in
``tests/test_serve_engine.py``.  ``store-bytes`` rewrites
``store_bytes.sha256``, the hash of every file two golden runs write
into a fresh result store (``tests/test_store_format.py``).

Only regenerate for an *intentional* behavioral change (engine bump,
new network weights, QoR-model change); the tests pin these bytes on
purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden_series import FIXTURE_CTX, canonical, series_of  # noqa: E402

GOLDEN_DIR = Path(__file__).parent
EXAMPLES_DIR = GOLDEN_DIR.parents[1] / "examples"

#: campaign spec -> committed golden frontier, both under examples/.
CAMPAIGN_GOLDENS = (
    ("smoke_campaign.toml", "smoke_frontier.json"),
    ("l1_sweep_campaign.toml", "l1_sweep_frontier.json"),
)


def regen_campaigns() -> None:
    from repro.campaign import load_campaign, run_campaign
    from repro.runs import ResultStore

    store = ResultStore()
    for spec_name, golden_name in CAMPAIGN_GOLDENS:
        spec = load_campaign(EXAMPLES_DIR / spec_name)
        result = run_campaign(spec, store=store, jobs=4)
        if not result.ok:
            raise SystemExit(
                f"{spec.name}: {len(result.skipped)} point(s) failed; "
                f"refusing to write a partial golden frontier"
            )
        path = EXAMPLES_DIR / golden_name
        path.write_text(json.dumps(result.frontier_payload(), indent=2) + "\n")
        print(f"wrote {path}")


def regen_serve_scale() -> None:
    from repro.gpu.config import SimOptions
    from repro.platforms import make_config
    from repro.runs import ResultStore
    from repro.serve import build_profiles, load_scenario, run_serve

    scenario = load_scenario(EXAMPLES_DIR / "serve_scale.toml")
    fleet = scenario.fleet()
    platforms = [device.platform for device in fleet]
    if scenario.autoscale is not None:
        platforms.append(make_config(scenario.autoscale.template))
    profiles = build_profiles(
        list(scenario.networks), platforms, SimOptions().light(), ResultStore(),
    )
    stats = run_serve(
        fleet, profiles, scenario.workload(), scenario.config,
        pipeline=scenario.pipeline(),
    )
    path = GOLDEN_DIR / "serve_scale.digest"
    path.write_text(stats.digest() + "\n")
    print(f"wrote {path}")


def regen_serve_matrix() -> None:
    from conftest import make_tiny_gpu
    from test_serve_engine import SERVE_MATRIX, matrix_digests

    digests = matrix_digests(make_tiny_gpu())
    SERVE_MATRIX.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {SERVE_MATRIX}")


def regen_store_bytes() -> None:
    import tempfile

    from test_store_format import STORE_BYTES, fill_store, store_digest

    with tempfile.TemporaryDirectory() as tmp:
        fill_store(Path(tmp))
        STORE_BYTES.write_text(store_digest(Path(tmp)) + "\n")
    print(f"wrote {STORE_BYTES}")


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "fixture"
    if which == "fixture":
        path = GOLDEN_DIR / "fixture_series.json"
        path.write_text(canonical(series_of(FIXTURE_CTX)) + "\n")
    elif which == "full":
        path = GOLDEN_DIR / "suite_series.json"
        path.write_text(canonical(series_of()) + "\n")
    elif which == "campaign":
        regen_campaigns()
        return
    elif which in ("serve-scale", "--serve-scale"):
        regen_serve_scale()
        return
    elif which == "serve-matrix":
        regen_serve_matrix()
        return
    elif which == "store-bytes":
        regen_store_bytes()
        return
    else:
        raise SystemExit(
            f"unknown target {which!r} "
            f"(expected fixture|full|campaign|serve-scale|serve-matrix|"
            f"store-bytes)"
        )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
