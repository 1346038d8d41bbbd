"""Tier-1 lint gate: the full benchmark suite must verify error-clean.

Every one of the seven Tango networks — plus every extension network
(mobilenet), which is first-class in the gate — is compiled and pushed
through all four static-analysis passes.  Error-severity diagnostics mean the
compiled IR is unfaithful (out-of-bounds addresses, unwritten-register
reads, shared-memory races, smem overflow) and fail the build; warnings
and notes (uncoalesced FC loads, stranded pool geometries, padding
overhang) mirror behaviour the paper itself observes and are allowed.
"""

from __future__ import annotations

import pytest

from repro.analysis import Severity, analyze_network
from repro.core.suite import SUITE_NETWORKS


@pytest.mark.lint_suite
@pytest.mark.parametrize("network", SUITE_NETWORKS)
def test_network_lints_error_clean(network):
    report = analyze_network(network)
    assert report.kernel_count > 0
    errors = report.errors
    assert not errors, (
        f"{network}: {len(errors)} error diagnostic(s):\n"
        + report.format(min_severity=Severity.ERROR)
    )


@pytest.mark.lint_suite
def test_suite_reports_expected_warning_shapes():
    # The paper's own observations should surface as warnings, not be
    # silenced: CifarNet's FC/pool stages strand threads and stride
    # weight rows (sec. V-B uncoalesced / memory_throttle narrative).
    report = analyze_network("cifarnet")
    warning_codes = {d.code for d in report.diagnostics if d.severity is Severity.WARNING}
    assert "uncoalesced-access" in warning_codes
