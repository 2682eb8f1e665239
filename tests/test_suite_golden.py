"""Golden pins of the law-suite reports.

The sha256 of each report's JSON (keys sorted, no whitespace, ``wall_time``
removed) on three fixture sets, for both suites with and without their fault.
A change to what the suites check, to the order of their cases, or to a
witness or error string of a kept failure changes a pin.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from butterflies.laws import SUITES, generate_fixtures

RUNS = (("bicategory", None), ("fractions", None), ("bicategory", "compose"), ("fractions", "two-cell-count"))

PINS = {
    (0, 8): (
        "994062fc8fec26d27efd10e3d4032f183e007a7329e4b42aca55899850b3ea2a",
        "514e35921a4400c8dcfccc9fa5b0cefe5622b24d2bd199e86b56947fd306218b",
        "8f74aa137bb761ca7bb8f40d31b49b3d4b23725bf66d475c647d74f6eff696ce",
        "a17446b62835b0dd19892fbc65851447cf4b1ab9e35a5986c93f69dc82ace0e2",
    ),
    (1, 16): (
        "3ea774da5265c761e030dbbe3733ded27466218181f1198e45f1d4ea9deb99a0",
        "c0dfc27a25e23dd324129e7ad9c48a833c2cbba3e908769730669055b304680e",
        "a9b1cd17d916a904988e23cc8205f3b79290438964a31df441343029afd350e1",
        "60b2427ff6071cafd29c13d62ec8d988f58ff9e5e05f1804f5618b7a71b0fb75",
    ),
    # the compose fault's report here depends on which pair of a coset the
    # composite's legs are read from
    (8, 16): (
        "6cca8efb3ee2cd16e1bb145114914032620cdf10e602f88ac58a62e14971a865",
        "857258aba833ce8993427da66166d4f68ea7e5581c4e69cf6b5679163b40d02f",
        "66dd3dbc22f1958aea08ef3a07216b41ae534d4f74f9bcf1b31173a8f84c12a2",
        "a0af978dfa935267e550b642d90fdda757955b70713c500652d54dd6a5855d21",
    ),
}


def report_digest(report) -> str:
    data = report.to_json()
    del data["wall_time"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("seed, bound", sorted(PINS))
def test_reports_match_pins(seed, bound):
    fx = generate_fixtures(seed, bound)
    digests = tuple(report_digest(SUITES[suite](fx, fault=fault)) for suite, fault in RUNS)
    assert digests == PINS[seed, bound]


@pytest.mark.parametrize("seed, bound", sorted(PINS))
def test_fault_runs_first_leave_clean_reports_unchanged(seed, bound):
    # a faulted value dies with its run, so no later clean run reads it
    fx = generate_fixtures(seed, bound)
    faulted = tuple(report_digest(SUITES[suite](fx, fault=fault)) for suite, fault in RUNS[2:])
    clean = tuple(report_digest(SUITES[suite](fx, fault=fault)) for suite, fault in RUNS[:2])
    assert clean + faulted == PINS[seed, bound]
