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

from butterflies import butterfly
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
    # before a composite refused legs that are not constant on the cosets of
    # N, the compose fault's report here changed with the pair of a coset the
    # legs were read from; it does not now, and the pin did not move
    (8, 16): (
        "6cca8efb3ee2cd16e1bb145114914032620cdf10e602f88ac58a62e14971a865",
        "857258aba833ce8993427da66166d4f68ea7e5581c4e69cf6b5679163b40d02f",
        "66dd3dbc22f1958aea08ef3a07216b41ae534d4f74f9bcf1b31173a8f84c12a2",
        "a0af978dfa935267e550b642d90fdda757955b70713c500652d54dd6a5855d21",
    ),
    # one of the 9 sets whose compose-fault report changed when composites
    # began to refuse such legs: the associativity witnesses record the error
    (2, 8): (
        "6b47f2785fa6ae36f01aac6e7fcd3d0c3268773e3056eb8289e8483995bf22ac",
        "9db8836ea2556e78cbdd9967fcee2367275c2b00cca06512af28be923f2b3c2f",
        "74b5293ff1d0a4404ef1f82fa90a6fc589ddf11212da587542c4b21b11c7554f",
        "3ff63314ca3598734df3ec1d5a89a61ade1b30a98aba4b68aebcd880f3c6552b",
    ),
}

# the 9 fixture sets whose compose-fault report changed when composites began
# to refuse legs that are not constant on the cosets of N, and (8, 16), whose
# report did not change but had depended on the pair the legs were read from
LEG_SENSITIVE = ((2, 8), (5, 8), (9, 16), (10, 8), (11, 8), (12, 8), (12, 16), (13, 8), (13, 16), (8, 16))


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


@pytest.mark.parametrize("seed, bound", LEG_SENSITIVE)
def test_compose_fault_report_is_the_same_from_the_least_and_the_last_pair(seed, bound, monkeypatch):
    # the pairs come in lexicographic order; reversed, the pair of a coset
    # read first is its last instead of its least
    fx = generate_fixtures(seed, bound)
    least = report_digest(SUITES["bicategory"](fx, fault="compose"))
    parts = butterfly._pullback_parts

    def reversed_parts(B, B2):
        pairs, coset_of, pair, Q = parts(B, B2)
        return pairs[::-1], coset_of[::-1], pair, Q

    monkeypatch.setattr(butterfly, "_pullback_parts", reversed_parts)
    assert report_digest(SUITES["bicategory"](fx, fault="compose")) == least
