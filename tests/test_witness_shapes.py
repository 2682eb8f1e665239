"""Golden pins of every witness shape the law suites can report.

The pins of ``test_suite_golden`` only see the witnesses that the two faults
produce.  Here each of the suites' failure sites is made to fire on fixture
set (0, 8) by replacing one name that ``laws`` calls, and the digest of the
whole report (as ``test_suite_golden.report_digest`` takes it) is pinned, so
a change to how any witness is built or serialized changes a pin.

Each case starts from empty ``denormalize`` and ``aut_xmod`` caches: they
hold the first of equal crossed modules and groups that a process met, names
and labels included, and witnesses serialize those.
"""

from __future__ import annotations

import inspect
import re
from types import SimpleNamespace

import pytest

from butterflies import laws
from butterflies.errors import ConstructionError
from butterflies.extension import aut_xmod
from butterflies.report import ValidationReport
from butterflies.xmod import denormalize

from test_suite_golden import report_digest


def _raise(*_args):
    raise ConstructionError("forced")


_is_flippable, _iso_or_none = laws.is_flippable, laws._iso_or_none
_enumerate_two_cells = laws.enumerate_two_cells


def _unit_laws_only(fx):
    """A stand-in that gives a real witness where the unit laws ask, as their
    second operand is a butterfly of `fx`, and elsewhere one that is no bijection."""
    fixtures = {id(B) for B in fx.butterflies}
    return lambda B1, B2: _iso_or_none(B1, B2) if id(B2) in fixtures else NOT_ISO


def _failing_validation(B):
    report = ValidationReport(repr(B))
    report.add("forced", (0, 1), "forced finding")
    return report


NOT_ISO = SimpleNamespace(f=SimpleNamespace(is_isomorphism=False))

# (suite, fault, name in laws, replacement, the checks that must fail, digest)
CASES = {
    "no-iso-bicategory": (
        "bicategory", None, "_iso_or_none", lambda B1, B2: None,
        {"left-unit", "right-unit", "associativity", "flip-equivalence"},
        "c9c663450ebac358e620a9e2a344c4a6d5cba210977715bf2aeb5d8b9ce6414d",
    ),
    "witness-not-bijective": (
        "bicategory", None, "_iso_or_none", lambda B1, B2: NOT_ISO,
        {"witness-bijective"},
        "11b982fa1b367300325872c117c165850b171aff56afa117fbd6095b206aed77",
    ),
    "associativity-witness-not-bijective": (
        "bicategory", None, "_iso_or_none", _unit_laws_only,
        {"witness-bijective"},
        "6043dedc976c176c6995e69fb76c3c6bebbe5b677322a671a875d74970fb3449",
    ),
    "associativity-error": (
        "bicategory", None, "_bracketings", _raise,
        {"associativity"},
        "8a7e37ae3979819eb9467bdffe451bcb2d86346ea8cfe2a390a0a647b29d030c",
    ),
    "butterfly-invalid": (
        "bicategory", None, "validate_butterfly", _failing_validation,
        {"butterfly-valid"},
        "377be721362c8c9918c7b074142e9653572fa925984b502ec754d61f01e4a85e",
    ),
    "fault-not-exercised": (
        "bicategory", "compose", "_corrupt_middle_group", lambda B: B,
        {"fault-not-exercised"},
        "769b6e2ea7b189883b7dcbda5f64890df5fd85c02c0028b085181504faa9e148",
    ),
    "not-flippable": (
        "fractions", None, "is_flippable", lambda B: not _is_flippable(B),
        {"ef0-flippable"},
        "75d403aa17f446a3230cebbb8567d084e6d490b26c1272d2f75e71bdf40de3b2",
    ),
    "not-pullback": (
        "fractions", None, "_is_pullback", lambda *maps: False,
        {"ef0-pullback-square"},
        "dd7d85e05f439ba1318614afc4906bdefdddbb2ddc286e2605c27f76007abe0d",
    ),
    "no-image": (
        "fractions", None, "two_cell_image", _raise,
        {"ef2-image", "ef2-full"},
        "f48ac38c547f7fe1293db449b8002f584001a273bf15c8c19d1f66c9fc716ea0",
    ),
    "cells-twice": (
        "fractions", None, "enumerate_two_cells", lambda P, Q: _enumerate_two_cells(P, Q) * 2,
        {"ef2-faithful"},
        "0d975f6639da87530509c65941be0d2ff409a1f942c6daa9f31dd26910d768bb",
    ),
    "no-natural-transformation": (
        "fractions", None, "enumerate_natural_transformations", lambda P, Q: [],
        {"two-cell-naturality"},
        "1cc90eb101e0e6dd1485ff151e9db3e7932de5ff7cac05f800148f77d60c6cb5",
    ),
    "no-coincidence": (
        "fractions", None, "ef3_coincidence", lambda B: False,
        {"ef3-literal"},
        "8806740b01f25814eec40f81235341c82999546d0343c3591b60cef07674557e",
    ),
    "no-iso-fractions": (
        "fractions", None, "_iso_or_none", lambda B1, B2: None,
        {"a3-unit", "a2-associativity", "a1-compat"},
        "0af341b76bf592d7355531a6c243dfcfacaa476068d28a22db684503f5e6440b",
    ),
    "reduced-is-operand": (
        "fractions", None, "reduced_compose", lambda P, B: B,
        {"reduced-vs-split"},
        "f171dad0a9730bb9ba89c5a4d3381075d4edc23268df9185c918dfa34f7f20e2",
    ),
    "pullback-invalid": (
        "fractions", None, "validate_crossed_module", lambda X: SimpleNamespace(ok=False),
        {"pullback-weak-equivalence"},
        "2ce741d6f0e12816adfd1e4057ae050673497593db64aed01857b28568909ba2",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_forced_failure_report_matches_pin(case, monkeypatch):
    suite, fault, name, replacement, checks, digest = CASES[case]
    denormalize.cache_clear()
    aut_xmod.cache_clear()
    fx = laws.generate_fixtures(0, 8)  # before the patch: the fixture layer calls some of the names
    if replacement is _unit_laws_only:
        replacement = _unit_laws_only(fx)
    monkeypatch.setattr(laws, name, replacement)
    report = laws.SUITES[suite](fx, fault=fault)
    assert checks <= {f["check"] for f in report.failures}
    assert report_digest(report) == digest


def test_every_check_is_forced():
    # the associativity and witness-bijective checks have two sites each, forced by separate cases
    named = set(re.findall(r'\.fail\(\s*"([a-z0-9-]+)"', inspect.getsource(laws)))
    assert named == set().union(*(checks for *_, checks, _ in CASES.values()))
    assert len(named) == 19
