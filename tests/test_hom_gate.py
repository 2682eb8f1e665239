"""The validators' one gate reports an in-range map that is not a homomorphism.

``xmod._check_ranges`` range-checks each map a validator indexes, and runs
``fingroup._hom_defect`` on each map in range: a map that does not multiply
is a ``not-hom`` finding whose witness is the map's name and the first defect
pair (a, g), m(a*g) != m(a)*m(g).

The probe: in each butterfly of the fixture sets of seeds 0-3 at bound 16,
swap the images of elements 1 and 2 in one leg, where that breaks
multiplicativity (152 cases), and make the same swap in the boundary of each
crossed module of those sets (8 cases).  Without the check,
``validate_butterfly`` returns ok on 48 of the leg cases (6 iota, 21 sigma,
21 rho) and ``validate_crossed_module`` on all 8 boundary cases.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest

from helpers import S3

from butterflies.butterfly import validate_butterfly
from butterflies.extension import conjugation_xmod
from butterflies.fingroup import GroupAction, GroupHom, _hom_defect
from butterflies.laws import generate_fixtures
from butterflies.xmod import (
    denormalize,
    denormalize_morphism,
    identity_morphism,
    identity_two_cell,
    validate_crossed_module,
    validate_two_cell,
    validate_two_group,
    validate_two_group_functor,
    validate_xmod_morphism,
)

LEGS = ("kappa", "iota", "sigma", "rho")


def swapped(f: GroupHom) -> GroupHom:
    """f with the images of elements 1 and 2 exchanged."""
    m = list(f.map)
    m[1], m[2] = m[2], m[1]
    return GroupHom._trusted(f.dom, f.cod, tuple(m))


def breaks(f: GroupHom) -> bool:
    return f.dom.order > 2 and _hom_defect(f.dom, f.cod, swapped(f).map) is not None


@lru_cache(maxsize=1)
def probe_sets():
    return [generate_fixtures(seed, 16) for seed in range(4)]


def replays(finding, f: GroupHom) -> bool:
    """Whether a not-hom finding's defect pair is one for the map f."""
    _, (a, g) = finding.witness
    m, t, u = f.map, f.dom.table, f.cod.table
    return m[t[a][g]] != u[m[a]][m[g]]


def not_hom(report) -> list:
    return [f for f in report.findings if f.condition == "not-hom"]


def test_leg_swaps_are_not_hom_findings():
    cases = 0
    for fx in probe_sets():
        for B in fx.butterflies:
            for leg in LEGS:
                f = getattr(B, leg)
                if not breaks(f):
                    continue
                cases += 1
                bad = swapped(f)
                report = validate_butterfly(dataclasses.replace(B, **{leg: bad}))
                findings = not_hom(report)
                assert [w.witness[0] for w in findings] == [leg], (B, leg)
                assert replays(findings[0], bad)
                assert "leg-range" not in report.conditions()
    assert cases == 152


def test_boundary_swaps_are_not_hom_findings():
    cases = 0
    for fx in probe_sets():
        for X in fx.crossed_modules:
            if not breaks(X.boundary):
                continue
            cases += 1
            bad = swapped(X.boundary)
            findings = not_hom(validate_crossed_module(dataclasses.replace(X, boundary=bad)))
            assert [w.witness[0] for w in findings] == ["boundary"], X
            assert replays(findings[0], bad)
    assert cases == 8


def test_action_row_that_is_no_automorphism_is_a_finding():
    X = conjugation_xmod(S3)
    act = list(X.action.act)
    row = list(act[1])
    row[1], row[2] = row[2], row[1]
    act[1] = tuple(row)
    defect = _hom_defect(S3, S3, act[1])
    assert defect is not None
    # the action is decided by _action_defect alone: one finding, the row's first defect pair
    report = validate_crossed_module(dataclasses.replace(X, action=GroupAction._trusted(S3, S3, tuple(act))))
    findings = [(f.condition, f.witness, f.detail) for f in report.findings]
    assert findings == [("not-an-action", (1, defect), "act[1] is not an automorphism at (%d,%d)" % defect)]


@pytest.mark.parametrize("leg", ("p", "p0"))
def test_morphism_map_that_does_not_multiply_is_a_finding(leg):
    P = identity_morphism(conjugation_xmod(S3))
    bad = swapped(getattr(P, leg))
    report = validate_xmod_morphism(dataclasses.replace(P, **{leg: bad}))
    findings = not_hom(report)
    assert [f.witness[0] for f in findings] == [leg]
    assert replays(findings[0], bad)
    # the square and equivariance are still checked on a map in range
    assert report.conditions() > {"not-hom"}
    cell = dataclasses.replace(identity_two_cell(P), P=dataclasses.replace(P, **{leg: bad}))
    assert [f.witness[0] for f in not_hom(validate_two_cell(cell))] == [f"P.{leg}"]


@pytest.mark.parametrize("leg", ("d", "c", "e"))
def test_graph_map_that_does_not_multiply_is_a_finding(leg):
    T = denormalize(conjugation_xmod(S3))
    bad = swapped(getattr(T, leg))
    assert _hom_defect(bad.dom, bad.cod, bad.map) is not None
    findings = not_hom(validate_two_group(dataclasses.replace(T, **{leg: bad})))
    assert [f.witness[0] for f in findings] == [leg]
    assert replays(findings[0], bad)


@pytest.mark.parametrize("leg", ("p1", "p0"))
def test_functor_leg_that_does_not_multiply_is_a_finding(leg):
    F = denormalize_morphism(identity_morphism(conjugation_xmod(S3)))
    bad = swapped(getattr(F, leg))
    assert _hom_defect(bad.dom, bad.cod, bad.map) is not None
    findings = not_hom(validate_two_group_functor(dataclasses.replace(F, **{leg: bad})))
    assert [f.witness[0] for f in findings] == [leg]
    assert replays(findings[0], bad)
