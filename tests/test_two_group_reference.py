"""The reduced 2-group validator and the derived composition, checked against
an exhaustive reference.

The reference checker below is the full groupoid-axiom check run over an
explicitly built composition table: composability domain, endpoints, unit,
inverse, associativity and interchange.  The explicit tables come from the
closed formulas of the two constructions that produce 2-groups, the
semidirect product of a crossed module ((a, d(b)y) then (b, y) composes to
(ab, y)) and the kernel pair of a homomorphism ((x, y) then (y, z) composes
to (x, z)).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from helpers import ONE, S3, V4, Z2, Z4

from butterflies.butterfly import to_fractor
from butterflies.fingroup import (
    GroupAction,
    GroupHom,
    all_homomorphisms,
    direct_product,
    symmetric_group,
)
from butterflies.laws import generate_fixtures
from butterflies.xmod import CrossedModule, Strict2Group, denormalize, validate_two_group

FIXTURE_SEEDS = range(14)
FIXTURE_BOUNDS = (8, 16)


def exhaustive_conditions(T: Strict2Group, m: dict, i: tuple) -> set[str]:
    """Every groupoid law violated by the explicit composition m and inverse i."""
    n1, d, c, e, t = T.G1.order, T.d.map, T.c.map, T.e.map, T.G1.table
    bad = set()
    if any(d[e[x]] != x or c[e[x]] != x for x in range(T.G0.order)):
        bad.add("unit-source-target")
    composable = {(f, g) for f in range(n1) for g in range(n1) if c[f] == d[g]}
    if set(m) != composable:
        return bad | {"composability-domain"}
    if any(d[h] != d[f] or c[h] != c[g] for (f, g), h in m.items()):
        bad.add("composition-endpoints")
    for f in range(n1):
        if m[(e[d[f]], f)] != f or m[(f, e[c[f]])] != f:
            bad.add("unit-law")
        if d[i[f]] != c[f] or c[i[f]] != d[f]:
            bad.add("inverse-endpoints")
        elif m[(f, i[f])] != e[d[f]] or m[(i[f], f)] != e[c[f]]:
            bad.add("inverse-law")
    for (f, g) in composable:
        for h in range(n1):
            if c[g] == d[h] and m[(m[(f, g)], h)] != m[(f, m[(g, h)])]:
                bad.add("associativity")
    for (f, g) in composable:
        for (f2, g2) in composable:
            if m[(t[f][f2], t[g][g2])] != t[m[(f, g)]][m[(f2, g2)]]:
                bad.add("interchange")
    return bad


def semidirect_formula(X: CrossedModule) -> tuple[dict, tuple]:
    """Composition and inverse on arrows (a, x) = a*|G0| + x of denormalize(X)."""
    n0, bd, G, t0 = X.G0.order, X.boundary.map, X.G, X.G0.table
    m = {
        ((a * n0 + t0[bd[b]][y]), b * n0 + y): G.table[a][b] * n0 + y
        for a in range(G.order)
        for b in range(G.order)
        for y in range(n0)
    }
    i = tuple(G.inv(a) * n0 + t0[bd[a]][x] for a in range(G.order) for x in range(n0))
    return m, i


def kernel_pair_formula(T: Strict2Group) -> tuple[dict, tuple]:
    """Composition and inverse of a kernel-pair groupoid with arrows (d, c)."""
    pos = {pair: a for a, pair in enumerate(zip(T.d.map, T.c.map))}
    n1, d, c = T.G1.order, T.d.map, T.c.map
    m = {(a, b): pos[(d[a], c[b])] for a in range(n1) for b in range(n1) if c[a] == d[b]}
    i = tuple(pos[(c[a], d[a])] for a in range(n1))
    return m, i


def wing_xmod(B) -> CrossedModule:
    """The crossed module kappa: H -> E whose 2-group is the fractor's R."""
    perms = tuple(
        tuple(B.dom.act(B.sigma.map[x], h) for h in range(B.dom.G.order)) for x in range(B.E.order)
    )
    return CrossedModule(B.dom.G, B.E, B.kappa, GroupAction(B.E, B.dom.G, perms))


@lru_cache(maxsize=None)
def fixture_two_groups() -> tuple:
    """(2-group, explicit m, explicit i) for every distinct fixture 2-group."""
    out = {}

    def add(T, formula):
        key = (T.G1.table, T.G0.table, T.d.map, T.c.map, T.e.map)
        if key not in out:
            out[key] = (T, *formula)

    for seed in FIXTURE_SEEDS:
        for bound in FIXTURE_BOUNDS:
            fx = generate_fixtures(seed, bound)
            for X in fx.crossed_modules:
                add(denormalize(X), semidirect_formula(X))
            for B in fx.butterflies:
                F = to_fractor(B)
                add(F.R, semidirect_formula(wing_xmod(B)))
                add(F.Rsigma, kernel_pair_formula(F.Rsigma))
    return tuple(out.values())


def one_object(G) -> Strict2Group:
    """G => 1 with d = c = 0: a groupoid in groups exactly when G is abelian."""
    to_one = GroupHom(G, ONE, (0,) * G.order)
    return Strict2Group(G, ONE, to_one, to_one, GroupHom(ONE, G, (0,)))


def test_fixture_set_is_large():
    assert len(fixture_two_groups()) >= 100


def test_derived_composition_matches_the_construction_formulas():
    for T, m, i in fixture_two_groups():
        assert T.m == m, repr(T)
        assert T.i.map == i, repr(T)


def test_verdict_matches_exhaustive_checker_on_fixtures():
    for T, m, i in fixture_two_groups():
        assert exhaustive_conditions(T, m, i) == set()
        assert validate_two_group(T).ok, repr(T)


def test_s3_over_a_point_fails_interchange_in_both_checkers():
    T = one_object(S3)
    explicit = {(f, g): S3.table[f][g] for f in range(6) for g in range(6)}
    assert T.m == explicit
    assert exhaustive_conditions(T, explicit, S3.inverse) == {"interchange"}
    report = validate_two_group(T)
    assert report.conditions() == {"interchange"}
    a, b = report.findings[0].witness
    assert S3.table[a][b] != S3.table[b][a]


@pytest.mark.parametrize(
    "G1, G0",
    [
        (V4, Z2),
        (S3, Z2),
        (S3, ONE),
        (Z4, ONE),
        (direct_product(Z2, S3)[0], Z2),
        (direct_product(Z2, S3)[0], S3),
        (symmetric_group(4), Z2),
    ],
    ids=lambda G: G.name,
)
def test_verdict_matches_exhaustive_checker_on_every_reflexive_graph(G1, G0):
    """Over all (d, c, e) with d*e = c*e = id: the commutator test agrees with
    the full groupoid-axiom check of the derived composition."""
    graphs = 0
    for d, c in itertools.product(all_homomorphisms(G1, G0), repeat=2):
        for e in all_homomorphisms(G0, G1):
            if any(d.map[e.map[x]] != x or c.map[e.map[x]] != x for x in range(G0.order)):
                continue
            graphs += 1
            T = Strict2Group(G1, G0, d, c, e)
            t, inv = G1.table, G1.inverse
            m = {
                (f, g): t[t[f][inv[e.map[d.map[g]]]]][g]
                for f in range(G1.order)
                for g in range(G1.order)
                if c.map[f] == d.map[g]
            }
            i = tuple(t[t[e.map[c.map[f]]][inv[f]]][e.map[d.map[f]]] for f in range(G1.order))
            expected = exhaustive_conditions(T, m, i)
            assert expected <= {"interchange"}
            assert validate_two_group(T).conditions() == expected
            assert T.m == m
            if not expected:  # otherwise i need not be a homomorphism
                assert T.i.map == i
    assert graphs
