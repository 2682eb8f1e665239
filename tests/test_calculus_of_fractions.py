"""Pronk's conditions for a bicategory of fractions, on the fixture sets.

The paper's main result makes internal butterflies the bicategory of
fractions of crossed modules at the weak equivalences W (D. Pronk, "Etendues
and stacks as bicategories of fractions", Compositio Math. 102, 1996).  Her
five conditions are checked here on the morphisms of fixture sets (0, 8) and
(3, 16):

- BF1: every identity morphism is in W;
- BF2: W is closed under ``compose_morphisms``;
- BF3, the Ore square: for w: X -> Y in W and f: Z -> Y, the span of the
  butterfly split(f) then flip(split(w)) is M with a left leg w': M -> Z in W
  and a right leg f': M -> X, and a 2-cell w f' => f w' exists;
- BF4: for w in W and parallel f, g into w's domain, whiskering by w, the
  arrow map of ``denormalize_morphism(w)`` applied to each component, is a
  bijection from the 2-cells f => g onto the 2-cells w f => w g;
- BF5: two parallel morphisms joined by a 2-cell of ``enumerate_two_cells``
  are both in W, or neither is.

BF5 rests on the Peiffer-graph condition of a 2-cell: with it dropped from
the 2-cell search, spurious 2-cells join a weak equivalence to a morphism
that is none, on both sets, and ``validate_two_cell`` reports each of them
as failing that condition and the naturality square.  The fixtures are built
inside the tests, as a build at collection time would fill the
equality-keyed caches for every module that runs later.
"""

from __future__ import annotations

import pytest

from butterflies import xmod
from butterflies.butterfly import compose, flip, span_of_butterfly, split_from_morphism
from butterflies.laws import generate_fixtures
from butterflies.xmod import compose_morphisms, denormalize_morphism, identity_morphism, is_weak_equivalence

# (seed, bound) -> the cases of BF1, BF2, BF5, BF3 and BF4, then the 2-cells
# that the search finds only with the Peiffer-graph pins dropped
SETS = {(0, 8): (11, 22, 129, 185, 365, 16), (3, 16): (12, 64, 225, 357, 791, 80)}


def in_w(P) -> bool:
    return is_weak_equivalence(P)[0]


def split(P):
    return split_from_morphism(P)[0]


def bf5_pairs(fx) -> list:
    """The ordered parallel pairs (P, Q) of fixture morphisms joined by a 2-cell."""
    return [
        (P, Q)
        for P in fx.morphisms
        for Q in fx.morphisms
        if P.dom == Q.dom and P.cod == Q.cod and xmod.enumerate_two_cells(P, Q)
    ]


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_identities_are_weak_equivalences(seed, bound):
    fx = generate_fixtures(seed, bound)
    assert [X for X in fx.crossed_modules if not in_w(identity_morphism(X))] == []
    assert len(fx.crossed_modules) == SETS[seed, bound][0]


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_weak_equivalences_compose(seed, bound):
    fx = generate_fixtures(seed, bound)
    W = [P for P in fx.morphisms if in_w(P)]
    pairs = [(P, Q) for P in W for Q in W if P.cod == Q.dom]
    assert [(P, Q) for P, Q in pairs if not in_w(compose_morphisms(P, Q))] == []
    assert len(pairs) == SETS[seed, bound][1]


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_two_cells_join_weak_equivalences_only_to_each_other(seed, bound):
    pairs = bf5_pairs(generate_fixtures(seed, bound))
    assert [(P, Q) for P, Q in pairs if in_w(P) != in_w(Q)] == []
    assert len(pairs) == SETS[seed, bound][2]


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_bf5_fails_without_the_peiffer_graph_condition(seed, bound, monkeypatch):
    fx = generate_fixtures(seed, bound)
    search = xmod._generator_images

    def unpinned(G, H, bijective, fixed=(), accept=None):
        return search(G, H, bijective, accept=accept)

    # enumerate_two_cells with fixed = []: alpha is no longer pinned on the image of the boundary
    monkeypatch.setattr(xmod, "_generator_images", unpinned)
    assert [(P, Q) for P, Q in bf5_pairs(fx) if in_w(P) != in_w(Q)] != []


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_ore_squares_close_by_a_two_cell(seed, bound):
    fx = generate_fixtures(seed, bound)
    cases = [(w, f) for w in fx.morphisms if in_w(w) for f in fx.morphisms if f.cod == w.cod]
    failed = []
    for w, f in cases:
        _, w2, f2 = span_of_butterfly(compose(split(f), flip(split(w))))
        if not in_w(w2) or not xmod.enumerate_two_cells(compose_morphisms(f2, w), compose_morphisms(w2, f)):
            failed.append((w, f))
    assert failed == []
    assert len(cases) == SETS[seed, bound][3]


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_whiskering_by_a_weak_equivalence_is_bijective_on_two_cells(seed, bound):
    fx = generate_fixtures(seed, bound)
    W = [w for w in fx.morphisms if in_w(w)]
    cases = [
        (w, f, g)
        for w in W
        for f in fx.morphisms
        if f.cod == w.dom
        for g in fx.morphisms
        if g.dom == f.dom and g.cod == f.cod
    ]
    failed = []
    for w, f, g in cases:
        arrows = denormalize_morphism(w).p1.map
        whiskered = sorted(tuple(arrows[a] for a in cell.alpha) for cell in xmod.enumerate_two_cells(f, g))
        # the search lists distinct cells in lexicographic order, so equal lists make a bijection
        target = xmod.enumerate_two_cells(compose_morphisms(f, w), compose_morphisms(g, w))
        if whiskered != [cell.alpha for cell in target]:
            failed.append((w, f, g))
    assert failed == []
    assert len(cases) == SETS[seed, bound][4]


@pytest.mark.parametrize("seed, bound", sorted(SETS))
def test_spurious_two_cells_fail_the_naturality_square(seed, bound, monkeypatch):
    fx = generate_fixtures(seed, bound)
    pairs = [(P, Q) for P in fx.morphisms for Q in fx.morphisms if P.dom == Q.dom and P.cod == Q.cod]
    cells = [{cell.alpha for cell in xmod.enumerate_two_cells(P, Q)} for P, Q in pairs]
    search = xmod._generator_images

    def unpinned(G, H, bijective, fixed=(), accept=None):
        return search(G, H, bijective, accept=accept)

    monkeypatch.setattr(xmod, "_generator_images", unpinned)
    spurious = [
        cell for (P, Q), kept in zip(pairs, cells) for cell in xmod.enumerate_two_cells(P, Q) if cell.alpha not in kept
    ]
    monkeypatch.undo()
    reported = {frozenset(xmod.validate_two_cell(cell).conditions()) for cell in spurious}
    assert reported == {frozenset({"peiffer-graph", "naturality-cross-check"})}
    assert len(spurious) == SETS[seed, bound][5]
