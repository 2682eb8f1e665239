"""Pronk's conditions for a bicategory of fractions, on the fixture sets.

The paper's main result makes internal butterflies the bicategory of
fractions of crossed modules at the weak equivalences W (D. Pronk, "Etendues
and stacks as bicategories of fractions", Compositio Math. 102, 1996).  Three
of her conditions are checked here on the morphisms of fixture sets (0, 8)
and (3, 16):

- BF1: every identity morphism is in W;
- BF2: W is closed under ``compose_morphisms``;
- BF5: two parallel morphisms joined by a 2-cell of ``enumerate_two_cells``
  are both in W, or neither is.

BF5 rests on the Peiffer-graph condition of a 2-cell: with it dropped from
the 2-cell search, spurious 2-cells join a weak equivalence to a morphism
that is none, on both sets.  The fixtures are built inside the tests, as a
build at collection time would fill the equality-keyed caches for every
module that runs later.
"""

from __future__ import annotations

import pytest

from butterflies import xmod
from butterflies.laws import generate_fixtures
from butterflies.xmod import compose_morphisms, identity_morphism, is_weak_equivalence

# (seed, bound) -> the cases of BF1, BF2 and BF5
SETS = {(0, 8): (11, 22, 129), (3, 16): (12, 64, 225)}


def in_w(P) -> bool:
    return is_weak_equivalence(P)[0]


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
