"""Reference test for the butterfly-morphism and section searches.

Both searches run on the generator-image search of ``fingroup`` with fixed
wing images and a per-generator leg filter.  Here they are compared with a
plain filter of every homomorphism between the middle groups by the four
triangles (and of every homomorphism H -> E by the section condition).  The
section search, ``helpers.is_split``, is the oracle of the route's split
flags, which it reads off the trivial cocycles without a search.
"""

from __future__ import annotations

import pytest

from helpers import V4, Z2, Z4, is_split

from butterflies.butterfly import Butterfly, butterfly_morphisms, isomorphic_butterflies
from butterflies.extension import (
    butterfly_from_extension,
    classify_extensions,
    enumerate_cocycles,
    factor_set_to_extension,
)
from butterflies.fingroup import all_homomorphisms, identity_hom
from butterflies.laws import generate_fixtures


def reference_morphisms(B: Butterfly, B2: Butterfly) -> list[tuple[int, ...]]:
    """Every map E -> E2 of a homomorphism commuting with both wings and both legs, sorted."""
    return sorted(
        f.map
        for f in all_homomorphisms(B.E, B2.E)
        if B.kappa.then(f) == B2.kappa
        and B.iota.then(f) == B2.iota
        and f.then(B2.sigma) == B.sigma
        and f.then(B2.rho) == B.rho
    )


def parallel_pairs(butterflies: list[Butterfly]) -> list[tuple[Butterfly, Butterfly]]:
    return [
        (B, B2)
        for B in butterflies
        for B2 in butterflies
        if B.dom == B2.dom and B.cod == B2.cod and B.E.order == B2.E.order
    ]


def assert_search_matches_reference(pairs) -> int:
    """Returns how many pairs have more than one morphism."""
    several = 0
    for B, B2 in pairs:
        expected = reference_morphisms(B, B2)
        assert [w.f.map for w in butterfly_morphisms(B, B2)] == expected
        witness = isomorphic_butterflies(B, B2)
        assert (None if witness is None else witness.f.map) == (expected[0] if expected else None)
        several += len(expected) > 1
    return several


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bound", (8, 16))
def test_fixture_pairs(seed, bound):
    fx = generate_fixtures(seed, bound)
    pairs = parallel_pairs([B for B in fx.butterflies if B.E.order <= 8])
    assert pairs
    assert_search_matches_reference(pairs)


@pytest.mark.parametrize("H, G", [(V4, Z2), (Z2, Z4)], ids=["V4-by-Z2", "Z2-by-Z4"])
def test_extension_pairs(H, G):
    butterflies = [
        butterfly_from_extension(X.iota, X.sigma)
        for X in map(factor_set_to_extension, enumerate_cocycles(H, G))
    ]
    assert assert_search_matches_reference(parallel_pairs(butterflies)) > 0


@pytest.mark.parametrize("H, G", [(V4, Z4), (Z2, Z4)], ids=["V4-by-Z4", "Z2-by-Z4"])
def test_is_split_matches_reference(H, G):
    for cls in classify_extensions(H, G):
        X = cls.butterfly
        ident = identity_hom(H)
        expected = any(s.then(X.sigma) == ident for s in all_homomorphisms(H, X.E))
        assert cls.split == is_split(X) == expected
