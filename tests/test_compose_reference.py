"""Reference test for butterfly composition.

``compose`` builds the middle group Q = P/N of the composite straight from
the pairs of the pullback P, without P's table, and trusts N to be normal.
Here the composite is rebuilt the long way, with every step checked: the
full pullback group, N as a checked subgroup, ``quotient`` (which checks
normality) and checking homomorphism constructors.  The two must serialize
identically.
"""

from __future__ import annotations

import pytest

from butterflies.butterfly import Butterfly, compose
from butterflies.fingroup import GroupHom, Subgroup, product_and_pullback, quotient
from butterflies.jsonio import canonical_bytes, to_jsonable
from butterflies.laws import generate_fixtures

CASES = [(seed, bound) for seed in range(4) for bound in (8, 16)]


def reference_compose(B: Butterfly, B2: Butterfly) -> Butterfly:
    P, pr1, pr2, pos = product_and_pullback(B.rho, B2.sigma)
    G, H, K = B.cod.G, B.dom.G, B2.cod.G
    N = Subgroup(P, tuple(pos[(B.iota.map[g], B2.kappa.map[g])] for g in range(G.order)))
    Q, pr = quotient(P, N)
    sigma_map = [0] * Q.order
    rho_map = [0] * Q.order
    for idx in range(P.order):
        sigma_map[pr.map[idx]] = B.sigma.map[pr1.map[idx]]
        rho_map[pr.map[idx]] = B2.rho.map[pr2.map[idx]]
    for idx in range(P.order):  # the legs are constant on cosets
        assert sigma_map[pr.map[idx]] == B.sigma.map[pr1.map[idx]]
        assert rho_map[pr.map[idx]] == B2.rho.map[pr2.map[idx]]
    return Butterfly(
        dom=B.dom,
        cod=B2.cod,
        E=Q,
        kappa=GroupHom(H, Q, tuple(pr.map[pos[(B.kappa.map[h], 0)]] for h in range(H.order))),
        iota=GroupHom(K, Q, tuple(pr.map[pos[(0, B2.iota.map[k])]] for k in range(K.order))),
        sigma=GroupHom(Q, B.dom.G0, tuple(sigma_map)),
        rho=GroupHom(Q, B2.cod.G0, tuple(rho_map)),
    )


def key(B: Butterfly) -> bytes:
    return canonical_bytes(to_jsonable(B))


@pytest.fixture(scope="module")
def fixture_sets():
    return [generate_fixtures(seed, bound) for seed, bound in CASES]


def test_fixture_pairs(fixture_sets):
    seen = set()
    for fx in fixture_sets:
        for B in fx.butterflies:
            for B2 in fx.butterflies:
                if B.cod != B2.dom or (key(B), key(B2)) in seen:
                    continue
                seen.add((key(B), key(B2)))
                assert key(compose(B, B2)) == key(reference_compose(B, B2))
    assert len(seen) == 335


def test_associativity_triples_both_bracketings(fixture_sets):
    # the triples of run_bicategory_suite's associativity check
    triples = 0
    for fx in fixture_sets:
        bounded = [B for B in fx.butterflies if B.E.order <= 2 * fx.size_bound]
        for B1 in bounded:
            for B2 in bounded:
                if B1.cod != B2.dom:
                    continue
                B12, R12 = compose(B1, B2), reference_compose(B1, B2)
                for B3 in bounded:
                    if B2.cod != B3.dom or B1.E.order * B2.E.order * B3.E.order > 64 * fx.size_bound:
                        continue
                    triples += 1
                    assert key(compose(B12, B3)) == key(reference_compose(R12, B3))
                    assert key(compose(B1, compose(B2, B3))) == key(reference_compose(B1, reference_compose(B2, B3)))
    assert triples == 1875
