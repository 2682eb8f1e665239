"""The cocycle enumerator and the section twist against brute force.

``enumerate_cocycles`` draws f-values from the center of G and checks cocycle
triples as it goes; here every normalized f on every homomorphism
H -> Aut(G) is filtered by the full Schreier check ``validate_factor_set``,
which tests the first condition on permutations, and the two lists must agree
in content and order.  The phi of ``twist_factor_set``, a product in Aut(G),
is compared with the conjugated permutation it stands for.
"""

from __future__ import annotations

import itertools

import pytest

from helpers import S3, V4, Z2, Z3, Z4

from butterflies.extension import (
    FactorSet,
    aut_xmod,
    enumerate_cocycles,
    twist_factor_set,
    validate_factor_set,
)
from butterflies.fingroup import (
    GroupAction,
    all_homomorphisms,
    automorphism_group,
    dicyclic_group,
    semidirect_product,
)

D4 = semidirect_product(GroupAction(Z2, Z4, (tuple(range(4)), tuple((-a) % 4 for a in range(4)))))[0]
Q8 = dicyclic_group(2)

PAIRS = {
    "Z2,Z2": (Z2, Z2),
    "Z2,Z3": (Z2, Z3),
    "Z3,Z2": (Z3, Z2),
    "Z2,V4": (Z2, V4),
    "Z4,Z2": (Z4, Z2),
    "V4,Z2": (V4, Z2),
    "Z2,S3": (Z2, S3),
    "Z2,D4": (Z2, D4),
    "Z2,Q8": (Z2, Q8),
}


def brute_force_cocycles(H, G) -> list[FactorSet]:
    """Every homomorphism phi and every normalized f, in the enumerator's
    order (phi first, then f-values slot by slot), kept when valid."""
    aut, ev = automorphism_group(G)
    n = H.order
    out = []
    for phi in all_homomorphisms(H, aut):
        for values in itertools.product(range(G.order), repeat=(n - 1) ** 2):
            free = iter(values)
            f = tuple(tuple(0 if x == 0 or y == 0 else next(free) for y in range(n)) for x in range(n))
            fs = FactorSet(H, G, phi.map, f)
            if validate_factor_set(fs, aut, ev):
                out.append(fs)
    return out


@pytest.mark.parametrize("pair", list(PAIRS))
def test_enumeration_equals_brute_force(pair):
    H, G = PAIRS[pair]
    assert enumerate_cocycles(H, G) == brute_force_cocycles(H, G)


@pytest.mark.parametrize("pair", ["Z2,S3", "Z2,Q8"])
def test_twisted_phi_is_the_conjugated_permutation(pair):
    H, G = PAIRS[pair]
    A = aut_xmod(G)
    pos = {p: i for i, p in enumerate(A.action.act)}
    for fs in enumerate_cocycles(H, G):
        for h in itertools.product(range(G.order), repeat=H.order):
            expected = tuple(
                pos[tuple(G.conj(h[x], A.action.act[fs.phi[x]][g]) for g in range(G.order))]
                for x in range(H.order)
            )
            assert twist_factor_set(fs, h, A).phi == expected
