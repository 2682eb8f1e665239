"""Hom-set and automorphism counts by formulas that share no code with the
generator-image search.

- For an abelian H = Z_n1 x ... x Z_nk, a homomorphism H -> G is a choice of
  images g_1, ..., g_k of the cyclic generators that commute pairwise and
  satisfy g_i^(n_i) = 1, so |Hom(H, G)| is the number of such k-tuples of G.
  It is counted below straight off G's table, on every abelian catalog group
  H against every catalog group G with |H|*|G| <= 256.
- For a finite abelian p-group Z_p^e1 x ... x Z_p^en, e1 <= ... <= en,
  |Aut| is Hillar and Rhea's product ("Automorphisms of finite abelian
  groups", Amer. Math. Monthly 114, 2007, Theorem 4.1), and an abelian group's
  automorphism group is the product of those of its Sylow subgroups.  It is
  checked on the abelian catalog groups of order at most 16 whose automorphism
  group is within ``AUT_LIMIT``.
- For the dihedral group D_n of order 2n, n >= 3, |Aut(D_n)| = n * phi(n),
  checked on D3 to D8.
- Aut(Z2^3) = GL(3, 2) is simple of order 168, so an endomorphism is trivial
  or an automorphism, and Aut(GL(3, 2)) = PGL(2, 7) has order 336:
  |Hom(GL(3, 2), GL(3, 2))| = 337, exactly one of them not bijective.

Each catalog group's cyclic factors are read off its name ("Z2xZ4").
"""

from __future__ import annotations

from math import gcd

import pytest

from butterflies.extension import standard_catalog
from butterflies.fingroup import AUT_LIMIT, all_homomorphisms, automorphism_group, cyclic_group, direct_product

CATALOG = [(name, K) for order in range(1, 33) for name, K in standard_catalog(order)]
ABELIAN = [(name, K) for name, K in CATALOG if K.is_abelian]


def cyclic_factors(name: str) -> list[int]:
    """The orders n_i of the cyclic factors Z_n1 x ... of an abelian catalog group."""
    return [] if name == "1" else [int(part[1:]) for part in name.split("x")]


def commuting_tuples(G, orders: list[int]) -> int:
    """The number of pairwise commuting tuples (g_1, ..., g_k) of G with
    g_i^(orders[i]) = 1, counted from G's table alone."""
    t = G.table

    def killed_by(g: int, n: int) -> bool:
        p = 0
        for _ in range(n):
            p = t[p][g]
        return p == 0

    def count(i: int, chosen: list[int]) -> int:
        if i == len(orders):
            return 1
        return sum(
            count(i + 1, [*chosen, g])
            for g in range(G.order)
            if killed_by(g, orders[i]) and all(t[g][c] == t[c][g] for c in chosen)
        )

    return count(0, [])


def prime_powers(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p^e."""
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def hillar_rhea(p: int, exponents: list[int]) -> int:
    """|Aut(Z_p^e1 x ... x Z_p^en)| by Hillar and Rhea's Theorem 4.1."""
    e, n = sorted(exponents), len(exponents)
    d = [max(l for l in range(1, n + 1) if e[l - 1] == ek) for ek in e]
    c = [min(l for l in range(1, n + 1) if e[l - 1] == ek) for ek in e]
    out = 1
    for k in range(1, n + 1):
        out *= p ** d[k - 1] - p ** (k - 1)
    for j in range(n):
        out *= p ** (e[j] * (n - d[j]))
    for i in range(n):
        out *= p ** ((e[i] - 1) * (n - c[i] + 1))
    return out


def abelian_aut_order(factors: list[int]) -> int:
    """|Aut| of Z_n1 x ... x Z_nk, the product over its Sylow subgroups."""
    exponents: dict[int, list[int]] = {}
    for n in factors:
        for p, e in prime_powers(n).items():
            exponents.setdefault(p, []).append(e)
    out = 1
    for p, es in exponents.items():
        out *= hillar_rhea(p, es)
    return out


def euler_phi(n: int) -> int:
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


def test_formulas_on_known_values():
    assert [abelian_aut_order(f) for f in ([2, 2], [2, 4], [2, 2, 2], [3, 3], [4, 4], [2, 6])] == [
        6, 8, 168, 48, 96, 12
    ]
    assert commuting_tuples(standard_catalog(6)[1][1], [2]) == 4  # S3: the identity and 3 involutions
    assert [euler_phi(n) for n in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]


def test_abelian_hom_counts_match_commuting_tuples():
    pairs = [(h, H, G) for h, H in ABELIAN if H.order > 1 for _, G in CATALOG if H.order * G.order <= 256]
    assert len(pairs) == 2044
    for h, H, G in pairs:
        assert len(all_homomorphisms(H, G)) == commuting_tuples(G, cyclic_factors(h)), (H.name, G.name)


@pytest.mark.parametrize(
    "name", [name for name, K in ABELIAN if K.order <= 16 and abelian_aut_order(cyclic_factors(name)) <= AUT_LIMIT]
)
def test_abelian_automorphism_counts_match_hillar_rhea(name):
    K = dict(CATALOG)[name]
    assert automorphism_group(K)[0].order == abelian_aut_order(cyclic_factors(name))


@pytest.mark.parametrize("n", range(3, 9))
def test_dihedral_automorphism_counts(n):
    D = dict(CATALOG)[f"D{n}"]
    assert D.order == 2 * n
    assert automorphism_group(D)[0].order == n * euler_phi(n)


def test_endomorphisms_of_gl32():
    Z2 = cyclic_group(2)
    GL32 = automorphism_group(direct_product(direct_product(Z2, Z2)[0], Z2)[0])[0]
    assert GL32.order == 168
    homs = all_homomorphisms(GL32, GL32)
    assert len(homs) == 337
    assert [h.map for h in homs if not h.is_isomorphism] == [(0,) * 168]
