"""The butterfly route of the classification against the code it replaced.

``reference_enumerate_cocycles`` checks each cocycle triple only when the
last of its f-values is assigned, ``reference_classify_extensions``
searches every new butterfly against every representative found so far,
``reference_twisted_product`` fills the twisted product cell by cell through
an index function, ``reference_rho`` reads the Aut-leg of its butterfly
through ``E.conj``, and ``reference_identify_group`` searches every catalog
group of the order in turn.  On every pair of the classification grid, with
the groups relabeled as the classify-grid benchmark relabels them, the
cocycle lists must agree in content and order, the twisted products and
Aut-legs cell for cell, and the class lists in factor set, count, splitting
and extension group: bucketing never separates two cocycles that the
unbucketed search joins, and the invariant that prunes the catalog never
skips a match.  The names must also agree on every catalog group of orders
2 to 24.

Each class is also counted by orbit and stabilizer, a route that shares no
step with the route's search: the normalized sections h: H -> G, |G|^(|H|-1)
of them, act on a class's factor sets, and a section fixes one exactly when
(g, x) -> (g h(x), x) is an automorphism of its butterfly, so count x
|Aut(B)| = |G|^(|H|-1).  It holds on the 19 abelian-kernel pairs of the grid.
On the 4 others phi ranges over homomorphisms only, so cocycles are missing
and the count falls short: those fail, marked strict, until their cocycles
are enumerated (ROADMAP item 1).
"""

from __future__ import annotations

import itertools
from functools import cache

import pytest

from helpers import GRID, GRID_BOUND, grid_groups, is_split, reference_identify_group

from butterflies.butterfly import butterfly_morphisms, isomorphic_butterflies
from butterflies.errors import BoundExceeded
from butterflies.extension import (
    FactorSet,
    aut_xmod,
    butterfly_from_extension,
    classify_extensions,
    enumerate_cocycles,
    factor_set_to_extension,
    identify_group,
    standard_catalog,
)
from butterflies.fingroup import all_homomorphisms, construct_group

GROUPS = grid_groups()


def reference_enumerate_cocycles(H, G, bound: int = 16) -> list[FactorSet]:
    """Backtracking over the center with each cocycle triple checked when
    its last f-value is assigned."""
    if H.order * G.order > bound:
        raise BoundExceeded("enumerate_cocycles", H.order * G.order, bound)
    A = aut_xmod(G)
    center = [g for g in range(G.order) if A.boundary.map[g] == 0]
    nH = H.order
    free = [(x, y) for x in range(1, nH) for y in range(1, nH)]
    slot = {p: i for i, p in enumerate(free)}

    def needed(x: int, y: int):
        return None if (x == 0 or y == 0) else slot[(x, y)]

    buckets: list[list[tuple[int, int, int]]] = [[] for _ in free]
    for a, b, c in itertools.product(range(1, nH), repeat=3):
        slots = {
            needed(b, c),
            needed(a, H.table[b][c]),
            needed(a, b),
            needed(H.table[a][b], c),
        }
        slots.discard(None)
        if slots:
            buckets[max(slots)].append((a, b, c))

    results: list[FactorSet] = []
    for phi_hom in all_homomorphisms(H, A.G0):
        phi = phi_hom.map
        act = [A.action.act[phi[x]] for x in range(nH)]
        fvals = [0] * len(free)

        def value(x: int, y: int) -> int:
            return 0 if (x == 0 or y == 0) else fvals[slot[(x, y)]]

        def triple_ok(a: int, b: int, c: int) -> bool:
            lhs = G.table[act[a][value(b, c)]][value(a, H.table[b][c])]
            rhs = G.table[value(a, b)][value(H.table[a][b], c)]
            return lhs == rhs

        def backtrack(k: int):
            if k == len(free):
                f = tuple(tuple(value(x, y) for y in range(nH)) for x in range(nH))
                results.append(FactorSet(H, G, tuple(phi), f))
                return
            for g in center:
                fvals[k] = g
                if all(triple_ok(*t) for t in buckets[k]):
                    backtrack(k + 1)
            fvals[k] = 0

        backtrack(0)
    return results


def reference_classify_extensions(cocycles) -> list[tuple]:
    """(factor set, count, split, extension group) per class, with every
    butterfly searched against every representative in order."""
    reps, data, counts = [], [], []
    for fs in cocycles:
        X = factor_set_to_extension(fs)
        B = butterfly_from_extension(X.iota, X.sigma)
        for k, rep in enumerate(reps):
            if isomorphic_butterflies(B, rep) is not None:
                counts[k] += 1
                break
        else:
            reps.append(B)
            data.append((B, fs))
            counts.append(1)
    return [
        (fs, counts[k], is_split(B), reference_identify_group(B.E))
        for k, (B, fs) in enumerate(data)
    ]


def reference_twisted_product(fs: FactorSet) -> list[list[int]]:
    """The table of the twisted product on G x H, (g, x) at g*|H| + x,
    filled cell by cell."""
    H, G = fs.H, fs.G
    ev = aut_xmod(G).action
    nH = H.order
    idx = lambda g, x: g * nH + x
    table = [[0] * (G.order * nH) for _ in range(G.order * nH)]
    for g1 in range(G.order):
        for x1 in range(nH):
            row = table[idx(g1, x1)]
            for g2 in range(G.order):
                twisted = G.table[g1][ev.act[fs.phi[x1]][g2]]
                for x2 in range(nH):
                    row[idx(g2, x2)] = idx(G.table[twisted][fs.f[x1][x2]], H.table[x1][x2])
    return table


def reference_rho(B) -> tuple[int, ...]:
    """The Aut-leg of the butterfly B of an extension, conjugation read
    through ``E.conj`` one element of G at a time."""
    G = B.iota.dom
    A = aut_xmod(G)
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    pos = {p: i for i, p in enumerate(A.action.act)}
    return tuple(
        pos[tuple(iota_inv[B.E.conj(e, B.iota.map[g])] for g in range(G.order))]
        for e in range(B.E.order)
    )


@cache
def reference_cocycles(pair) -> list[FactorSet]:
    return reference_enumerate_cocycles(GROUPS[pair[0]], GROUPS[pair[1]], GRID_BOUND.get(pair, 16))


@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_cocycles_equal_last_slot_search(pair):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    assert enumerate_cocycles(H, G, GRID_BOUND.get(pair, 16)) == reference_cocycles(pair)


@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_classes_equal_unbucketed_search(pair):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    got = [
        (c.factor_set, c.count, c.split, c.e_group)
        for c in classify_extensions(H, G, GRID_BOUND.get(pair, 16))
    ]
    assert got == reference_classify_extensions(reference_cocycles(pair))



@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_twisted_products_and_rho_equal_cell_by_cell(pair):
    for k, fs in enumerate(reference_cocycles(pair)):
        expected = tuple(map(tuple, reference_twisted_product(fs)))
        B = factor_set_to_extension(fs)
        assert B.E.table == expected
        assert butterfly_from_extension(B.iota, B.sigma).rho.map == reference_rho(B)
        if k < 3:  # the full group-axiom check accepts the table as built
            assert construct_group(B.E.table).table == expected


@pytest.mark.parametrize("order", range(2, 25))
def test_catalog_names_equal_linear_scan(order):
    for name, K in standard_catalog(order):
        assert identify_group(K) == reference_identify_group(K) == ("Q8" if name == "Dic2" else name)


# read off the kernel's table: aut_xmod at collection time would fill its
# equality-keyed cache with the grid's groups for every module that runs later
ABELIAN = [p for p in GRID if GROUPS[p[1]].is_abelian]
NON_ABELIAN = [p for p in GRID if p not in ABELIAN]


@pytest.mark.parametrize(
    "pair",
    [
        *ABELIAN,
        *(pytest.param(p, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")) for p in NON_ABELIAN),
    ],
    ids=[f"{h},{g}" for h, g in ABELIAN + NON_ABELIAN],
)
def test_count_times_automorphisms_is_the_number_of_sections(pair):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    for c in classify_extensions(H, G, GRID_BOUND.get(pair, 16)):
        assert c.count * len(butterfly_morphisms(c.butterfly, c.butterfly)) == G.order ** (H.order - 1)
