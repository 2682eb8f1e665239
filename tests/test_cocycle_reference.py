"""The cocycle enumerator and the section twist against brute force.

``enumerate_cocycles`` draws f-values from the center of G and checks cocycle
triples as it goes; here every normalized f on every homomorphism
H -> Aut(G) is filtered by the full Schreier check ``validate_factor_set``,
which tests the first condition on permutations, and the two lists must agree
in content and order.  ``backtracked_cocycles``, the forward-checked search
over the whole tree that the enumerator replaced, must give the same list on
every pair of the classification grid and on two pairs at bound 32, and the
group law that lets the enumerator multiply cocycles in place of searching
them is checked on the grid's abelian kernels.  The phi of
``twist_factor_set``, a product in Aut(G), is compared with the conjugated
permutation it stands for.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest

from helpers import GRID, GRID_BOUND, S3, V4, Z2, Z3, Z4, grid_groups

from butterflies.errors import BoundExceeded
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
    cyclic_group,
    dicyclic_group,
    semidirect_product,
)

D4 = semidirect_product(GroupAction(Z2, Z4, (tuple(range(4)), tuple((-a) % 4 for a in range(4)))))[0]
Q8 = dicyclic_group(2)
GROUPS = grid_groups()

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


def _assignments(k: int, fv: list, cand: list, checks: list, narrow) -> Iterator[None]:
    """Yield once per assignment of slots k.. of fv that passes narrowing.
    A module-level generator, so the search holds no reference cycle."""
    if k == len(cand):
        yield
        return
    for g in cand[k]:
        fv[k] = g
        trail: list = []
        if narrow(checks[k], trail):
            yield from _assignments(k + 1, fv, cand, checks, narrow)
        for s, old in reversed(trail):
            cand[s] = old


def backtracked_cocycles(H, G, bound: int = 16) -> list[FactorSet]:
    """All normalized pairs (phi, f) satisfying the Schreier conditions,
    searched over the whole tree.

    Backtracking assigns the non-identity pairs of f row-major, each over the
    center in ascending order, with forward checking: a cocycle triple is
    checked as soon as all but the last of its f-values are assigned, and it
    narrows that last value's candidates to those that satisfy it.  Narrowing
    is undone on backtrack, and a branch is pruned as soon as some candidate
    list is empty.
    """
    if H.order * G.order > bound:
        raise BoundExceeded("enumerate_cocycles", H.order * G.order, bound)
    A = aut_xmod(G)
    center = [g for g in range(G.order) if A.boundary.map[g] == 0]
    nH, t, ht = H.order, G.table, H.table
    n = (nH - 1) ** 2
    # slot of f(x, y) in row-major order; the identity row and column read
    # slot n, which stays 0
    slot = [[n if x == 0 or y == 0 else (x - 1) * (nH - 1) + y - 1 for y in range(nH)] for x in range(nH)]

    # each cocycle triple checks f(b,c), f(a,bc), f(a,b), f(ab,c); it is
    # filed under its second-last slot and narrows its last slot, and a
    # triple with one slot only narrows it before the search starts
    initial: list[tuple[int, ...]] = []
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for a, b, c in itertools.product(range(1, nH), repeat=3):
        pos = (slot[b][c], slot[a][ht[b][c]], slot[a][b], slot[ht[a][b]][c])
        slots = sorted(set(pos) - {n})
        (checks[slots[-2]] if len(slots) > 1 else initial).append((a, *pos, slots[-1]))

    results: list[FactorSet] = []
    for phi_hom in all_homomorphisms(H, A.G0):
        phi = phi_hom.map
        act = [A.action.act[phi[x]] for x in range(nH)]
        fv = [0] * (n + 1)
        cand = [center] * n

        def narrow(triples, trail) -> bool:
            for a, s1, s2, s3, s4, last in triples:
                row = act[a]
                keep = []
                for v in cand[last]:
                    fv[last] = v
                    if t[row[fv[s1]]][fv[s2]] == t[fv[s3]][fv[s4]]:
                        keep.append(v)
                if len(keep) < len(cand[last]):
                    trail.append((last, cand[last]))
                    cand[last] = keep
                    if not keep:
                        return False
            return True

        if narrow(initial, []):
            for _ in _assignments(0, fv, cand, checks, narrow):
                results.append(FactorSet(H, G, tuple(phi), tuple(tuple(fv[s] for s in row) for row in slot)))
    return results


# the grid's pairs, with the groups relabeled as the classify-grid benchmark
# relabels them, and two pairs past the default bound
BACKTRACK_CASES = {
    **{f"{h},{g}": (GROUPS[h], GROUPS[g], GRID_BOUND.get((h, g), 16)) for h, g in GRID},
    "Z4,Z8@32": (Z4, cyclic_group(8), 32),
    "V4,Z8@32": (V4, cyclic_group(8), 32),
}


@pytest.mark.parametrize("case", list(BACKTRACK_CASES))
def test_enumeration_equals_full_backtrack(case):
    H, G, bound = BACKTRACK_CASES[case]
    assert enumerate_cocycles(H, G, bound) == backtracked_cocycles(H, G, bound)


ABELIAN_KERNEL = [(h, g) for h, g in GRID if GROUPS[g].is_abelian]


@pytest.mark.parametrize("pair", ABELIAN_KERNEL, ids=[f"{h},{g}" for h, g in ABELIAN_KERNEL])
def test_cocycles_of_each_phi_form_a_group(pair):
    # the enumerator lists products of searched cocycles unchecked: that
    # relies on the identity, pointwise products and pointwise inverses of
    # the cocycles of one phi being cocycles of that phi
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    by_phi: dict = {}
    for fs in enumerate_cocycles(H, G):
        by_phi.setdefault(fs.phi, set()).add(fs.f)
    t, inv = G.table, G.inverse
    for fs in by_phi.values():
        assert tuple((0,) * H.order for _ in range(H.order)) in fs
        for f in fs:
            assert tuple(tuple(inv[v] for v in row) for row in f) in fs
            for g in fs:
                assert tuple(tuple(t[a][b] for a, b in zip(r, s)) for r, s in zip(f, g)) in fs


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
