"""The forward-checked cocycle enumerator and the invariant-bucketed
classification against the searches they replaced.

``reference_enumerate_cocycles`` checks each cocycle triple only when the
last of its f-values is assigned, and ``reference_classify_extensions``
searches every new butterfly against every representative found so far.
On every pair of the classification grid, with the groups relabeled as the
classify-grid benchmark relabels them, the cocycle lists must agree in
content and order, and the class lists in factor set, count, splitting and
extension group: bucketing never separates two cocycles that the
unbucketed search joins.
"""

from __future__ import annotations

import itertools
import random
from functools import cache

import pytest

from butterflies.butterfly import isomorphic_butterflies
from butterflies.errors import BoundExceeded
from butterflies.extension import (
    FactorSet,
    aut_xmod,
    butterfly_from_extension,
    classify_extensions,
    enumerate_cocycles,
    factor_set_to_extension,
    identify_group,
)
from butterflies.fingroup import (
    GroupAction,
    all_homomorphisms,
    construct_group,
    cyclic_group,
    dicyclic_group,
    klein_four,
    semidirect_product,
    symmetric_group,
)

GRID = [
    ("Z2", "Z2"), ("Z2", "Z3"), ("Z2", "Z4"), ("Z2", "V4"),
    ("Z3", "Z2"), ("Z3", "Z3"), ("Z3", "Z4"), ("Z3", "V4"),
    ("Z4", "Z2"), ("Z4", "Z3"), ("Z4", "Z4"), ("Z4", "V4"),
    ("V4", "Z2"), ("V4", "Z3"), ("V4", "Z4"), ("V4", "V4"),
    ("Z2", "Z8"), ("Z8", "Z2"), ("S3", "Z2"),
    ("Z2", "S3"), ("Z2", "D4"), ("Z2", "Q8"), ("Z3", "S3"),
]
BOUND = {("Z3", "S3"): 18}


def _grid_groups() -> dict:
    """The grid's groups with their non-identity elements permuted by one
    fixed draw, in the classify-grid benchmark's order."""
    Z4 = cyclic_group(4)
    named = {
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": Z4,
        "Z8": cyclic_group(8),
        "V4": klein_four(),
        "S3": symmetric_group(3),
        "D4": semidirect_product(
            GroupAction(cyclic_group(2), Z4, (tuple(range(4)), tuple((-a) % 4 for a in range(4))))
        )[0],
        "Q8": dicyclic_group(2),
    }
    rng = random.Random("classify-grid/relabel")
    out = {}
    for name, G in named.items():
        n = G.order
        perm = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[G.table[a][b]]
        out[name] = construct_group(table, name)
    return out


GROUPS = _grid_groups()


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
        datum = factor_set_to_extension(fs, validated=True)
        B = butterfly_from_extension(datum)
        for k, rep in enumerate(reps):
            if isomorphic_butterflies(B, rep) is not None:
                counts[k] += 1
                break
        else:
            reps.append(B)
            data.append((datum, fs))
            counts.append(1)
    return [
        (fs, counts[k], datum.is_split(), identify_group(datum.E))
        for k, (datum, fs) in enumerate(data)
    ]


@cache
def reference_cocycles(pair) -> list[FactorSet]:
    return reference_enumerate_cocycles(GROUPS[pair[0]], GROUPS[pair[1]], BOUND.get(pair, 16))


@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_cocycles_equal_last_slot_search(pair):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    assert enumerate_cocycles(H, G, BOUND.get(pair, 16)) == reference_cocycles(pair)


@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_classes_equal_unbucketed_search(pair):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    got = [
        (c.factor_set, c.count, c.split, c.e_group)
        for c in classify_extensions(H, G, BOUND.get(pair, 16))
    ]
    assert got == reference_classify_extensions(reference_cocycles(pair))

