"""The coset step of the butterfly route against the per-cocycle search.

``per_cocycle_classify`` is the route's loop without the coset step: each
cocycle is bucketed by its butterfly invariant and searched against the
representatives of its bucket in order, and a cocycle that no search places
starts a class.  For an abelian kernel G the classes over one phi are the
cosets of B^2_phi in Z^2_phi, so every class of one phi holds |B^2_phi|
cocycles and they hold all |Z^2_phi| of that phi between them.  The class
lists of ``classify_extensions`` must equal the per-cocycle search's in
factor set, count, splitting and extension group.  The coset step serves
non-abelian kernels too, with K inside B^2_phi(H, Z(G)): on the grid's
non-abelian pairs that group is trivial, so the route makes the same witness
searches, and on Z4 by D4, Z4 by Q8 and V4 by D4 at bound 32 it makes fewer.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from helpers import GRID, GRID_BOUND, grid_groups, is_split, named_groups

from butterflies import extension
from butterflies.butterfly import _witness_map
from butterflies.extension import (
    _aut_rows,
    _morphism_invariant,
    _twisted_rho,
    aut_xmod,
    classify_extensions,
    enumerate_cocycles,
    factor_set_to_extension,
    identify_group,
)
from butterflies.fingroup import _twisted_columns, _twisted_index

GROUPS, NAMED = grid_groups(), named_groups()
# read off the kernel itself: calling aut_xmod at collection time would fill its
# equality-keyed cache with the grid's groups, under their grid names, for every
# module that runs later
ABELIAN = [p for p in GRID if GROUPS[p[1]].is_abelian]
NON_ABELIAN = [p for p in GRID if p not in ABELIAN]
# the pairs past the default bound whose classes the coset step places
BOUND_32 = [("Z4", "Z8"), ("V4", "Z8")]
# non-abelian kernels past the default bound, with the tables of their
# constructors: (H, G, the per-cocycle search's witness searches, the route's)
NON_ABELIAN_32 = [("Z4", "D4", 60, 52), ("Z4", "Q8", 120, 104), ("V4", "D4", 416, 388)]


def per_cocycle_classify(H, G, bound: int) -> tuple[list[tuple], int]:
    """(factor set, count, split, extension group) per class, with every
    cocycle searched against the representatives of its invariant bucket,
    and the number of witness searches made."""
    A = aut_xmod(G)
    _, sigma, pair = _twisted_index(G.order, H.order)
    iota = pair(range(G.order), (0,) * G.order)
    reps, data, counts, buckets, searches = [], [], [], {}, 0
    for fs in enumerate_cocycles(H, G, bound):
        rho = _twisted_rho(fs, A)
        legs = ((0,), iota, sigma, rho)
        bucket = buckets.setdefault(_morphism_invariant(fs, rho), [])
        source = _twisted_columns(G, H, _aut_rows(fs), fs.f) if bucket else None
        for k in bucket:
            searches += 1
            if _witness_map(source, legs, reps[k]) is not None:
                counts[k] += 1
                break
        else:
            bucket.append(len(reps))
            reps.append(factor_set_to_extension(fs))
            data.append(fs)
            counts.append(1)
    classes = [(fs, n, is_split(B), identify_group(B.E)) for B, fs, n in zip(reps, data, counts)]
    return classes, searches


def classes(H, G, bound: int) -> list[tuple]:
    return [(c.factor_set, c.count, c.split, c.e_group) for c in classify_extensions(H, G, bound)]


def counted_classes(H, G, bound: int, monkeypatch) -> tuple[list[tuple], int]:
    """``classes(H, G, bound)`` and the witness searches the route made."""
    calls = []
    original = extension._witness_map

    def counting(source, legs, B2):
        calls.append(1)
        return original(source, legs, B2)

    monkeypatch.setattr(extension, "_witness_map", counting)
    return classes(H, G, bound), len(calls)


@pytest.mark.parametrize("pair", BOUND_32, ids=[f"{h},{g}" for h, g in BOUND_32])
def test_classes_equal_per_cocycle_search_at_bound_32(pair):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    assert classes(H, G, 32) == per_cocycle_classify(H, G, 32)[0]


@pytest.mark.parametrize("pair", NON_ABELIAN, ids=[f"{h},{g}" for h, g in NON_ABELIAN])
def test_non_abelian_kernels_search_every_cocycle(pair, monkeypatch):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    bound = GRID_BOUND.get(pair, 16)
    expected, searches = per_cocycle_classify(H, G, bound)
    assert counted_classes(H, G, bound, monkeypatch) == (expected, searches)
    assert searches > 0


@pytest.mark.parametrize(
    "h, g, searches, calls", NON_ABELIAN_32, ids=[f"{h},{g},32" for h, g, _, _ in NON_ABELIAN_32]
)
def test_non_abelian_kernels_classify_by_coset_at_bound_32(h, g, searches, calls, monkeypatch):
    # a witness within one phi places a coset of B^2_phi(H, Z(G)), a nontrivial group here
    H, G = NAMED[h], NAMED[g]
    expected, made = per_cocycle_classify(H, G, 32)
    assert made == searches
    assert counted_classes(H, G, 32, monkeypatch) == (expected, calls)
    assert calls < searches


@pytest.mark.parametrize(
    "pair, bound",
    [(p, 16) for p in ABELIAN] + [(p, 32) for p in BOUND_32],
    ids=[f"{h},{g}" for h, g in ABELIAN] + [f"{h},{g},32" for h, g in BOUND_32],
)
def test_classes_over_one_phi_are_cosets_of_one_group(pair, bound):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    cocycles = Counter(fs.phi for fs in enumerate_cocycles(H, G, bound))
    counts = defaultdict(list)
    for c in classify_extensions(H, G, bound):
        counts[c.factor_set.phi].append(c.count)
    assert counts.keys() == cocycles.keys()
    for phi, per_class in counts.items():
        assert len(set(per_class)) == 1  # |B^2_phi|
        assert per_class[0] * len(per_class) == cocycles[phi]  # |Z^2_phi|
