"""The factor-set oracle against the full loop it replaced.

``reference_factor_set_oracle`` applies every normalized section change
h: H -> G, all |G|^(|H|-1) of them, to each class representative and looks
every twist up among the enumerated cocycles.  The oracle lists each orbit
as one twist per transversal element of the center times the coboundaries
of the center instead.  On every pair of the classification grid, with the
groups relabeled as the classify-grid benchmark relabels them, and on two
abelian pairs past the default bound, both must give the same classes in
the same order, with the same first member and the same member set; on the
grid's non-abelian kernels both must raise the same error.  The factorization
itself must list every twist on non-abelian kernels too, cocycle by cocycle,
each phi's coboundaries, closed from the twists by generators of the center,
must be every twist of the trivial f by a central z, and the oracle's twist
counts are pinned.
"""

from __future__ import annotations

import itertools

import pytest

from helpers import GRID, GRID_BOUND, grid_groups, named_groups

from butterflies import extension
from butterflies.errors import TwistLeavesCocycles
from butterflies.extension import (
    FactorSet,
    _orbit_cosets,
    _pointwise,
    aut_xmod,
    enumerate_cocycles,
    factor_set_oracle,
    factor_set_to_extension,
    twist_factor_set,
)
from butterflies.fingroup import FinGroup, _generators

GROUPS, NAMED = grid_groups(), named_groups()
# abelian kernels past the default bound
BOUND_32 = [("V4", "Z8"), ("Z4", "Z8")]
# non-abelian kernels: the twists of their cocycles leave the enumerated set
NON_ABELIAN = [("Z2", "D4"), ("Z2", "Q8"), ("Z2", "S3"), ("Z3", "S3")]


def reference_factor_set_oracle(H, G, bound: int = 16):
    """Orbits under every section change h, members in first-hit order over h."""
    cocycles = enumerate_cocycles(H, G, bound)
    A = aut_xmod(G)
    index = {(fs.phi, fs.f): i for i, fs in enumerate(cocycles)}
    assigned = [-1] * len(cocycles)
    classes = []
    h_candidates = list(itertools.product(range(G.order), repeat=H.order - 1))
    for i, fs in enumerate(cocycles):
        if assigned[i] != -1:
            continue
        label = len(classes)
        members = []
        for tail in h_candidates:
            h = (0,) + tail
            tw = twist_factor_set(fs, h, A)
            j = index.get((tw.phi, tw.f))
            if j is None:
                raise TwistLeavesCocycles(f"section change h={h} leaves the enumerated cocycles")
            if assigned[j] == -1:
                assigned[j] = label
                members.append(cocycles[j])
        classes.append(members)
        FinGroup(factor_set_to_extension(fs).E.table)
    return classes


def shape(classes):
    """Per class, its first member and its member set."""
    return [(members[0], frozenset((fs.phi, fs.f) for fs in members)) for members in classes]


def outcome(oracle, H, G, bound):
    try:
        return oracle(H, G, bound)
    except TwistLeavesCocycles as exc:
        return type(exc)


CASES = [(p, GRID_BOUND.get(p, 16)) for p in GRID] + [(p, 32) for p in BOUND_32]


@pytest.mark.parametrize("pair, bound", CASES, ids=[f"{h},{g},{b}" for (h, g), b in CASES])
def test_classes_equal_the_full_loop(pair, bound):
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    expected = outcome(reference_factor_set_oracle, H, G, bound)
    got = outcome(factor_set_oracle, H, G, bound)
    assert (expected is TwistLeavesCocycles) == (pair in NON_ABELIAN)
    if expected is TwistLeavesCocycles:
        assert got is TwistLeavesCocycles
        return
    assert shape(got) == shape(expected)
    # members in enumeration order, where the full loop listed them in first-hit order over h
    position = {(fs.phi, fs.f): i for i, fs in enumerate(enumerate_cocycles(H, G, bound))}
    for members in got:
        at = [position[fs.phi, fs.f] for fs in members]
        assert at == sorted(at)


@pytest.mark.parametrize("pair", NON_ABELIAN, ids=[f"{h},{g}" for h, g in NON_ABELIAN])
def test_transversal_times_coboundaries_is_every_twist(pair):
    # no index lookup: the twists of a non-abelian kernel's cocycles leave the enumerated set
    H, G = NAMED[pair[0]], NAMED[pair[1]]
    A = aut_xmod(G)
    cosets = _orbit_cosets(G, A)
    for fs in enumerate_cocycles(H, G, GRID_BOUND.get(pair, 16)):
        every = set()
        for tail in itertools.product(range(G.order), repeat=H.order - 1):
            tw = twist_factor_set(fs, (0, *tail), A)
            every.add((tw.phi, sum(tw.f, ())))
        listed = set()
        for h, phi, f, coboundaries in cosets(fs):
            for dz, z in coboundaries.items():
                member = (phi, _pointwise(G.table, f, dz))
                tw = twist_factor_set(fs, _pointwise(G.table, h, z), A)
                assert (tw.phi, sum(tw.f, ())) == member  # the h z that an error message names
                listed.add(member)
        assert listed == every


@pytest.mark.parametrize("pair, bound", CASES, ids=[f"{h},{g},{b}" for (h, g), b in CASES])
def test_coboundaries_closed_from_generators_are_every_central_twist(pair, bound):
    # the full loop twists the trivial f by every central z; the lister twists it
    # by the z that are a generator of Z(G) at one x, then closes under products
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    A = aut_xmod(G)
    center = [g for g in range(G.order) if A.boundary.map[g] == 0]
    cosets = _orbit_cosets(G, A)
    # one cocycle of each phi: the lister makes B once per phi
    for phi, fs in {fs.phi: fs for fs in enumerate_cocycles(H, G, bound)}.items():
        trivial = FactorSet(H, G, phi, ((0,) * H.order,) * H.order)
        every = {
            sum(twist_factor_set(trivial, (0, *tail), A).f, ())
            for tail in itertools.product(center, repeat=H.order - 1)
        }
        coboundaries = next(cosets(fs))[3]
        assert set(coboundaries) == every
        for dz, z in coboundaries.items():
            assert z[0] == 0 and set(z) <= set(center)
            assert sum(twist_factor_set(trivial, z, A).f, ()) == dz


@pytest.mark.parametrize("pair, twists", [(("V4", "V4"), 142), (("V4", "Z4"), 44)], ids=["V4,V4", "V4,Z4"])
def test_one_twist_per_class_and_per_coboundary(pair, twists, monkeypatch):
    # abelian G: the transversal is {1}, so one twist per class, plus one per x != 1
    # and generator of Z(G) for each phi's coboundaries; the full loop makes
    # |G|^(|H|-1) per class
    H, G = GROUPS[pair[0]], GROUPS[pair[1]]
    expected = shape(reference_factor_set_oracle(H, G))
    calls = []
    original = extension.twist_factor_set

    def counting(fs, h, A):
        calls.append(h)
        return original(fs, h, A)

    monkeypatch.setattr(extension, "twist_factor_set", counting)
    assert shape(factor_set_oracle(H, G)) == expected
    phis = {members[0].phi for members in expected}
    assert len(calls) == twists == len(expected) + len(phis) * (H.order - 1) * len(_generators(G))
