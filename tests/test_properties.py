"""Randomized structural invariants over subgroups of S4."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from butterflies.fingroup import (
    conjugation_action,
    kernel,
    quotient,
    subgroup_generated,
    symmetric_group,
)

S4 = symmetric_group(4)

generator_sets = st.lists(st.integers(min_value=0, max_value=23), min_size=0, max_size=3)


@settings(max_examples=40, deadline=None)
@given(generator_sets)
def test_generated_subgroup_satisfies_lagrange(gens):
    sub = subgroup_generated(S4, gens)
    assert 24 % sub.order == 0


@settings(max_examples=40, deadline=None)
@given(generator_sets)
def test_subgroup_round_trip(gens):
    sub = subgroup_generated(S4, gens)
    grp, incl = sub.as_group()
    assert incl.is_injective
    assert set(incl.map) == set(sub.elements)


@settings(max_examples=25, deadline=None)
@given(generator_sets)
def test_quotient_by_normal_closure(gens):
    sub = subgroup_generated(S4, gens)
    closure = subgroup_generated(S4, sorted({S4.conj(x, a) for x in range(24) for a in sub.elements}))
    Q, pr = quotient(S4, closure)
    assert pr.is_surjective
    assert kernel(pr).elements == closure.elements
    assert Q.order * closure.order == 24


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=23))
def test_conjugation_is_action(x):
    act = conjugation_action(S4)
    assert sorted(act.act[x]) == list(range(24))
    assert act.act[x][0] == 0
