"""The checked constructors refuse entries that are not ints.

A bool or a float may equal an int (``True == 1``, ``1.0 == 1``), so a range
or permutation test alone lets it through, and an ``int()`` conversion
truncates 1.9 to 1.  The JSON loader refuses both kinds; the Python
constructors refuse them too, each with its documented error, through the
shared checks ``_check_group_table``, ``_maps_into`` and ``_action_defect``.
``Subgroup`` checks its elements with ``_maps_into``, so an element off the
group is refused too, where the closure once indexed off the table.
``_maps_into`` is also the validators' gate, so a trusted map holding a float
is a ``map-range`` finding, not an index error.
"""

from __future__ import annotations

import pytest

from helpers import Z2, Z3

from butterflies.errors import NotAGroup
from butterflies.extension import conjugation_xmod
from butterflies.fingroup import FinGroup, GroupAction, GroupHom, Subgroup, construct_group
from butterflies.weakmap import MonoidalFunctor
from butterflies.xmod import XModMorphism, XModTwoCell, denormalize, identity_morphism, validate_xmod_morphism

NOT_INT_TABLES = ([[0, 1.9], [1.9, 0]], [[0, True], [True, 0]], [[0, 1.0], [1.0, 0]], [[0, 1], [1, False]])


@pytest.mark.parametrize("table", NOT_INT_TABLES, ids=repr)
def test_group_tables_refuse_entries_that_are_not_ints(table):
    with pytest.raises(NotAGroup):
        FinGroup(table)
    with pytest.raises(NotAGroup):
        construct_group(table)


@pytest.mark.parametrize("m", ((0, 1.7), (0, True), (0.0, 1)), ids=repr)
def test_homomorphisms_refuse_entries_that_are_not_ints(m):
    with pytest.raises(ValueError):
        GroupHom(Z2, Z2, m)


@pytest.mark.parametrize("elements", ((0, 1.2), (0, True), (0.0,), (0, 2)), ids=repr)
def test_subgroups_refuse_elements_that_are_not_ints_of_the_group(elements):
    # (0, 2): an element off Z2, which the closure read off the table
    with pytest.raises(ValueError, match="elements of the ambient group"):
        Subgroup(Z2, elements)


@pytest.mark.parametrize("act", (((0.0, 1, 2), (0, 2, 1)), ((0, 1, 2), (0, 2.0, 1)), ((0, 1, 2), (0, 2, True))))
def test_actions_refuse_entries_that_are_not_ints(act):
    with pytest.raises(ValueError, match="is not a permutation of the target"):
        GroupAction(Z2, Z3, act)


def test_two_cells_and_monoidal_functors_refuse_entries_that_are_not_ints():
    P = identity_morphism(conjugation_xmod(Z2))
    with pytest.raises(ValueError):
        XModTwoCell(P, P, (0, 3.0))
    T = denormalize(conjugation_xmod(Z2))
    with pytest.raises(ValueError):
        MonoidalFunctor(T, T, (0, 1.0), tuple(range(4)), ((0, 0), (0, 0)))


def test_the_validators_gate_reports_a_float_entry():
    P = identity_morphism(conjugation_xmod(Z2))
    broken = XModMorphism(P.dom, P.cod, GroupHom._trusted(Z2, Z2, (0, 1.0)), P.p0)
    report = validate_xmod_morphism(broken)
    assert [(f.condition, f.witness) for f in report.findings] == [("map-range", "p")]


def test_int_entries_are_kept_as_given():
    assert GroupHom(Z2, Z2, [0, 1]).map == (0, 1)
    assert Subgroup(Z2, [1, 0, 1]).elements == (0, 1)
    assert FinGroup([[0, 1], [1, 0]]).table == ((0, 1), (1, 0))
