"""The validators report a group whose table is no group table, and return.

A trusted construction (``FinGroup._trusted``) does not check its table, so
an in-process object can reach a validator with one that is no group table.
The one gate of the validators, ``xmod._check_ranges``, reads the table
check of each group that its rows join before it reads any map.  The probe
takes the butterflies of fixture set (0, 8) with |E| > 2, and its crossed
modules, and edits row 1 of E's (or G's, or G0's) table in three ways: it
swaps the entries of columns 1 and 2, puts an entry off range, or drops an
entry.  Each row keeps its 0, the identity, so the trusted construction
still finds each inverse.  Before the validators checked the tables, the
swap made 18 of the 23 butterfly validations loop forever (the walk of an
element's powers never came back to 1), the other two edits made 21 of their
46 raise ``IndexError``, and 15 of those 46 reported the butterfly valid; of
the 33 crossed-module cases 3 hung, 16 raised and 12 passed.  Now each is
one ``not-a-group`` finding, and the checks that would read the table are
skipped.  ``test_validator_totality`` sweeps the same edits over all nine
validators.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest

from butterflies.butterfly import Butterfly, validate_butterfly
from butterflies.errors import NotAGroup
from butterflies.fingroup import FinGroup, GroupHom, _columns_record
from butterflies.laws import generate_fixtures
from butterflies.xmod import validate_crossed_module


def swapped(t):
    t[1][1], t[1][2] = t[1][2], t[1][1]


def off_range(t):
    t[1][max(j for j, x in enumerate(t[1]) if x)] = len(t)


def short_row(t):
    del t[1][max(j for j, x in enumerate(t[1]) if x)]


EDITS = {"swapped": swapped, "off-range": off_range, "short-row": short_row}


def edited(G: FinGroup, edit) -> FinGroup:
    table = [list(row) for row in G.table]
    edit(table)
    return FinGroup._trusted(table, G.name + "!edited")


def with_middle_group(B: Butterfly, E: FinGroup) -> Butterfly:
    return Butterfly._trusted(
        B.dom,
        B.cod,
        E,
        GroupHom._trusted(B.dom.G, E, B.kappa.map),
        GroupHom._trusted(B.cod.G, E, B.iota.map),
        GroupHom._trusted(E, B.dom.G0, B.sigma.map),
        GroupHom._trusted(E, B.cod.G0, B.rho.map),
    )


@lru_cache(maxsize=1)
def probe_set():
    return generate_fixtures(0, 8)


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_middle_group_that_is_no_group_is_a_finding(edit):
    cases = [B for B in probe_set().butterflies if B.E.order > 2]
    assert len(cases) == 23
    for B in cases:
        E = edited(B.E, EDITS[edit])
        report = validate_butterfly(with_middle_group(B, E))
        assert [(f.condition, f.witness) for f in report.findings] == [("not-a-group", E.name)]


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("field", ("G", "G0"))
def test_crossed_module_group_that_is_no_group_is_a_finding(edit, field):
    cases = [X for X in probe_set().crossed_modules if getattr(X, field).order > 2]
    assert cases
    for X in cases:
        broken = edited(getattr(X, field), EDITS[edit])
        report = validate_crossed_module(dataclasses.replace(X, **{field: broken}))
        assert [(f.condition, f.witness) for f in report.findings] == [("not-a-group", broken.name)]


def test_order_walks_stop_at_the_order():
    # Z3 with row 1's entries 1 and 2 swapped: column 2, x -> x*2, is (2, 2, 1),
    # and from 2 the walk of powers goes 1, 2, 1, ... and never reaches 0
    G = FinGroup._trusted([[0, 1, 2], [1, 0, 2], [2, 0, 1]], "broken")
    with pytest.raises(NotAGroup):
        G.element_orders
    with pytest.raises(NotAGroup):
        _columns_record(3, (2,), [[2, 2, 1]])
