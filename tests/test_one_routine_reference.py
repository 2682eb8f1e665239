"""One routine decides each structure, with the verdicts of the routines it replaced.

``construct_group`` only moves a later identity row to index 0 and leaves
every table check to ``FinGroup(...)``; ``validate_crossed_module`` decides
the action by ``fingroup._action_defect`` alone, with no per-row gate.  The
former ``construct_group``, with its own range and identity checks, and the
former ``validate_crossed_module``, which gated every action row as a
homomorphism before ``_action_defect`` ran, are kept below verbatim as
oracles, with the former gate ``xmod._check_ranges`` that the latter calls:
it returned the witnesses of the maps it failed, named a tuple witness
``"action row x"``, and reported each bad group once per report.

``construct_group`` must accept exactly the tables the oracle accepts, and
give the same table, relabeling, labels and name, on every group of
``standard_catalog(n)`` for n <= 12 with its elements rotated so that the
identity sits at each index, and on tables that are no groups: empty,
ragged, off range, bool, float or list entries, no identity, a left
identity only, and the order-5 loop with its identity at index 1.

``validate_crossed_module`` must give the oracle's ``ok`` verdict on every
crossed module of fixture sets (0, 8) and (1, 16) and on the crossed-module
edits of ``tests/test_validator_totality.py`` and a few more action edits,
and the oracle's findings wherever the action is one.
"""

from __future__ import annotations

import dataclasses

from test_validator_totality import edited_cases, end_edits

from butterflies.errors import NotAGroup
from butterflies.extension import standard_catalog
from butterflies.fingroup import FinGroup, GroupAction, _action_defect, _hom_defect, _maps_into, construct_group
from butterflies.laws import generate_fixtures
from butterflies.report import Finding, ValidationReport
from butterflies.xmod import CrossedModule, validate_crossed_module


def reference_construct_group(table, name="G", element_labels=None) -> FinGroup:
    """Validate a Cayley table, relocating the identity to index 0 if needed."""
    rows = [list(r) for r in table]
    n = len(rows)
    if n < 1:
        raise NotAGroup("table must have side >= 1")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if not _maps_into(row, n, n):
            x = next(x for x in row if type(x) is not int or not 0 <= x < n)
            raise NotAGroup(f"entry {x!r} in row {i} out of range")
    identity = None
    for e in range(n):
        if all(rows[e][a] == a and rows[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element")
    relabeling = None
    if identity != 0:
        # swap the identity into slot 0 by a transposition, its own inverse
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        rows = [[perm[rows[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
        if element_labels is not None:
            element_labels = [element_labels[perm[a]] for a in range(n)]
        relabeling = tuple(perm)
    group = FinGroup(rows, name, element_labels)
    group.relabeling = relabeling
    return group


def _check_ranges(report: ValidationReport, condition: str, maps) -> set:
    """The one gate of the validators on the tables and maps they read.
    Each group that the rows (witness, m, D, C) of `maps` join must have a
    group table: a check that reads one that has not may index off it, so
    each such group is reported once per report as ``not-a-group`` and every
    row's witness is returned.  Else report as `condition` each m that is
    not a map D -> C, and return their witnesses, so that the checks which
    index m can be skipped.  Each m that is such a map must also be a
    homomorphism D -> C (a leg, a boundary, an automorphism): one that is
    not is a ``not-hom`` finding, with the first defect pair (a, g) of
    m(a*g) != m(a)*m(g)."""

    def named(witness) -> str:
        return witness if isinstance(witness, str) else "%s row %d" % witness

    defects = {G: G._table_defect for row in maps for G in row[2:]}
    for G, defect in defects.items():
        if defect is not None and Finding("not-a-group", G.name, defect) not in report.findings:
            report.add("not-a-group", G.name, defect)
    if any(defects.values()):
        return {witness for witness, *_ in maps}
    bad = set()
    for witness, m, D, C in maps:
        if not _maps_into(m, D.order, C.order):
            report.add(condition, witness, f"{named(witness)} is not a map {D.name} -> {C.name}")
            bad.add(witness)
        elif (defect := _hom_defect(D, C, m)) is not None:
            report.add("not-hom", (witness, defect), f"{named(witness)} is not a homomorphism {D.name} -> {C.name}")
    return bad


def reference_validate_crossed_module(X: CrossedModule) -> ValidationReport:
    """Check that the action is one, reporting its first defect, and the
    precrossed and Peiffer conditions, reporting every violation."""
    report = ValidationReport(repr(X))
    bd, G, G0 = X.boundary.map, X.G, X.G0
    # both conditions index the boundary and the action
    bad = _check_ranges(report, "map-range", [("boundary", bd, G, G0)])
    if len(X.action.act) != G0.order:
        report.add("map-range", "action", f"action has {len(X.action.act)} rows, expected {G0.order}")
        bad.add("action")
    if bad | _check_ranges(report, "map-range", [(("action", x), row, G, G) for x, row in enumerate(X.action.act)]):
        return report
    if (defect := _action_defect(G0, G, X.action.act)) is not None:
        report.add("not-an-action", *defect)
    for x in range(G0.order):
        for g in range(G.order):
            if bd[X.act(x, g)] != G0.conj(x, bd[g]):
                report.add("precrossed", (x, g), "boundary of x|>g is not x*dg*x^-1")
    for g in range(G.order):
        for g2 in range(G.order):
            if X.act(bd[g], g2) != G.conj(g, g2):
                report.add("peiffer", (g, g2), "dg|>g' is not g*g'*g^-1")
    return report


def rotated(G: FinGroup, i: int):
    """G's table and labels with each element a moved to (a + i) mod n, so its identity to i."""
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[(a + i) % n][(b + i) % n] = (ab + i) % n
    return table, [f"{G.name}:{(a - i) % n}" for a in range(n)]


LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
SWAP01 = (1, 0, 2, 3, 4)
NO_GROUPS = {
    "empty": [],
    "ragged": [[0, 1], [1]],
    "off-range": [[0, 1], [1, 2]],
    "off-range, identity at 1": [[1, 0, 3], [0, 1, 2], [2, 0, 1]],
    "negative": [[0, 1], [1, -1]],
    "bool": [[0, True], [True, 0]],
    "bool, identity at 1": [[True, 0], [0, 1]],
    "float": [[0, 1.0], [1.0, 0]],
    "list": [[0, [1]], [[1], 0]],
    "left shift, no identity": [[1, 0, 2], [2, 1, 0], [0, 2, 1]],
    "left identity at 1 only": [[1, 2, 0], [0, 1, 2], [2, 0, 1]],
    "left identity at 0 only": [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
    "loop, identity at 1": [[SWAP01[LOOP[SWAP01[a]][SWAP01[b]]] for b in range(5)] for a in range(5)],
}


def group_cases():
    for n in range(1, 13):
        for name, G in standard_catalog(n):
            for i in range(n):
                table, labels = rotated(G, i)
                yield f"{name} identity at {i}", table, name, labels
    for case, table in NO_GROUPS.items():
        yield case, table, case, None


def built(build, table, name, labels):
    try:
        G = build(table, name, labels)
    except NotAGroup:
        return "NotAGroup"
    return G.table, G.relabeling, G.element_labels, G.name


def test_construct_group_keeps_every_verdict_and_group():
    accepted = refused = 0
    for case, table, name, labels in group_cases():
        expected = built(reference_construct_group, table, name, labels)
        assert built(construct_group, table, name, labels) == expected, case
        refused += expected == "NotAGroup"
        accepted += expected != "NotAGroup"
    assert refused == len(NO_GROUPS)  # every case of NO_GROUPS is a refusal
    assert accepted == sum(n * len(standard_catalog(n)) for n in range(1, 13))  # each catalog group at every index


def action_edits(X: CrossedModule):
    """X with its action edited: a row's images of 1 and 2 swapped, a row off range, a row dropped."""
    act = [list(row) for row in X.action.act]
    for x in range(len(act)):
        if X.G.order > 2:
            rows = [list(row) for row in act]
            rows[x][1], rows[x][2] = rows[x][2], rows[x][1]
            yield rows
        rows = [list(row) for row in act]
        rows[x][-1] = X.G.order
        yield rows
    yield act[:-1]


def xmod_cases():
    for seed, bound in ((0, 8), (1, 16)):
        for X in generate_fixtures(seed, bound).crossed_modules:
            yield X
            if seed == 0:
                yield from (Y for _, Y, _ in edited_cases(X))
                yield from (Y for _, Y in end_edits(X))
                for rows in action_edits(X):
                    action = GroupAction._trusted(X.G0, X.G, tuple(map(tuple, rows)))
                    yield dataclasses.replace(X, action=action)


def action_defect(X: CrossedModule):
    """The action's first defect, or None; None also on a table that is no
    group table, where both validators return at the boundary gate."""
    if X.G._table_defect or X.G0._table_defect:
        return None
    return _action_defect(X.G0, X.G, X.action.act)


def findings(report: ValidationReport) -> list:
    return [(f.condition, f.witness, f.detail) for f in report.findings]


def test_validate_crossed_module_keeps_every_verdict():
    verdicts = set()
    for X in xmod_cases():
        expected, report = reference_validate_crossed_module(X), validate_crossed_module(X)
        assert report.ok == expected.ok, X
        defect = action_defect(X)
        if defect is None:
            assert findings(report) == findings(expected), X
        else:  # the action's first defect alone
            assert findings(report) == [("not-an-action", *defect)], X
        verdicts.add((report.ok, defect is None))
    assert verdicts == {(True, True), (False, True), (False, False)}
