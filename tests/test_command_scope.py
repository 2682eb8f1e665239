"""Each CLI command is a run scope: it loads, checks and validates each
distinct record of its inputs once, and its memo dies with it.

Inside ``fingroup._run_memo()`` the loader builds one object per distinct
record (a group by name, table and labels; a map, an action or a record
over the objects of its fields), so the identity butterfly's ``dom`` is its
``cod`` again, and the CLI validates and witness-searches each distinct
operand once.  A crossed module's action keeps the verdict of its checked
constructor, which ``validate_crossed_module`` reads when the action acts by
the crossed module's own ``G0`` on its own ``G``, and recomputes otherwise.
A map keeps the verdict of its constructor too, which the validators' gate
reads by the same rule, so each distinct map is decided once per command.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from helpers import S3, Z3, invalid_butterfly_json

from butterflies import butterfly, cli, fingroup, jsonio, xmod
from butterflies.butterfly import Butterfly, validate_butterfly
from butterflies.extension import aut_xmod, conjugation_xmod, standard_catalog
from butterflies.fingroup import FinGroup, _action_defect, _hom_defect, _maps_into, _run_memo
from butterflies.laws import generate_fixtures
from butterflies.report import ValidationReport
from butterflies.xmod import CrossedModule, _check_ranges, validate_crossed_module


def run(ws, capsys, *argv):
    """Exit code and stdout of one in-process command."""
    code = cli.main(["--workspace", str(ws), *map(str, argv)])
    return code, capsys.readouterr().out


def counted(monkeypatch, module, name, calls: Counter, key=lambda *args: None):
    """Wrap ``module.name`` to count its calls in `calls` by ``key(*args)``."""
    f = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return f(*args)

    monkeypatch.setattr(module, name, wrapper)


def hom_checks(monkeypatch) -> Counter:
    """Calls of ``_hom_defect``, through either module that reads it, by
    (domain object, codomain object, map); the groups are kept alive, so
    that no id in a key is reused."""
    calls, groups = Counter(), []

    def key(G, H, m):
        groups.append((G, H))
        return id(G), id(H), m

    for module in (fingroup, xmod):
        counted(monkeypatch, module, "_hom_defect", calls, key=key)
    return calls


@pytest.fixture()
def identity_ref(tmp_path, capsys):
    """The workspace and ref of A(S3)'s stored identity butterfly."""
    path = tmp_path / "aut_s3.json"
    path.write_text(json.dumps(jsonio.to_jsonable(aut_xmod(S3))))
    ws = tmp_path / "store"
    code, out = run(ws, capsys, "--json", "identity", path)
    assert code == 0
    return ws, json.loads(out)["ref"]


def test_compose_of_one_operand_loads_checks_and_searches_once(identity_ref, capsys, monkeypatch):
    ws, ref = identity_ref
    tables, actions, validated, searches = Counter(), Counter(), Counter(), Counter()
    counted(monkeypatch, fingroup, "_check_group_table", tables, key=id)
    counted(monkeypatch, fingroup, "_action_defect", actions, key=lambda actor, target, act: act)
    counted(monkeypatch, cli, "isomorphic_butterflies", searches)
    monkeypatch.setitem(cli._VALIDATORS, Butterfly, lambda B: validated.update([id(B)]) or validate_butterfly(B))
    code, out = run(ws, capsys, "--json", "compose", ref, ref, "--witness", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["ok"]
    assert payload["witness_first"] == payload["witness_second"]
    # the stored record's G, G0 and E, each checked once on load, then the composite's middle group
    assert len(tables) == 4 and set(tables.values()) == {1}
    assert list(actions.values()) == [1]  # the one action, checked by its constructor alone
    assert list(validated.values()) == [1]  # one operand, validated once
    assert sum(searches.values()) == 1


@pytest.mark.parametrize("command", ["compose", "validate"])
def test_each_map_is_decided_once_per_command(identity_ref, tmp_path, capsys, monkeypatch, command):
    ws, ref = identity_ref
    code, stored = run(ws, capsys, "store", "get", ref)
    assert code == 0
    path = tmp_path / "identity.json"
    path.write_text(stored)
    argv = ("compose", ref, ref, "--witness", "--check") if command == "compose" else ("validate", path)
    calls = hom_checks(monkeypatch)
    assert run(ws, capsys, *argv)[0] == 0
    # the loader's constructor decides each map, and the gate reads its verdict
    assert calls and set(calls.values()) == {1}


def test_identity_butterfly_reloads_with_one_end(identity_ref):
    ws, ref = identity_ref
    with _run_memo():
        B = cli._load_object(ref, cli.Workspace(ws))
        assert B.dom is B.cod
        assert cli._load_object(ref, cli.Workspace(ws)) is B


def renamed_and_relabeled():
    """C(S3)'s JSON, whose G and G0 are one record, and two copies whose G0
    has another name or other labels."""
    data = jsonio.to_jsonable(conjugation_xmod(S3))
    assert data["G"] == data["G0"]
    renamed = {**data, "G0": {**data["G0"], "name": "T"}}
    relabeled = {**data, "G0": {**data["G0"], "labels": [f"t{a}" for a in range(6)]}}
    return data, renamed, relabeled


def test_records_that_differ_in_name_or_labels_load_apart():
    same, renamed, relabeled = renamed_and_relabeled()
    with _run_memo():
        X = jsonio.from_jsonable(same)
        assert X.G is X.G0
        Y = jsonio.from_jsonable(renamed)
        assert Y.G is X.G and Y.G0 is not Y.G and (Y.G.name, Y.G0.name) == ("S3", "T")
        Z = jsonio.from_jsonable(relabeled)
        assert Z.G is X.G and Z.G0.element_labels == tuple(f"t{a}" for a in range(6))
        assert jsonio.from_jsonable(renamed) is Y
    for data in (same, renamed, relabeled):
        assert jsonio.canonical_bytes(jsonio.to_jsonable(jsonio.from_jsonable(data))) == jsonio.canonical_bytes(data)


def test_identity_of_a_renamed_end_keeps_both_names(tmp_path, capsys):
    _, renamed, _ = renamed_and_relabeled()
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(renamed))
    ws = tmp_path / "store"
    code, ref = run(ws, capsys, "identity", path)
    assert code == 0
    code, out = run(ws, capsys, "store", "get", ref.strip())
    assert code == 0
    names = {json.loads(out)["dom"][key]["name"] for key in ("G", "G0")}
    assert names == {"S3", "T"}


def test_the_memo_dies_with_the_command(tmp_path, capsys, identity_ref):
    ws, ref = identity_ref
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(invalid_butterfly_json()))
    for argv, status in (
        (("flip", ref), 0),
        (("validate", invalid), 1),
        (("flip", invalid), 1),
        (("flip", tmp_path / "missing.json"), 2),
    ):
        assert run(ws, capsys, *argv)[0] == status
        assert fingroup._memo.get() is None
    data = jsonio.to_jsonable(conjugation_xmod(Z3))
    X, Y = jsonio.from_jsonable(data), jsonio.from_jsonable(data)
    assert X is not Y and X.G is not Y.G and X.action is not Y.action


def test_validating_a_loaded_crossed_module_checks_its_action_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "aut_s3.json"
    path.write_text(json.dumps(jsonio.to_jsonable(aut_xmod(S3))))
    actions = Counter()
    counted(monkeypatch, fingroup, "_action_defect", actions)
    assert run(tmp_path / "store", capsys, "validate", path)[0] == 0
    assert sum(actions.values()) == 1


def parent_validate_crossed_module(X: CrossedModule) -> ValidationReport:
    """``validate_crossed_module`` as it was before an action kept its
    verdict: the action decided by ``_action_defect`` on X's own groups."""
    report = ValidationReport(repr(X))
    bd, G, G0 = X.boundary.map, X.G, X.G0
    if _check_ranges(report, "map-range", [("boundary", X.boundary, G, G0)]):
        return report
    if (defect := _action_defect(G0, G, X.action.act)) is not None:
        report.add("not-an-action", *defect)
        return report
    for x in range(G0.order):
        for g in range(G.order):
            if bd[X.act(x, g)] != G0.conj(x, bd[g]):
                report.add("precrossed", (x, g), "boundary of x|>g is not x*dg*x^-1")
    for g in range(G.order):
        for g2 in range(G.order):
            if X.act(bd[g], g2) != G.conj(g, g2):
                report.add("peiffer", (g, g2), "dg|>g' is not g*g'*g^-1")
    return report


def edited_ends(X: CrossedModule):
    """X with G0 or G replaced by each catalog group of its order and by a
    renamed copy of itself, the action still checked against X's groups."""
    for field in ("G0", "G"):
        end = getattr(X, field)
        for K in (FinGroup(end.table, "copy"), *(K for _, K in standard_catalog(end.order))):
            yield dataclasses.replace(X, **{field: K})


def test_an_action_over_other_groups_is_decided_afresh():
    differ = 0
    for X in generate_fixtures(0, 8).crossed_modules:
        for Y in edited_ends(X):
            report, expected = validate_crossed_module(Y), parent_validate_crossed_module(Y)
            assert report.to_json() == expected.to_json(), Y
            if X.action._defect is None and "not-an-action" in {f.condition for f in expected.findings}:
                differ += 1
    assert differ  # an edit whose action is no action on its new ends, though its verdict reads None


def parent_check_ranges(report: ValidationReport, condition: str, maps) -> bool:
    """``xmod._check_ranges`` as it was before a map kept its verdict: rows
    (name, m, D, C) of bare maps, each in range decided by ``_hom_defect``."""
    broken = [G for G in dict.fromkeys(G for row in maps for G in row[2:]) if G._table_defect is not None]
    for G in broken:
        report.add("not-a-group", G.name, G._table_defect)
    if broken:
        return True
    failed = False
    for name, m, D, C in maps:
        if not _maps_into(m, D.order, C.order):
            report.add(condition, name, f"{name} is not a map {D.name} -> {C.name}")
            failed = True
        elif (defect := _hom_defect(D, C, m)) is not None:
            report.add("not-hom", (name, defect), f"{name} is not a homomorphism {D.name} -> {C.name}")
    return failed


def parent_gate(report: ValidationReport, condition: str, maps) -> bool:
    return parent_check_ranges(report, condition, [(name, part.map, D, C) for name, part, D, C in maps])


def test_a_leg_over_other_groups_is_decided_afresh(monkeypatch):
    butterflies = generate_fixtures(0, 8).butterflies
    assert all(validate_butterfly(B).ok for B in butterflies)  # each leg's verdict is kept
    calls = hom_checks(monkeypatch)
    for B in butterflies:
        # legs joining an equal-by-table copy of E read their kept verdicts
        assert validate_butterfly(dataclasses.replace(B, E=FinGroup(B.E.table, "copy"))).ok
    assert not calls
    differ = 0
    for B in butterflies:
        for _, K in standard_catalog(B.E.order):
            if K == B.E:
                continue
            edited = dataclasses.replace(B, E=K)
            report = validate_butterfly(edited)
            with monkeypatch.context() as patch:
                patch.setattr(xmod, "_check_ranges", parent_gate)
                patch.setattr(butterfly, "_check_ranges", parent_gate)
                expected = validate_butterfly(edited)
            assert report.to_json() == expected.to_json(), edited
            differ += "not-hom" in report.conditions()
    assert differ  # legs whose kept verdicts read None, decided afresh as no homomorphisms
