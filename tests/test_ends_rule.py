"""A record between crossed modules or 2-groups is valid only when its ends are.

The validators of morphisms, butterflies, 2-cells, 2-group functors and
monoidal functors check each distinct end first, through
``xmod._ends_valid``, and report an invalid end's findings under
``underlying-xmod:`` or ``underlying-2group:``, once and before anything
else; no check then reads that end's maps.  An end equal by value to the
other is checked once, so a record over one invalid end reports that end's
findings once, not twice.  The fractor validator reports an invalid groupoid
R or R[sigma] as one ``1-groupoid`` finding each, and nothing else.
"""

from __future__ import annotations

import dataclasses
import json

from helpers import S3, Z2, Z4

from butterflies import cli, jsonio
from butterflies.butterfly import identity_butterfly, to_fractor, validate_butterfly, validate_fractor
from butterflies.extension import conjugation_xmod
from butterflies.fingroup import GroupHom, direct_product, identity_hom, trivial_action, trivial_group, zero_hom
from butterflies.weakmap import check_monoidal, identity_monoidal
from butterflies.xmod import (
    CrossedModule,
    Strict2Group,
    TwoGroupFunctor,
    XModMorphism,
    identity_morphism,
    identity_two_cell,
    validate_crossed_module,
    validate_two_cell,
    validate_two_group,
    validate_two_group_functor,
    validate_xmod_morphism,
)

# Z4 -> Z2 with the inversion action: an action and precrossed, but not Peiffer
NOT_PEIFFER = {
    "kind": "xmod",
    "G": jsonio.to_jsonable(Z4),
    "G0": jsonio.to_jsonable(Z2),
    "boundary": [0, 1, 0, 1],
    "action": [[0, 1, 2, 3], [0, 3, 2, 1]],
}


def s3_graph() -> Strict2Group:
    """S3 x S3 => S3 with d = c = the first projection and e the diagonal: a
    reflexive graph whose ker d = ker c = 1 x S3 is not abelian, so 18 of its
    36 pairs fail the interchange law."""
    G1, pr1, _, pair = direct_product(S3, S3)
    diagonal = GroupHom._trusted(S3, G1, pair(range(6), range(6)))
    return Strict2Group(G1, S3, pr1, pr1, diagonal)


def count(report) -> int:
    return len(report.findings) + report.dropped


def test_cli_reports_an_invalid_end_of_a_morphism_once(tmp_path, capsys):
    data = {"kind": "xmod-morphism", "dom": NOT_PEIFFER, "cod": NOT_PEIFFER, "p": [0, 1, 2, 3], "p0": [0, 1]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    ws = str(tmp_path / "store")
    assert cli.main(["--workspace", ws, "validate", str(path)]) == 1
    assert "4 violation(s)" in capsys.readouterr().out
    assert cli.main(["--workspace", ws, "--json", "validate", str(path)]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [f["condition"] for f in findings] == ["underlying-xmod:peiffer"] * 4


def test_check_monoidal_reports_an_invalid_end_once():
    T = s3_graph()
    assert count(validate_two_group(T)) == 18
    report = check_monoidal(identity_monoidal(T))
    assert count(report) == 18
    assert report.conditions() == {"underlying-2group:interchange"}


def test_an_invalid_end_is_reported_first_and_alone():
    X = jsonio.from_jsonable(NOT_PEIFFER)
    expected = [("underlying-xmod:" + f.condition, f.witness) for f in validate_crossed_module(X).findings]
    assert len(expected) == 4
    P = identity_morphism(X)
    for report in (
        validate_xmod_morphism(P),
        validate_butterfly(identity_butterfly(X)),
        validate_two_cell(identity_two_cell(P)),
    ):
        assert [(f.condition, f.witness) for f in report.findings] == expected


def test_distinct_ends_are_each_reported_in_order():
    # dom: Z4 -> Z2, 4 Peiffer findings; cod: S3 -> 1 with the trivial action, 18
    X, ONE = jsonio.from_jsonable(NOT_PEIFFER), trivial_group()
    Y = CrossedModule(S3, ONE, zero_hom(S3, ONE), trivial_action(ONE, S3))
    report = validate_xmod_morphism(XModMorphism(X, Y, zero_hom(Z4, S3), zero_hom(Z2, ONE)))
    assert count(report) == 4 + 18
    assert report.conditions() == {"underlying-xmod:peiffer"}
    assert [f.witness for f in report.findings[:4]] == [f.witness for f in validate_crossed_module(X).findings]


def test_a_two_group_functor_with_an_invalid_end_reports_only_that_end():
    # the identity functor of s3_graph keeps every law of a functor; its end does not
    T = s3_graph()
    F = TwoGroupFunctor(T, T, identity_hom(T.G1), identity_hom(T.G0))
    report = validate_two_group_functor(F)
    assert count(report) == 18
    assert report.conditions() == {"underlying-2group:interchange"}
    assert [f.witness for f in report.findings] == [f.witness for f in validate_two_group(T).findings]


def test_a_fractor_with_an_invalid_groupoid_reports_it_alone():
    # R with e sent to the identity arrow: in range and a homomorphism, but no
    # section of d and c, so the left leg's unit law fails on it too
    F = to_fractor(identity_butterfly(conjugation_xmod(S3)))
    R = F.left.dom
    bad = dataclasses.replace(R, e=zero_hom(R.G0, R.G1))
    assert "unit-source-target" in validate_two_group(bad).conditions()
    report = validate_fractor(dataclasses.replace(F, left=dataclasses.replace(F.left, dom=bad)))
    assert [(f.condition, f.witness) for f in report.findings] == [("1-groupoid", "R")]
