"""The refusals and findings that no other test reaches.

Each test feeds one construction or validator the input that its check
exists for: a monoidal functor that is not normalized, a map of middle
groups off a wing or onto too few elements, a corrupt fractor, operands that
do not compose or are not parallel, and a section of another butterfly.  The
inputs that break a constructor's contract are refused too: an empty table, a
subgroup without the identity, a quotient by another group's subgroup, a
composite across different middle groups, a cocycle search past its bound and
a record of no JSON kind.  The searches for 2-cells, natural transformations,
monoidal natural isos and extension equivalences answer nothing for operands
they cannot relate.  The
refusals are matched by their messages, so a deleted check cannot pass by a
later check raising the same type.
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import ONE, Z2, Z3, Z4, trivial_extension_butterfly, z4_extension_butterfly

from butterflies.butterfly import (
    Butterfly,
    Fractor,
    butterfly_morphism,
    flip,
    from_fractor,
    identity_butterfly,
    to_fractor,
    validate_butterfly,
    validate_fractor,
)
from butterflies.errors import (
    BoundExceeded,
    CodomainMismatch,
    ConstructionError,
    FractorConditionFailed,
    NotAGroup,
    NotNormal,
    SectionInvalid,
    UnknownKind,
)
from butterflies.extension import (
    aut_xmod,
    conjugation_xmod,
    discrete_xmod,
    enumerate_cocycles,
    extension_equivalences,
    factor_set_to_extension,
)
from butterflies.fingroup import FinGroup, GroupHom, Subgroup, identity_hom, quotient, trivial_action, zero_hom
from butterflies.jsonio import to_jsonable
from butterflies.weakmap import (
    MonoidalFunctor,
    all_set_sections,
    check_monoidal,
    extract_monoidal,
    find_monoidal_natural_iso,
    identity_monoidal,
    set_section,
)
from butterflies.xmod import (
    CrossedModule,
    XModTwoCell,
    compose_morphisms,
    denormalize,
    enumerate_natural_transformations,
    enumerate_two_cells,
    identity_morphism,
    pullback_crossed_module,
)


def findings(M: MonoidalFunctor) -> list[tuple]:
    return [(f.condition, f.witness) for f in check_monoidal(M).findings]


class TestNormalization:
    @pytest.mark.parametrize("x, y", [(0, 1), (1, 0)])
    def test_comparison_at_the_unit_that_is_no_identity_arrow(self, x, y):
        # A(Z3) has one object per element of Aut(Z3) = Z2 and a loop per
        # element of Z3 at each: a loop other than the identity keeps F2(x, y)
        # over the right objects, so normalization is the one finding
        T = denormalize(aut_xmod(Z3))
        M = identity_monoidal(T)
        loop = next(a for a in range(T.G1.order) if T.d.map[a] == T.c.map[a] == 1 and a != M.F2[x][y])
        F2 = [list(row) for row in M.F2]
        F2[x][y] = loop
        assert findings(dataclasses.replace(M, F2=F2)) == [("normalization", (x, y))]

    def test_object_map_off_the_unit(self):
        # the constant functor onto object 1 of C(Z2), whose one arrow 0 -> 1
        # is every comparison: F0(1) != 1, so no F2(1, x) can be an identity
        U = denormalize(conjugation_xmod(Z2))
        arrow = next(a for a in range(U.G1.order) if (U.d.map[a], U.c.map[a]) == (0, 1))
        M = MonoidalFunctor(U, U, (1, 1), (U.e.map[1],) * U.G1.order, ((arrow, arrow), (arrow, arrow)))
        assert findings(M) == [
            ("normalization", 0),
            ("normalization", (0, 0)),
            ("normalization", (0, 0)),
            ("normalization", (0, 1)),
            ("normalization", (1, 0)),
        ]


class TestButterflyMorphism:
    def test_map_off_the_iota_wing(self):
        B = z4_extension_butterfly()
        with pytest.raises(ConstructionError, match="iota triangle"):
            butterfly_morphism(B, B, zero_hom(B.E, B.E))

    def test_map_onto_too_few_elements(self):
        # between the trivial crossed modules every triangle commutes, so the
        # zero map of E = Z2 passes them all and only bijectivity refuses it
        D1 = discrete_xmod(ONE)
        B = Butterfly(D1, D1, Z2, zero_hom(ONE, Z2), zero_hom(ONE, Z2), zero_hom(Z2, ONE), zero_hom(Z2, ONE))
        with pytest.raises(ConstructionError, match="bijective"):
            butterfly_morphism(B, B, zero_hom(Z2, Z2))

    def test_butterflies_not_parallel(self):
        B, I = z4_extension_butterfly(), identity_butterfly(discrete_xmod(Z2))
        with pytest.raises(ValueError, match="parallel"):
            butterfly_morphism(B, I, GroupHom(B.E, I.E, (0, 1, 0, 1)))

    def test_map_of_other_groups(self):
        B = z4_extension_butterfly()
        with pytest.raises(ValueError, match="middle groups"):
            butterfly_morphism(B, B, identity_hom(Z2))


def _flipped_right_leg() -> Fractor:
    """The left leg of C(Z2)'s identity butterfly beside the right leg of its
    flip: both are discrete fibrations, but the right one is out of the
    kernel pair of rho, not of sigma."""
    B = identity_butterfly(conjugation_xmod(Z2))
    return Fractor(to_fractor(B).left, to_fractor(flip(B)).right)


def _zero_left_leg() -> Fractor:
    """A left leg that is no functor: its object map is zero."""
    F = to_fractor(z4_extension_butterfly())
    return dataclasses.replace(F, left=dataclasses.replace(F.left, p0=zero_hom(F.left.p0.dom, Z2)))


def _rho_off_the_wing() -> Fractor:
    """C(Z2)'s identity butterfly beside the right leg of its copy along the
    automorphism of E that swaps 1 and 3.  The copy is a valid butterfly with
    the same sigma, so both legs are discrete fibrations over the kernel pair
    of sigma, but its rho sends the original kappa(1) = 3 to 1: it does not
    coequalize R's legs."""
    B = identity_butterfly(conjugation_xmod(Z2))
    swap = GroupHom(B.E, B.E, (0, 3, 2, 1))
    copy = dataclasses.replace(B, kappa=B.kappa.then(swap), rho=swap.then(B.rho))
    assert validate_butterfly(copy).ok and copy.sigma == B.sigma
    return Fractor(to_fractor(B).left, to_fractor(copy).right)


@pytest.mark.parametrize(
    "corrupt, condition, first",
    [
        (_flipped_right_leg, 2, "2-kernel-pair"),
        (_zero_left_leg, 1, "1-functor"),
        (_rho_off_the_wing, 3, "3-coequalizing"),
    ],
    ids=["kernel-pair", "left-leg", "coequalizer"],
)
def test_corrupt_fractor_raises_its_first_condition(corrupt, condition, first):
    F = corrupt()
    assert validate_fractor(F).findings[0].condition == first
    with pytest.raises(FractorConditionFailed) as failed:
        from_fractor(F)
    assert failed.value.condition == condition


class TestContractRefusals:
    def test_empty_table(self):
        with pytest.raises(NotAGroup, match="empty table"):
            FinGroup([])

    def test_subgroup_without_the_identity(self):
        with pytest.raises(ValueError, match="must contain the identity"):
            Subgroup(Z4, (1, 2))

    def test_quotient_by_a_subgroup_of_another_group(self):
        with pytest.raises(NotNormal, match="not a subgroup of the given group"):
            quotient(Z4, Subgroup(Z2, (0, 1)))

    def test_composite_across_different_middle_groups(self):
        with pytest.raises(CodomainMismatch, match="middle groups differ"):
            identity_hom(Z2).then(identity_hom(Z3))

    def test_cocycles_past_their_bound(self):
        with pytest.raises(BoundExceeded, match="enumerate_cocycles: size 12 exceeds bound 8"):
            enumerate_cocycles(Z4, Z3, bound=8)

    def test_record_of_no_json_kind(self):
        with pytest.raises(UnknownKind, match="cannot serialize object"):
            to_jsonable(object())


class TestXModRefusals:
    # C(Z2) and Z2 -0-> Z2 share their groups, so only the check of the
    # crossed modules tells the morphisms apart
    X, Y = conjugation_xmod(Z2), CrossedModule(Z2, Z2, zero_hom(Z2, Z2), trivial_action(Z2, Z2))

    def test_morphisms_not_composable(self):
        with pytest.raises(ValueError, match="not composable"):
            compose_morphisms(identity_morphism(self.X), identity_morphism(self.Y))

    def test_pullback_along_a_map_into_another_base(self):
        with pytest.raises(ValueError, match="base"):
            pullback_crossed_module(aut_xmod(Z3), identity_hom(Z3))

    def test_two_cell_between_morphisms_not_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            XModTwoCell(identity_morphism(self.X), identity_morphism(self.Y), (0, 0))

    @pytest.mark.parametrize("enumerate_cells", [enumerate_two_cells, enumerate_natural_transformations])
    def test_no_cells_between_morphisms_not_parallel(self, enumerate_cells):
        P, Q = identity_morphism(self.X), identity_morphism(self.Y)
        assert enumerate_cells(P, P) and enumerate_cells(Q, Q)
        assert enumerate_cells(P, Q) == []


class TestEmptySearches:
    """The searches that answer nothing for operands they cannot relate."""

    def test_no_monoidal_iso_between_functors_not_parallel(self):
        B = z4_extension_butterfly()
        M = extract_monoidal(B, all_set_sections(B)[0])
        assert find_monoidal_natural_iso(M, identity_monoidal(denormalize(conjugation_xmod(Z2)))) is None

    def test_no_monoidal_iso_when_no_natural_family_is_monoidal(self):
        # D(Z2) -> A(Z2) from the extensions Z4 and Z2xZ2: every family of
        # arrows is natural, as D(Z2) has unit arrows only, but their
        # comparisons differ by the class of Z4, which no family removes
        B, T = z4_extension_butterfly(), trivial_extension_butterfly()
        M, N = (extract_monoidal(X, all_set_sections(X)[0]) for X in (B, T))
        assert (M.dom, M.cod) == (N.dom, N.cod)
        assert find_monoidal_natural_iso(M, M) is not None and find_monoidal_natural_iso(N, N) is not None
        assert find_monoidal_natural_iso(M, N) is None

    @pytest.mark.parametrize("H, G", [(Z2, Z3), (Z3, Z2)], ids=["other-G", "other-H"])
    def test_no_equivalences_between_extensions_of_other_groups(self, H, G):
        X = factor_set_to_extension(enumerate_cocycles(Z2, Z2)[0])
        assert extension_equivalences(X, X)
        assert extension_equivalences(X, factor_set_to_extension(enumerate_cocycles(H, G)[0])) == []


def test_section_of_another_butterfly():
    B, other = z4_extension_butterfly(), trivial_extension_butterfly()
    with pytest.raises(SectionInvalid, match="sigma-fiber"):
        extract_monoidal(B, set_section(other, (0, 2)))
