"""The refusals and findings that no other test reaches.

Each test feeds one construction or validator the input that its check
exists for: a monoidal functor that is not normalized, a map of middle
groups off a wing or onto too few elements, a corrupt fractor, operands that
do not compose or are not parallel, and a section of another butterfly.  The
refusals are matched by their messages, so a deleted check cannot pass by a
later check raising the same type.
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import ONE, Z2, Z3, trivial_extension_butterfly, z4_extension_butterfly

from butterflies.butterfly import Butterfly, butterfly_morphism, from_fractor, identity_butterfly, to_fractor
from butterflies.errors import ConstructionError, FractorConditionFailed, SectionInvalid
from butterflies.extension import aut_xmod, conjugation_xmod, discrete_xmod
from butterflies.fingroup import GroupHom, identity_hom, trivial_action, zero_hom
from butterflies.weakmap import MonoidalFunctor, check_monoidal, extract_monoidal, identity_monoidal, set_section
from butterflies.xmod import (
    CrossedModule,
    XModTwoCell,
    compose_morphisms,
    denormalize,
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


@pytest.mark.parametrize(
    "corrupt, condition",
    [
        # the kernel pair of sigma replaced by R
        (lambda F: dataclasses.replace(F, Rsigma=F.R), 2),
        # a left leg that is no functor: its object map is zero
        (lambda F: dataclasses.replace(F, left=dataclasses.replace(F.left, p0=zero_hom(F.left.p0.dom, Z2))), 1),
    ],
    ids=["kernel-pair", "left-leg"],
)
def test_corrupt_fractor_raises_its_first_condition(corrupt, condition):
    F = corrupt(to_fractor(z4_extension_butterfly()))
    with pytest.raises(FractorConditionFailed) as failed:
        from_fractor(F)
    assert failed.value.condition == condition


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


def test_section_of_another_butterfly():
    B, other = z4_extension_butterfly(), trivial_extension_butterfly()
    with pytest.raises(SectionInvalid, match="different butterfly"):
        extract_monoidal(B, set_section(other, (0, 2)))
