"""Tests for butterflies: validation, composition, flips, splits, spans, fractors."""

from __future__ import annotations

import dataclasses

import pytest

from helpers import (
    GRAPH_CORRUPTIONS,
    ONE,
    S3,
    Z2,
    Z3,
    Z4,
    corrupt_graph,
    trivial_extension_butterfly,
    z4_extension_butterfly,
)

from butterflies import butterfly
from butterflies.butterfly import (
    Butterfly,
    butterfly_morphism,
    butterfly_morphisms,
    compose,
    flip,
    from_fractor,
    identity_butterfly,
    is_flippable,
    isomorphic_butterflies,
    reduced_compose,
    span_of_butterfly,
    split_from_morphism,
    to_fractor,
    two_cell_image,
    validate_butterfly,
    validate_fractor,
    whisker_left,
    whisker_right,
)
from butterflies.errors import (
    ConstructionError,
    NotComposable,
    NotFlippable,
)
from butterflies.extension import aut_xmod, conjugation_xmod, discrete_xmod
from butterflies.fingroup import GroupHom, identity_hom, zero_hom
from butterflies.report import KEEP_PER_CONDITION, ValidationReport
from butterflies.weakmap import extract_monoidal, set_section
from butterflies.xmod import (
    XModMorphism,
    all_xmod_morphisms,
    denormalize_morphism,
    enumerate_two_cells,
    identity_morphism,
    identity_two_cell,
    is_weak_equivalence,
    validate_crossed_module,
    validate_two_group_functor,
    validate_xmod_morphism,
)

DZ2, DZ3, DZ4 = discrete_xmod(Z2), discrete_xmod(Z3), discrete_xmod(Z4)
AZ2, AZ3 = aut_xmod(Z2), aut_xmod(Z3)
CZ2 = conjugation_xmod(Z2)


class TestValidation:
    def test_identity_of_discrete(self):
        B = identity_butterfly(DZ2)
        assert B.E == Z2
        assert B.sigma.map == B.rho.map == (0, 1)
        assert validate_butterfly(B).ok

    def test_extension_butterfly_valid(self):
        assert validate_butterfly(z4_extension_butterfly()).ok

    def test_broken_surjectivity_reported(self):
        B = z4_extension_butterfly()
        broken = Butterfly(
            dom=discrete_xmod(Z4),
            cod=B.cod,
            E=B.E,
            kappa=zero_hom(ONE, Z4),
            iota=B.iota,
            sigma=GroupHom(Z4, Z4, (0, 2, 0, 2)),
            rho=B.rho,
        )
        report = validate_butterfly(broken)
        assert "ii-extension" in report.conditions()

    def test_broken_complex_reported(self):
        # kappa with rho(kappa h) != 1: use the identity butterfly of CZ2 with rho := sigma
        I = identity_butterfly(CZ2)
        broken = Butterfly(
            dom=I.dom, cod=I.cod, E=I.E, kappa=I.iota, iota=I.iota, sigma=I.sigma, rho=I.sigma
        )
        report = validate_butterfly(broken)
        assert "i-complex" in report.conditions() or "right-wing" in report.conditions()

    def test_report_keeps_a_bounded_number_of_findings_per_condition(self):
        # both wings the identity of S3: the 18 non-commuting pairs (h, g)
        # fail the cooperator condition
        CS3 = conjugation_xmod(S3)
        ident = identity_hom(S3)
        broken = Butterfly(dom=CS3, cod=CS3, E=S3, kappa=ident, iota=ident, sigma=ident, rho=ident)
        report = validate_butterfly(broken)
        cooperator = [f for f in report.findings if f.condition == "cooperator"]
        assert len(cooperator) == KEEP_PER_CONDITION
        assert report.dropped == 18 - KEEP_PER_CONDITION
        # the witnesses kept are the first ones found, and each replays
        assert [f.witness for f in cooperator] == sorted(f.witness for f in cooperator)
        assert all(S3.table[h][g] != S3.table[g][h] for h, g in (f.witness for f in cooperator))
        assert report.to_json()["dropped"] == report.dropped
        text = str(report)
        assert f"{len(report.findings) + report.dropped} violation(s)" in text.splitlines()[0]
        assert text.splitlines()[-1].strip().startswith(f"... {report.dropped} more")
        outer = ValidationReport("outer")
        outer.merge(report, "sub:")
        assert outer.dropped == report.dropped
        assert [f.condition for f in outer.findings] == ["sub:" + f.condition for f in report.findings]

    def test_report_without_drops_has_no_dropped_field(self):
        I = identity_butterfly(CZ2)
        broken = Butterfly(
            dom=I.dom, cod=I.cod, E=I.E, kappa=I.iota, iota=I.iota, sigma=I.sigma, rho=I.sigma
        )
        report = validate_butterfly(broken)
        assert report.dropped == 0
        assert set(report.to_json()) == {"subject", "ok", "findings"}
        assert str(report).count("\n") == len(report.findings)


    @pytest.mark.parametrize("leg", ("kappa", "iota", "sigma", "rho"))
    @pytest.mark.parametrize("corrupt", ("out-of-range", "short"))
    def test_leg_off_its_groups_is_a_finding(self, leg, corrupt):
        I = identity_butterfly(AZ3)
        old = getattr(I, leg)
        bad = (old.cod.order,) * old.dom.order if corrupt == "out-of-range" else old.map[:-1]
        report = validate_butterfly(dataclasses.replace(I, **{leg: GroupHom._trusted(old.dom, old.cod, bad)}))
        assert report.findings[0].condition == "leg-range"
        assert report.findings[0].witness == leg
        assert [f.condition for f in report.findings].count("leg-range") == 1


class TestIdentityButterfly:
    def test_one_object_domain(self):
        X = conjugation_xmod(Z2)
        B = identity_butterfly(X)
        assert B.E.order == 4
        assert is_flippable(B)

    def test_z2_to_zero_module(self):
        from butterflies.fingroup import trivial_action
        from butterflies.xmod import CrossedModule

        X = CrossedModule(Z2, ONE, zero_hom(Z2, ONE), trivial_action(ONE, Z2))
        B = identity_butterfly(X)
        assert B.E.order == 2
        assert B.sigma.map == (0, 0)

    def test_flippable_with_exact_diagonals(self):
        B = identity_butterfly(CZ2)
        assert is_flippable(B)
        assert validate_butterfly(flip(B)).ok


class TestCompose:
    def test_identity_absorbs_identity(self):
        I = identity_butterfly(DZ2)
        C = compose(I, I)
        w = isomorphic_butterflies(C, I)
        assert w is not None

    def test_compose_with_identity_isomorphic(self):
        B = z4_extension_butterfly()
        C = compose(B, identity_butterfly(B.cod))
        assert isomorphic_butterflies(C, B) is not None
        C2 = compose(identity_butterfly(B.dom), B)
        assert isomorphic_butterflies(C2, B) is not None

    def test_flip_composes_to_identity(self):
        B = identity_butterfly(CZ2)
        Bstar = flip(B)
        assert isomorphic_butterflies(compose(B, Bstar), identity_butterfly(B.dom)) is not None
        assert isomorphic_butterflies(compose(Bstar, B), identity_butterfly(B.cod)) is not None

    def test_not_composable(self):
        with pytest.raises(NotComposable):
            compose(identity_butterfly(DZ2), identity_butterfly(DZ3))

    def test_composite_is_validated(self):
        B = z4_extension_butterfly()
        C = compose(B, identity_butterfly(B.cod))
        assert validate_butterfly(C).ok


class TestMorphismSearch:
    def test_self_witness(self):
        B = z4_extension_butterfly()
        w = isomorphic_butterflies(B, B)
        assert w is not None and w.f.map == tuple(range(4))

    def test_different_e_groups_not_isomorphic(self):
        assert isomorphic_butterflies(z4_extension_butterfly(), trivial_extension_butterfly()) is None

    def test_witness_must_pass_the_triangles(self):
        # the search compares the legs on generators only (2 and 1 here); a
        # leg that is wrong off them is caught by the check of the witness
        B = z4_extension_butterfly()
        kappa, iota, sigma, rho = butterfly._legs(B)
        assert butterfly._witness_map(B.E, (kappa, iota, sigma, rho), B) == (0, 1, 2, 3)
        with pytest.raises(ConstructionError, match="rho triangle"):
            butterfly._witness_map(B.E, (kappa, iota, sigma, rho[:3] + (1,)), B)
        with pytest.raises(ConstructionError, match="sigma triangle"):
            butterfly._witness_map(B.E, (kappa, iota, sigma[:3] + (0,), rho), B)

    def test_underlying_map_bijective(self):
        B = trivial_extension_butterfly()
        for w in butterfly_morphisms(B, B):
            assert w.f.is_isomorphism

    def test_morphism_count_split_butterfly(self):
        # f(g, x) = (g + t(x), x) with t: Z2 -> Z2 a homomorphism: exactly 2
        B = trivial_extension_butterfly()
        assert len(butterfly_morphisms(B, B)) == 2


class TestFlippable:
    def test_extension_butterfly_not_flippable(self):
        B = z4_extension_butterfly()
        assert not is_flippable(B)
        with pytest.raises(NotFlippable):
            flip(B)

    def test_split_of_weak_equivalence_flippable(self):
        P = identity_morphism(CZ2)
        assert is_weak_equivalence(P)[0]
        B, _ = split_from_morphism(P)
        assert is_flippable(B)


class TestSplit:
    def test_identity_on_discrete(self):
        P = identity_morphism(DZ4)
        B, section = split_from_morphism(P)
        assert B.E.order == 4
        assert isomorphic_butterflies(B, identity_butterfly(DZ4)) is not None
        assert section.then(B.sigma) == identity_hom(Z4)

    def test_zero_morphism_trivial_extension(self):
        P = XModMorphism(DZ2, AZ2, zero_hom(ONE, Z2), zero_hom(Z2, AZ2.G0))
        B, _ = split_from_morphism(P)
        assert B.E.order == 4
        assert B.E.is_abelian
        assert isomorphic_butterflies(B, trivial_extension_butterfly()) is not None

    def test_contract_for_random_morphisms(self):
        from butterflies.fingroup import kernel

        for X, Y in [(DZ2, AZ2), (CZ2, AZ2), (DZ4, DZ4), (CZ2, CZ2)]:
            for P in all_xmod_morphisms(X, Y):
                B, section = split_from_morphism(P)
                assert validate_butterfly(B).ok
                assert frozenset(kernel(B.sigma).elements) == frozenset(B.iota.map)
                assert section.then(B.sigma) == identity_hom(X.G0)


class TestMorphismFromSplit:
    """A split butterfly and its section give back the morphism: the functor
    extracted along the section is the morphism's denormalized functor."""

    def test_identity_round_trip(self):
        _assert_recovered(identity_morphism(DZ4))

    def test_canonical_section_recovers_morphism(self):
        for X, Y in [(DZ2, AZ2), (CZ2, AZ2), (CZ2, CZ2)]:
            for P in all_xmod_morphisms(X, Y):
                _assert_recovered(P)


def _assert_recovered(P):
    B, section = split_from_morphism(P)
    M = extract_monoidal(B, set_section(B, section.map))
    F = denormalize_morphism(P)
    assert M.is_strict() and M.F0 == F.p0.map and M.F1 == F.p1.map


class TestReducedCompose:
    def test_identity_morphism_acts_trivially(self):
        B = z4_extension_butterfly()
        R = reduced_compose(identity_morphism(B.dom), B)
        assert isomorphic_butterflies(R, B) is not None

    def test_reduced_with_identity_butterfly_is_split(self):
        for X, Y in [(DZ2, AZ2), (CZ2, CZ2)]:
            for Q in all_xmod_morphisms(X, Y):
                R = reduced_compose(Q, identity_butterfly(Y))
                S, _ = split_from_morphism(Q)
                assert R == S  # literally the same construction

    def test_reduced_equals_split_then_compose(self):
        B = z4_extension_butterfly()
        for Q in all_xmod_morphisms(CZ2, B.dom):
            R = reduced_compose(Q, B)
            S, _ = split_from_morphism(Q)
            C = compose(S, B)
            assert isomorphic_butterflies(R, C) is not None

    def test_action_associativity(self):
        # (P;Q) .rc B vs P .rc (Q .rc B) on a composable desk-scale triple
        B = z4_extension_butterfly()
        from butterflies.xmod import compose_morphisms

        for Q in all_xmod_morphisms(CZ2, DZ2):
            for P in all_xmod_morphisms(CZ2, CZ2):
                lhs = reduced_compose(compose_morphisms(P, Q), B)
                rhs = reduced_compose(P, reduced_compose(Q, B))
                assert isomorphic_butterflies(lhs, rhs) is not None

    def test_not_composable(self):
        with pytest.raises(NotComposable):
            reduced_compose(identity_morphism(DZ3), z4_extension_butterfly())


class TestSpan:
    def test_identity_span(self):
        B = identity_butterfly(DZ2)
        middle, left, right = span_of_butterfly(B)
        assert validate_crossed_module(middle).ok
        assert is_weak_equivalence(left)[0]
        assert left.p.is_isomorphism  # a discrete fibration

    def test_extension_span(self):
        B = z4_extension_butterfly()
        middle, left, right = span_of_butterfly(B)
        assert validate_crossed_module(middle).ok
        assert is_weak_equivalence(left)[0]
        assert validate_xmod_morphism(right).ok
        # phi = iota here (the domain top group is trivial), image {0, 2}
        assert set(middle.boundary.map) == {0, 2}

    def test_cooperator_unique_on_generators(self):
        B = z4_extension_butterfly()
        middle, _, _ = span_of_butterfly(B)
        phi = middle.boundary
        # phi restricted to the two factors gives back the wings
        for h in range(B.dom.G.order):
            assert phi.map[h * B.cod.G.order] == B.kappa.map[h]
        for g in range(B.cod.G.order):
            assert phi.map[g] == B.iota.map[g]


class TestTwoCellImage:
    def test_identity_cell_gives_identity(self):
        P = identity_morphism(CZ2)
        w = two_cell_image(identity_two_cell(P))
        assert w.f.map == tuple(range(w.f.dom.order))

    def test_distinct_cells_distinct_morphisms(self):
        ms = list(all_xmod_morphisms(DZ2, AZ2))
        P = ms[0]
        cells = enumerate_two_cells(P, P)
        images = {two_cell_image(c).f.map for c in cells}
        assert len(images) == len(cells) == 2

    def test_image_exhausts_morphisms(self):
        ms = list(all_xmod_morphisms(DZ2, AZ2))
        P = ms[0]
        BP, _ = split_from_morphism(P)
        cells = enumerate_two_cells(P, P)
        images = {two_cell_image(c).f.map for c in cells}
        all_morphisms = {w.f.map for w in butterfly_morphisms(BP, BP)}
        assert images == all_morphisms


class TestWhiskering:
    def test_whisker_identity_cell(self):
        B = z4_extension_butterfly()
        I = identity_butterfly(B.dom)
        w = butterfly_morphism(I, I, identity_hom(I.E))
        lifted = whisker_right(w, B)
        assert lifted.f.is_isomorphism

    def test_whisker_nontrivial_cell(self):
        B = trivial_extension_butterfly()
        ws = butterfly_morphisms(B, B)
        I = identity_butterfly(B.cod)
        for w in ws:
            lifted = whisker_left(identity_butterfly(B.dom), whisker_right(w, I))
            assert lifted.f.is_isomorphism


class TestFractor:
    def test_identity_fractor_valid(self):
        F = to_fractor(identity_butterfly(CZ2))
        assert validate_fractor(F).ok

    def test_discrete_identity_all_discrete(self):
        F = to_fractor(identity_butterfly(DZ4))
        assert validate_fractor(F).ok
        # every arrow of both groupoids is a unit
        assert F.left.dom.G1.order == F.left.p0.dom.order
        assert F.right.dom.G1.order == F.left.p0.dom.order

    def test_round_trip_extension(self):
        B = z4_extension_butterfly()
        F = to_fractor(B)
        assert validate_fractor(F).ok
        B2 = from_fractor(F)
        assert B2 == B

    def test_round_trip_various(self):
        for B in (
            identity_butterfly(DZ2),
            identity_butterfly(CZ2),
            trivial_extension_butterfly(),
            split_from_morphism(identity_morphism(CZ2))[0],
        ):
            assert from_fractor(to_fractor(B)) == B

    def test_condition_failure_detected(self):
        B = z4_extension_butterfly()
        F = to_fractor(B)
        from butterflies.butterfly import Fractor
        from butterflies.xmod import TwoGroupFunctor

        E = F.left.p0.dom
        bad = Fractor(
            left=TwoGroupFunctor(F.left.dom, F.left.cod, F.left.p1, zero_hom(E, F.left.cod.G0)),
            right=F.right,
        )
        report = validate_fractor(bad)
        assert not report.ok

    @pytest.mark.parametrize("leg_map", ["p1", "p0"])
    def test_leg_out_of_range_is_a_finding(self, leg_map):
        # a trusted leg whose values leave the codomain is reported, not an IndexError
        F = to_fractor(identity_butterfly(CZ2))
        old = getattr(F.left, leg_map)
        bad = GroupHom._trusted(old.dom, old.cod, (99,) * len(old.map))
        report = validate_fractor(dataclasses.replace(F, left=dataclasses.replace(F.left, **{leg_map: bad})))
        assert "1-functor" in report.conditions()
        assert "leg-range" in str(report)

    @pytest.mark.parametrize("leg, corrupt", GRAPH_CORRUPTIONS)
    def test_groupoid_with_a_map_off_its_groups_is_a_finding(self, leg, corrupt):
        F = to_fractor(identity_butterfly(aut_xmod(Z3)))
        bad = corrupt_graph(F.left.dom, leg, corrupt)
        # R is the left leg's domain: an invalid R is reported first and alone
        report = validate_fractor(dataclasses.replace(F, left=dataclasses.replace(F.left, dom=bad)))
        assert [(f.condition, f.witness) for f in report.findings] == [("1-groupoid", "R")]
        assert f"map-range: witness {leg!r}" in report.findings[0].detail

    def test_leg_breaking_sources_is_a_finding(self):
        F = to_fractor(identity_butterfly(conjugation_xmod(Z3)))
        old = F.left.p1
        bad = GroupHom._trusted(old.dom, old.cod, tuple(2 * a % old.cod.order for a in range(old.dom.order)))
        left = dataclasses.replace(F.left, p1=bad)
        report = validate_fractor(dataclasses.replace(F, left=left))
        assert "1-functor" in report.conditions()
        # the fractor quotes the leg's first finding, that this p1 does not multiply
        assert "not-hom: witness ('p1', " in str(report)
        assert "functor-source" in validate_two_group_functor(left).conditions()
