"""Tests for crossed modules, strict 2-groups and 2-cells."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from helpers import corrupt_graph

from butterflies.fingroup import (
    GroupAction,
    GroupHom,
    automorphism_group,
    conjugation_action,
    cyclic_group,
    identity_hom,
    klein_four,
    subgroup_generated,
    symmetric_group,
    trivial_action,
    trivial_group,
    zero_hom,
)
from butterflies.xmod import (
    CrossedModule,
    TwoGroupFunctor,
    XModMorphism,
    XModTwoCell,
    all_xmod_morphisms,
    denormalization_round_trip_iso,
    denormalize,
    denormalize_morphism,
    enumerate_natural_transformations,
    enumerate_two_cells,
    identity_morphism,
    identity_two_cell,
    is_weak_equivalence,
    normalization_round_trip_equal,
    normalize,
    pullback_crossed_module,
    validate_crossed_module,
    validate_two_cell,
    validate_two_group,
    validate_two_group_functor,
    validate_xmod_morphism,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
V4 = klein_four()
S3 = symmetric_group(3)
ONE = trivial_group()


def discrete(H):
    """(0 -> H) with the only possible action."""
    return CrossedModule(ONE, H, zero_hom(ONE, H), trivial_action(H, ONE), name=f"D({H.name})")


def conj_xmod(G):
    """(id: G -> G, conjugation)."""
    return CrossedModule(G, G, identity_hom(G), conjugation_action(G), name=f"C({G.name})")


def aut_like(G):
    """(inner: G -> Aut G, evaluation)."""
    A, ev = automorphism_group(G)
    pos = {p: i for i, p in enumerate(ev.act)}
    inner = GroupHom(G, A, tuple(pos[tuple(G.conj(g, a) for a in range(G.order))] for g in range(G.order)))
    return CrossedModule(G, A, inner, ev, name=f"A({G.name})")


def corrupt_leg(P, leg, corrupt):
    """P with its map `leg` (p or p0) out of range or one entry short, built unchecked."""
    h = getattr(P, leg)
    bad = (h.cod.order,) * h.dom.order if corrupt == "out-of-range" else h.map[:-1]
    return dataclasses.replace(P, **{leg: GroupHom._trusted(h.dom, h.cod, bad)})


class TestValidation:
    def test_discrete_valid(self):
        assert validate_crossed_module(discrete(Z2)).ok

    def test_conjugation_valid(self):
        for G in (Z3, S3):
            assert validate_crossed_module(conj_xmod(G)).ok

    def test_aut_valid(self):
        for G in (Z2, Z4, V4, S3):
            assert validate_crossed_module(aut_like(G)).ok

    def test_invalid_reports_pairs(self):
        # a transposition subgroup of S3 with the trivial action: both conditions fail
        sub, incl = subgroup_generated(S3, [next(a for a in range(6) if S3.element_orders[a] == 2)]).as_group()
        X = CrossedModule(sub, S3, incl, trivial_action(S3, sub))
        report = validate_crossed_module(X)
        assert not report.ok
        assert "precrossed" in report.conditions()
        # every reported witness replays to an actual violation
        for f in report.findings:
            if f.condition == "precrossed":
                x, g = f.witness
                assert X.boundary.map[X.act(x, g)] != S3.conj(x, X.boundary.map[g])


    @pytest.mark.parametrize("corrupt", ("out-of-range", "short"))
    def test_boundary_off_its_groups_is_a_finding(self, corrupt):
        X = aut_like(S3)
        bd = X.boundary
        bad = (bd.cod.order,) * bd.dom.order if corrupt == "out-of-range" else bd.map[:-1]
        report = validate_crossed_module(dataclasses.replace(X, boundary=GroupHom._trusted(bd.dom, bd.cod, bad)))
        assert [(f.condition, f.witness) for f in report.findings] == [("map-range", "boundary")]

    def test_action_row_off_the_group_is_a_finding(self):
        X = conj_xmod(S3)
        act = list(X.action.act)
        act[2] = act[2][:-1]
        report = validate_crossed_module(dataclasses.replace(X, action=GroupAction._trusted(S3, S3, tuple(act))))
        findings = [(f.condition, f.witness, f.detail) for f in report.findings]
        assert findings == [("not-an-action", 2, "act[2] is not a permutation of the target")]
        short = GroupAction._trusted(S3, S3, X.action.act[:-1])
        report = validate_crossed_module(dataclasses.replace(X, action=short))
        findings = [(f.condition, f.witness, f.detail) for f in report.findings]
        assert findings == [("not-an-action", 5, "one permutation per actor element required")]

    # actions built unchecked that are no actions: Z2 acting on Z3 by the zero
    # endomorphism, and Z4 on Z3 with act[1] = act[2] the inversion
    NON_ACTIONS = [
        (Z2, ((0, 1, 2), (0, 0, 0)), 1, "act[1] is not a permutation of the target"),
        (Z4, ((0, 1, 2), (0, 2, 1), (0, 2, 1), (0, 1, 2)), (1, 1), "act[1*1] != act[1] o act[1]"),
    ]

    @pytest.mark.parametrize("actor, act, witness, reason", NON_ACTIONS, ids=["zero-row", "not-multiplicative"])
    def test_non_action_is_a_finding(self, actor, act, witness, reason):
        # precrossed and Peiffer both hold: the trivial boundary and an abelian G
        X = CrossedModule(Z3, actor, zero_hom(Z3, actor), GroupAction._trusted(actor, Z3, act))
        report = validate_crossed_module(X)
        assert [(f.condition, f.witness, f.detail) for f in report.findings] == [("not-an-action", witness, reason)]
        with pytest.raises(ValueError) as refused:
            GroupAction(actor, Z3, act)
        assert str(refused.value) == reason

    def test_hash_is_the_field_hash_computed_once(self, monkeypatch):
        X = aut_like(S3)
        assert hash(X) == hash((X.G, X.G0, X.boundary, X.action))
        hashed = []
        for cls in (GroupHom, GroupAction):
            monkeypatch.setattr(cls, "__hash__", lambda self, h=cls.__hash__: hashed.append(self) or h(self))
        assert hash(X) == hash(dataclasses.replace(X))
        assert len(hashed) == 2
        hashed.clear()
        hash(X)
        assert hashed == []


class TestNormalization:
    def test_denormalize_discrete(self):
        T = denormalize(discrete(Z4))
        assert T.G1.order == 4
        assert T.d.map == T.c.map == tuple(range(4))

    def test_denormalize_one_object(self):
        X = CrossedModule(Z2, ONE, zero_hom(Z2, ONE), trivial_action(ONE, Z2))
        T = denormalize(X)
        assert T.G1.order == 2 and T.G0.order == 1

    def test_denormalize_codiscrete(self):
        T = denormalize(conj_xmod(Z2))
        assert T.G1.order == 4
        for x in range(2):
            for y in range(2):
                assert len(T.hom_set(x, y)) == 1

    def test_denormalized_axioms(self):
        for X in (discrete(Z4), conj_xmod(Z3), aut_like(Z4), conj_xmod(S3)):
            assert validate_two_group(denormalize(X)).ok

    def test_normalize_discrete_2group(self):
        T = denormalize(discrete(Z4))
        X = normalize(T)
        assert X.G.order == 1 and X.G0 == Z4

    def test_normalize_one_object(self):
        X = CrossedModule(Z2, ONE, zero_hom(Z2, ONE), trivial_action(ONE, Z2))
        Y = normalize(denormalize(X))
        assert Y.G.order == 2 and Y.G0.order == 1

    def test_normalize_action_groupoid(self):
        # the 2-group of A(Z4) normalizes back with zero boundary (Z4 abelian)
        T = denormalize(aut_like(Z4))
        X = normalize(T)
        assert X.G == Z4
        assert X.boundary.map == (0, 0, 0, 0)

    def test_round_trip_xmod_side(self):
        for X in (discrete(Z2), discrete(V4), conj_xmod(Z3), aut_like(Z4), conj_xmod(S3)):
            assert normalization_round_trip_equal(X)

    @pytest.mark.parametrize("corrupt", ("out-of-range", "short"))
    @pytest.mark.parametrize("leg", ("d", "c", "e"))
    def test_graph_map_off_its_groups_is_a_finding(self, leg, corrupt):
        # reported before the unit and interchange laws index the graph, not an IndexError
        T = denormalize(aut_like(Z3))
        report = validate_two_group(corrupt_graph(T, leg, corrupt))
        assert [(f.condition, f.witness) for f in report.findings] == [("map-range", leg)]
        D, C = (T.G0, T.G1) if leg == "e" else (T.G1, T.G0)
        assert report.findings[0].detail == f"{leg} is not a map {D.name} -> {C.name}"

    @pytest.mark.parametrize("end", ("dom", "cod"))
    def test_functor_end_with_a_graph_map_off_its_groups_is_a_finding(self, end):
        F = denormalize_morphism(identity_morphism(aut_like(Z3)))
        bad = corrupt_graph(getattr(F, end), "d", "short")
        report = validate_two_group_functor(dataclasses.replace(F, **{end: bad}))
        assert [(f.condition, f.witness) for f in report.findings] == [("underlying-2group:map-range", "d")]

    def test_round_trip_2group_side(self):
        for X in (discrete(Z4), conj_xmod(Z2), aut_like(Z2), aut_like(Z3)):
            T = denormalize(X)
            F = denormalization_round_trip_iso(T)
            assert F is not None and F.p1.is_isomorphism


class TestMorphisms:
    def test_identity_is_morphism(self):
        P = identity_morphism(conj_xmod(S3))
        assert P.p.is_isomorphism  # a discrete fibration
        ok, _, _ = is_weak_equivalence(P)
        assert ok

    def test_inclusion_not_weak_equivalence(self):
        incl = GroupHom(Z2, Z4, (0, 2))
        P = XModMorphism(discrete(Z2), discrete(Z4), zero_hom(ONE, ONE), incl)
        assert validate_xmod_morphism(P).ok
        ok, ker_map, coker_map = is_weak_equivalence(P)
        assert not ok
        assert ker_map.is_isomorphism  # kernels are trivial on both sides
        assert not coker_map.is_isomorphism  # Z2 -> Z4 on cokernels

    def test_discrete_fibration_trivial_top(self):
        P = XModMorphism(discrete(Z2), discrete(Z4), zero_hom(ONE, ONE), GroupHom(Z2, Z4, (0, 2)))
        assert validate_xmod_morphism(P).ok
        assert P.p.is_isomorphism  # a discrete fibration

    def test_denormalized_functor_valid(self):
        X, Y = conj_xmod(Z2), aut_like(Z2)
        for P in all_xmod_morphisms(X, Y):
            assert validate_two_group_functor(denormalize_morphism(P)).ok

    def test_functor_breaking_sources_is_a_finding(self):
        # composition is checked only once sources, targets and units hold:
        # before that, U.m has no entry for the image of a composable pair;
        # this p1 does not multiply either, which the gate reports
        T = denormalize(conj_xmod(Z3))
        p1 = GroupHom._trusted(T.G1, T.G1, tuple(2 * a % 9 for a in range(9)))
        report = validate_two_group_functor(TwoGroupFunctor(T, T, p1, identity_hom(T.G0)))
        assert report.conditions() == {"not-hom", "functor-source", "functor-target", "functor-unit"}

    @pytest.mark.parametrize("corrupt", ("out-of-range", "short"))
    @pytest.mark.parametrize("leg", ("p", "p0"))
    def test_morphism_map_off_its_groups_is_a_finding(self, leg, corrupt):
        report = validate_xmod_morphism(corrupt_leg(identity_morphism(conj_xmod(S3)), leg, corrupt))
        assert [(f.condition, f.witness) for f in report.findings] == [("map-range", leg)]


class TestPullbackXMod:
    def test_identity_sigma(self):
        X = conj_xmod(Z3)
        pulled, comparison = pullback_crossed_module(X, identity_hom(Z3))
        assert pulled.G.order == X.G.order
        assert validate_crossed_module(pulled).ok
        ok, _, _ = is_weak_equivalence(comparison)
        assert ok

    def test_discrete_target_gives_kernel(self):
        # pulling (0 -> H) back along sigma gives (ker sigma -> E) with conjugation
        sigma = GroupHom(Z4, Z2, (0, 1, 0, 1))
        pulled, _ = pullback_crossed_module(discrete(Z2), sigma)
        assert pulled.G.order == 2  # ker sigma = {0, 2}
        assert validate_crossed_module(pulled).ok

    def test_surjective_sigma_weak_equivalence(self):
        sigma = GroupHom(Z4, Z2, (0, 1, 0, 1))
        pulled, comparison = pullback_crossed_module(conj_xmod(Z2), sigma)
        assert pulled.G.order == 4
        assert validate_crossed_module(pulled).ok
        ok, _, _ = is_weak_equivalence(comparison)
        assert ok

    def test_all_surjective_sigmas_small(self):
        # exhaustive desk-scale invariant
        from butterflies.fingroup import all_homomorphisms

        for X in (discrete(Z2), conj_xmod(Z2), aut_like(Z3)):
            for E in (Z4, V4, S3):
                for sigma in all_homomorphisms(E, X.G0):
                    if not sigma.is_surjective:
                        continue
                    pulled, comparison = pullback_crossed_module(X, sigma)
                    assert validate_crossed_module(pulled).ok
                    ok, _, _ = is_weak_equivalence(comparison)
                    assert ok


class TestTwoCells:
    def test_identity_two_cell(self):
        P = identity_morphism(conj_xmod(Z2))
        cell = identity_two_cell(P)
        assert validate_two_cell(cell).ok

    def test_unique_cell_discrete_to_aut_z2(self):
        H, G = discrete(Z2), aut_like(Z2)
        morphisms = list(all_xmod_morphisms(H, G))
        assert len(morphisms) == 1
        cells = enumerate_two_cells(morphisms[0], morphisms[0])
        assert len(cells) == 2  # alpha(1bar) free over ker(inner) = Z2
        for cell in cells:
            assert validate_two_cell(cell).ok

    def test_failing_alpha_reported(self):
        P = identity_morphism(conj_xmod(Z2))
        T = denormalize(P.cod)
        good = identity_two_cell(P).alpha
        bad = list(good)
        bad[1] = next(j for j in range(T.G1.order) if T.d.map[j] != P.p0.map[1])
        report = validate_two_cell(XModTwoCell(P, P, tuple(bad)))
        assert not report.ok
        assert any(f.condition == "source" and f.witness == 1 for f in report.findings)

    @pytest.mark.parametrize("corrupt", ("out-of-range", "short"))
    @pytest.mark.parametrize("leg", ("p", "p0"))
    def test_morphism_map_off_its_groups_is_a_finding(self, leg, corrupt):
        P = identity_morphism(conj_xmod(S3))
        report = validate_two_cell(XModTwoCell(corrupt_leg(P, leg, corrupt), P, identity_two_cell(P).alpha))
        assert [(f.condition, f.witness) for f in report.findings] == [("map-range", f"P.{leg}")]

    @pytest.mark.parametrize("value", [-1, 4, 99])
    def test_alpha_out_of_range_rejected(self, value):
        P = identity_morphism(conj_xmod(Z2))  # 4 arrows
        with pytest.raises(ValueError, match="arrow range"):
            XModTwoCell(P, P, (0, value))

    def test_two_cells_match_natural_transformations(self):
        # both exhaustive enumerations agree as sets of maps
        pairs = []
        for X, Y in [(discrete(Z2), aut_like(Z2)), (conj_xmod(Z2), conj_xmod(Z2)), (discrete(Z3), aut_like(Z3))]:
            ms = list(all_xmod_morphisms(X, Y))
            pairs += [(P, Q) for P in ms for Q in ms]
        assert pairs
        for P, Q in pairs:
            cells = {c.alpha for c in enumerate_two_cells(P, Q)}
            nats = set(enumerate_natural_transformations(P, Q))
            assert cells == nats

    def test_every_candidate_agrees_with_naturality(self):
        # exhaustive candidate-level agreement between the two formulations
        X, Y = conj_xmod(Z2), aut_like(Z2)
        for P in all_xmod_morphisms(X, Y):
            for Q in all_xmod_morphisms(X, Y):
                TG = denormalize(Y)
                fibers = [
                    TG.hom_set(P.p0.map[x], Q.p0.map[x]) for x in range(X.G0.order)
                ]
                if any(not f for f in fibers):
                    continue
                nats = set(enumerate_natural_transformations(P, Q))
                for combo in itertools.product(*fibers):
                    cell_ok = validate_two_cell(XModTwoCell(P, Q, combo)).ok
                    assert cell_ok == (combo in nats)
