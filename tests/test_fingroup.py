"""Tests for the finite-group kernel."""

from __future__ import annotations

import itertools
import random

import pytest

from butterflies.errors import BoundExceeded, CodomainMismatch, ConstructionError, NotAGroup, NotNormal
from butterflies.fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    all_homomorphisms,
    automorphism_group,
    conjugation_action,
    construct_group,
    cyclic_group,
    dicyclic_group,
    direct_product,
    identity_hom,
    isomorphism_search,
    kernel,
    klein_four,
    product_and_pullback,
    pullback_quotient,
    quotient,
    semidirect_product,
    subgroup_generated,
    symmetric_group,
    trivial_action,
    trivial_group,
    zero_hom,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
V4 = klein_four()
S3 = symmetric_group(3)


class TestConstructGroup:
    def test_trivial(self):
        g = construct_group([[0]], "1")
        assert g.order == 1

    def test_z4_table(self):
        g = construct_group([[(a + b) % 4 for b in range(4)] for a in range(4)], "Z4")
        assert g.order == 4
        assert g.table[1][1] == 2

    def test_non_latin_row_rejected(self):
        with pytest.raises(NotAGroup):
            construct_group([[0, 1], [1, 1]])

    def test_no_identity_rejected(self):
        # the left-shift table: every row a permutation, no two-sided identity
        with pytest.raises(NotAGroup):
            construct_group([[1, 0, 2], [2, 1, 0], [0, 2, 1]])

    def test_associativity_rejected(self):
        # a Latin square with identity which is not associative (order 5 loop)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup):
            construct_group(table)

    def test_identity_relocation(self):
        # Z2 written with the identity at index 1
        g = construct_group([[1, 0], [0, 1]], "Z2-shifted")
        assert g.table[0][0] == 0
        assert g.relabeling is not None
        assert g == cyclic_group(2)

    def test_empty_rejected(self):
        with pytest.raises(NotAGroup):
            construct_group([])

    # a checked group is one the store can write and reload: its name is a
    # string and its labels are one string per element, else ValueError
    @pytest.mark.parametrize(
        "name, labels",
        [("Z2", ["a"]), ("Z2", ["a", "b", "c"]), ("Z2", ["a", 1]), (5, None), (None, ["a", "b"])],
        ids=["short", "long", "not-str", "int-name", "no-name"],
    )
    def test_name_and_labels_the_store_refuses_are_refused(self, name, labels):
        for build in (FinGroup, construct_group):
            with pytest.raises(ValueError, match="name must be a string and its labels one string per element"):
                build([[0, 1], [1, 0]], name, labels)
        with pytest.raises(ValueError, match="one string per element"):
            construct_group([[1, 0], [0, 1]], name, labels)  # the relocation path, not an IndexError


class TestHomBasics:
    def test_kernel_parity(self):
        f = GroupHom(Z4, Z2, (0, 1, 0, 1))
        assert kernel(f).elements == (0, 2)

    def test_kernel_identity(self):
        assert kernel(identity_hom(Z2)).elements == (0,)

    def test_kernel_zero(self):
        assert kernel(zero_hom(Z2, Z2)).elements == (0, 1)

    def test_non_hom_rejected(self):
        with pytest.raises(ValueError):
            GroupHom(Z4, Z2, (0, 1, 1, 0))

    def test_then_composes_left_to_right(self):
        f = GroupHom(Z4, Z2, (0, 1, 0, 1))
        g = identity_hom(Z2)
        assert f.then(g).map == f.map

    def test_kernel_is_normal(self):
        f = GroupHom(S3, Z2, tuple(0 if p in (0, 3, 4) else 1 for p in range(6)))
        assert kernel(f).is_normal()


class TestQuotient:
    def test_z4_mod_2(self):
        Q, pr = quotient(Z4, Subgroup(Z4, (0, 2)))
        assert Q.order == 2
        assert pr.map == (0, 1, 0, 1)
        assert kernel(pr).elements == (0, 2)

    def test_quotient_by_trivial(self):
        Q, pr = quotient(Z4, Subgroup(Z4, (0,)))
        assert Q == Z4
        assert pr.map == tuple(range(4))

    def test_quotient_by_everything(self):
        Q, _ = quotient(Z4, Subgroup(Z4, (0, 1, 2, 3)))
        assert Q.order == 1

    def test_not_normal_rejected(self):
        sub = subgroup_generated(S3, [1])  # a transposition
        assert sub.order == 2
        with pytest.raises(NotNormal):
            quotient(S3, sub)

    def test_projection_surjective_kernel_exact(self):
        # invariant over a few normal subgroups of small groups
        for G in (Z4, V4, S3):
            for elems in _normal_subgroups(G):
                N = Subgroup(G, elems)
                Q, pr = quotient(G, N)
                assert pr.is_surjective
                assert kernel(pr).elements == N.elements


def _normal_subgroups(G: FinGroup):
    out = []
    for r in range(G.order):
        s = subgroup_generated(G, [r])
        if s.is_normal() and s.elements not in out:
            out.append(s.elements)
    return out


class TestPullback:
    def test_diagonal(self):
        P, p1, p2, _ = product_and_pullback(identity_hom(Z2), identity_hom(Z2))
        assert P.order == 2
        assert p1.map == p2.map

    def test_full_product(self):
        P, _, _, _ = direct_product(Z2, Z4)
        assert P.order == 8

    def test_parity_pullback(self):
        f = GroupHom(Z4, Z2, (0, 1, 0, 1))
        P, p1, p2, pair = product_and_pullback(f, f)
        # oracle: count pairs with equal parity
        on = [(a, b) for a in range(4) for b in range(4) if a % 2 == b % 2]
        assert P.order == len(on) == 8
        assert pair(p1.map, p2.map) == tuple(range(P.order))
        assert sorted(pair(*zip(*on))) == list(range(P.order))
        with pytest.raises(ConstructionError):
            pair([1], [2])  # (1, 2) has mixed parity: off P

    @pytest.mark.parametrize("normal", [{(0, 0)}, {(0, 0), (2, 2)}])
    def test_pair_off_the_pullback_raises_construction_error(self, normal):
        # refused with the message of the failed lookup, which the compose-fault witnesses record
        parity = GroupHom(Z4, Z2, (0, 1, 0, 1))
        _, _, pair, _ = pullback_quotient(parity, parity, normal, "Q", "({},{})")
        with pytest.raises(ConstructionError, match="not NoneType"):
            pair([0, 1], [0, 2])

    def test_pair_is_constant_on_cosets(self):
        # N = {(0,0), (2,2)}: (a, c) and (a+2, c+2) are one coset of Q
        parity = GroupHom(Z4, Z2, (0, 1, 0, 1))
        pairs, coset_of, pair, Q = pullback_quotient(parity, parity, {(0, 0), (2, 2)}, "Q", "({},{})")
        us, vs = zip(*pairs)
        assert Q.order == len(pairs) // 2 == 4
        assert pair(us, vs) == tuple(coset_of)
        assert pair(us, vs) == pair([(u + 2) % 4 for u in us], [(v + 2) % 4 for v in vs])
        assert set(pair(us, vs)) == set(range(Q.order))

    def test_codomain_mismatch(self):
        with pytest.raises(CodomainMismatch):
            product_and_pullback(identity_hom(Z2), identity_hom(Z3))

    @pytest.mark.parametrize("against, normal", [("Z4", {(0, 0)}), ("Z4", {(0, 0), (2, 2)}), ("S3", {(0, 0)})])
    def test_labels_match_the_eager_format(self, against, normal):
        # labels are built on first read: the format of each coset's minimal pair
        parity = GroupHom(Z4, Z2, (0, 1, 0, 1))
        sign = GroupHom(S3, Z2, tuple(int(S3.element_orders[p] == 2) for p in range(6)))
        g = parity if against == "Z4" else sign
        pairs, coset_of, _, Q = pullback_quotient(parity, g, normal, "Q", "[({},{})]")
        minimal: dict[int, tuple[int, int]] = {}
        for pair, q in zip(pairs, coset_of):
            minimal.setdefault(q, pair)
        eager = tuple("[({},{})]".format(Z4.label(a), g.dom.label(c)) for a, c in minimal.values())
        assert len(eager) == Q.order and Q.element_labels == eager

    def test_universal_property_random_cones(self):
        rng = random.Random(7)
        f = GroupHom(Z4, Z2, (0, 1, 0, 1))
        g = GroupHom(S3, Z2, tuple(0 if S3.element_orders[p] != 2 else 1 for p in range(6)))
        P, p1, p2, pair = product_and_pullback(f, g)
        assert pair(p1.map, p2.map) == tuple(range(P.order))
        X = cyclic_group(6)
        cones = [
            (u, v)
            for u in all_homomorphisms(X, Z4)
            for v in all_homomorphisms(X, S3)
            if u.then(f).map == v.then(g).map
        ]
        for u, v in rng.sample(cones, min(10, len(cones))):
            factored = [
                m.map
                for m in all_homomorphisms(X, P)
                if m.then(p1).map == u.map and m.then(p2).map == v.map
            ]
            # the unique factorization is the pair map of (u, v)
            assert factored == [pair(u.map, v.map)]


class TestSemidirect:
    def test_trivial_action_gives_product(self):
        S, c, e, g = semidirect_product(trivial_action(Z2, Z2))
        assert S.order == 4
        assert S.is_abelian

    def test_inversion_gives_s3(self):
        inversion = GroupAction(Z2, Z3, ((0, 1, 2), (0, 2, 1)))
        S, *_ = semidirect_product(inversion)
        assert S.order == 6
        assert not S.is_abelian
        assert isomorphism_search(S, S3) is not None

    def test_split_exact_for_all_small_actions(self):
        # every group of order <= 8 in both roles
        groups = [
            trivial_group(),
            Z2,
            Z3,
            Z4,
            V4,
            cyclic_group(5),
            cyclic_group(6),
            S3,
            cyclic_group(7),
            cyclic_group(8),
            direct_product(Z4, Z2)[0],
            direct_product(V4, Z2)[0],
            _dihedral4(),
            dicyclic_group(2),
        ]
        checked = 0
        for G in groups:
            autG, ev = automorphism_group(G)
            for G0 in groups:
                for rho in all_homomorphisms(G0, autG):
                    xi = GroupAction(G0, G, tuple(ev.act[rho.map[x]] for x in range(G0.order)))
                    S, c, e, g = semidirect_product(xi)
                    assert e.then(c).map == tuple(range(G0.order))
                    assert kernel(c).elements == tuple(sorted(g.map))
                    assert c.is_surjective and g.is_injective
                    checked += 1
        assert checked > 500


def _dihedral4():
    inv = GroupAction(Z2, Z4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    return semidirect_product(inv)[0]


class TestAutomorphisms:
    def test_aut_z2_trivial(self):
        A, _ = automorphism_group(Z2)
        assert A.order == 1

    def test_aut_z4(self):
        # oracle: unit multipliers mod 4 are {1, 3}
        units = [u for u in range(1, 4) if _gcd(u, 4) == 1]
        A, ev = automorphism_group(Z4)
        assert A.order == len(units) == 2
        expected = sorted(tuple((u * a) % 4 for a in range(4)) for u in units)
        assert sorted(ev.act) == expected

    def test_aut_klein_four(self):
        # oracle: invertible 2x2 matrices over F2
        mats = [
            m
            for m in itertools.product((0, 1), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 2 == 1
        ]
        A, _ = automorphism_group(V4)
        assert A.order == len(mats) == 6
        assert isomorphism_search(A, S3) is not None

    def test_aut_table_is_composition(self):
        A, ev = automorphism_group(V4)
        for i in range(A.order):
            for j in range(A.order):
                composed = tuple(ev.act[i][ev.act[j][a]] for a in range(V4.order))
                assert ev.act[A.table[i][j]] == composed

    def test_identity_at_index_zero(self):
        for G in (Z2, Z4, V4, S3):
            _, ev = automorphism_group(G)
            assert ev.act[0] == tuple(range(G.order))

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            automorphism_group(cyclic_group(30))

    @pytest.mark.parametrize("order", range(1, 13))
    def test_automorphisms_come_sorted(self, order):
        # the generator search yields maps in lexicographic order, so none is re-sorted
        from butterflies.extension import standard_catalog

        for _, G in standard_catalog(order):
            _, ev = automorphism_group(G)
            assert list(ev.act) == sorted(ev.act)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestIsomorphismSearch:
    def test_z4_vs_klein(self):
        assert isomorphism_search(Z4, V4) is None

    def test_self_identity(self):
        w = isomorphism_search(S3, S3)
        assert w is not None and w.is_isomorphism

    def test_semidirect_vs_permutations(self):
        inversion = GroupAction(Z2, Z3, ((0, 1, 2), (0, 2, 1)))
        S, *_ = semidirect_product(inversion)
        w = isomorphism_search(S, S3)
        assert w is not None
        assert w.is_isomorphism

    def test_matches_exhaustive_search_small(self):
        Z4xZ2 = direct_product(Z4, Z2)[0]
        pairs = [
            (Z4, V4),
            (Z4, Z4),
            (V4, V4),
            (Z2, Z2),
            (cyclic_group(6), S3),
            (cyclic_group(8), Z4xZ2),
            (dicyclic_group(2), Z4xZ2),
        ]
        for G, H in pairs:
            witness = isomorphism_search(G, H)
            assert (witness is not None) == _brute_iso_exists(G, H)


def _brute_iso_exists(G: FinGroup, H: FinGroup) -> bool:
    if G.order != H.order:
        return False
    for perm in itertools.permutations(range(1, G.order)):
        m = (0,) + perm
        if all(
            m[G.table[a][b]] == H.table[m[a]][m[b]]
            for a in range(G.order)
            for b in range(G.order)
        ):
            return True
    return False


class TestConjugation:
    def test_abelian_is_trivial(self):
        act = conjugation_action(Z4)
        assert all(p == tuple(range(4)) for p in act.act)

    def test_s3_transposition_swaps_three_cycles(self):
        act = conjugation_action(S3)
        cycles = [a for a in range(6) if S3.element_orders[a] == 3]
        t = next(a for a in range(6) if S3.element_orders[a] == 2)
        assert act.act[t][cycles[0]] == cycles[1]
        assert act.act[t][cycles[1]] == cycles[0]

    def test_unit_law(self):
        for G in (Z2, S3, dicyclic_group(2)):
            assert conjugation_action(G).act[0] == tuple(range(G.order))


class TestAllHomomorphisms:
    def test_hom_counts_cyclic(self):
        # oracle: #Hom(Z/m, Z/n) = gcd(m, n)
        for m, n in [(2, 2), (2, 4), (4, 2), (3, 4), (6, 4)]:
            homs = all_homomorphisms(cyclic_group(m), cyclic_group(n))
            assert len(homs) == _gcd(m, n)

    def test_hom_count_v4_to_z2(self):
        assert len(all_homomorphisms(V4, Z2)) == 4

    def test_endos_of_s3(self):
        # oracle: End(S3) = 1 zero map + 3 projections-onto-Z2 + 6 inner-ish autos
        assert len(all_homomorphisms(S3, S3)) == 10


class TestMisc:
    def test_dicyclic_is_quaternion_like(self):
        Q8 = dicyclic_group(2)
        assert Q8.order == 8
        assert [Q8.element_orders.count(o) for o in (1, 2, 4)] == [1, 1, 6]

    def test_group_equality_is_table_equality(self):
        assert cyclic_group(4, "A") == cyclic_group(4, "B")
        assert Z4 != V4

    def test_trivial_group(self):
        assert trivial_group().order == 1
