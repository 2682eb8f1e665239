"""Tests for extension classification: butterflies vs the Schreier oracle."""

from __future__ import annotations

import gc
import weakref

import pytest

from helpers import ONE, S3, V4, Z2, Z3, Z4, is_split

from butterflies import errors, extension, fingroup
from butterflies.butterfly import butterfly_morphisms, isomorphic_butterflies
from butterflies.errors import BoundExceeded
from butterflies.extension import (
    FactorSet,
    aut_xmod,
    butterfly_from_extension,
    classify_extensions,
    discrete_xmod,
    enumerate_cocycles,
    extension_equivalences,
    factor_set_of_extension,
    factor_set_oracle,
    factor_set_to_extension,
    identify_group,
    standard_catalog,
    validate_factor_set,
)
from butterflies.fingroup import (
    GroupHom,
    all_homomorphisms,
    automorphism_group,
    dicyclic_group,
    identity_hom,
    isomorphism_search,
    zero_hom,
)
from butterflies.xmod import validate_crossed_module


class TestBasicXMods:
    def test_discrete(self):
        D = discrete_xmod(Z2)
        assert D.G.order == 1 and D.G0 == Z2
        assert validate_crossed_module(D).ok

    def test_aut_z2_trivial_base(self):
        A = aut_xmod(Z2)
        assert A.G0.order == 1
        assert A.boundary.map == (0, 0)
        assert validate_crossed_module(A).ok

    def test_aut_s3_inner_iso(self):
        A = aut_xmod(S3)
        assert A.G0.order == 6
        assert A.boundary.is_isomorphism  # S3 is complete
        assert validate_crossed_module(A).ok

    def test_aut_klein(self):
        A = aut_xmod(V4)
        assert A.G0.order == 6
        assert validate_crossed_module(A).ok


class TestExtensionButterfly:
    def test_split_extension_is_split_butterfly(self):
        from butterflies.butterfly import split_from_morphism
        from butterflies.xmod import XModMorphism

        E = V4
        B = butterfly_from_extension(GroupHom(Z2, E, (0, 1)), GroupHom(E, Z2, (0, 0, 1, 1)))
        P = XModMorphism(
            discrete_xmod(Z2), aut_xmod(Z2), zero_hom(ONE, Z2), zero_hom(Z2, aut_xmod(Z2).G0)
        )
        S, _ = split_from_morphism(P)
        assert isomorphic_butterflies(B, S) is not None

    def test_z4_extension_not_split(self):
        B = butterfly_from_extension(GroupHom(Z2, Z4, (0, 2)), GroupHom(Z4, Z2, (0, 1, 0, 1)))
        assert not is_split(B)
        # no homomorphism section of sigma exists
        ident = identity_hom(Z2)
        assert not any(
            s.then(B.sigma) == ident for s in all_homomorphisms(Z2, B.E)
        )

    def test_d4_extension_nontrivial_rho(self):
        # Z2 <- D4 <- Z4 with conjugation acting by inversion
        D4 = dict(standard_catalog(8))["D4"]
        order4 = [a for a in range(8) if D4.element_orders[a] == 4]
        sub_elems = sorted({0, D4.table[order4[0]][order4[0]]} | set(order4))
        from butterflies.fingroup import Subgroup, quotient

        N = Subgroup(D4, tuple(sub_elems))
        assert N.order == 4
        Q, pr = quotient(D4, N)
        iso = isomorphism_search(N.as_group()[0], Z4)
        assert iso is not None
        incl = GroupHom(Z4, D4, tuple(N.as_group()[1].map[iso.map.index(a)] for a in range(4)))
        B = butterfly_from_extension(incl, pr)
        assert (B.dom.G0, B.cod.G, B.E) == (Q, Z4, D4)
        assert len(set(B.rho.map)) == 2  # conjugation hits identity and inversion


class TestFactorSets:
    def test_cocycle_counts_z2_z2(self):
        cocycles = enumerate_cocycles(Z2, Z2)
        assert len(cocycles) == 2  # one free value in Z2

    def test_cocycles_die_with_the_callers_list(self):
        # the search keeps no reference cycle, so reference counting alone
        # frees every factor set once the caller drops the list
        gc.disable()
        try:
            cocycles = enumerate_cocycles(fingroup.cyclic_group(8), Z2)
            refs = [weakref.ref(fs) for fs in cocycles]
            del cocycles
            assert len(refs) == 128 and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_branches_reached_by_products_are_not_searched(self, monkeypatch):
        # a slot value that is a product of the cocycles kept at that slot is
        # not searched: 83 branch searches on V4 by V4, where one per value made 96
        searches = []
        search = extension._backtrack

        def counting(*args):  # the enumerator's own name for the engine: one call per branch search
            searches.append(1)
            return search(*args)

        monkeypatch.setattr(extension, "_backtrack", counting)
        assert len(enumerate_cocycles(V4, V4)) == 544
        assert len(searches) == 83

    def test_cocycle_validation(self):
        aut, ev = automorphism_group(Z3)
        for fs in enumerate_cocycles(Z2, Z3):
            assert validate_factor_set(fs, aut, ev)

    @pytest.mark.parametrize(
        "phi, f",
        [
            ((0, 99), ((0, 0), (0, 0))),  # phi off the range of Aut(Z3)
            ((0, 0), ((0, 0),)),  # one row of f
            ((0, 0), ((0, 0), (0,))),  # a short row of f
            ((0, 0), ((0, 0), (0, 3))),  # a value of f off Z3
            ((0,), ((0, 0), (0, 0))),  # phi one short
        ],
    )
    def test_malformed_factor_set_is_invalid(self, phi, f):
        aut, ev = automorphism_group(Z3)
        assert validate_factor_set(FactorSet(Z2, Z3, phi, f), aut, ev) is False

    def test_reconstruction_builds_groups(self):
        for fs in enumerate_cocycles(Z2, Z2):
            B = factor_set_to_extension(fs)
            assert B.E.order == 4

    def test_factor_set_read_back(self):
        B = butterfly_from_extension(GroupHom(Z2, Z4, (0, 2)), GroupHom(Z4, Z2, (0, 1, 0, 1)))
        fs = factor_set_of_extension(B, (0, 1))
        aut, ev = automorphism_group(Z2)
        assert validate_factor_set(fs, aut, ev)
        assert fs.f[1][1] == 1  # s(1)+s(1)-s(0) = 2 = iota(1)
        rebuilt = factor_set_to_extension(fs)
        assert isomorphism_search(rebuilt.E, Z4) is not None


class TestOracle:
    def test_z2_z2_two_classes(self):
        classes = factor_set_oracle(Z2, Z2)
        assert len(classes) == 2

    def test_z3_z3_trivial_phi_three_classes(self):
        classes = factor_set_oracle(Z3, Z3)
        trivial_phi = [cls for cls in classes if any(fs.phi == (0, 0, 0) for fs in cls)]
        assert len(trivial_phi) == 3

    def test_z2_z3_two_classes(self):
        classes = factor_set_oracle(Z2, Z3)
        assert len(classes) == 2  # trivial vs inversion action, H^2 vanishes

    def test_nonabelian_kernel_is_a_domain_error(self):
        with pytest.raises(errors.TwistLeavesCocycles) as info:
            factor_set_oracle(Z2, S3)
        # still the KeyError of the failed lookup it reports
        assert isinstance(info.value, errors.ButterflyError)
        assert isinstance(info.value, KeyError)

    def test_aut_searched_once_per_kernel(self, monkeypatch):
        calls = []

        def counting(G, *args):
            calls.append(G)
            return automorphism_group(G, *args)

        monkeypatch.setattr(extension, "automorphism_group", counting)
        aut_xmod.cache_clear()
        classify_extensions(V4, Z2)
        factor_set_oracle(V4, Z2)
        factor_set_of_extension(factor_set_to_extension(enumerate_cocycles(Z2, Z3)[0]), (0, 1))
        aut_xmod.cache_clear()
        assert calls == [Z2, Z3]

    def test_orbits_partition_cocycles(self):
        cocycles = enumerate_cocycles(Z4, Z2)
        classes = factor_set_oracle(Z4, Z2)
        assert sum(len(c) for c in classes) == len(cocycles)


class TestClassify:
    def test_z2_z2(self):
        classes = classify_extensions(Z2, Z2)
        assert len(classes) == 2
        names = sorted(c.e_group for c in classes)
        assert names == ["Z2xZ2", "Z4"]
        split_flags = {c.e_group: c.split for c in classes}
        assert split_flags["Z2xZ2"] is True
        assert split_flags["Z4"] is False

    def test_trivial_h(self):
        classes = classify_extensions(ONE, Z4)
        assert len(classes) == 1
        assert classes[0].e_group == "Z4"

    def test_counts_match_oracle_small(self):
        for H, G in [(Z2, Z2), (Z2, Z3), (Z3, Z2), (Z2, Z4), (Z3, Z3)]:
            butterfly_classes = classify_extensions(H, G)
            oracle_classes = factor_set_oracle(H, G)
            assert len(butterfly_classes) == len(oracle_classes)

    def test_split_iff_trivial_cocycle_in_class(self):
        classes = classify_extensions(Z2, Z4)
        oracle = factor_set_oracle(Z2, Z4)
        for cls in classes:
            orbit = next(
                orbit
                for orbit in oracle
                if any(fs.phi == cls.factor_set.phi and fs.f == cls.factor_set.f for fs in orbit)
            )
            has_trivial_f = any(all(v == 0 for row in fs.f for v in row) for fs in orbit)
            assert cls.split == has_trivial_f

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            classify_extensions(Z4, dicyclic_group(2))

    @pytest.mark.parametrize(
        "pair, pinned",
        # (classes, factor sets) as pinned by the classify-grid benchmark
        [(("Z2", "Z8"), (6, 16)), (("Z8", "Z2"), (2, 128)), (("S3", "Z2"), (2, 32))],
        ids=["Z2,Z8", "Z8,Z2", "S3,Z2"],
    )
    def test_both_routes_on_benchmark_only_pairs(self, pair, pinned):
        groups = {"Z2": Z2, "Z8": fingroup.cyclic_group(8), "S3": S3}
        H, G = groups[pair[0]], groups[pair[1]]
        butterfly_classes = classify_extensions(H, G)
        oracle_classes = factor_set_oracle(H, G)
        assert (len(butterfly_classes), sum(c.count for c in butterfly_classes)) == pinned
        assert (len(oracle_classes), sum(len(orbit) for orbit in oracle_classes)) == pinned

    def test_searches_only_outside_known_cosets_on_v4_by_v4(self, monkeypatch):
        # the invariant buckets separate all 82 classes, so a representative
        # is searched against nothing and every other searched cocycle finds
        # a witness to its own class's representative: no search is wasted.
        # A cocycle in a coset of the coboundaries found so far joins its
        # class unsearched, so 38 of the 544 - 82 = 462 others are searched
        calls = []
        original = extension._witness_map

        def counting(source, legs, B2):
            witness = original(source, legs, B2)
            calls.append(witness is not None)
            return witness

        monkeypatch.setattr(extension, "_witness_map", counting)
        classes = classify_extensions(V4, V4)
        assert (len(classes), sum(c.count for c in classes)) == (82, 544)
        assert calls == [True] * 38

    def test_full_tables_only_for_representatives_on_v4_by_v4(self, monkeypatch):
        # a cocycle that joins a class is searched from its generator columns
        built = []
        original = extension.factor_set_to_extension

        def counting(fs):
            built.append(fs)
            return original(fs)

        monkeypatch.setattr(extension, "factor_set_to_extension", counting)
        classes = classify_extensions(V4, V4)
        assert len(built) == len(classes) == 82
        assert built == [c.factor_set for c in classes]

    def test_generating_sequence_computed_once_per_group_and_key(self, monkeypatch):
        # every twisted product over (H, G) shares one generating sequence with
        # the wing images first, built from H's and G's own: no cocycle's E
        # computes a sequence keyed by its wings, and the only sequences of
        # groups of order 8 are those of the class representatives, which are
        # validated and named
        standard_catalog(8), aut_xmod(Z2), enumerate_cocycles(V4, Z2)  # outside the count
        computed = []
        original = fingroup._generating_sequence

        def counting(G, first=()):
            computed.append((G, tuple(first)))
            return original(G, first)

        monkeypatch.setattr(fingroup, "_generating_sequence", counting)
        classes = classify_extensions(V4, Z2)
        keys = [(id(G), key) for G, key in computed]  # computed keeps every G alive
        assert len(keys) == len(set(keys))
        assert all(key == () for _, key in computed)
        assert 0 < sum(G.order == 8 for G, _ in computed) <= 2 * len(classes)


class TestMorphismLevelCorrespondence:
    def test_equivalences_biject_with_butterfly_morphisms(self):
        data = [
            factor_set_to_extension(fs)
            for fs in enumerate_cocycles(Z2, Z2)
        ]
        for X in data:
            for Y in data:
                eq = extension_equivalences(X, Y)
                bm = butterfly_morphisms(X, Y)
                assert len(eq) == len(bm)
                assert {t.map for t in eq} == {w.f.map for w in bm}


class TestWeakMapBridge:
    def test_extracted_functor_carries_schreier_data(self):
        # the F2 of an extracted functor reads off exactly the oracle's (phi, f)
        from butterflies.weakmap import all_set_sections, extract_monoidal

        B = butterfly_from_extension(GroupHom(Z2, Z4, (0, 2)), GroupHom(Z4, Z2, (0, 1, 0, 1)))
        aut, ev = automorphism_group(Z2)
        nG0 = B.cod.G0.order
        for s in all_set_sections(B):
            M = extract_monoidal(B, s)
            fs = factor_set_of_extension(B, s)
            assert validate_factor_set(fs, aut, ev)
            for x in range(2):
                for y in range(2):
                    assert M.F2[x][y] // nG0 == fs.f[x][y]
            assert tuple(M.F0) == fs.phi


class TestIdentify:
    def test_small_names(self):
        assert identify_group(Z4) == "Z4"
        assert identify_group(V4) == "Z2xZ2"
        assert identify_group(S3) == "D3"
        assert identify_group(dicyclic_group(2)) == "Q8"
        assert identify_group(ONE) == "1"

    def test_catalog_of_order_one(self):
        assert standard_catalog(1) == (("1", ONE),)
        assert standard_catalog(1)[0][1].name == "1"

    def test_catalog_order_16_has_classics(self):
        names = {n for n, _ in standard_catalog(16)}
        assert {"Z16", "Z4xZ4", "D8", "Dic4", "SD16", "M16"} <= names
