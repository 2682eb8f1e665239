"""Tests for the butterfly <-> monoidal functor dictionary."""

from __future__ import annotations

import dataclasses

import pytest

from helpers import GRAPH_CORRUPTIONS, Z2, Z3, corrupt_graph, trivial_extension_butterfly, z4_extension_butterfly

from butterflies.butterfly import (
    identity_butterfly,
    isomorphic_butterflies,
    split_from_morphism,
)
from butterflies.errors import GroupLawSearchFailed, SectionInvalid
from butterflies import weakmap
from butterflies.extension import aut_xmod, conjugation_xmod, discrete_xmod
from butterflies.weakmap import (
    MonoidalFunctor,
    all_set_sections,
    butterfly_from_monoidal,
    canonical_limit_section,
    check_monoidal,
    extract_monoidal,
    find_monoidal_natural_iso,
    identity_monoidal,
    set_section,
)
from butterflies.xmod import all_xmod_morphisms, denormalize, denormalize_morphism

DZ2, AZ2 = discrete_xmod(Z2), aut_xmod(Z2)
CZ2 = conjugation_xmod(Z2)


class TestCheckMonoidal:
    def test_identity_functor_valid(self):
        for X in (DZ2, CZ2, aut_xmod(Z3)):
            assert check_monoidal(identity_monoidal(denormalize(X))).ok

    @pytest.mark.parametrize("end", ("dom", "cod"))
    @pytest.mark.parametrize("leg, corrupt", GRAPH_CORRUPTIONS)
    def test_end_with_a_graph_map_off_its_groups_is_a_finding(self, end, leg, corrupt):
        T = denormalize(aut_xmod(Z3))
        M = dataclasses.replace(identity_monoidal(T), **{end: corrupt_graph(T, leg, corrupt)})
        report = check_monoidal(M)
        assert [(f.condition, f.witness) for f in report.findings] == [("underlying-2group:map-range", leg)]

    def test_strict_functor_from_morphism(self):
        for P in all_xmod_morphisms(CZ2, AZ2):
            F = denormalize_morphism(P)
            T = F.dom
            M = MonoidalFunctor(
                F.dom,
                F.cod,
                F.p0.map,
                F.p1.map,
                tuple(
                    tuple(F.cod.e.map[F.p0.map[T.G0.table[x][y]]] for y in range(T.G0.order))
                    for x in range(T.G0.order)
                ),
            )
            assert check_monoidal(M).ok
            assert M.is_strict()

    def test_perturbed_f2_reported(self):
        M = identity_monoidal(denormalize(CZ2))
        rows = [list(r) for r in M.F2]
        T = M.dom
        # replace one comparison arrow by a wrong-fiber arrow
        rows[1][1] = next(
            a for a in range(T.G1.order) if a != M.F2[1][1]
        )
        bad = MonoidalFunctor(M.dom, M.cod, M.F0, M.F1, tuple(tuple(r) for r in rows))
        report = check_monoidal(bad)
        assert not report.ok


class TestSections:
    def test_section_fiber_enforced(self):
        B = z4_extension_butterfly()
        with pytest.raises(SectionInvalid):
            set_section(B, (0, 2))  # 2 lies over 0, not over 1

    def test_normalization_enforced(self):
        B = z4_extension_butterfly()
        with pytest.raises(SectionInvalid):
            set_section(B, (2, 1))

    @pytest.mark.parametrize("s", [(0, 99), (0, -1)])
    def test_values_outside_e_rejected(self, s):
        # -1 would otherwise index sigma from the end and pass as element 3
        with pytest.raises(SectionInvalid):
            set_section(z4_extension_butterfly(), s)

    @pytest.mark.parametrize(
        "s, message",
        [
            ((0, 4), "not a map from H0 into E"),
            ((2, 1), "normalized"),
            ((0, 2), "sigma-fiber of 1"),
            ((0,), "not a map from H0 into E"),
            ((0, 1, 3), "not a map from H0 into E"),
        ],
        ids=["off-E", "not-normalized", "off-its-fibre", "short", "long"],
    )
    def test_extract_checks_a_raw_section(self, s, message):
        # a bare tuple, with no set_section call first
        with pytest.raises(SectionInvalid, match=message):
            extract_monoidal(z4_extension_butterfly(), s)

    def test_extract_checks_its_section_once(self, monkeypatch):
        B, calls = z4_extension_butterfly(), []
        expected = extract_monoidal(B, (0, 1))
        monkeypatch.setattr(weakmap, "set_section", lambda B, s: calls.append(s) or set_section(B, s))
        assert extract_monoidal(B, [0, 1]) == expected
        assert calls == [[0, 1]]

    def test_all_sections_counted(self):
        B = z4_extension_butterfly()
        assert len(all_set_sections(B)) == 2  # fibers over 1bar: {1, 3}


class TestExtractMonoidal:
    def test_extraction_valid_for_all_sections(self):
        for B in (z4_extension_butterfly(), trivial_extension_butterfly(), identity_butterfly(CZ2)):
            for s in all_set_sections(B):
                M = extract_monoidal(B, s)
                assert check_monoidal(M).ok

    def test_z4_section_gives_nontrivial_defect(self):
        B = z4_extension_butterfly()
        s = set_section(B, (0, 1))  # 1 has order 4 in Z4
        M = extract_monoidal(B, s)
        # f(1bar,1bar) = s(1)+s(1)-s(0) = 2 = iota(1): the generator of Z2
        assert not M.is_strict()
        nG0 = B.cod.G0.order
        assert M.F2[1][1] // nG0 == 1

    def test_hom_section_gives_strict(self):
        B = trivial_extension_butterfly()
        hom_sections = [
            s for s in all_set_sections(B)
            if all(
                B.E.table[s[x]][s[y]] == s[Z2.table[x][y]]
                for x in range(2) for y in range(2)
            )
        ]
        assert hom_sections
        for s in hom_sections:
            M = extract_monoidal(B, s)
            assert M.is_strict()

    def test_sections_give_connected_functors(self):
        for B in (z4_extension_butterfly(), trivial_extension_butterfly()):
            sections = all_set_sections(B)
            functors = [extract_monoidal(B, s) for s in sections]
            for M in functors[1:]:
                assert find_monoidal_natural_iso(functors[0], M) is not None


class TestButterflyFromMonoidal:
    def test_identity_functor_gives_identity_butterfly(self):
        for X in (DZ2, CZ2):
            T = denormalize(X)
            B = butterfly_from_monoidal(identity_monoidal(T))
            assert isomorphic_butterflies(B, identity_butterfly(X)) is not None

    def test_strict_functor_gives_split_butterfly(self):
        for P in all_xmod_morphisms(DZ2, AZ2):
            F = denormalize_morphism(P)
            T = F.dom
            M = MonoidalFunctor(
                F.dom,
                F.cod,
                F.p0.map,
                F.p1.map,
                tuple(
                    tuple(F.cod.e.map[F.p0.map[T.G0.table[x][y]]] for y in range(T.G0.order))
                    for x in range(T.G0.order)
                ),
            )
            B = butterfly_from_monoidal(M)
            S, _ = split_from_morphism(P)
            assert isomorphic_butterflies(B, S) is not None

    def test_round_trip_from_butterfly(self):
        for B in (z4_extension_butterfly(), trivial_extension_butterfly(), identity_butterfly(CZ2)):
            for s in all_set_sections(B):
                M = extract_monoidal(B, s)
                B2 = butterfly_from_monoidal(M)
                assert B2.E.order == B.E.order
                assert isomorphic_butterflies(B2, B) is not None

    def test_round_trip_from_functor(self):
        B = z4_extension_butterfly()
        s = set_section(B, (0, 1))
        M = extract_monoidal(B, s)
        B2 = butterfly_from_monoidal(M)
        M2 = extract_monoidal(B2, canonical_limit_section(M))
        assert check_monoidal(M2).ok
        assert find_monoidal_natural_iso(M, M2) is not None

    def test_invalid_functor_rejected(self):
        M = identity_monoidal(denormalize(CZ2))
        rows = [list(r) for r in M.F2]
        rows[1][1] = (rows[1][1] + 1) % M.cod.G1.order
        bad = MonoidalFunctor(M.dom, M.cod, M.F0, M.F1, tuple(tuple(r) for r in rows))
        with pytest.raises(GroupLawSearchFailed):
            butterfly_from_monoidal(bad)
