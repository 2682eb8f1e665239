"""Tests for the fixture generator and the law suites."""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from helpers import replay_fixtures

from butterflies import fingroup, jsonio, laws
from butterflies.butterfly import identity_butterfly
from butterflies.extension import aut_xmod, conjugation_xmod, discrete_xmod
from butterflies.fingroup import _per_operand, _run_memo, cyclic_group, identity_hom, zero_hom
from butterflies.xmod import (
    XModMorphism,
    XModTwoCell,
    enumerate_two_cells,
    identity_morphism,
    kernel_of_boundary,
    pointwise_division_arrow,
)
from butterflies.errors import BoundExceeded, UnknownSuite
from butterflies.report import KEEP_PER_CONDITION
from butterflies.laws import (
    FixtureSet,
    ef3_coincidence,
    generate_fixtures,
    run_bicategory_suite,
    run_fractions_suite,
)


class TestFixtures:
    def test_mandated_contents(self):
        fx = generate_fixtures(0, 4)
        names = {X.name for X in fx.crossed_modules}
        for want in ("D(Z2)", "D(Z3)", "D(Z4)", "D(Z2xZ2)", "A(Z2)", "A(Z3)", "A(Z4)", "A(Z2xZ2)"):
            assert want in names
        # identity butterflies are present
        assert any(B.dom == B.cod for B in fx.butterflies)

    def test_determinism(self):
        a = generate_fixtures(3, 8)
        b = generate_fixtures(3, 8)
        assert a.morphisms == b.morphisms
        assert a.butterflies == b.butterflies
        assert [c.alpha for c in a.two_cells] == [c.alpha for c in b.two_cells]

    def test_different_seeds_differ(self):
        a = generate_fixtures(0, 8)
        b = generate_fixtures(99, 8)
        assert a.butterflies != b.butterflies or a.morphisms != b.morphisms

    def test_nonabelian_middle_group_at_16(self):
        fx = generate_fixtures(0, 16)
        assert any(not B.E.is_abelian for B in fx.butterflies)

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            generate_fixtures(0, 32)
        # below the smallest fixture, D(Z2) of size 2, a suite would run no case
        for bound in (0, 1):
            with pytest.raises(BoundExceeded):
                generate_fixtures(0, bound)

    def test_build_decides_morphisms_on_generators_and_builds_each_hom_set_once(self, monkeypatch):
        # a fixture build is a run scope: all_homomorphisms is memoized per
        # operand pair, and all_xmod_morphisms runs no reporting validator
        from butterflies import xmod

        validated, built, operands = [], Counter(), []
        validate, search = xmod.validate_xmod_morphism, fingroup._generator_images

        def counted_validate(P):
            validated.append(P)
            return validate(P)

        def counted_search(G, H, bijective, fixed=(), accept=None):
            if not bijective and not fixed and accept is None:  # the search of all_homomorphisms
                operands.append((G, H))  # keeps both alive, so their ids stay theirs
                built[id(G), id(H)] += 1
            return search(G, H, bijective, fixed, accept)

        monkeypatch.setattr(xmod, "validate_xmod_morphism", counted_validate)
        monkeypatch.setattr(fingroup, "_generator_images", counted_search)
        generate_fixtures(0, 16)
        assert validated == []
        assert built and max(built.values()) == 1
        assert fingroup._memo.get() is None
        Z3 = cyclic_group(3)
        assert fingroup.all_homomorphisms(Z3, Z3) is not fingroup.all_homomorphisms(Z3, Z3)

    def test_members_validated(self):
        from butterflies.butterfly import validate_butterfly
        from butterflies.xmod import validate_crossed_module, validate_two_cell, validate_xmod_morphism

        fx = generate_fixtures(1, 8)
        assert all(validate_crossed_module(X).ok for X in fx.crossed_modules)
        assert all(validate_xmod_morphism(P).ok for P in fx.morphisms)
        assert all(validate_butterfly(B).ok for B in fx.butterflies)
        assert all(validate_two_cell(c).ok for c in fx.two_cells)


class TestSuites:
    def test_bicategory_green(self):
        report = run_bicategory_suite(generate_fixtures(0, 8))
        assert report.ok and report.cases > 50

    def test_fractions_green(self):
        report = run_fractions_suite(generate_fixtures(0, 8))
        assert report.ok and report.cases > 50

    def test_empty_fixture_set(self):
        fx = FixtureSet(seed=0, size_bound=8)
        assert run_bicategory_suite(fx).cases == 0
        report = run_fractions_suite(fx)
        # only the standing pullback checks run without fixtures
        assert not report.failures

    def test_compose_fault_detected(self):
        report = run_bicategory_suite(generate_fixtures(0, 8), fault="compose")
        assert not report.ok
        witnessed = [f for f in report.failures if f["witness"]]
        assert witnessed

    def test_two_cell_fault_detected(self):
        report = run_fractions_suite(generate_fixtures(0, 8), fault="two-cell-count")
        assert not report.ok

    @pytest.mark.parametrize("seed, bound", [(seed, bound) for seed in range(4) for bound in (2, 3)])
    def test_fault_that_never_fires_fails(self, seed, bound):
        # composites of order <= 2 are never corrupted, and the (1 2) relabeling
        # of Z3 is an automorphism, so the compose fault changes nothing here
        fx = generate_fixtures(seed, bound)
        report = run_bicategory_suite(fx, fault="compose")
        assert [f["check"] for f in report.failures] == ["fault-not-exercised"]
        assert report.cases == run_bicategory_suite(fx).cases

    def test_failures_bounded_per_check(self):
        fx = generate_fixtures(1, 16)
        report = run_bicategory_suite(fx, fault="compose")
        kept = Counter(f["check"] for f in report.failures)
        assert max(kept.values()) == KEEP_PER_CONDITION
        assert len(report.failures) + report.dropped == 127
        assert report.to_json()["dropped"] == report.dropped
        assert f"127 failure(s), {report.dropped} not kept" in str(report)
        assert "dropped" not in run_bicategory_suite(fx).to_json()

    @pytest.mark.parametrize("seed, bound, composites, searches", [(0, 16, 270, 93), (3, 16, 257, 90)])
    def test_each_composite_and_witness_search_once_per_run(self, monkeypatch, seed, bound, composites, searches):
        # composites are interned by value and memoized per pair of operands, an
        # operand equal to a composite standing in as it, and witness searches
        # per pair of interned butterflies: 568 and 291 calls on (0, 16), 752
        # and 379 on (3, 16), when each law made its own
        from butterflies import butterfly

        fx = generate_fixtures(seed, bound)
        calls = Counter()

        def counted(name):
            f = getattr(butterfly, name)

            def call(*args):
                calls[name] += 1
                return f(*args)

            return call

        for name in ("_pullback_parts", "_witness_map"):
            monkeypatch.setattr(butterfly, name, counted(name))
        run_bicategory_suite(fx)
        assert (calls["_pullback_parts"], calls["_witness_map"]) == (composites, searches)

    @pytest.mark.parametrize(
        "suite, fault",
        [
            (run_bicategory_suite, "bogus"),
            (run_bicategory_suite, "two-cell-count"),
            (run_fractions_suite, "compose"),
        ],
    )
    def test_fault_outside_the_suite_raises(self, suite, fault):
        with pytest.raises(UnknownSuite):
            suite(FixtureSet(seed=0, size_bound=8), fault=fault)

    def test_search_defect_is_not_a_law_failure(self, monkeypatch):
        # only the ConstructionError of fault-corrupted operands means "no morphism"
        def broken(B1, B2):
            raise KeyError("defect in the search")

        monkeypatch.setattr(laws, "isomorphic_butterflies", broken)
        with pytest.raises(KeyError):
            run_bicategory_suite(generate_fixtures(0, 8))

    def test_cell_without_a_butterfly_morphism_is_an_ef2_failure(self, monkeypatch):
        # on A(Z2) the division arrow of the identity by the zero map is
        # nontrivial at 1, so the Peiffer-graph condition wants alpha(d 1) =
        # alpha(0) = 1 / 0; this cell keeps the unit arrow there
        X = aut_xmod(cyclic_group(2))
        P = identity_morphism(X)
        Q = XModMorphism(X, X, zero_hom(X.G, X.G), identity_hom(X.G0))
        assert pointwise_division_arrow(X, P.p.map, Q.p.map) != (0, 0)
        cell = XModTwoCell(P, Q, (0,))
        assert cell not in enumerate_two_cells(P, Q)
        monkeypatch.setattr(
            laws, "enumerate_two_cells", lambda P2, Q2: [cell] if (P2, Q2) == (P, Q) else enumerate_two_cells(P2, Q2)
        )
        report = run_fractions_suite(FixtureSet(seed=0, size_bound=8, morphisms=[P, Q]))
        witness = {"P": jsonio.to_jsonable(P), "Q": jsonio.to_jsonable(Q), "alpha": [0]}
        assert {"check": "ef2-image", "witness": witness} in report.failures

    @pytest.mark.parametrize(
        "seed, bound, kept", [(0, 8, {"bicategory": 23, "fractions": 12}), (3, 16, {"bicategory": 32, "fractions": 12})]
    )
    def test_every_failure_replays_from_its_witness(self, seed, bound, kept):
        # each kept failure's witness records, loaded into a fixture set of their
        # own, fail the same check with the same witness under the same fault,
        # and pass without it
        for fault, suite in laws.FAULTS.items():
            run = laws.SUITES[suite]
            report = run(generate_fixtures(seed, bound), fault)
            failures = [f for f in report.failures if f["check"] != "fault-not-exercised"]
            assert len(failures) == kept[suite]
            for failure in failures:
                fx = replay_fixtures(failure, seed, bound)
                assert failure in run(fx, fault).failures
                assert run(fx).ok

    def test_witnesses_built_only_for_kept_failures(self, monkeypatch):
        fx = generate_fixtures(1, 16)
        expected = run_bicategory_suite(fx, fault="compose")
        made = []

        def recording(obj):
            made.append(jsonio.to_jsonable(obj))
            return made[-1]

        monkeypatch.setattr(laws, "to_jsonable", recording)
        report = run_bicategory_suite(fx, fault="compose")
        assert (report.failures, report.dropped) == (expected.failures, expected.dropped)
        assert report.dropped
        kept = {
            id(item)
            for f in report.failures
            for value in f["witness"].values()
            for item in (value if isinstance(value, list) else [value])
        }
        assert made and all(id(data) in kept for data in made)

    def test_no_memo_outlives_a_run(self):
        # the suites share derived structure only within one run
        fx = generate_fixtures(0, 8)

        def snapshot():
            return (
                {key: [id(x) for x in value] if isinstance(value, list) else value for key, value in vars(fx).items()},
                [{key: id(value) for key, value in vars(x).items()} for x in (*fx.morphisms, *fx.butterflies)],
            )

        before = snapshot()
        for fault in (None, "compose"):
            run_bicategory_suite(fx, fault=fault)
        for fault in (None, "two-cell-count"):
            run_fractions_suite(fx, fault=fault)
        assert snapshot() == before


class TestRunMemo:
    def test_once_per_operand_within_a_scope(self):
        calls = []

        @_per_operand
        def derived(X, Y):
            calls.append((X, Y))
            return [X, Y]

        X, Y = conjugation_xmod(cyclic_group(2)), conjugation_xmod(cyclic_group(2))
        with _run_memo():
            first = derived(X, Y)
            assert derived(X, Y) is first
            # keyed by identity: an equal operand is another key
            assert X == Y and derived(Y, X) is not first
            assert identity_butterfly(X) is identity_butterfly(X)
            assert identity_butterfly(Y) is not identity_butterfly(X)
        assert calls == [(X, Y), (Y, X)]

    def test_direct_product_stores_no_entry(self):
        # its operands are fresh zero maps, so an entry could never be hit
        A, B, T = cyclic_group(2), cyclic_group(3), fingroup.trivial_group()
        P0, p0, q0, _ = fingroup.product_and_pullback(fingroup.zero_hom(A, T), fingroup.zero_hom(B, T))
        with _run_memo():
            P, p, q, _ = fingroup.direct_product(A, B)
            assert fingroup._memo.get() == {}
        assert (P.table, P.element_labels, p.map, q.map) == (P0.table, P0.element_labels, p0.map, q0.map)
        assert (P.name, p.dom, p.cod, q.dom, q.cod) == ("Z2xZ3", P, A, P, B)

    def test_outside_a_scope_every_call_computes(self):
        X = discrete_xmod(cyclic_group(3))
        assert identity_butterfly(X) is not identity_butterfly(X)
        assert identity_butterfly(X) == identity_butterfly(X)
        assert kernel_of_boundary(X) is not kernel_of_boundary(X)

    def test_memo_dies_with_its_scope(self):
        class Box:
            pass

        boxed = _per_operand(lambda x: Box())
        with _run_memo():
            x, X = Box(), conjugation_xmod(cyclic_group(2))
            refs = [weakref.ref(r) for r in (x, boxed(x), X, kernel_of_boundary(X)[1])]
            del x, X
            gc.collect()
            assert all(r() is not None for r in refs)  # the memo holds operands and results
        gc.collect()
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize(
        "suite, attr",
        [(run_bicategory_suite, "isomorphic_butterflies"), (run_fractions_suite, "is_weak_equivalence")],
    )
    def test_a_suite_resets_its_scope(self, monkeypatch, suite, attr):
        fx = generate_fixtures(0, 4)
        suite(fx)
        assert fingroup._memo.get() is None
        seen = []

        def broken(*operands):
            seen.append(fingroup._memo.get())
            raise KeyError("defect")

        monkeypatch.setattr(laws, attr, broken)
        with pytest.raises(KeyError):
            suite(fx)
        assert isinstance(seen[0], dict) and fingroup._memo.get() is None


class TestEF3:
    def test_literal_coincidence_examples(self):
        from helpers import z4_extension_butterfly, trivial_extension_butterfly, Z2
        from butterflies.butterfly import identity_butterfly
        from butterflies.extension import conjugation_xmod, discrete_xmod

        for B in (
            z4_extension_butterfly(),
            trivial_extension_butterfly(),
            identity_butterfly(discrete_xmod(Z2)),
            identity_butterfly(conjugation_xmod(Z2)),
        ):
            assert ef3_coincidence(B)

    def test_butterflies_past_twice_the_bound_are_left_out(self):
        # at bound 2, EF3 reads |E| <= 4 and the action law A3 |E| <= 2: the
        # identity of C(Z4), |E| = 16, is left out of both, so of the 5 cases
        # at bound 8 the run makes 3
        from helpers import Z2, Z4, z4_extension_butterfly

        butterflies = [
            identity_butterfly(discrete_xmod(Z2)),
            z4_extension_butterfly(),
            identity_butterfly(conjugation_xmod(Z4)),
        ]
        for bound, cases in ((2, 3), (8, 5)):
            report = run_fractions_suite(FixtureSet(0, bound, butterflies=butterflies))
            assert report.ok and report.cases == cases

    def test_a_theta_off_the_homomorphisms_answers_false(self, monkeypatch):
        # swapping the arrows of two pairs over one e1 leaves theta a bijection
        # that commutes with both wings and both legs, so only the homomorphism
        # check refuses it
        from helpers import z4_extension_butterfly

        B = z4_extension_butterfly()
        arrows = laws._arrows

        def swapped(*args):
            out = list(arrows(*args))
            out[2], out[3] = out[3], out[2]
            return tuple(out)

        monkeypatch.setattr(laws, "_arrows", swapped)
        assert not ef3_coincidence(B)
        monkeypatch.setattr(laws, "_hom_defect", lambda *args: None)
        assert ef3_coincidence(B)

    def test_compose_fault_corruptions_answer_a_bool(self):
        # relabeling E leaves sigma or rho no homomorphism on 12 of the 23
        # butterflies of (0, 8) with |E| > 2, and its pullback then no
        # subgroup: those answer False where the pullback once raised TypeError
        fx = generate_fixtures(0, 8)
        answers = [ef3_coincidence(laws._corrupt_middle_group(B)) for B in fx.butterflies if B.E.order > 2]
        assert Counter(answers) == {True: 11, False: 12}
