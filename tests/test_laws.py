"""Tests for the fixture generator and the law suites."""

from __future__ import annotations

import pytest

from butterflies import jsonio
from butterflies.errors import BoundExceeded, UnknownSuite
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

    def test_failures_carry_replayable_witnesses(self):
        report = run_bicategory_suite(generate_fixtures(0, 8), fault="compose")
        replayed = 0
        for f in report.failures:
            w = f["witness"]
            for key in ("butterfly", "triple"):
                if key not in w:
                    continue
                items = w[key] if key == "triple" else [w[key]]
                for data in items:
                    jsonio.from_jsonable(data)
                    replayed += 1
        assert replayed


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
