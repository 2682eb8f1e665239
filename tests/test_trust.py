"""The trust test: what internal constructions build unchecked is valid.

Constructions whose results are groups, homomorphisms, actions, subgroups or
butterflies by a theorem build them through ``_trusted`` and skip the checks:
the table check of ``FinGroup(...)``, the ``__post_init__`` of the others and
the dataclass ``__init__``.  Here every ``_trusted`` (``GroupHom`` has its
own, ``Butterfly`` inherits that of the records) is pointed back at the
checking constructors, and the fixtures, both law suites, the spans and a
classification must come out exactly as in a run without the checks.
"""

from __future__ import annotations

import pytest

from helpers import V4, Z4

from butterflies import butterfly, fingroup
from butterflies.butterfly import span_of_butterfly
from butterflies.errors import NotAGroup
from butterflies.extension import aut_xmod, classify_extensions, standard_catalog
from butterflies.laws import generate_fixtures, run_bicategory_suite, run_fractions_suite
from butterflies.xmod import denormalize, validate_crossed_module, validate_xmod_morphism

CASES = [(seed, bound) for seed in range(4) for bound in (8, 16)]
CACHED = (denormalize, aut_xmod, standard_catalog)


def suite_summary(seed: int, bound: int):
    fx = generate_fixtures(seed, bound)
    sizes = (len(fx.crossed_modules), len(fx.morphisms), len(fx.butterflies), len(fx.two_cells))
    bicategory, fractions = run_bicategory_suite(fx), run_fractions_suite(fx)
    return sizes, (bicategory.cases, bicategory.ok), (fractions.cases, fractions.ok)


def classification_summary():
    return [
        (c.e_group, c.split, c.count, c.factor_set, c.butterfly)
        for c in classify_extensions(V4, Z4)
    ]


@pytest.fixture(scope="module")
def unchecked():
    """Results of the ordinary (trusted) run."""
    return {
        "suites": {case: suite_summary(*case) for case in CASES},
        "classification": classification_summary(),
    }


@pytest.fixture()
def checked(monkeypatch):
    """Every trusted build runs the checking constructor, and no result of an
    earlier trusted build is served from a cache."""
    for cache in CACHED:
        cache.cache_clear()
    for cls in vars(fingroup).values():
        if isinstance(cls, type) and "_trusted" in vars(cls):
            monkeypatch.setattr(cls, "_trusted", classmethod(lambda cls, *values: cls(*values)))
    yield
    for cache in CACHED:
        cache.cache_clear()


def fails(suite, fx, fault: str) -> bool:
    """A fault run fails by its report or, for the compose fault, because the
    checking constructors reject the maps it deliberately leaves unadjusted."""
    try:
        return not suite(fx, fault=fault).ok
    except ValueError as exc:
        return fault == "compose" and "not multiplicative" in str(exc)


def test_patch_reaches_every_trusted_class(checked):
    # GroupHom has a _trusted of its own; Butterfly inherits that of the records
    assert "_trusted" in vars(fingroup.GroupHom)
    assert butterfly.Butterfly._trusted.__func__ is fingroup._Trusted._trusted.__func__
    # a Latin square with identity 0 in which every element is its own
    # inverse: of odd order, so not associative
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroup):
        fingroup.FinGroup._trusted(loop, "loop")
    with pytest.raises(ValueError):
        fingroup.GroupHom._trusted(Z4, Z4, (0, 2, 1, 3))
    with pytest.raises(ValueError):
        fingroup.GroupAction._trusted(Z4, Z4, ((0, 1, 2, 3),) + ((0, 3, 2, 1),) * 3)
    with pytest.raises(ValueError):
        fingroup.Subgroup._trusted(Z4, (0, 1))


@pytest.mark.parametrize("seed, bound", CASES)
def test_suites_unchanged_with_checks(unchecked, checked, seed, bound):
    assert suite_summary(seed, bound) == unchecked["suites"][(seed, bound)]
    fx = generate_fixtures(seed, bound)
    assert fails(run_bicategory_suite, fx, "compose")
    assert fails(run_fractions_suite, fx, "two-cell-count")


@pytest.mark.parametrize("seed, bound", CASES)
def test_spans_valid_with_checks(checked, seed, bound):
    for B in generate_fixtures(seed, bound).butterflies:
        middle, left, right = span_of_butterfly(B)
        assert validate_crossed_module(middle).ok
        assert validate_xmod_morphism(left).ok
        assert validate_xmod_morphism(right).ok


def test_classification_unchanged_with_checks(unchecked, checked):
    assert classification_summary() == unchecked["classification"]


@pytest.mark.parametrize("m", [(0, 1, 2, 4), (0, 1, 2), (0, 2, 1, 3)], ids=["off-range", "short", "not-multiplicative"])
def test_a_map_keeps_the_verdict_its_constructor_raises(m):
    with pytest.raises(ValueError) as refusal:
        fingroup.GroupHom(Z4, Z4, m)
    assert fingroup.GroupHom._trusted(Z4, Z4, m)._defect[1] == str(refusal.value)


def test_a_homomorphism_keeps_no_defect():
    assert fingroup.GroupHom._trusted(Z4, Z4, (0, 2, 0, 2))._defect is None
