"""Constructions refuse operands off the butterfly axioms with ``ConstructionError``.

The wing-edit sweep replaces the kappa, then the iota, of each butterfly of
fixture sets (0..2, 8) by each other homomorphism into its middle group E:
275 edited butterflies, built through ``_trusted`` as the compose fault
builds its corruptions.  Each one goes to

* ``compose``, on the left of each fixture butterfly it composes with, and
  on the right;
* ``reduced_compose``, after each fixture morphism into its domain;
* ``to_fractor``, and ``extract_monoidal`` on its first three set sections;
* ``laws.ef3_coincidence``.

A construction's count is the number of edited butterflies on which every
call returned (``ok``) or on which the first refusal had the named type.
Where these counts now read ``ConstructionError``, the pullback's index and
the arrow map once let ``TypeError``, ``ValueError`` and ``KeyError``
escape, and ``ef3_coincidence`` raised on 145 edits.  The compose probe
replaces only the kappa of the right operand, over every composable pair of
the same fixture sets, and counts single calls.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache, partial

import pytest

from butterflies.butterfly import Butterfly, compose, reduced_compose, to_fractor
from butterflies.fingroup import all_homomorphisms
from butterflies.laws import ef3_coincidence, generate_fixtures
from butterflies.weakmap import all_set_sections, extract_monoidal

LOOKUP_ERRORS = {"TypeError", "KeyError", "ValueError", "IndexError"}

EXPECTED = {
    "compose, edit on the left": {"ok": 130, "ConstructionError": 145},
    "compose, edit on the right": {"ok": 133, "ConstructionError": 142},
    "reduced_compose": {"ok": 143, "ConstructionError": 132},
    "to_fractor": {"ok": 124, "ConstructionError": 151},
    "extract_monoidal": {"ok": 107, "ConstructionError": 168},
}


@lru_cache(maxsize=1)
def fixture_sets():
    """Built when a test first asks, not at collection: the equality-keyed
    caches keep the first of equal values that a process builds."""
    return [generate_fixtures(seed, 8) for seed in range(3)]


def with_wings(B: Butterfly, kappa, iota) -> Butterfly:
    return Butterfly._trusted(B.dom, B.cod, B.E, kappa, iota, B.sigma, B.rho)


def wing_edits(B: Butterfly):
    """B with kappa, then iota, replaced by each other homomorphism into E."""
    for h in all_homomorphisms(B.dom.G, B.E):
        if h.map != B.kappa.map:
            yield with_wings(B, h, B.iota)
    for h in all_homomorphisms(B.cod.G, B.E):
        if h.map != B.iota.map:
            yield with_wings(B, B.kappa, h)


def first_refusal(calls) -> str:
    """``ok`` when every call returns, else the type name of the first refusal."""
    for call in calls:
        try:
            call()
        except Exception as exc:
            return type(exc).__name__
    return "ok"


@lru_cache(maxsize=1)
def sweep() -> dict[str, Counter]:
    counts: dict[str, Counter] = defaultdict(Counter)
    for fx in fixture_sets():
        for B in fx.butterflies:
            for X in wing_edits(B):
                calls = {
                    "compose, edit on the left": [partial(compose, X, B2) for B2 in fx.butterflies if B2.dom == X.cod],
                    "compose, edit on the right": [partial(compose, B1, X) for B1 in fx.butterflies if B1.cod == X.dom],
                    "reduced_compose": [partial(reduced_compose, P, X) for P in fx.morphisms if P.cod == X.dom],
                    "to_fractor": [partial(to_fractor, X)],
                    "extract_monoidal": [partial(extract_monoidal, X, s) for s in all_set_sections(X)[:3]],
                }
                for construction, group in calls.items():
                    counts[construction][first_refusal(group)] += 1
                counts["ef3_coincidence"][ef3_coincidence(X)] += 1
    return counts


@pytest.mark.parametrize("construction", EXPECTED)
def test_wing_edits_are_refused_with_construction_error(construction):
    counts = sweep()[construction]
    assert LOOKUP_ERRORS.isdisjoint(counts), counts
    assert counts == EXPECTED[construction]


def test_ef3_coincidence_answers_a_bool_on_every_wing_edit():
    assert sweep()["ef3_coincidence"] == {True: 80, False: 195}


def test_compose_refuses_a_right_operand_with_another_kappa():
    counts = Counter()
    for fx in fixture_sets():
        for B1 in fx.butterflies:
            for B2 in fx.butterflies:
                if B1.cod != B2.dom:
                    continue
                for h in all_homomorphisms(B2.dom.G, B2.E):
                    if h.map != B2.kappa.map:
                        counts[first_refusal([partial(compose, B1, with_wings(B2, h, B2.iota))])] += 1
    assert counts == {"ok": 183, "ConstructionError": 207}
