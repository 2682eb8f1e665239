"""The law suites' per-case shortcuts, checked against the code they replaced.

- ``laws._composable_triples`` draws each B2 and B3 of the bicategory suite's
  associativity cases from an index of the bounded butterflies by domain.
  The former scan over all pairs and triples is kept as an oracle; on all 28
  fixture sets (seeds 0-13, bounds 8 and 16) both give the same triples, by
  identity, in the same order.
- ``fingroup._close`` grows a span from its coset by the new generator
  alone.  The former closure, which re-walked the whole span with every
  generator, and the ``_generating_sequence`` and ``subgroup_generated``
  built on it are kept as oracles; on the catalog up to order 24, with no
  prefix and with one-element prefixes, and on the middle groups of the
  fixture butterflies with their wing images first, as the butterfly-morphism
  search takes them, the sequences and spans are the same.
- ``GroupHom._trusted`` and ``Butterfly._trusted`` store their fields
  directly; what they build equals what the checking constructor and the
  dataclass ``__init__`` build, under ``==``, ``hash`` and ``vars()``.
"""

from __future__ import annotations

import itertools

import pytest

from butterflies.butterfly import Butterfly, compose
from butterflies.extension import standard_catalog
from butterflies.fingroup import GroupHom, _generating_sequence, subgroup_generated
from butterflies.laws import _composable_triples, generate_fixtures

CASES = [(seed, bound) for seed in range(14) for bound in (8, 16)]
CATALOG = [G for n in range(1, 25) for _, G in standard_catalog(n)]


def reference_triples(bounded, size_bound):
    triples = []
    for B1 in bounded:
        for B2 in bounded:
            if B1.cod != B2.dom:
                continue
            for B3 in bounded:
                if B2.cod != B3.dom or B1.E.order * B2.E.order * B3.E.order > 64 * size_bound:
                    continue
                triples.append((B1, B2, B3))
    return triples


def reference_close(G, span, gens):
    frontier = list(span)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = G.table[a][g]
            if b not in span:
                span.add(b)
                frontier.append(b)
    return span


def reference_generating_sequence(G, first=()):
    gens = []
    span = {0}
    for a in itertools.chain(first, range(G.order)):
        if a not in span:
            gens.append(a)
            if len(reference_close(G, span, gens)) == G.order:
                break
    return gens


def wing_prefix(B):
    """The elements the butterfly-morphism search out of B puts first."""
    return tuple(dict.fromkeys([*B.iota.map, *B.kappa.map]))


@pytest.mark.parametrize("seed, bound", CASES)
def test_triples_equal_the_former_scan(seed, bound):
    fx = generate_fixtures(seed, bound)
    bounded = [B for B in fx.butterflies if B.E.order <= 2 * bound]
    triples = list(_composable_triples(bounded, 64 * bound))
    expected = reference_triples(bounded, bound)
    assert triples and len(triples) == len(expected)
    assert all(x is y for t, r in zip(triples, expected) for x, y in zip(t, r))


def test_generating_sequences_equal_the_former_closure_on_the_catalog():
    assert len(CATALOG) > 50
    for G in CATALOG:
        for first in [(), *((a,) for a in range(G.order))]:
            assert _generating_sequence(G, first) == reference_generating_sequence(G, first)


def test_spans_equal_the_former_closure_on_the_catalog():
    for G in CATALOG:
        for a in range(G.order):
            gens = [a, G.order - 1 - a, a]
            assert subgroup_generated(G, gens).elements == tuple(sorted(reference_close(G, {0}, gens)))


@pytest.mark.parametrize("seed, bound", [(0, 8), (3, 16), (9, 16)])
def test_generating_sequences_equal_the_former_closure_from_wing_images(seed, bound):
    for B in generate_fixtures(seed, bound).butterflies:
        first = wing_prefix(B)
        assert _generating_sequence(B.E, first) == reference_generating_sequence(B.E, first)


def checked_copy(B: Butterfly) -> Butterfly:
    """B through the dataclass ``__init__``, each map through the checking constructor."""
    legs = (GroupHom(h.dom, h.cod, h.map) for h in (B.kappa, B.iota, B.sigma, B.rho))
    return Butterfly(B.dom, B.cod, B.E, *legs)


def same_record(x, y) -> bool:
    for record in (x, y):
        if isinstance(record, GroupHom):
            record._defect  # the kept verdict, so that vars() compares it too
    return type(x) is type(y) and x == y and hash(x) == hash(y) and vars(x) == vars(y)


@pytest.mark.parametrize("seed, bound", [(1, 16), (2, 8)])
def test_trusted_records_equal_the_checked_ones(seed, bound):
    butterflies = generate_fixtures(seed, bound).butterflies
    composites = [compose(B1, B2) for B1 in butterflies for B2 in butterflies if B1.cod == B2.dom][:40]
    assert composites
    for B in butterflies + composites:
        C = checked_copy(B)
        assert same_record(B, C)
        assert all(same_record(getattr(B, leg), getattr(C, leg)) for leg in ("kappa", "iota", "sigma", "rho"))
        assert same_record(Butterfly._trusted(*vars(C).values()), C)
        assert same_record(GroupHom._trusted(B.E, B.E, tuple(range(B.E.order))), GroupHom(B.E, B.E, range(B.E.order)))
