"""Reference tests for butterfly composition and the plain pullback.

``compose`` builds the middle group Q = P/N of the composite straight from
the pairs of the pullback P, without P's table, and trusts N to be normal.
Here the composite is rebuilt the long way, with every step checked: the
full pullback group from its own tuple-keyed routine, N as a checked
subgroup, ``quotient`` (which checks normality) and checking homomorphism
constructors.  The two must serialize identically.

``product_and_pullback`` is the same builder as ``compose``'s, taken modulo
the trivial subgroup; it is checked against that tuple-keyed routine on
every pullback its consumers build over the fixture sets.
"""

from __future__ import annotations

import sys

import pytest

from butterflies import butterfly, fingroup, laws, xmod
from butterflies.butterfly import Butterfly, compose, to_fractor
from butterflies.fingroup import FinGroup, GroupHom, Subgroup, product_and_pullback, quotient
from butterflies.jsonio import canonical_bytes, to_jsonable
from butterflies.laws import generate_fixtures, run_bicategory_suite, run_fractions_suite

CASES = [(seed, bound) for seed in range(4) for bound in (8, 16)]


_REFERENCE_PULLBACKS: dict = {}


def reference_pullback(f: GroupHom, g: GroupHom):
    """{(a,c) : f(a)=g(c)} in lexicographic order, with its full table built
    through a tuple-keyed pair index and checked, its projections and that index.

    Memoized on the maps and the names and labels of their domains, which
    with the tables are all the result depends on."""
    key = (f, f.dom.name, f.dom.element_labels, g, g.dom.name, g.dom.element_labels)
    if key not in _REFERENCE_PULLBACKS:
        _REFERENCE_PULLBACKS[key] = _reference_pullback(f, g)
    return _REFERENCE_PULLBACKS[key]


def _reference_pullback(f: GroupHom, g: GroupHom):
    assert f.cod == g.cod
    A, C = f.dom, g.dom
    pairs = [(a, c) for a in range(A.order) for c in range(C.order) if f.map[a] == g.map[c]]
    pos = {p: i for i, p in enumerate(pairs)}
    table = [[pos[(A.table[a][a2], C.table[c][c2])] for (a2, c2) in pairs] for (a, c) in pairs]
    labels = tuple(f"({A.label(a)},{C.label(c)})" for (a, c) in pairs)
    P = FinGroup(table, f"PB({A.name},{C.name})", labels)
    proj1 = GroupHom(P, A, tuple(a for (a, _) in pairs))
    proj2 = GroupHom(P, C, tuple(c for (_, c) in pairs))
    return P, proj1, proj2, pos


def reference_compose(B: Butterfly, B2: Butterfly) -> Butterfly:
    P, pr1, pr2, pos = reference_pullback(B.rho, B2.sigma)
    G, H, K = B.cod.G, B.dom.G, B2.cod.G
    N = Subgroup(P, tuple(pos[(B.iota.map[g], B2.kappa.map[g])] for g in range(G.order)))
    Q, pr = quotient(P, N)
    sigma_map = [0] * Q.order
    rho_map = [0] * Q.order
    for idx in range(P.order):
        sigma_map[pr.map[idx]] = B.sigma.map[pr1.map[idx]]
        rho_map[pr.map[idx]] = B2.rho.map[pr2.map[idx]]
    for idx in range(P.order):  # the legs are constant on cosets
        assert sigma_map[pr.map[idx]] == B.sigma.map[pr1.map[idx]]
        assert rho_map[pr.map[idx]] == B2.rho.map[pr2.map[idx]]
    return Butterfly(
        dom=B.dom,
        cod=B2.cod,
        E=Q,
        kappa=GroupHom(H, Q, tuple(pr.map[pos[(B.kappa.map[h], 0)]] for h in range(H.order))),
        iota=GroupHom(K, Q, tuple(pr.map[pos[(0, B2.iota.map[k])]] for k in range(K.order))),
        sigma=GroupHom(Q, B.dom.G0, tuple(sigma_map)),
        rho=GroupHom(Q, B2.cod.G0, tuple(rho_map)),
    )


def key(B: Butterfly) -> bytes:
    return canonical_bytes(to_jsonable(B))


@pytest.fixture(scope="module")
def fixture_sets():
    return [generate_fixtures(seed, bound) for seed, bound in CASES]


def test_fixture_pairs(fixture_sets):
    seen = set()
    for fx in fixture_sets:
        for B in fx.butterflies:
            for B2 in fx.butterflies:
                if B.cod != B2.dom or (key(B), key(B2)) in seen:
                    continue
                seen.add((key(B), key(B2)))
                assert key(compose(B, B2)) == key(reference_compose(B, B2))
    assert len(seen) == 335


def test_associativity_triples_both_bracketings(fixture_sets):
    # the triples of run_bicategory_suite's associativity check
    triples = 0
    for fx in fixture_sets:
        bounded = [B for B in fx.butterflies if B.E.order <= 2 * fx.size_bound]
        for B1 in bounded:
            for B2 in bounded:
                if B1.cod != B2.dom:
                    continue
                B12, R12 = compose(B1, B2), reference_compose(B1, B2)
                for B3 in bounded:
                    if B2.cod != B3.dom or B1.E.order * B2.E.order * B3.E.order > 64 * fx.size_bound:
                        continue
                    triples += 1
                    assert key(compose(B12, B3)) == key(reference_compose(R12, B3))
                    assert key(compose(B1, compose(B2, B3))) == key(reference_compose(B1, reference_compose(B2, B3)))
    assert triples == 1875


# the consumers of product_and_pullback, by the module that imports or defines it
CONSUMERS = {
    butterfly: {"_split", "reduced_compose", "to_fractor"},
    fingroup: {"direct_product"},
    xmod: {"pullback_crossed_module"},
    laws: {"ef3_coincidence"},
}


def test_plain_pullback_matches_reference(monkeypatch):
    # every (f, g) the consumers receive while the fixtures are generated and
    # both clean suites run, plus to_fractor on every fixture butterfly
    seen = {}
    callers = set()

    def recording(f, g):
        callers.add(sys._getframe(1).f_code.co_name)
        seen.setdefault((f.dom, f.map, g.dom, g.map), (f, g))
        return product_and_pullback(f, g)

    for module in CONSUMERS:
        monkeypatch.setattr(module, "product_and_pullback", recording)
    for seed, bound in CASES:
        fx = generate_fixtures(seed, bound)
        run_bicategory_suite(fx)
        run_fractions_suite(fx)
        for B in fx.butterflies:
            to_fractor(B)
    monkeypatch.undo()
    assert callers == set().union(*CONSUMERS.values())
    for f, g in seen.values():
        P, p1, p2, pos = product_and_pullback(f, g)
        R, r1, r2, ref = reference_pullback(f, g)
        assert (P.name, P.element_labels, P.table) == (R.name, R.element_labels, R.table)
        assert (p1.map, p2.map) == (r1.map, r2.map)
        assert p1.dom is P and p1.cod is f.dom and p2.cod is g.dom
        nc = g.dom.order
        for a in range(f.dom.order):
            for c in range(nc):
                assert pos[a * nc + c] == ref.get((a, c))
    assert len(seen) > 100
