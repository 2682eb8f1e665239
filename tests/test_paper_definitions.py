"""Smith is Huq, decided in the paper's words.

PAPER.md's main result holds "when in C the notions of Huq commutator and
Smith commutator coincide".  ``validate_two_group`` decides the Huq form: a
reflexive graph d, c: G1 -> G0 with common section e carries an internal
composition iff [ker d, ker c] = 1, and ``Strict2Group.m`` derives that
composition from it.  The Smith form says what the composition is: a
homomorphism m from the pullback P = {(f, g) : c f = d g} to G1 with the unit
laws m(u, e c u) = u and m(e d v, v) = v.  In groups the two coincide
(Martins-Ferreira and Van der Linden, "A note on the 'Smith is Huq'
condition", Appl. Categ. Structures 20, 2012).

The check below reads only group tables and maps.  Every reflexive graph on a
catalog group of order at most 15 is a pair (d, c) of idempotent
endomorphisms with one image, G0 that image and e its inclusion: 450 graphs.
On each, ``smith_composition`` builds m from the unit laws alone, by closure
over G1's table, and finds it exactly where ``validate_two_group`` reports ok
(412 graphs); where it exists it equals ``Strict2Group.m``.  A
``validate_two_group`` without its interchange check would report the other
38 graphs ok, and fail here.

A weak equivalence is, in PAPER.md's words, an internal functor that is
"internally fully faithful and essentially surjective on objects".
``is_weak_equivalence`` decides it through the kernel and the cokernel of
the boundary.  On every morphism of the 28 fixture sets of the law-suites
benchmark (seeds 0-13, bounds 8 and 16; 3,759 morphisms, 484 of them weak
equivalences), the denormalized functor must be a bijection on every
hom-set and reach every object up to an arrow exactly when that verdict
holds.  A verdict read off the kernel map alone, off the cokernel map alone,
or off the kernel map and a merely surjective cokernel map disagrees on
1,446, 349 and 543 of them.
"""

from __future__ import annotations

from typing import Optional

from butterflies.extension import standard_catalog
from butterflies.fingroup import GroupHom, Subgroup, all_homomorphisms
from butterflies.laws import generate_fixtures
from butterflies.xmod import Strict2Group, denormalize_morphism, is_weak_equivalence, validate_two_group

CATALOG = [K for order in range(1, 16) for _, K in standard_catalog(order)]


def reflexive_graphs(X):
    """Every reflexive graph on X as (d, c, image): ordered pairs of idempotent
    endomorphisms of X with one image."""
    idempotents = [m.map for m in all_homomorphisms(X, X) if all(m.map[a] == a for a in m.map)]
    for d in idempotents:
        for c in idempotents:
            if set(d) == set(c):
                yield d, c, sorted(set(d))


def smith_composition(t, d, c) -> Optional[dict]:
    """The composition of the reflexive graph (d, c) on the group of table t,
    d and c idempotent endomorphisms with one image and e its inclusion, or
    None when none exists: the map m on P = {(f, g) : c f = d g} fixed by the
    unit laws m(u, c u) = u and m(d v, v) = v and extended by m(p q) =
    m(p) m(q) for q among those units.  It exists when no product conflicts
    and the units generate P, and it is then a homomorphism, since every
    element of P is a product of units.  As e is the inclusion, e c u is c u."""
    arrows = range(len(t))
    units = {}
    for u in arrows:
        for pair, value in (((u, c[u]), u), ((d[u], u), u)):
            if units.setdefault(pair, value) != value:
                return None
    m, frontier = dict(units), list(units)
    while frontier:
        f, g = frontier.pop()
        for (f2, g2), value in units.items():
            pair, product = (t[f][f2], t[g][g2]), t[m[f, g]][value]
            if pair not in m:
                m[pair] = product
                frontier.append(pair)
            elif m[pair] != product:
                return None
    pullback = {(f, g) for f in arrows for g in arrows if c[f] == d[g]}
    return m if set(m) == pullback else None


def test_smith_composition_exists_exactly_where_the_two_group_validates():
    graphs = found = 0
    for X in CATALOG:
        for d, c, image in reflexive_graphs(X):
            G0, e = Subgroup(X, image).as_group()
            pos = {a: i for i, a in enumerate(image)}
            T = Strict2Group(
                X, G0, GroupHom(X, G0, [pos[a] for a in d]), GroupHom(X, G0, [pos[a] for a in c]), e
            )
            m = smith_composition(X.table, d, c)
            assert (m is not None) == validate_two_group(T).ok, (X.name, d, c)
            if m is not None:
                assert m == T.m
            graphs += 1
            found += m is not None
    assert (graphs, found) == (450, 412)


def hom_sets(T) -> dict:
    """The arrows of the 2-group T by (source, target)."""
    homs: dict = {}
    for u in range(T.G1.order):
        homs.setdefault((T.d.map[u], T.c.map[u]), set()).add(u)
    return homs


def is_fully_faithful_and_essentially_surjective(F) -> bool:
    """Whether the functor F maps each hom-set T(x, y) bijectively onto
    U(F x, F y), and every object of U has an arrow to an object F x."""
    T, U, p1, p0 = F.dom, F.cod, F.p1.map, F.p0.map
    source, target = hom_sets(T), hom_sets(U)
    for x in range(T.G0.order):
        for y in range(T.G0.order):
            arrows = source.get((x, y), set())
            images = {p1[u] for u in arrows}
            if len(images) != len(arrows) or images != target.get((p0[x], p0[y]), set()):
                return False
    reached = set(p0)
    return {U.d.map[v] for v in range(U.G1.order) if U.c.map[v] in reached} == set(range(U.G0.order))


def test_weak_equivalences_are_the_fully_faithful_essentially_surjective_functors():
    morphisms = weak = 0
    for seed in range(14):
        for bound in (8, 16):
            for P in generate_fixtures(seed, bound).morphisms:
                verdict = is_weak_equivalence(P)[0]
                assert verdict == is_fully_faithful_and_essentially_surjective(denormalize_morphism(P)), (seed, bound, P)
                morphisms += 1
                weak += verdict
    assert (morphisms, weak) == (3759, 484)
