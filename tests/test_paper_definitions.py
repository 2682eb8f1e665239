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
"""

from __future__ import annotations

from typing import Optional

from butterflies.extension import standard_catalog
from butterflies.fingroup import GroupHom, Subgroup, all_homomorphisms
from butterflies.xmod import Strict2Group, validate_two_group

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
