"""Weak morphisms of strict 2-groups and their dictionary with butterflies.

A monoidal functor (F0, F1, F2) is an ordinary functor between the underlying
groupoids together with comparison arrows F2(x,y) from F0(x)*F0(y) to
F0(x*y), natural in both arguments and associatively coherent.  Neither F0
nor F1 need preserve multiplication; a butterfly plus a set-theoretic section
of its surjective leg produces one, and conversely a monoidal functor is
assembled back into a butterfly whose middle group is a limit of triples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .butterfly import Butterfly, _arrows
from .errors import GroupLawSearchFailed, SectionInvalid
from .fingroup import FinGroup, GroupHom, _maps_into, _twisted_index, kernel
from .report import ValidationReport
from .xmod import Strict2Group, _ends_valid, _functor_laws, _natural_families, denormalize, normalize


@dataclass(frozen=True)
class MonoidalFunctor:
    """(F0, F1, F2) between strict 2-groups; F0 and F1 are bare functions."""

    dom: Strict2Group
    cod: Strict2Group
    F0: tuple[int, ...]
    F1: tuple[int, ...]
    F2: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "F0", tuple(self.F0))
        object.__setattr__(self, "F1", tuple(self.F1))
        object.__setattr__(self, "F2", tuple(tuple(row) for row in self.F2))
        n0, n1 = self.dom.G0.order, self.cod.G1.order
        if not _maps_into(self.F0, n0, self.cod.G0.order):
            raise ValueError("F0 is not a map into the codomain's object range")
        F2_ok = len(self.F2) == n0 and all(_maps_into(row, n0, n1) for row in self.F2)
        if not (_maps_into(self.F1, self.dom.G1.order, n1) and F2_ok):
            raise ValueError("F1/F2 is not a map into the codomain's arrow range")

    def is_strict(self) -> bool:
        e, t = self.cod.e.map, self.dom.G0.table
        return all(
            self.F2[x][y] == e[self.F0[t[x][y]]]
            for x in range(self.dom.G0.order)
            for y in range(self.dom.G0.order)
        )


def check_monoidal(M: MonoidalFunctor) -> ValidationReport:
    """The 2-group conditions on both ends, functoriality, endpoint/naturality
    conditions on F2, normalization, and the associativity coherence (the
    factor-set cocycle identity).  Each stage runs once the ones before hold,
    as it looks up composites that exist only then."""
    report = ValidationReport("monoidal functor")
    T, U = M.dom, M.cod
    if not _ends_valid(report, M):
        return report
    F0, F1, F2 = M.F0, M.F1, M.F2
    _functor_laws(report, T, U, F0, F1)
    if not report.ok:
        return report
    t0, u0, u1 = T.G0.table, U.G0.table, U.G1.table
    for x in range(T.G0.order):
        for y in range(T.G0.order):
            arr = F2[x][y]
            if U.d.map[arr] != u0[F0[x]][F0[y]]:
                report.add("f2-source", (x, y), "d(F2) != F0(x)F0(y)")
            if U.c.map[arr] != F0[t0[x][y]]:
                report.add("f2-target", (x, y), "c(F2) != F0(xy)")
    if F0[0] != 0:
        report.add("normalization", 0, "F0(1) != 1")
    for x in range(T.G0.order):
        if F2[0][x] != U.e.map[F0[x]]:
            report.add("normalization", (0, x), "F2(1,x) is not an identity arrow")
        if F2[x][0] != U.e.map[F0[x]]:
            report.add("normalization", (x, 0), "F2(x,1) is not an identity arrow")
    if not report.ok:
        return report
    d, c = T.d.map, T.c.map
    for u in range(T.G1.order):
        for v in range(T.G1.order):
            lhs = U.m[(F2[d[u]][d[v]], F1[T.G1.table[u][v]])]
            rhs = U.m[(u1[F1[u]][F1[v]], F2[c[u]][c[v]])]
            if lhs != rhs:
                report.add("f2-naturality", (u, v), "F2 is not natural")
    e = U.e.map
    for x in range(T.G0.order):
        for y in range(T.G0.order):
            for z in range(T.G0.order):
                lhs = U.m[(u1[F2[x][y]][e[F0[z]]], F2[t0[x][y]][z])]
                rhs = U.m[(u1[e[F0[x]]][F2[y][z]], F2[x][t0[y][z]])]
                if lhs != rhs:
                    report.add("coherence", (x, y, z), "associativity coherence fails")
    return report


def set_section(B: Butterfly, s: Sequence[int]) -> tuple[int, ...]:
    """The section s of B's sigma as a tuple once it maps H0 into E with s(1) = 1
    and each s(x) in the sigma-fibre of x, else ``SectionInvalid``."""
    s = tuple(s)
    if not _maps_into(s, B.dom.G0.order, B.E.order):
        raise SectionInvalid(f"section is not a map from H0 into E (0..{B.E.order - 1})")
    if s[0] != 0:
        raise SectionInvalid("section must be normalized: s(1) = 1")
    for x, e in enumerate(s):
        if B.sigma.map[e] != x:
            raise SectionInvalid(f"s({x}) is not in the sigma-fiber of {x}")
    return s


def all_set_sections(B: Butterfly) -> list[tuple[int, ...]]:
    """Every normalized set-theoretic section of sigma."""
    fibers = [
        [e for e in range(B.E.order) if B.sigma.map[e] == x]
        for x in range(B.dom.G0.order)
    ]
    out = []
    for tail in itertools.product(*fibers[1:]):
        out.append((0,) + tail)
    return out


def identity_monoidal(T: Strict2Group) -> MonoidalFunctor:
    return MonoidalFunctor(
        T,
        T,
        tuple(range(T.G0.order)),
        tuple(range(T.G1.order)),
        tuple(
            tuple(T.e.map[T.G0.table[x][y]] for y in range(T.G0.order))
            for x in range(T.G0.order)
        ),
    )


def extract_monoidal(B: Butterfly, section: Sequence[int]) -> MonoidalFunctor:
    """The weak morphism of a butterfly along a set-theoretic section, any
    sequence that :func:`set_section` accepts for B, the one check it runs.

    F0 = s;rho on objects.  The arrow component F1(h, x) is the arrow of
    ``butterfly._arrows`` from kappa(h)^-1 s(boundary(h) x) to s(x), and F2(x, y)
    the one from s(x) s(y) to s(xy), which measures the failure of s to be
    multiplicative; both exist, as B is assumed valid.
    """
    s = set_section(B, section)
    TH, TG = denormalize(B.dom), denormalize(B.cod)
    E, H0, t = B.E, B.dom.G0, B.dom.G0.table
    k, bd, objects = B.kappa.map, B.dom.boundary.map, range(H0.order)
    F0 = tuple(B.rho.map[s[x]] for x in objects)
    hs, xs, _ = _twisted_index(B.dom.G.order, H0.order)
    F1 = _arrows(B, [E.table[E.inv(k[h])][s[t[bd[h]][x]]] for h, x in zip(hs, xs)], [s[x] for x in xs])
    F2 = [_arrows(B, [E.table[s[x]][s[y]] for y in objects], [s[xy] for xy in t[x]]) for x in objects]
    return MonoidalFunctor(TH, TG, F0, F1, tuple(F2))


def _limit_triples(M: MonoidalFunctor) -> tuple[list[tuple[int, int, int]], dict[tuple[int, int, int], int]]:
    """The elements (y, g, x) of the limit group of M, g an arrow from x to
    F0(y), in the order of its table, and the index of each triple."""
    U = M.cod
    triples = [
        (y, g, U.d.map[g])
        for y in range(M.dom.G0.order)
        for g in range(U.G1.order)
        if M.F0[y] == U.c.map[g]
    ]
    return triples, {t: i for i, t in enumerate(triples)}


def butterfly_from_monoidal(M: MonoidalFunctor) -> Butterfly:
    """Assemble a butterfly from a normalized monoidal functor.

    The middle group lives on triples (y, g, x) with g an arrow from x to
    F0(y); multiplication composes g1*g2 with the comparison arrow F2(y1,y2),
    and associativity is exactly the coherence of F2.  A functor passing
    :func:`check_monoidal` gives a valid butterfly by construction, with the
    identity (0, 0, 0) first, so it is built unchecked.
    """
    report = check_monoidal(M)
    if not report.ok:
        raise GroupLawSearchFailed(f"functor is not monoidal:\n{report}")
    T, U = M.dom, M.cod
    dom, cod = normalize(T), normalize(U)
    triples, pos = _limit_triples(M)
    u1, t0, u0 = U.G1.table, T.G0.table, U.G0.table
    table = [
        [pos[(t0[y1][y2], U.m[(u1[g1][g2], M.F2[y1][y2])], u0[x1][x2])] for (y2, g2, x2) in triples]
        for (y1, g1, x1) in triples
    ]
    P0 = FinGroup._trusted(table, f"P0({T.G1.name}->{U.G1.name})")
    sigma = GroupHom._trusted(P0, T.G0, tuple(y for (y, _, _) in triples))
    rho = GroupHom._trusted(P0, U.G0, tuple(x for (_, _, x) in triples))
    kappa = GroupHom._trusted(
        dom.G, P0, tuple(pos[(T.d.map[h1], M.F1[T.i.map[h1]], 0)] for h1 in kernel(T.c).elements)
    )
    iota = GroupHom._trusted(cod.G, P0, tuple(pos[(0, g1, U.d.map[g1])] for g1 in kernel(U.c).elements))
    return Butterfly(dom=dom, cod=cod, E=P0, kappa=kappa, iota=iota, sigma=sigma, rho=rho)


def canonical_limit_section(M: MonoidalFunctor) -> tuple[int, ...]:
    """The section y -> (y, identity arrow at F0(y), F0(y)) of the limit butterfly
    ``butterfly_from_monoidal(M)``, read off M's triples as a plain tuple."""
    U = M.cod
    _, pos = _limit_triples(M)
    return tuple(pos[(y, U.e.map[M.F0[y]], M.F0[y])] for y in range(M.dom.G0.order))


def find_monoidal_natural_iso(M: MonoidalFunctor, N: MonoidalFunctor):
    """A monoidal natural isomorphism between parallel monoidal functors, or None.

    A family theta(x): F0(x) -> F0'(x), natural in x and compatible with the
    comparison arrows."""
    if M.dom != N.dom or M.cod != N.cod:
        return None
    T, U = M.dom, M.cod
    u1, t0, objects = U.G1.table, T.G0.table, range(T.G0.order)
    for theta in _natural_families(T, U, M.F0, N.F0, M.F1, N.F1):
        if all(
            U.m[(M.F2[x][y], theta[t0[x][y]])] == U.m[(u1[theta[x]][theta[y]], N.F2[x][y])]
            for x in objects
            for y in objects
        ):
            return theta
    return None
