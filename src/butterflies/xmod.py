"""Crossed modules of finite groups, strict 2-groups, and their 2-cells.

A crossed module is a boundary homomorphism with an action satisfying the
precrossed (equivariance) and Peiffer conditions; it is equivalent to an
internal groupoid in groups (a strict 2-group).  The dictionary between the
two is implemented by :func:`normalize` and :func:`denormalize`.

A strict 2-group is stored as the reflexive graph (G1, G0, d, c, e) alone.
Its composition is unique when it exists, so it is derived rather than
stored: m(f,g) = f*e(d g)^-1*g on pairs with c(f) = d(g), with inverse
i(f) = e(c f)*f^-1*e(d f).  The graph is a 2-group exactly when
d*e = c*e = id and ker d commutes elementwise with ker c; the latter is the
interchange law of m.

Conventions, fixed once and used everywhere: an arrow of the 2-group built
from a crossed module is a pair (g, x) with source d(g,x) = dG(g)*x and
target c(g,x) = x; the derived composition is then m((a,x),(b,y)) = (a*b, y)
whenever x = dG(b)*y, and the inverse is i(g,x) = (g^-1, dG(g)*x).

Constructions here build their maps and actions unchecked, except where
whether a map is a homomorphism is the question asked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from .errors import ConstructionError
from .fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    _generator_images,
    _hom_defect,
    all_homomorphisms,
    identity_hom,
    kernel,
    product_and_pullback,
    quotient,
    semidirect_product,
)
from .report import ValidationReport


@dataclass(frozen=True)
class CrossedModule:
    """Boundary G -> G0 together with an action of G0 on G."""

    G: FinGroup
    G0: FinGroup
    boundary: GroupHom
    action: GroupAction
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.boundary.dom != self.G or self.boundary.cod != self.G0:
            raise ValueError("boundary must map G to G0")
        if self.action.actor != self.G0 or self.action.target != self.G:
            raise ValueError("action must let G0 act on G")

    def act(self, x: int, g: int) -> int:
        return self.action.act[x][g]

    @property
    def size(self) -> int:
        return self.G.order * self.G0.order

    def __repr__(self) -> str:
        label = self.name or f"({self.G.name}->{self.G0.name})"
        return f"CrossedModule{label}"


def validate_crossed_module(X: CrossedModule) -> ValidationReport:
    """Check the precrossed and Peiffer conditions, reporting every violation."""
    report = ValidationReport(repr(X))
    bd, G, G0 = X.boundary.map, X.G, X.G0
    for x in range(G0.order):
        for g in range(G.order):
            if bd[X.act(x, g)] != G0.conj(x, bd[g]):
                report.add("precrossed", (x, g), "boundary of x|>g is not x*dg*x^-1")
    for g in range(G.order):
        for g2 in range(G.order):
            if X.act(bd[g], g2) != G.conj(g, g2):
                report.add("peiffer", (g, g2), "dg|>g' is not g*g'*g^-1")
    return report


@dataclass(frozen=True)
class XModMorphism:
    """A pair of homomorphisms (top p, bottom p0) between crossed modules."""

    dom: CrossedModule
    cod: CrossedModule
    p: GroupHom
    p0: GroupHom

    def __post_init__(self):
        if self.p.dom != self.dom.G or self.p.cod != self.cod.G:
            raise ValueError("p must map dom.G to cod.G")
        if self.p0.dom != self.dom.G0 or self.p0.cod != self.cod.G0:
            raise ValueError("p0 must map dom.G0 to cod.G0")


def validate_xmod_morphism(P: XModMorphism) -> ValidationReport:
    report = ValidationReport(f"morphism {P.dom!r} -> {P.cod!r}")
    H, H0 = P.dom.G, P.dom.G0
    for h in range(H.order):
        if P.cod.boundary.map[P.p.map[h]] != P.p0.map[P.dom.boundary.map[h]]:
            report.add("square", h, "boundary square does not commute")
    for x in range(H0.order):
        for h in range(H.order):
            if P.p.map[P.dom.act(x, h)] != P.cod.act(P.p0.map[x], P.p.map[h]):
                report.add("equivariance", (x, h), "p(x|>h) != p0(x)|>p(h)")
    return report


def xmod_morphism(dom: CrossedModule, cod: CrossedModule, p: GroupHom, p0: GroupHom) -> XModMorphism:
    """Construct a morphism and insist that it is valid."""
    P = XModMorphism(dom, cod, p, p0)
    report = validate_xmod_morphism(P)
    if not report.ok:
        raise ConstructionError(str(report))
    return P


def identity_morphism(X: CrossedModule) -> XModMorphism:
    return XModMorphism(X, X, identity_hom(X.G), identity_hom(X.G0))


def compose_morphisms(P: XModMorphism, Q: XModMorphism) -> XModMorphism:
    if P.cod != Q.dom:
        raise ValueError("morphisms not composable")
    return XModMorphism(P.dom, Q.cod, P.p.then(Q.p), P.p0.then(Q.p0))


# ---------------------------------------------------------------------------
# strict 2-groups (internal groupoids in groups)


@dataclass(frozen=True)
class Strict2Group:
    """An internal groupoid in groups: arrows G1 over objects G0; m and i are derived."""

    G1: FinGroup
    G0: FinGroup
    d: GroupHom
    c: GroupHom
    e: GroupHom

    def __post_init__(self):
        if self.d.dom != self.G1 or self.d.cod != self.G0:
            raise ValueError("d must map G1 to G0")
        if self.c.dom != self.G1 or self.c.cod != self.G0:
            raise ValueError("c must map G1 to G0")
        if self.e.dom != self.G0 or self.e.cod != self.G1:
            raise ValueError("e must map G0 to G1")

    @cached_property
    def m(self) -> dict[tuple[int, int], int]:
        """m(f,g) = f*e(d g)^-1*g on every composable pair c(f) = d(g)."""
        t, inv, d, c, e = self.G1.table, self.G1.inverse, self.d.map, self.c.map, self.e.map
        arrows = range(self.G1.order)
        return {(f, g): t[t[f][inv[e[c[f]]]]][g] for f in arrows for g in arrows if c[f] == d[g]}

    @cached_property
    def i(self) -> GroupHom:
        """i(f) = e(c f)*f^-1*e(d f), the inverse arrow of f."""
        t, inv, d, c, e = self.G1.table, self.G1.inverse, self.d.map, self.c.map, self.e.map
        return GroupHom._trusted(
            self.G1, self.G1, tuple(t[t[e[c[f]]][inv[f]]][e[d[f]]] for f in range(self.G1.order))
        )

    def hom_set(self, x: int, y: int) -> list[int]:
        """Arrows with source x and target y."""
        return [f for f in range(self.G1.order) if self.d.map[f] == x and self.c.map[f] == y]

    def hom_sets(self, src: Sequence[int], dst: Sequence[int]) -> Optional[list[list[int]]]:
        """The arrows src[x] -> dst[x] for each x, or None when one of them is empty."""
        sets = [self.hom_set(x, y) for x, y in zip(src, dst)]
        return sets if all(sets) else None

    @property
    def size(self) -> int:
        return self.G1.order

    def __repr__(self) -> str:
        return f"Strict2Group({self.G1.name} => {self.G0.name})"


def validate_two_group(T: Strict2Group) -> ValidationReport:
    """Whether the reflexive graph carries its (unique) internal composition.

    With the derived m, the endpoint, unit, inverse and associativity laws
    hold by construction once e is a common section of d and c; the
    interchange law then holds iff [ker d, ker c] = 1.
    """
    report = ValidationReport(repr(T))
    d, c, e = T.d.map, T.c.map, T.e.map
    for x in range(T.G0.order):
        if d[e[x]] != x or c[e[x]] != x:
            report.add("unit-source-target", x, "e(x) is not an endo-arrow of x")
    if not report.ok:
        return report
    t = T.G1.table
    ker_d = [f for f in range(T.G1.order) if d[f] == 0]
    ker_c = [g for g in range(T.G1.order) if c[g] == 0]
    for f in ker_d:
        for g in ker_c:
            if t[f][g] != t[g][f]:
                report.add("interchange", (f, g), "ker d and ker c do not commute")
    return report


@dataclass(frozen=True)
class TwoGroupFunctor:
    """An internal functor between strict 2-groups."""

    dom: Strict2Group
    cod: Strict2Group
    p1: GroupHom
    p0: GroupHom


def validate_two_group_functor(F: TwoGroupFunctor) -> ValidationReport:
    report = ValidationReport("2-group functor")
    T, U = F.dom, F.cod
    for f in range(T.G1.order):
        if U.d.map[F.p1.map[f]] != F.p0.map[T.d.map[f]]:
            report.add("source-compat", f, "d(p1 f) != p0(d f)")
        if U.c.map[F.p1.map[f]] != F.p0.map[T.c.map[f]]:
            report.add("target-compat", f, "c(p1 f) != p0(c f)")
    for x in range(T.G0.order):
        if F.p1.map[T.e.map[x]] != U.e.map[F.p0.map[x]]:
            report.add("unit-compat", x, "p1(e x) != e(p0 x)")
    for (f, g), h in T.m.items():
        if F.p1.map[h] != U.m[(F.p1.map[f], F.p1.map[g])]:
            report.add("composition-compat", (f, g), "p1 does not preserve m")
    return report


# bounded at 4x the most crossed modules any benchmark workload denormalizes (16)
@lru_cache(maxsize=64)
def denormalize(X: CrossedModule) -> Strict2Group:
    """The 2-group G x| G0 => G0 of a crossed module."""
    S, c, e, _ = semidirect_product(X.action)
    t0, bd = X.G0.table, X.boundary.map
    d = GroupHom._trusted(S, X.G0, tuple(t0[bd[a]][x] for a in range(X.G.order) for x in range(X.G0.order)))
    return Strict2Group(S, X.G0, d, c, e)


def kernel_embedding(X: CrossedModule) -> GroupHom:
    """The inclusion g: G -> G1 of the arrow group's c-kernel, a |-> (a, 1)."""
    T = denormalize(X)
    n0 = X.G0.order
    return GroupHom._trusted(X.G, T.G1, tuple(a * n0 for a in range(X.G.order)))


def cokernel_embedding(X: CrossedModule) -> GroupHom:
    """The d-kernel inclusion g-bullet: G -> G1, a |-> (a^-1, d(a))."""
    T = denormalize(X)
    n0 = X.G0.order
    bd = X.boundary.map
    return GroupHom._trusted(
        X.G, T.G1, tuple(X.G.inv(a) * n0 + bd[a] for a in range(X.G.order))
    )


def normalize(T: Strict2Group) -> CrossedModule:
    """The crossed module (ker c -> G0) of a 2-group, with conjugation-by-units action."""
    K = kernel(T.c)
    Kgrp, incl = K.as_group(f"ker(c:{T.G1.name})")
    boundary = incl.then(T.d)
    pos = {el: i for i, el in enumerate(K.elements)}
    t1 = T.G1.table
    perms = []
    for x in range(T.G0.order):
        ex, exi = T.e.map[x], T.G1.inv(T.e.map[x])
        perms.append(tuple(pos[t1[t1[ex][incl.map[k]]][exi]] for k in range(Kgrp.order)))
    action = GroupAction._trusted(T.G0, Kgrp, tuple(perms))
    return CrossedModule(Kgrp, T.G0, boundary, action, name=f"N({T.G1.name})")


def denormalize_morphism(P: XModMorphism) -> TwoGroupFunctor:
    """The internal functor (p x| p0, p0) induced by a crossed module morphism."""
    TH, TG = denormalize(P.dom), denormalize(P.cod)
    nH0, nG0 = P.dom.G0.order, P.cod.G0.order
    p1 = [0] * TH.G1.order
    for h in range(P.dom.G.order):
        for x in range(nH0):
            p1[h * nH0 + x] = P.p.map[h] * nG0 + P.p0.map[x]
    return TwoGroupFunctor(TH, TG, GroupHom._trusted(TH.G1, TG.G1, tuple(p1)), P.p0)


def normalization_round_trip_equal(X: CrossedModule) -> bool:
    """normalize(denormalize(X)) equals X on the nose under the canonical labeling."""
    Y = normalize(denormalize(X))
    return (
        Y.G.table == X.G.table
        and Y.G0 == X.G0
        and Y.boundary.map == X.boundary.map
        and Y.action.act == X.action.act
    )


def denormalization_round_trip_iso(T: Strict2Group) -> Optional[TwoGroupFunctor]:
    """The canonical comparison denormalize(normalize(T)) -> T, if it is an isomorphism.

    The arrow map sends (a, x) to g(a)*e(x) computed in T, the object map is the
    identity; returns None when this fails to be an isomorphism of 2-groups.
    """
    X = normalize(T)
    U = denormalize(X)
    K = kernel(T.c)
    n0 = X.G0.order
    t1 = T.G1.table
    f1_map = [0] * U.G1.order
    for k, el in enumerate(K.elements):
        for x in range(n0):
            f1_map[k * n0 + x] = t1[el][T.e.map[x]]
    if len(set(f1_map)) != T.G1.order:
        return None
    try:
        f1 = GroupHom(U.G1, T.G1, tuple(f1_map))
    except ValueError:
        return None
    F = TwoGroupFunctor(U, T, f1, identity_hom(T.G0))
    return F if validate_two_group_functor(F).ok else None


# ---------------------------------------------------------------------------
# weak equivalences, discrete fibrations, pullbacks


def kernel_of_boundary(X: CrossedModule) -> tuple[FinGroup, GroupHom]:
    return kernel(X.boundary).as_group(f"ker({X.name or X.G.name})")


def cokernel_of_boundary(X: CrossedModule) -> tuple[FinGroup, GroupHom]:
    """G0 / image(boundary); the image is normal by the precrossed condition."""
    image = Subgroup._trusted(X.G0, tuple(sorted(set(X.boundary.map))))
    return quotient(X.G0, image)


def is_weak_equivalence(P: XModMorphism) -> tuple[bool, GroupHom, GroupHom]:
    """Whether the induced maps on ker(boundary) and coker(boundary) are isomorphisms.

    Returns the verdict together with the two induced maps as witnesses.
    """
    KH, inclH = kernel_of_boundary(P.dom)
    KG, inclG = kernel_of_boundary(P.cod)
    pos = {el: i for i, el in enumerate(inclG.map)}
    ker_map = GroupHom._trusted(KH, KG, tuple(pos[P.p.map[inclH.map[k]]] for k in range(KH.order)))
    QH, prH = cokernel_of_boundary(P.dom)
    QG, prG = cokernel_of_boundary(P.cod)
    coker_map = GroupHom._trusted(QH, QG, tuple(prG.map[P.p0.map[prH.map.index(q)]] for q in range(QH.order)))
    return ker_map.is_isomorphism and coker_map.is_isomorphism, ker_map, coker_map


def is_discrete_fibration(P: XModMorphism) -> bool:
    """A morphism corresponds to a discrete fibration iff its top map is an isomorphism."""
    return P.p.is_isomorphism


def pullback_crossed_module(X: CrossedModule, sigma: GroupHom) -> tuple[CrossedModule, XModMorphism]:
    """Pull the boundary of X back along sigma: E -> G0 of X.

    The top group is {(e, h) : sigma(e) = boundary(h)}, the new boundary is the
    first projection and E acts by (conjugation, sigma-then-action); the second
    component of the result is the comparison morphism into X.
    """
    if sigma.cod != X.G0:
        raise ValueError("sigma must land in the base of the crossed module")
    E = sigma.dom
    P, prE, prH, pos = product_and_pullback(sigma, X.boundary)
    nH = X.G.order
    perms = []
    for ebar in range(E.order):
        perms.append(
            tuple(
                pos[E.conj(ebar, e) * nH + X.act(sigma.map[ebar], h)]
                for e, h in zip(prE.map, prH.map)
            )
        )
    action = GroupAction._trusted(E, P, tuple(perms))
    pulled = CrossedModule(P, E, prE, action, name=f"{X.name or 'X'}^*({sigma.dom.name})")
    comparison = XModMorphism(pulled, X, prH, sigma)
    return pulled, comparison


# ---------------------------------------------------------------------------
# 2-cells


@dataclass(frozen=True)
class XModTwoCell:
    """A 2-cell between parallel morphisms: a map H0 -> G1, a homomorphism when valid."""

    P: XModMorphism
    Q: XModMorphism
    alpha: tuple[int, ...]

    def __post_init__(self):
        if self.P.dom != self.Q.dom or self.P.cod != self.Q.cod:
            raise ValueError("2-cells require parallel morphisms")
        object.__setattr__(self, "alpha", tuple(self.alpha))
        if len(self.alpha) != self.P.dom.G0.order:
            raise ValueError("alpha must be defined on all of H0")
        if any(not 0 <= a < self.P.cod.size for a in self.alpha):
            raise ValueError("alpha value out of the codomain's arrow range")


def pointwise_division_arrow(X: CrossedModule, a: int, b: int) -> int:
    """The arrow (a*b^-1, boundary b) of the 2-group of X, i.e. the cooperator of g and g-bullet."""
    n0 = X.G0.order
    return X.G.table[a][X.G.inv(b)] * n0 + X.boundary.map[b]


def validate_two_cell(cell: XModTwoCell) -> ValidationReport:
    """Source/target compatibility plus the Peiffer-graph condition.

    A 2-cell is an arrow of the base category, so alpha must in particular be
    a group homomorphism H0 -> G1.  Also cross-checks, on the associated
    2-group functors, that the same map is an internal natural transformation
    (naturality on every arrow).
    """
    report = ValidationReport("2-cell")
    P, Q, alpha = cell.P, cell.Q, cell.alpha
    cod = P.cod
    TG = denormalize(cod)
    defect = _hom_defect(P.dom.G0, TG.G1, alpha)
    if defect is not None:
        report.add("homomorphism", defect, "alpha(xg) != alpha(x)alpha(g)")
    for x in range(P.dom.G0.order):
        if TG.d.map[alpha[x]] != P.p0.map[x]:
            report.add("source", x, "alpha(x) does not start at p0(x)")
        if TG.c.map[alpha[x]] != Q.p0.map[x]:
            report.add("target", x, "alpha(x) does not end at q0(x)")
    if not report.ok:
        return report
    bd = P.dom.boundary.map
    for h in range(P.dom.G.order):
        if alpha[bd[h]] != pointwise_division_arrow(cod, P.p.map[h], Q.p.map[h]):
            report.add("peiffer-graph", h, "alpha(dh) != division of p(h) by q(h)")
    FP, FQ = denormalize_morphism(P), denormalize_morphism(Q)
    TH = FP.dom
    for u in range(TH.G1.order):
        lhs = TG.m[(FP.p1.map[u], alpha[TH.c.map[u]])]
        rhs = TG.m[(alpha[TH.d.map[u]], FQ.p1.map[u])]
        if lhs != rhs:
            report.add("naturality-cross-check", u, "groupoid naturality square fails")
    return report


def identity_two_cell(P: XModMorphism) -> XModTwoCell:
    TG = denormalize(P.cod)
    return XModTwoCell(P, P, tuple(TG.e.map[P.p0.map[x]] for x in range(P.dom.G0.order)))


def enumerate_two_cells(P: XModMorphism, Q: XModMorphism) -> list[XModTwoCell]:
    """All 2-cells between the parallel morphisms, in lexicographic order of alpha.

    A 2-cell is a homomorphism alpha: H0 -> G1 found by the generator search:
    the Peiffer-graph condition fixes alpha on the image of the boundary, and
    d alpha = p0 and c alpha = q0 hold everywhere once they hold on generators.
    """
    if P.dom != Q.dom or P.cod != Q.cod:
        return []
    TG, bd = denormalize(P.cod), P.dom.boundary.map
    d, c, p0, q0 = TG.d.map, TG.c.map, P.p0.map, Q.p0.map
    fixed = [(bd[h], pointwise_division_arrow(P.cod, P.p.map[h], Q.p.map[h])) for h in range(P.dom.G.order)]
    accept = lambda x, a: d[a] == p0[x] and c[a] == q0[x]
    maps = _generator_images(P.dom.G0, TG.G1, bijective=False, fixed=fixed, accept=accept)
    return [XModTwoCell(P, Q, m) for m in maps]


def enumerate_natural_transformations(P: XModMorphism, Q: XModMorphism) -> list[tuple[int, ...]]:
    """All internal natural transformations between the denormalized functors.

    Enumerated independently of the 2-cell conditions: candidates range over
    matching hom-sets, must be arrows of the base category (group
    homomorphisms H0 -> G1), and are filtered by the naturality square on
    every arrow of the domain 2-group.
    """
    if P.dom != Q.dom or P.cod != Q.cod:
        return []
    fibers = denormalize(P.cod).hom_sets(P.p0.map, Q.p0.map)
    if fibers is None:
        return []
    FP, FQ = denormalize_morphism(P), denormalize_morphism(Q)
    TH, TG = FP.dom, FP.cod
    H0, t1 = P.dom.G0, TG.G1.table
    arrows = range(TH.G1.order)
    out = []
    for combo in itertools.product(*fibers):
        if any(
            combo[H0.table[x][y]] != t1[combo[x]][combo[y]]
            for x in range(H0.order)
            for y in range(H0.order)
        ):
            continue
        if all(
            TG.m[(FP.p1.map[u], combo[TH.c.map[u]])] == TG.m[(combo[TH.d.map[u]], FQ.p1.map[u])]
            for u in arrows
        ):
            out.append(tuple(combo))
    return out


def all_xmod_morphisms(dom: CrossedModule, cod: CrossedModule) -> Iterator[XModMorphism]:
    """Every crossed module morphism dom -> cod, deterministically ordered."""
    for p0 in all_homomorphisms(dom.G0, cod.G0):
        for p in all_homomorphisms(dom.G, cod.G):
            candidate = XModMorphism(dom, cod, p, p0)
            if validate_xmod_morphism(candidate).ok:
                yield candidate
