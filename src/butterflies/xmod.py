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
whether a map is a homomorphism is the question asked, and the records do not
check their wiring: the loaders build each map between the groups it joins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from .fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    _generator_images,
    _generators,
    _hom_defect,
    _maps_into,
    _per_operand,
    _twisted_index,
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

    def act(self, x: int, g: int) -> int:
        return self.action.act[x][g]

    def __eq__(self, other: object) -> bool:
        # the dataclass-generated equality (the name excluded), returning at once on identity
        return self is other or (
            isinstance(other, CrossedModule)
            and (self.G, self.G0, self.boundary, self.action) == (other.G, other.G0, other.boundary, other.action)
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass-generated hash, which would rehash every map per call
        return hash((self.G, self.G0, self.boundary, self.action))

    @property
    def size(self) -> int:
        return self.G.order * self.G0.order

    def __repr__(self) -> str:
        label = self.name or f"({self.G.name}->{self.G0.name})"
        return f"CrossedModule{label}"


def _check_ranges(report: ValidationReport, condition: str, maps) -> bool:
    """The one gate of the validators on the tables and maps they read: whether it failed.
    Each group that the rows (name, part, D, C) of `maps` join must have a group table, as a
    check that reads one that has not may index off it; each that has not is a ``not-a-group``
    finding and fails the gate.  Else each ``GroupHom`` part's ``_defect`` is read: kept if the
    part joins D and C (a verdict reads only the tables, and equal groups have equal ones), else
    decided afresh on D and C.  A map that is not one D -> C is a `condition` finding and fails
    the gate, so that the checks which index it can be skipped; one that is no homomorphism
    D -> C (a leg, a boundary) is a ``not-hom`` finding, with the first defect pair (a, g) of
    m(a*g) != m(a)*m(g), and passes it."""
    broken = [G for G in dict.fromkeys(G for row in maps for G in row[2:]) if G._table_defect is not None]
    for G in broken:
        report.add("not-a-group", G.name, G._table_defect)
    if broken:
        return True
    failed = False
    for name, part, D, C in maps:
        defect = (part if (part.dom, part.cod) == (D, C) else GroupHom._trusted(D, C, part.map))._defect
        if defect and defect[0] is None:
            report.add(condition, name, f"{name} is not a map {D.name} -> {C.name}")
            failed = True
        elif defect:
            report.add("not-hom", (name, defect[0]), f"{name} is not a homomorphism {D.name} -> {C.name}")
    return failed


def validate_crossed_module(X: CrossedModule) -> ValidationReport:
    """Check that the action is one, reporting its first defect alone, and
    then the precrossed and Peiffer conditions, reporting every violation.
    The gate's rule decides the boundary and the action, each on X's own groups,
    so both conditions, which index the two, run once both are in range."""
    report = ValidationReport(repr(X))
    bd, G, G0 = X.boundary.map, X.G, X.G0
    if _check_ranges(report, "map-range", [("boundary", X.boundary, G, G0)]):
        return report
    action = X.action if (X.action.actor, X.action.target) == (G0, G) else GroupAction._trusted(G0, G, X.action.act)
    if (defect := action._defect) is not None:
        report.add("not-an-action", *defect)
        return report
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


def _morphism_maps(P: XModMorphism, label: str = "") -> list:
    """p and p0 with the groups of P they join, for the range gate: the checks of a morphism index both."""
    return [(label + "p", P.p, P.dom.G, P.cod.G), (label + "p0", P.p0, P.dom.G0, P.cod.G0)]


def validate_xmod_morphism(P: XModMorphism) -> ValidationReport:
    """The boundary square and the equivariance of (p, p0), once the ends are
    valid; an invalid end or a map off its groups is a finding, and the checks are skipped."""
    report = ValidationReport(f"morphism {P.dom!r} -> {P.cod!r}")
    if not _ends_valid(report, P) or _check_ranges(report, "map-range", _morphism_maps(P)):
        return report
    H, H0 = P.dom.G, P.dom.G0
    for h in range(H.order):
        if P.cod.boundary.map[P.p.map[h]] != P.p0.map[P.dom.boundary.map[h]]:
            report.add("square", h, "boundary square does not commute")
    for x in range(H0.order):
        for h in range(H.order):
            if P.p.map[P.dom.act(x, h)] != P.cod.act(P.p0.map[x], P.p.map[h]):
                report.add("equivariance", (x, h), "p(x|>h) != p0(x)|>p(h)")
    return report


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

    def __repr__(self) -> str:
        return f"Strict2Group({self.G1.name} => {self.G0.name})"


def validate_two_group(T: Strict2Group) -> ValidationReport:
    """Whether the reflexive graph carries its (unique) internal composition.

    With the derived m, the endpoint, unit, inverse and associativity laws
    hold by construction once e is a common section of d and c; the
    interchange law then holds iff [ker d, ker c] = 1.
    """
    report = ValidationReport(repr(T))
    G1, G0, d, c, e = T.G1, T.G0, T.d.map, T.c.map, T.e.map
    if _check_ranges(report, "map-range", [("d", T.d, G1, G0), ("c", T.c, G1, G0), ("e", T.e, G0, G1)]):
        return report
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


@_per_operand
def _validate_end(end: CrossedModule | Strict2Group) -> ValidationReport:
    """The report of a crossed module or a strict 2-group, by its type; in a run scope, once per end."""
    return (validate_crossed_module if isinstance(end, CrossedModule) else validate_two_group)(end)


def _ends_valid(report: ValidationReport, R) -> bool:
    """Merge each distinct end's report into `report`, prefixed by the ends' type, and return
    whether R's ends R.dom and R.cod are valid, as a record between them must be."""
    prefix = "underlying-xmod:" if isinstance(R.dom, CrossedModule) else "underlying-2group:"
    subs = [_validate_end(end) for end in dict.fromkeys((R.dom, R.cod))]
    for sub in subs:
        report.merge(sub, prefix)
    return all(sub.ok for sub in subs)


@dataclass(frozen=True)
class TwoGroupFunctor:
    """An internal functor between strict 2-groups."""

    dom: Strict2Group
    cod: Strict2Group
    p1: GroupHom
    p0: GroupHom


def _functor_laws(
    report: ValidationReport, T: Strict2Group, U: Strict2Group, F0: Sequence[int], F1: Sequence[int]
) -> None:
    """The laws of a functor T -> U that is F0 on objects and F1 on arrows.
    Composition is checked only once sources, targets and units hold, as it
    looks up composites of U that exist only then."""
    for u in range(T.G1.order):
        if U.d.map[F1[u]] != F0[T.d.map[u]]:
            report.add("functor-source", u, "d(F1 u) != F0(d u)")
        if U.c.map[F1[u]] != F0[T.c.map[u]]:
            report.add("functor-target", u, "c(F1 u) != F0(c u)")
    for x in range(T.G0.order):
        if F1[T.e.map[x]] != U.e.map[F0[x]]:
            report.add("functor-unit", x, "F1(e x) != e(F0 x)")
    if not report.ok:
        return
    for (u, v), w in T.m.items():
        if F1[w] != U.m[(F1[u], F1[v])]:
            report.add("functor-composition", (u, v), "F1 does not preserve m")


def _natural_families(
    T: Strict2Group, U: Strict2Group, src: Sequence[int], dst: Sequence[int], F1: Sequence[int], G1: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The families theta(x): src[x] -> dst[x] of arrows of U, x an object of
    T, natural from the functor with arrow map F1 to the one with arrow map
    G1: F1(u) then theta(c u) is theta(d u) then G1(u) for every arrow u of T.
    In the order of the product of the hom-sets."""
    d, c, m, arrows = T.d.map, T.c.map, U.m, range(T.G1.order)
    for theta in itertools.product(*(U.hom_set(x, y) for x, y in zip(src, dst))):
        if all(m[(F1[u], theta[c[u]])] == m[(theta[d[u]], G1[u])] for u in arrows):
            yield theta


def validate_two_group_functor(F: TwoGroupFunctor) -> ValidationReport:
    """The functor laws of (p1, p0), once the ends are valid; an invalid end
    or a leg off its groups is a finding, and the laws are skipped."""
    report = ValidationReport("2-group functor")
    T, U = F.dom, F.cod
    legs = (("p1", F.p1, T.G1, U.G1), ("p0", F.p0, T.G0, U.G0))
    if not _ends_valid(report, F) or _check_ranges(report, "leg-range", legs):
        return report
    _functor_laws(report, T, U, F.p0.map, F.p1.map)
    return report


# bounded at 4x the most crossed modules any benchmark workload denormalizes (16)
@lru_cache(maxsize=64)
def denormalize(X: CrossedModule) -> Strict2Group:
    """The 2-group G x| G0 => G0 of a crossed module."""
    S, c, e, _ = semidirect_product(X.action)
    t0, bd = X.G0.table, X.boundary.map
    gs, xs, _ = _twisted_index(X.G.order, X.G0.order)
    d = GroupHom._trusted(S, X.G0, tuple(t0[bd[a]][x] for a, x in zip(gs, xs)))
    return Strict2Group(S, X.G0, d, c, e)


@_per_operand
def kernel_embedding(X: CrossedModule) -> GroupHom:
    """The inclusion g: G -> G1 of the arrow group's c-kernel, a |-> a / 1 = (a, 1)."""
    n = X.G.order
    return GroupHom._trusted(X.G, denormalize(X).G1, pointwise_division_arrow(X, range(n), (0,) * n))


@_per_operand
def cokernel_embedding(X: CrossedModule) -> GroupHom:
    """The d-kernel inclusion g-bullet: G -> G1, a |-> 1 / a = (a^-1, d(a))."""
    n = X.G.order
    return GroupHom._trusted(X.G, denormalize(X).G1, pointwise_division_arrow(X, (0,) * n, range(n)))


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
    """The internal functor (p x| p0, p0) induced by a crossed module morphism:
    (h, x) -> (p h, p0 x) on arrows."""
    TH, TG = denormalize(P.dom), denormalize(P.cod)
    hs, xs, _ = _twisted_index(P.dom.G.order, P.dom.G0.order)
    _, _, pair = _twisted_index(P.cod.G.order, P.cod.G0.order)
    p1 = pair([P.p.map[h] for h in hs], [P.p0.map[x] for x in xs])
    return TwoGroupFunctor(TH, TG, GroupHom._trusted(TH.G1, TG.G1, p1), P.p0)


def normalization_round_trip_equal(X: CrossedModule) -> bool:
    """normalize(denormalize(X)) equals X on the nose under the canonical
    labeling: ``CrossedModule`` equality leaves names out and compares groups
    by their tables."""
    return normalize(denormalize(X)) == X


def denormalization_round_trip_iso(T: Strict2Group) -> Optional[TwoGroupFunctor]:
    """The canonical comparison denormalize(normalize(T)) -> T, if it is an isomorphism.

    The arrow map sends (a, x) to g(a)*e(x) computed in T, the object map is the
    identity; returns None when this fails to be an isomorphism of 2-groups.
    """
    X = normalize(T)
    U = denormalize(X)
    K = kernel(T.c)
    ks, xs, _ = _twisted_index(X.G.order, X.G0.order)
    f1_map = [T.G1.table[K.elements[k]][T.e.map[x]] for k, x in zip(ks, xs)]
    if len(set(f1_map)) != T.G1.order:
        return None
    F = TwoGroupFunctor(U, T, GroupHom._trusted(U.G1, T.G1, tuple(f1_map)), identity_hom(T.G0))
    return F if validate_two_group_functor(F).ok else None


# ---------------------------------------------------------------------------
# weak equivalences and pullbacks


@_per_operand
def kernel_of_boundary(X: CrossedModule) -> tuple[FinGroup, GroupHom]:
    return kernel(X.boundary).as_group(f"ker({X.name or X.G.name})")


@_per_operand
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
    first = {q: x for x, q in reversed(list(enumerate(prH.map)))}  # the least preimage of each coset
    coker_map = GroupHom._trusted(QH, QG, tuple(prG.map[P.p0.map[first[q]]] for q in range(QH.order)))
    return ker_map.is_isomorphism and coker_map.is_isomorphism, ker_map, coker_map


def pullback_crossed_module(X: CrossedModule, sigma: GroupHom) -> tuple[CrossedModule, XModMorphism]:
    """Pull the boundary of X back along sigma: E -> G0 of X.

    The top group is {(e, h) : sigma(e) = boundary(h)}, the new boundary is the
    first projection and E acts by (conjugation, sigma-then-action); the second
    component of the result is the comparison morphism into X.
    """
    if sigma.cod != X.G0:
        raise ValueError("sigma must land in the base of the crossed module")
    E = sigma.dom
    P, prE, prH, pair = product_and_pullback(sigma, X.boundary)
    perms = [pair([E.conj(x, e) for e in prE.map], [X.act(sigma.map[x], h) for h in prH.map]) for x in range(E.order)]
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
        if not _maps_into(self.alpha, self.P.dom.G0.order, self.P.cod.size):
            raise ValueError("alpha is not a map from H0 into the codomain's arrow range")


def pointwise_division_arrow(X: CrossedModule, as_: Sequence[int], bs: Sequence[int]) -> tuple[int, ...]:
    """The arrows a / b = (a*b^-1, boundary b) of the 2-group of X for each a,
    b of two equal-length sequences, i.e. the cooperator of g and g-bullet."""
    t, inv, bd = X.G.table, X.G.inverse, X.boundary.map
    _, _, pair = _twisted_index(X.G.order, X.G0.order)
    return pair([t[a][inv[b]] for a, b in zip(as_, bs)], [bd[b] for b in bs])


def validate_two_cell(cell: XModTwoCell) -> ValidationReport:
    """Source/target compatibility plus the Peiffer-graph condition.

    A 2-cell is an arrow of the base category, so alpha must in particular be
    a group homomorphism H0 -> G1.  Also cross-checks, on the associated
    2-group functors, that the same map is an internal natural transformation
    (naturality on every arrow).  An invalid end of P and Q, checked first, or
    a map of P or Q off its groups is a finding, and the checks are skipped.
    """
    report = ValidationReport("2-cell")
    P, Q, alpha = cell.P, cell.Q, cell.alpha
    maps = _morphism_maps(P, "P.") + _morphism_maps(Q, "Q.")
    if not _ends_valid(report, P) or _check_ranges(report, "map-range", maps):
        return report
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
    for h, arrow in enumerate(pointwise_division_arrow(cod, P.p.map, Q.p.map)):
        if alpha[bd[h]] != arrow:
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
    fixed = list(zip(bd, pointwise_division_arrow(P.cod, P.p.map, Q.p.map)))
    accept = lambda x, a: d[a] == p0[x] and c[a] == q0[x]
    maps = _generator_images(P.dom.G0, TG.G1, bijective=False, fixed=fixed, accept=accept)
    return [XModTwoCell(P, Q, m) for m in maps]


def enumerate_natural_transformations(P: XModMorphism, Q: XModMorphism) -> list[tuple[int, ...]]:
    """All internal natural transformations between the denormalized functors.

    Enumerated independently of the 2-cell conditions: candidates range over
    matching hom-sets, are filtered by the naturality square on every arrow
    of the domain 2-group, and must be arrows of the base category (group
    homomorphisms H0 -> G1).
    """
    if P.dom != Q.dom or P.cod != Q.cod:
        return []
    FP, FQ = denormalize_morphism(P), denormalize_morphism(Q)
    TH, TG = FP.dom, FP.cod
    families = _natural_families(TH, TG, P.p0.map, Q.p0.map, FP.p1.map, FQ.p1.map)
    return [theta for theta in families if _hom_defect(TH.G0, TG.G1, theta) is None]


def all_xmod_morphisms(dom: CrossedModule, cod: CrossedModule) -> Iterator[XModMorphism]:
    """Every crossed module morphism dom -> cod, p0 outer and p inner, each
    in the order of :func:`all_homomorphisms`.

    A pair of homomorphisms (p, p0) is kept when the boundary square
    d'(p h) = p0(d h) holds for each generator h of dom.G, and equivariance
    p(x|>h) = p0(x)|>p(h) for each generator x of dom.G0 and each such h.
    That decides both conditions everywhere, given valid crossed modules:
    each side of the square is a homomorphism G -> G0', so the two agree once
    they agree on generators; for a fixed x both sides of equivariance are
    homomorphisms G -> G', as action rows are automorphisms; and since
    act[xy] = act[x] o act[y] on both ends, the x at which it holds are
    closed under products.  :func:`validate_xmod_morphism` remains the
    reporting check of a given pair.
    """
    homs = all_homomorphisms(dom.G, cod.G)
    hs, xs = _generators(dom.G), _generators(dom.G0)
    bd, bd2, act, act2 = dom.boundary.map, cod.boundary.map, dom.action.act, cod.action.act
    for p0 in all_homomorphisms(dom.G0, cod.G0):
        q0 = p0.map
        for p in homs:
            q = p.map
            if all(bd2[q[h]] == q0[bd[h]] for h in hs) and all(
                q[act[x][h]] == act2[q0[x]][q[h]] for x in xs for h in hs
            ):
                yield XModMorphism(dom, cod, p, p0)
