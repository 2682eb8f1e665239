"""Butterflies between crossed modules of finite groups.

A butterfly from H to G is a group E with two wing homomorphisms into it and
two leg homomorphisms out of it; the NE-SW diagonal is a short exact sequence
and both wings are conjugation-equivariant.  Butterflies compose through a
pullback-then-cokernel construction and are the weak morphisms between
crossed modules; the flippable ones are exactly the equivalences.

Operations assume valid operands (see :func:`validate_butterfly`); their
results are then valid by construction and are built without re-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    ConstructionError,
    FractorConditionFailed,
    NotASection,
    NotComposable,
    NotFlippable,
)
from .fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    _generator_images,
    _is_pullback,
    direct_product,
    identity_hom,
    kernel,
    product_and_pullback,
    pullback_quotient,
)
from .report import ValidationReport
from .xmod import (
    CrossedModule,
    Strict2Group,
    TwoGroupFunctor,
    XModMorphism,
    XModTwoCell,
    cokernel_embedding,
    denormalize,
    kernel_embedding,
    normalize,
    validate_two_group,
    validate_two_group_functor,
    xmod_morphism,
)


@dataclass(frozen=True)
class Butterfly:
    """(E, kappa, iota, sigma, rho) between crossed modules dom and cod."""

    dom: CrossedModule
    cod: CrossedModule
    E: FinGroup
    kappa: GroupHom
    iota: GroupHom
    sigma: GroupHom
    rho: GroupHom

    def __post_init__(self):
        if self.kappa.dom != self.dom.G or self.kappa.cod != self.E:
            raise ValueError("kappa must map dom.G to E")
        if self.iota.dom != self.cod.G or self.iota.cod != self.E:
            raise ValueError("iota must map cod.G to E")
        if self.sigma.dom != self.E or self.sigma.cod != self.dom.G0:
            raise ValueError("sigma must map E to dom.G0")
        if self.rho.dom != self.E or self.rho.cod != self.cod.G0:
            raise ValueError("rho must map E to cod.G0")

    def __repr__(self) -> str:
        return f"Butterfly({self.dom!r} -> {self.cod!r}; E={self.E.name})"


def validate_butterfly(B: Butterfly) -> ValidationReport:
    """Check the wing commutativity and the four butterfly conditions.

    Also asserts the derived fact that the images of the two wings commute
    elementwise in E (existence of the cooperator).
    """
    report = ValidationReport(repr(B))
    E, H, G = B.E, B.dom.G, B.cod.G
    k, i, s, r = B.kappa.map, B.iota.map, B.sigma.map, B.rho.map
    for h in range(H.order):
        if s[k[h]] != B.dom.boundary.map[h]:
            report.add("left-wing", h, "sigma(kappa h) != boundary h")
    for g in range(G.order):
        if r[i[g]] != B.cod.boundary.map[g]:
            report.add("right-wing", g, "rho(iota g) != boundary g")
    for h in range(H.order):
        if r[k[h]] != 0:
            report.add("i-complex", h, "rho(kappa h) != 1")
    if not B.iota.is_injective:
        report.add("ii-extension", None, "iota is not injective")
    if not B.sigma.is_surjective:
        report.add("ii-extension", None, "sigma is not surjective")
    if frozenset(i) != frozenset(kernel(B.sigma).elements):
        report.add("ii-extension", None, "image(iota) != kernel(sigma)")
    for e in range(E.order):
        se = s[e]
        for h in range(H.order):
            if k[B.dom.act(se, h)] != E.conj(e, k[h]):
                report.add("iii-equivariance", (e, h), "kappa(sigma(e)|>h) != e kappa(h) e^-1")
    for e in range(E.order):
        re = r[e]
        for g in range(G.order):
            if i[B.cod.act(re, g)] != E.conj(e, i[g]):
                report.add("iv-equivariance", (e, g), "iota(rho(e)|>g) != e iota(g) e^-1")
    for h in range(H.order):
        for g in range(G.order):
            if E.table[k[h]][i[g]] != E.table[i[g]][k[h]]:
                report.add("cooperator", (h, g), "wing images do not commute elementwise")
    return report


@dataclass(frozen=True)
class ButterflyMorphism:
    """A 2-cell between parallel butterflies: a map of the middle groups
    commuting with both wings and both legs (hence an isomorphism)."""

    src: Butterfly
    dst: Butterfly
    f: GroupHom


def butterfly_morphism(src: Butterfly, dst: Butterfly, f: GroupHom) -> ButterflyMorphism:
    if src.dom != dst.dom or src.cod != dst.cod:
        raise ValueError("butterfly morphisms require parallel butterflies")
    if f.dom != src.E or f.cod != dst.E:
        raise ValueError("f must map the middle groups")
    if src.kappa.then(f) != dst.kappa:
        raise ConstructionError("kappa triangle does not commute")
    if src.iota.then(f) != dst.iota:
        raise ConstructionError("iota triangle does not commute")
    if f.then(dst.sigma) != src.sigma:
        raise ConstructionError("sigma triangle does not commute")
    if f.then(dst.rho) != src.rho:
        raise ConstructionError("rho triangle does not commute")
    if not f.is_isomorphism:
        raise ConstructionError("a butterfly morphism must be bijective")
    return ButterflyMorphism(src, dst, f)


# ---------------------------------------------------------------------------
# identity, composition, flips


def identity_butterfly(X: CrossedModule) -> Butterfly:
    """The identity butterfly: E is the arrow group of X, wings are the two
    kernel embeddings, legs are target and source."""
    T = denormalize(X)
    return Butterfly(
        dom=X,
        cod=X,
        E=T.G1,
        kappa=cokernel_embedding(X),
        iota=kernel_embedding(X),
        sigma=T.c,
        rho=T.d,
    )


def _pullback_parts(B: Butterfly, B2: Butterfly):
    """Shared plumbing of compose/whiskering: ``pullback_quotient`` of rho against
    sigma2 by the anti-diagonal wing N = {(iota g, kappa2 g)}, normal by the axioms."""
    if B.cod != B2.dom:
        raise NotComposable(f"{B!r} and {B2!r} do not share the middle crossed module")
    N = set(zip(B.iota.map, B2.kappa.map))
    return pullback_quotient(B.rho, B2.sigma, N, f"PB({B.E.name},{B2.E.name})/N{len(N)}", "[({},{})]")


def compose(B: Butterfly, B2: Butterfly) -> Butterfly:
    """Composition of butterflies via pullback over the middle object and
    cokernel of the anti-diagonal wing."""
    return _composite(B, B2, _pullback_parts(B, B2))


def _composite(B: Butterfly, B2: Butterfly, parts) -> Butterfly:
    """The composite butterfly on the quotient of ``_pullback_parts(B, B2)``."""
    pairs, pos, coset_of, Q = parts
    H, K, nc = B.dom.G, B2.cod.G, B2.E.order
    # kappa h is the coset of (kappa h, 1) and iota k that of (1, iota2 k)
    kappa = GroupHom._trusted(H, Q, tuple(coset_of[pos[B.kappa.map[h] * nc]] for h in range(H.order)))
    iota = GroupHom._trusted(K, Q, tuple(coset_of[pos[B2.iota.map[k]]] for k in range(K.order)))
    # both legs are constant on the cosets of N, so any representative will do
    legs = {q: (B.sigma.map[a], B2.rho.map[c]) for (a, c), q in zip(pairs, coset_of)}
    sigma_map, rho_map = zip(*(legs[q] for q in range(Q.order)))
    return Butterfly(
        dom=B.dom,
        cod=B2.cod,
        E=Q,
        kappa=kappa,
        iota=iota,
        sigma=GroupHom._trusted(Q, B.dom.G0, sigma_map),
        rho=GroupHom._trusted(Q, B2.cod.G0, rho_map),
    )


def is_flippable(B: Butterfly) -> bool:
    """Whether the other diagonal (kappa, rho) is also a short exact sequence."""
    return (
        B.kappa.is_injective
        and B.rho.is_surjective
        and frozenset(B.kappa.map) == frozenset(kernel(B.rho).elements)
    )


def flip(B: Butterfly) -> Butterfly:
    """The quasi-inverse of a flippable butterfly, obtained by twisting the wings."""
    if not is_flippable(B):
        raise NotFlippable(repr(B))
    return Butterfly(
        dom=B.cod,
        cod=B.dom,
        E=B.E,
        kappa=B.iota,
        iota=B.kappa,
        sigma=B.rho,
        rho=B.sigma,
    )


# ---------------------------------------------------------------------------
# morphism search


def _morphism_maps(B: Butterfly, B2: Butterfly) -> Iterator[tuple[int, ...]]:
    """The maps of the butterfly morphisms B -> B2, in lexicographic order:
    bijections E -> E2 fixed on the wing images that agree with both legs
    on generators, hence everywhere."""
    if B.dom != B2.dom or B.cod != B2.cod or B.E.order != B2.E.order:
        return iter(())
    s1, r1, s2, r2 = B.sigma.map, B.rho.map, B2.sigma.map, B2.rho.map
    return _generator_images(
        B.E,
        B2.E,
        bijective=True,
        fixed=[*zip(B.iota.map, B2.iota.map), *zip(B.kappa.map, B2.kappa.map)],
        accept=lambda a, b: s2[b] == s1[a] and r2[b] == r1[a],
    )


def isomorphic_butterflies(B: Butterfly, B2: Butterfly) -> ButterflyMorphism | None:
    """A witness morphism (necessarily iso) between parallel butterflies, or
    None; the witness is the least morphism in lexicographic order of maps."""
    m = next(_morphism_maps(B, B2), None)
    return None if m is None else butterfly_morphism(B, B2, GroupHom._trusted(B.E, B2.E, m))


def butterfly_morphisms(B: Butterfly, B2: Butterfly) -> list[ButterflyMorphism]:
    """Every morphism between the parallel butterflies, exhaustively."""
    return [butterfly_morphism(B, B2, GroupHom._trusted(B.E, B2.E, m)) for m in _morphism_maps(B, B2)]


# ---------------------------------------------------------------------------
# split butterflies and morphisms of crossed modules


def split_from_morphism(P: XModMorphism) -> tuple[Butterfly, GroupHom]:
    """The split butterfly of a morphism: E is the pullback of p0 against the
    target map of the codomain 2-group; also returns the canonical section."""
    return _split(P)[:2]


def _split(P: XModMorphism):
    """split_from_morphism's butterfly and section, plus the codomain 2-group,
    the arrow projection of E and the index of E's pairs."""
    TG = denormalize(P.cod)
    EP, prH0, prG1, pos = product_and_pullback(P.p0, TG.c)
    H, G, n1 = P.dom.G, P.cod.G, TG.G1.order
    gbul = cokernel_embedding(P.cod)
    gemb = kernel_embedding(P.cod)
    bd = P.dom.boundary.map
    kappa = GroupHom._trusted(H, EP, tuple(pos[bd[h] * n1 + gbul.map[P.p.map[h]]] for h in range(H.order)))
    iota = GroupHom._trusted(G, EP, tuple(pos[gemb.map[g]] for g in range(G.order)))
    B = Butterfly(
        dom=P.dom,
        cod=P.cod,
        E=EP,
        kappa=kappa,
        iota=iota,
        sigma=prH0,
        rho=prG1.then(TG.d),
    )
    section = GroupHom._trusted(
        P.dom.G0, EP, tuple(pos[x * n1 + TG.e.map[P.p0.map[x]]] for x in range(P.dom.G0.order))
    )
    return B, section, TG, prG1, pos


def morphism_from_split(B: Butterfly, s: GroupHom) -> XModMorphism:
    """Recover a crossed module morphism from a split butterfly and a
    homomorphism section s of sigma: p0 = s;rho and p(h) = iota^-1(kappa(h)^-1 * s(boundary h))."""
    if s.dom != B.dom.G0 or s.cod != B.E:
        raise NotASection("section must map the base of dom into E")
    if s.then(B.sigma) != identity_hom(B.dom.G0):
        raise NotASection("s is not a section of sigma")
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    E, H = B.E, B.dom.G
    bd = B.dom.boundary.map
    p_map = []
    for h in range(H.order):
        value = E.table[E.inv(B.kappa.map[h])][s.map[bd[h]]]
        if value not in iota_inv:
            raise ConstructionError("kappa(h)^-1 s(boundary h) escapes the iota image")
        p_map.append(iota_inv[value])
    return xmod_morphism(B.dom, B.cod, GroupHom(H, B.cod.G, tuple(p_map)), s.then(B.rho))


def reduced_compose(Q: XModMorphism, B: Butterfly) -> Butterfly:
    """Compose a morphism with a butterfly without the cokernel step: the
    middle group is the pullback of q0 against sigma."""
    if Q.cod != B.dom:
        raise NotComposable("the morphism must land in the butterfly's domain")
    E2, prK0, prE, pos = product_and_pullback(Q.p0, B.sigma)
    K, G, nE = Q.dom.G, B.cod.G, B.E.order
    bd = Q.dom.boundary.map
    kappa = GroupHom._trusted(K, E2, tuple(pos[bd[k] * nE + B.kappa.map[Q.p.map[k]]] for k in range(K.order)))
    iota = GroupHom._trusted(G, E2, tuple(pos[B.iota.map[g]] for g in range(G.order)))
    return Butterfly(
        dom=Q.dom,
        cod=B.cod,
        E=E2,
        kappa=kappa,
        iota=iota,
        sigma=prK0,
        rho=prE.then(B.rho),
    )


# ---------------------------------------------------------------------------
# the span of a butterfly


def span_of_butterfly(B: Butterfly) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """The span (H <- [E] -> G): the middle crossed module is the cooperator
    phi: H x G -> E with the conjugation-through-sigma action; the left leg is
    a weak equivalence."""
    E, H, G = B.E, B.dom.G, B.cod.G
    k, i = B.kappa.map, B.iota.map
    HxG, piH, piG = direct_product(H, G)
    # the pair (h, g) of the direct product is the element h*|G| + g
    phi = GroupHom._trusted(HxG, E, tuple(E.table[k[h]][i[g]] for h, g in zip(piH.map, piG.map)))
    iota_inv = {e: g for g, e in enumerate(i)}
    perms = []
    for e in range(E.order):
        se = B.sigma.map[e]
        perm = []
        for h, x in zip(piH.map, phi.map):
            h2 = B.dom.act(se, h)
            value = E.table[E.inv(k[h2])][E.conj(e, x)]
            perm.append(h2 * G.order + iota_inv[value])
        perms.append(tuple(perm))
    middle = CrossedModule(HxG, E, phi, GroupAction._trusted(E, HxG, tuple(perms)), name=f"[{B.E.name}]")
    left = XModMorphism(middle, B.dom, piH, B.sigma)
    right = XModMorphism(middle, B.cod, piG, B.rho)
    return middle, left, right


# ---------------------------------------------------------------------------
# butterfly morphisms from 2-cells, whiskering


def two_cell_image(cell: XModTwoCell) -> ButterflyMorphism:
    """The butterfly morphism E_P -> E_Q induced by a 2-cell: postcompose the
    arrow component with alpha at the base point."""
    BP, _, TG, prG1, _ = _split(cell.P)
    BQ, _, _, _, posQ = _split(cell.Q)
    n1 = TG.G1.order
    f_map = tuple(posQ[x * n1 + TG.m[(j, cell.alpha[x])]] for x, j in zip(BP.sigma.map, prG1.map))
    return butterfly_morphism(BP, BQ, GroupHom._trusted(BP.E, BQ.E, f_map))


def _whisker(src, dst, flat_image) -> ButterflyMorphism:
    """The morphism compose(*src) -> compose(*dst) induced by a map of the pullbacks,
    given as the flat index (see ``pullback_quotient``) of each pair's image."""
    parts, parts2 = _pullback_parts(*src), _pullback_parts(*dst)
    (pairs, _, coset_of, Q), (_, pos2, coset_of2, Q2) = parts, parts2
    out = [0] * Q.order
    for (a, c), q in zip(pairs, coset_of):
        out[q] = coset_of2[pos2[flat_image(a, c)]]
    g = GroupHom._trusted(Q, Q2, tuple(out))
    return butterfly_morphism(_composite(*src, parts), _composite(*dst, parts2), g)


def whisker_right(f: ButterflyMorphism, B2: Butterfly) -> ButterflyMorphism:
    """The induced morphism compose(src, B2) -> compose(dst, B2)."""
    n2 = B2.E.order
    return _whisker((f.src, B2), (f.dst, B2), lambda e, e2: f.f.map[e] * n2 + e2)


def whisker_left(B: Butterfly, f: ButterflyMorphism) -> ButterflyMorphism:
    """The induced morphism compose(B, src) -> compose(B, dst)."""
    n2 = f.dst.E.order
    return _whisker((B, f.src), (B, f.dst), lambda e, e2: e * n2 + f.f.map[e2])


# ---------------------------------------------------------------------------
# fractors: the groupoid-level presentation


@dataclass(frozen=True)
class Fractor:
    """Two discrete fibrations out of the groupoids R => E and R[sigma] => E."""

    H2: Strict2Group
    G2: Strict2Group
    E: FinGroup
    R: Strict2Group
    Rsigma: Strict2Group
    left: TwoGroupFunctor
    right: TwoGroupFunctor


def to_fractor(B: Butterfly) -> Fractor:
    """Present a butterfly as a pair of discrete fibrations over its middle group."""
    H2, G2 = denormalize(B.dom), denormalize(B.cod)
    E = B.E
    perms = tuple(
        tuple(B.dom.act(B.sigma.map[e], h) for h in range(B.dom.G.order)) for e in range(E.order)
    )
    wing = CrossedModule(B.dom.G, E, B.kappa, GroupAction._trusted(E, B.dom.G, perms))
    R = denormalize(wing)
    nH0, nE = B.dom.G0.order, E.order
    sigma_bar = GroupHom._trusted(
        R.G1, H2.G1,
        tuple(h * nH0 + B.sigma.map[e] for h in range(B.dom.G.order) for e in range(nE)),
    )
    RS, pr1, pr2, pos = product_and_pullback(B.sigma, B.sigma)
    diagonal = GroupHom._trusted(E, RS, tuple(pos[x * E.order + x] for x in range(E.order)))
    Rsigma = Strict2Group(RS, E, pr1, pr2, diagonal)
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    nG0 = B.cod.G0.order
    rho_bar_map = []
    for a in range(Rsigma.G1.order):
        e1, e2 = pr1.map[a], pr2.map[a]
        g = iota_inv[E.table[e1][E.inv(e2)]]
        rho_bar_map.append(g * nG0 + B.rho.map[e2])
    rho_bar = GroupHom._trusted(Rsigma.G1, G2.G1, tuple(rho_bar_map))
    return Fractor(
        H2=H2,
        G2=G2,
        E=E,
        R=R,
        Rsigma=Rsigma,
        left=TwoGroupFunctor(R, H2, sigma_bar, B.sigma),
        right=TwoGroupFunctor(Rsigma, G2, rho_bar, B.rho),
    )


def validate_fractor(F: Fractor) -> ValidationReport:
    report = ValidationReport("fractor")
    for T, label in ((F.R, "R"), (F.Rsigma, "Rsigma")):
        sub = validate_two_group(T)
        if not sub.ok:
            report.add("1-groupoid", label, f"{label} is not a groupoid: {sub.findings[0]}")
    for leg, label in ((F.left, "left"), (F.right, "right")):
        sub = validate_two_group_functor(leg)
        if not sub.ok:
            report.add("1-functor", label, f"{label} leg is not a functor: {sub.findings[0]}")
        # a discrete fibration: the target square is a pullback
        if not _is_pullback(leg.cod.c, leg.p0, leg.p1, leg.dom.c):
            report.add("1-fibration", label, f"{label} leg is not a discrete fibration")
    sigma = F.left.p0
    if not sigma.is_surjective:
        report.add("2-surjection", None, "sigma is not surjective")
    if not _is_pullback(sigma, sigma, F.Rsigma.d, F.Rsigma.c):
        report.add("2-kernel-pair", None, "Rsigma is not the kernel pair of sigma")
    rho = F.right.p0
    for a in range(F.R.G1.order):
        if rho.map[F.R.d.map[a]] != rho.map[F.R.c.map[a]]:
            report.add("3-coequalizing", a, "rho does not coequalize the legs of R")
    return report


def check_fractor(F: Fractor) -> None:
    report = validate_fractor(F)
    for finding in report.findings:
        condition = int(finding.condition.split("-", 1)[0])
        raise FractorConditionFailed(condition, str(finding))


def from_fractor(F: Fractor) -> Butterfly:
    """Rebuild the butterfly: wings are recovered by lifting kernel arrows
    through the two discrete fibrations."""
    check_fractor(F)
    dom, cod = normalize(F.H2), normalize(F.G2)
    sigma, rho = F.left.p0, F.right.p0
    wings = []
    for T, leg, base in ((F.R, F.left, F.H2), (F.Rsigma, F.right, F.G2)):
        # the leg's target square is a pullback, so each kernel arrow has one lift ending at 0
        lift = {(b, x): a for a, (b, x) in enumerate(zip(leg.p1.map, T.c.map))}
        wings.append(tuple(T.d.map[lift[el, 0]] for el in kernel(base.c).elements))
    kappa_map, iota_map = wings
    return Butterfly(
        dom=dom,
        cod=cod,
        E=F.E,
        kappa=GroupHom._trusted(dom.G, F.E, kappa_map),
        iota=GroupHom._trusted(cod.G, F.E, iota_map),
        sigma=sigma,
        rho=rho,
    )
