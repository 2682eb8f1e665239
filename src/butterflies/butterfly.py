"""Butterflies between crossed modules of finite groups.

A butterfly from H to G is a group E with two wing homomorphisms into it and
two leg homomorphisms out of it; the NE-SW diagonal is a short exact sequence
and both wings are conjugation-equivariant.  Butterflies compose through a
pullback-then-cokernel construction and are the weak morphisms between
crossed modules; the flippable ones are exactly the equivalences.

Operations assume valid operands (see :func:`validate_butterfly`); their
results are then valid by construction and are built without re-checks.  A
``Butterfly`` does not check its own wiring: the loaders build each map
between the groups it joins, and the validator reports the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import (
    ConstructionError,
    FractorConditionFailed,
    NotComposable,
    NotFlippable,
)
from .fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    _Trusted,
    _generator_images,
    _is_pullback,
    _kept,
    _per_operand,
    _run_memo,
    _twisted_index,
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
    _check_ranges,
    _ends_valid,
    _validate_end,
    cokernel_embedding,
    denormalize,
    denormalize_morphism,
    kernel_embedding,
    normalize,
    validate_two_group_functor,
)


@dataclass(frozen=True)
class Butterfly(_Trusted):
    """(E, kappa, iota, sigma, rho) between crossed modules dom and cod.
    Composition, reduced composition and splits build theirs through
    ``_trusted``, without the dataclass ``__init__``."""

    dom: CrossedModule
    cod: CrossedModule
    E: FinGroup
    kappa: GroupHom
    iota: GroupHom
    sigma: GroupHom
    rho: GroupHom

    def __repr__(self) -> str:
        return f"Butterfly({self.dom!r} -> {self.cod!r}; E={self.E.name})"


def validate_butterfly(B: Butterfly) -> ValidationReport:
    """Check the wing commutativity and the four butterfly conditions.

    Also asserts the derived fact that the images of the two wings commute
    elementwise in E (existence of the cooperator).  An invalid end, checked
    first, a wing or leg that is not a map between its groups, or a group
    whose table is no group table is a finding, and the checks are skipped.
    """
    report = ValidationReport(repr(B))
    E, H, G = B.E, B.dom.G, B.cod.G
    k, i, s, r = _legs(B)
    legs = [("kappa", B.kappa, H, E), ("iota", B.iota, G, E)]
    legs += [("sigma", B.sigma, E, B.dom.G0), ("rho", B.rho, E, B.cod.G0)]
    if not _ends_valid(report, B) or _check_ranges(report, "leg-range", legs):
        return report
    for h in range(H.order):
        if s[k[h]] != B.dom.boundary.map[h]:
            report.add("left-wing", h, "sigma(kappa h) != boundary h")
    for g in range(G.order):
        if r[i[g]] != B.cod.boundary.map[g]:
            report.add("right-wing", g, "rho(iota g) != boundary g")
    for h in range(H.order):
        if r[k[h]] != 0:
            report.add("i-complex", h, "rho(kappa h) != 1")
    for detail in _inexact(B.iota, B.sigma, ("iota", "sigma")):
        report.add("ii-extension", None, detail)
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
    _check_triangles(f.map, _legs(src), _legs(dst))
    return ButterflyMorphism(src, dst, f)


def _legs(B: Butterfly) -> tuple[tuple[int, ...], ...]:
    """The maps of kappa, iota, sigma and rho."""
    return B.kappa.map, B.iota.map, B.sigma.map, B.rho.map


def _check_triangles(m: Sequence[int], legs, legs2) -> None:
    """Raise ``ConstructionError`` unless the map m of middle groups commutes
    with both wings and both legs, given as the maps of ``_legs``, and is a
    bijection onto the middle group of `legs2`."""
    (k, i, s, r), (k2, i2, s2, r2) = legs, legs2
    # with the ends checked, each triangle is an equality of maps
    if tuple([m[x] for x in k]) != k2:
        raise ConstructionError("kappa triangle does not commute")
    if tuple([m[x] for x in i]) != i2:
        raise ConstructionError("iota triangle does not commute")
    if tuple([s2[x] for x in m]) != s:
        raise ConstructionError("sigma triangle does not commute")
    if tuple([r2[x] for x in m]) != r:
        raise ConstructionError("rho triangle does not commute")
    if len(m) != len(s2) or len(set(m)) != len(m):
        raise ConstructionError("a butterfly morphism must be bijective")


# ---------------------------------------------------------------------------
# identity, composition, flips


@_kept
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
    pairs, coset_of, pair, Q = parts
    H, K = B.dom.G, B2.cod.G
    # kappa h is the coset of (kappa h, 1) and iota k that of (1, iota2 k)
    kappa = GroupHom._trusted(H, Q, pair(B.kappa.map, (0,) * H.order))
    iota = GroupHom._trusted(K, Q, pair((0,) * K.order, B2.iota.map))
    # the legs are defined on Q only when they are constant on the cosets of N,
    # as they are for valid operands: one (coset, sigma, rho) triple per coset
    s, r = B.sigma.map, B2.rho.map
    legs = set(zip(coset_of, [s[a] for a, _ in pairs], [r[c] for _, c in pairs]))
    if len(legs) != Q.order:
        raise ConstructionError("the legs are not constant on the cosets of N")
    _, sigma_map, rho_map = zip(*sorted(legs))
    sigma, rho = GroupHom._trusted(Q, B.dom.G0, sigma_map), GroupHom._trusted(Q, B2.cod.G0, rho_map)
    return Butterfly._trusted(B.dom, B2.cod, Q, kappa, iota, sigma, rho)


def _inexact(wing: GroupHom, leg: GroupHom, names: tuple[str, str]) -> Iterator[str]:
    """How the diagonal wing then leg, named X and Y by `names`, fails to be a short exact
    sequence, lazily and in this order: X not injective, Y not surjective, image(X) != kernel(Y)."""
    X, Y = names
    if not wing.is_injective:
        yield f"{X} is not injective"
    if not leg.is_surjective:
        yield f"{Y} is not surjective"
    if frozenset(wing.map) != frozenset(kernel(leg).elements):
        yield f"image({X}) != kernel({Y})"


def is_flippable(B: Butterfly) -> bool:
    """Whether the other diagonal (kappa, rho) is also a short exact sequence."""
    return next(_inexact(B.kappa, B.rho, ("kappa", "rho")), None) is None


def flip(B: Butterfly) -> Butterfly:
    """The quasi-inverse of a flippable butterfly, obtained by twisting the wings."""
    if not is_flippable(B):
        raise NotFlippable("the (kappa, rho) diagonal is not an extension")
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


def _parallel(B: Butterfly, B2: Butterfly) -> bool:
    return B.dom == B2.dom and B.cod == B2.cod and B.E.order == B2.E.order


def _morphism_maps(source, legs, B2: Butterfly) -> Iterator[tuple[int, ...]]:
    """The maps of the butterfly morphisms to the parallel B2 from the
    butterfly over the middle group `source` whose wings and legs have the
    maps `legs` (as ``_legs`` gives them), in lexicographic order: bijections
    fixed on the wing images that agree with both legs on generators, hence
    everywhere.  `source` is the middle group, or its generator-columns
    record with the wing images first (see ``_generator_images``)."""
    (k, i, s, r), (k2, i2, s2, r2) = legs, _legs(B2)
    return _generator_images(
        source,
        B2.E,
        bijective=True,
        fixed=[*zip(i, i2), *zip(k, k2)],
        accept=lambda a, b: s2[b] == s[a] and r2[b] == r[a],
    )


def _witness_map(source, legs, B2: Butterfly) -> Optional[tuple[int, ...]]:
    """The least map of ``_morphism_maps(source, legs, B2)``, checked by
    ``_check_triangles``, or None when there is none."""
    m = next(_morphism_maps(source, legs, B2), None)
    if m is not None:
        _check_triangles(m, legs, _legs(B2))
    return m


def isomorphic_butterflies(B: Butterfly, B2: Butterfly) -> ButterflyMorphism | None:
    """A witness morphism (necessarily iso) between parallel butterflies, or
    None; the witness is the least morphism in lexicographic order of maps."""
    m = _witness_map(B.E, _legs(B), B2) if _parallel(B, B2) else None
    return None if m is None else ButterflyMorphism(B, B2, GroupHom._trusted(B.E, B2.E, m))


def butterfly_morphisms(B: Butterfly, B2: Butterfly) -> list[ButterflyMorphism]:
    """Every morphism between the parallel butterflies, exhaustively."""
    maps = _morphism_maps(B.E, _legs(B), B2) if _parallel(B, B2) else ()
    return [butterfly_morphism(B, B2, GroupHom._trusted(B.E, B2.E, m)) for m in maps]


# ---------------------------------------------------------------------------
# split butterflies and morphisms of crossed modules


def split_from_morphism(P: XModMorphism) -> tuple[Butterfly, GroupHom]:
    """The split butterfly of a morphism: E is the pullback of p0 against the
    target map of the codomain 2-group; also returns the canonical section."""
    return _split(P)[:2]


@_per_operand
def _split(P: XModMorphism):
    """split_from_morphism's butterfly and section, plus the codomain 2-group,
    the arrow projection of E and the pair map into E."""
    TG = denormalize(P.cod)
    EP, prH0, prG1, pair = product_and_pullback(P.p0, TG.c)
    H, G, H0 = P.dom.G, P.cod.G, P.dom.G0
    gbul = cokernel_embedding(P.cod).map
    kappa = GroupHom._trusted(H, EP, pair(P.dom.boundary.map, [gbul[y] for y in P.p.map]))
    iota = GroupHom._trusted(G, EP, pair((0,) * G.order, kernel_embedding(P.cod).map))
    B = Butterfly._trusted(P.dom, P.cod, EP, kappa, iota, prH0, prG1.then(TG.d))
    section = GroupHom._trusted(H0, EP, pair(range(H0.order), [TG.e.map[y] for y in P.p0.map]))
    return B, section, TG, prG1, pair


def reduced_compose(Q: XModMorphism, B: Butterfly) -> Butterfly:
    """Compose a morphism with a butterfly without the cokernel step: the
    middle group is the pullback of q0 against sigma."""
    if Q.cod != B.dom:
        raise NotComposable("the morphism must land in the butterfly's domain")
    E2, prK0, prE, pair = product_and_pullback(Q.p0, B.sigma)
    K, G, k = Q.dom.G, B.cod.G, B.kappa.map
    kappa = GroupHom._trusted(K, E2, pair(Q.dom.boundary.map, [k[y] for y in Q.p.map]))
    iota = GroupHom._trusted(G, E2, pair((0,) * G.order, B.iota.map))
    return Butterfly._trusted(Q.dom, B.cod, E2, kappa, iota, prK0, prE.then(B.rho))


# ---------------------------------------------------------------------------
# the span of a butterfly


def span_of_butterfly(B: Butterfly) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """The span (H <- [E] -> G): the middle crossed module is the cooperator
    phi: H x G -> E with the conjugation-through-sigma action; the left leg is
    a weak equivalence."""
    E, H, G = B.E, B.dom.G, B.cod.G
    k, i = B.kappa.map, B.iota.map
    HxG, piH, piG, pair = direct_product(H, G)
    phi = GroupHom._trusted(HxG, E, tuple(E.table[k[h]][i[g]] for h, g in zip(piH.map, piG.map)))
    # by axioms iii and iv, e phi(h, g) e^-1 = kappa(sigma(e)|>h) iota(rho(e)|>g): e sends (h, g) there
    dom_act, cod_act = B.dom.action.act, B.cod.action.act
    perms = tuple(
        pair([dom_act[s][h] for h in piH.map], [cod_act[r][g] for g in piG.map])
        for s, r in zip(B.sigma.map, B.rho.map)
    )
    middle = CrossedModule(HxG, E, phi, GroupAction._trusted(E, HxG, perms), name=f"[{B.E.name}]")
    left = XModMorphism(middle, B.dom, piH, B.sigma)
    right = XModMorphism(middle, B.cod, piG, B.rho)
    return middle, left, right


# ---------------------------------------------------------------------------
# butterfly morphisms from 2-cells, whiskering


def two_cell_image(cell: XModTwoCell) -> ButterflyMorphism:
    """The butterfly morphism E_P -> E_Q induced by a 2-cell: postcompose the
    arrow component with alpha at the base point."""
    BP, _, TG, prG1, _ = _split(cell.P)
    BQ, _, _, _, pairQ = _split(cell.Q)
    f_map = pairQ(BP.sigma.map, [TG.m[(j, cell.alpha[x])] for x, j in zip(BP.sigma.map, prG1.map)])
    return butterfly_morphism(BP, BQ, GroupHom._trusted(BP.E, BQ.E, f_map))


def _whisker(src, dst, left, right) -> ButterflyMorphism:
    """The morphism compose(*src) -> compose(*dst) induced by the maps `left`
    and `right` of the two middle groups: (a, c) -> (left a, right c)."""
    parts, parts2 = _pullback_parts(*src), _pullback_parts(*dst)
    (pairs, coset_of, _, Q), (_, _, pair2, Q2) = parts, parts2
    out = dict(zip(coset_of, pair2([left[a] for a, _ in pairs], [right[c] for _, c in pairs])))
    g = GroupHom._trusted(Q, Q2, tuple(out[q] for q in range(Q.order)))
    return butterfly_morphism(_composite(*src, parts), _composite(*dst, parts2), g)


def whisker_right(f: ButterflyMorphism, B2: Butterfly) -> ButterflyMorphism:
    """The induced morphism compose(src, B2) -> compose(dst, B2)."""
    return _whisker((f.src, B2), (f.dst, B2), f.f.map, range(B2.E.order))


def whisker_left(B: Butterfly, f: ButterflyMorphism) -> ButterflyMorphism:
    """The induced morphism compose(B, src) -> compose(B, dst)."""
    return _whisker((B, f.src), (B, f.dst), range(B.E.order), f.f.map)


# ---------------------------------------------------------------------------
# fractors: the groupoid-level presentation


def _arrows(B: Butterfly, e1s: Sequence[int], e2s: Sequence[int]) -> tuple[int, ...]:
    """The arrow map of B over two equal-length sequences: for each e1, e2
    the arrow (iota^-1(e1 e2^-1), rho e2) from rho(e1) to rho(e2) in the
    codomain's 2-group G x| G0.  On the kernel pair R[sigma] it is the
    fractor's rho-bar.  Raises ``ConstructionError`` when some e1 e2^-1 is
    not in the image of iota, as it is for B off the butterfly axioms."""
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}.get
    t, inv, rho = B.E.table, B.E.inverse, B.rho.map
    gs = [iota_inv(t[e1][inv[e2]]) for e1, e2 in zip(e1s, e2s)]
    if None in gs:
        raise ConstructionError("an arrow's e1 e2^-1 is off the image of iota")
    _, _, pair = _twisted_index(B.cod.G.order, B.cod.G0.order)
    return pair(gs, [rho[e2] for e2 in e2s])


@dataclass(frozen=True)
class Fractor:
    """Two discrete fibrations, the legs R -> H2 and R[sigma] -> G2 out of the
    groupoids R => E and R[sigma] => E; every end is read off the legs."""

    left: TwoGroupFunctor
    right: TwoGroupFunctor


def to_fractor(B: Butterfly) -> Fractor:
    """Present a butterfly as a pair of discrete fibrations over its middle group."""
    E = B.E
    perms = tuple(
        tuple(B.dom.act(B.sigma.map[e], h) for h in range(B.dom.G.order)) for e in range(E.order)
    )
    wing = CrossedModule(B.dom.G, E, B.kappa, GroupAction._trusted(E, B.dom.G, perms))
    # the left leg (h, e) -> (h, sigma e) is the functor of (id, sigma): wing -> dom
    left = denormalize_morphism(XModMorphism(wing, B.dom, identity_hom(B.dom.G), B.sigma))
    RS, pr1, pr2, pair = product_and_pullback(B.sigma, B.sigma)
    diagonal = GroupHom._trusted(E, RS, pair(range(E.order), range(E.order)))
    Rsigma = Strict2Group(RS, E, pr1, pr2, diagonal)
    G2 = denormalize(B.cod)
    rho_bar = GroupHom._trusted(Rsigma.G1, G2.G1, _arrows(B, pr1.map, pr2.map))
    return Fractor(left, TwoGroupFunctor(Rsigma, G2, rho_bar, B.rho))


@_run_memo()
def validate_fractor(F: Fractor) -> ValidationReport:
    """The three fractor conditions.  An invalid R or Rsigma is reported first
    and alone; condition 3, which indexes rho by R's d and c, runs once
    conditions 1 and 2 hold: then rho is a map on Rsigma's objects, and the
    kernel pair puts every object of R among them.  A run scope: each 2-group is validated once."""
    report = ValidationReport("fractor")
    R, Rsigma = F.left.dom, F.right.dom
    for T, label in ((R, "R"), (Rsigma, "Rsigma")):
        if not (sub := _validate_end(T)).ok:
            report.add("1-groupoid", label, f"{label} is not a groupoid: {sub.findings[0]}")
    if not report.ok:
        return report
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
    if not _is_pullback(sigma, sigma, Rsigma.d, Rsigma.c):
        report.add("2-kernel-pair", None, "Rsigma is not the kernel pair of sigma")
    rho = F.right.p0
    for a in range(R.G1.order if report.ok else 0):
        if rho.map[R.d.map[a]] != rho.map[R.c.map[a]]:
            report.add("3-coequalizing", a, "rho does not coequalize the legs of R")
    return report


def from_fractor(F: Fractor) -> Butterfly:
    """Rebuild the butterfly: wings are recovered by lifting kernel arrows
    through the two discrete fibrations.  A fractor off the conditions raises
    ``FractorConditionFailed`` with the number of the first one it fails."""
    report = validate_fractor(F)
    if not report.ok:
        first = report.findings[0]
        raise FractorConditionFailed(int(first.condition[0]), str(first))
    dom, cod = normalize(F.left.cod), normalize(F.right.cod)
    sigma, rho = F.left.p0, F.right.p0
    E = sigma.dom
    wings = []
    for leg in (F.left, F.right):
        # the leg's target square is a pullback, so each kernel arrow has one lift ending at 0
        lift = {(b, x): a for a, (b, x) in enumerate(zip(leg.p1.map, leg.dom.c.map))}
        wings.append(tuple(leg.dom.d.map[lift[el, 0]] for el in kernel(leg.cod.c).elements))
    kappa_map, iota_map = wings
    return Butterfly(
        dom=dom,
        cod=cod,
        E=E,
        kappa=GroupHom._trusted(dom.G, E, kappa_map),
        iota=GroupHom._trusted(cod.G, E, iota_map),
        sigma=sigma,
        rho=rho,
    )
