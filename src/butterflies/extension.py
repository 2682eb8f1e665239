"""Classification of group extensions H <- E <- G via butterflies and via
Schreier factor sets.

Extensions of H by G correspond to butterflies from the discrete crossed
module on H to the automorphism crossed module of G; equivalence classes are
counted twice, once as orbits of butterflies under butterfly morphisms and
once by the classical factor-set calculus, and the two answers must agree.
An extension is held as its butterfly, whose E, iota and sigma are the
extension's: H is sigma's codomain and G iota's domain.  The butterfly of an
extension is valid by construction and is not re-checked, and its exactness
is not checked either: the ``ii-extension`` findings of
:func:`validate_butterfly` report it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .butterfly import Butterfly, _witness_map
from .errors import BoundExceeded, TwistLeavesCocycles
from .fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    _backtrack,
    _greedy_span,
    _maps_into,
    _twisted_columns,
    _twisted_index,
    _twisted_product,
    all_homomorphisms,
    automorphism_group,
    conjugation_action,
    cyclic_group,
    dicyclic_group,
    direct_product,
    identity_hom,
    isomorphism_search,
    kernel,
    semidirect_product,
    trivial_action,
    trivial_group,
    zero_hom,
)
from .xmod import CrossedModule

_ONE = trivial_group()
CLASSIFY_BOUND = 16  # the default bound on |H|*|G| of both classification routes


def discrete_xmod(H: FinGroup) -> CrossedModule:
    """D(H) = (0 -> H): trivial top group over H."""
    return CrossedModule(_ONE, H, zero_hom(_ONE, H), trivial_action(H, _ONE), name=f"D({H.name})")


# bounded at 4x the most groups any benchmark workload asks for (8)
@lru_cache(maxsize=32)
def aut_xmod(G: FinGroup) -> CrossedModule:
    """A(G) = (inner: G -> Aut G, evaluation action).  The one source of
    Aut(G) for this module: Aut(G) is A.G0, evaluation is A.action and
    conjugation is A.boundary, whose kernel is the center of G."""
    A, ev = automorphism_group(G)
    pos = {p: i for i, p in enumerate(ev.act)}
    inner = GroupHom._trusted(
        G, A, tuple(pos[tuple(G.conj(g, a) for a in range(G.order))] for g in range(G.order))
    )
    return CrossedModule(G, A, inner, ev, name=f"A({G.name})")


def conjugation_xmod(G: FinGroup) -> CrossedModule:
    """(id: G -> G, conjugation)."""
    return CrossedModule(G, G, identity_hom(G), conjugation_action(G), name=f"C({G.name})")


def butterfly_from_extension(iota: GroupHom, sigma: GroupHom) -> Butterfly:
    """The butterfly D(H) -> A(G) of the extension H <- E <- G with maps
    sigma: E -> H and iota: G -> E; the Aut-leg is the conjugation
    representation and is uniquely determined."""
    E, G = iota.cod, iota.dom
    t, iota_inv = E.table, {e: g for g, e in enumerate(iota.map)}
    pos = {p: i for i, p in enumerate(aut_xmod(G).action.act)}
    rho = tuple(pos[tuple(iota_inv[t[row[a]][inv]] for a in iota.map)] for row, inv in zip(t, E.inverse))
    return _extension_butterfly(iota, sigma, rho)


def _extension_butterfly(iota: GroupHom, sigma: GroupHom, rho: Sequence[int]) -> Butterfly:
    """The butterfly D(H) -> A(G) with wing iota, left leg sigma and Aut-leg rho."""
    E, A = iota.cod, aut_xmod(iota.dom)
    return Butterfly(discrete_xmod(sigma.cod), A, E, zero_hom(_ONE, E), iota, sigma, GroupHom._trusted(E, A.G0, rho))


def extension_equivalences(X: Butterfly, Y: Butterfly) -> list[GroupHom]:
    """All isomorphisms E -> E' commuting with iota and sigma (fixing H and G)."""
    if X.dom != Y.dom or X.cod != Y.cod:
        return []
    out = []
    for theta in all_homomorphisms(X.E, Y.E):
        if not theta.is_isomorphism:
            continue
        if X.iota.then(theta) == Y.iota and theta.then(Y.sigma) == X.sigma:
            out.append(theta)
    return out


# ---------------------------------------------------------------------------
# Schreier factor sets


@dataclass(frozen=True)
class FactorSet:
    """Normalized Schreier data: phi into Aut(G) indices, f into G indices."""

    H: FinGroup
    G: FinGroup
    phi: tuple[int, ...]
    f: tuple[tuple[int, ...], ...]


def validate_factor_set(fs: FactorSet, aut: FinGroup, ev: GroupAction) -> bool:
    """Normalization plus the two Schreier conditions; False also when the
    table of H, G or Aut(G) is no group table, phi is not a map into Aut(G)
    or f not a map H x H -> G.  Neither phi nor a row of f need be a
    homomorphism, so only their ranges are checked."""
    H, G, phi, f = fs.H, fs.G, fs.phi, fs.f
    if any(K._table_defect for K in (H, G, aut)) or len(f) != H.order:
        return False
    maps = [(phi, aut), *((row, G) for row in f)]
    if not all(_maps_into(m, H.order, C.order) for m, C in maps) or phi[0] != 0 or any(f[0]) or any(r[0] for r in f):
        return False
    for x in range(H.order):
        for y in range(H.order):
            composed = tuple(ev.act[phi[x]][ev.act[phi[y]][g]] for g in range(G.order))
            conj_then = tuple(
                G.conj(f[x][y], ev.act[phi[H.table[x][y]]][g]) for g in range(G.order)
            )
            if composed != conj_then:
                return False
    for x in range(H.order):
        for y in range(H.order):
            for z in range(H.order):
                lhs = G.table[ev.act[phi[x]][f[y][z]]][f[x][H.table[y][z]]]
                rhs = G.table[f[x][y]][f[H.table[x][y]][z]]
                if lhs != rhs:
                    return False
    return True


def factor_set_to_extension(fs: FactorSet) -> Butterfly:
    """Schreier reconstruction: the butterfly D(H) -> A(G) of the twisted
    product on G x H of phi's automorphisms and f, with the Aut-leg of
    ``_twisted_rho``.

    The Schreier conditions make it a group, so it is built unchecked; both
    classification routes re-check each class representative's table on it
    (``FinGroup._refuse_if_not_a_group``), raising ``FinGroup``'s ``NotAGroup``.
    """
    E, sigma, iota = _twisted_product(fs.G, fs.H, _aut_rows(fs), fs.f, f"E({fs.G.name},{fs.H.name})")
    return _extension_butterfly(iota, sigma, _twisted_rho(fs, aut_xmod(fs.G)))


def _aut_rows(fs: FactorSet) -> list[tuple[int, ...]]:
    """phi(x) as a permutation of G for each x in H."""
    act = aut_xmod(fs.G).action.act
    return [act[p] for p in fs.phi]


def factor_set_of_extension(B: Butterfly, section: tuple[int, ...]) -> FactorSet:
    """Read (phi, f) off an extension's butterfly along a normalized set
    section of sigma: phi is the Aut-leg after the section."""
    H, E, s = B.sigma.cod, B.E, section
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    f = tuple(
        tuple(iota_inv[E.table[E.table[s[x]][s[y]]][E.inv(s[H.table[x][y]])]] for y in range(H.order))
        for x in range(H.order)
    )
    return FactorSet(H, B.iota.dom, tuple(B.rho.map[e] for e in s), f)


def _cocycle_group(fv: list, cand: list, narrow, t) -> list[tuple[int, ...]]:
    """The cocycles of one phi as slot vectors, sorted.  Walks the identity
    path; the trivial cocycle passes every check, so narrowing leaves
    identity first at every slot.  At slot k, `kept` holds one cocycle per
    slot-k value reached, earlier slots identity, the identity's first.  Only
    a value not reached is searched: ``_backtrack`` from k with `narrow` as its
    forward check finds its branch's first cocycle, and ``_adjoin`` multiplies
    it into `kept`.  Those multiply into the cocycles listed so far."""
    group = [(0,) * len(fv)]
    for k, row in enumerate(cand):
        kept = {(0,): group[0]}
        for v in row[1:]:
            if (v,) in kept:
                continue
            cand[k] = [v]
            if any(_backtrack(cand, narrow, k)):  # narrow trails cand only, so fv keeps the first cocycle
                kept = _adjoin(t, kept, (v,), tuple(fv))
        cand[k] = row
        narrow(k, 0, [])
        group += [_pointwise(t, s, c) for s in itertools.islice(kept.values(), 1, None) for c in group]
    return sorted(group)


def _pointwise(t, s: Sequence[int], c: Sequence[int]) -> tuple[int, ...]:
    """The pointwise product of two f-vectors in the group of table t."""
    return tuple([t[a][b] for a, b in zip(s, c)])


def _adjoin(t, K: dict, d: tuple[int, ...], z: tuple[int, ...] = ()) -> dict:
    """<K, d> for a subgroup K of abelian f-vectors, each keyed to a witness: the
    cosets d^i K until d^i lies in K, d^i k witnessed by z^i times k's witness."""
    out, p, zp = dict(K), d, z
    while p not in K:
        out.update({_pointwise(t, p, k): _pointwise(t, zp, w) for k, w in K.items()})
        p, zp = _pointwise(t, p, d), _pointwise(t, zp, z)
    return out


def enumerate_cocycles(H: FinGroup, G: FinGroup, bound: int = CLASSIFY_BOUND) -> list[FactorSet]:
    """All normalized pairs (phi, f) satisfying the Schreier conditions.

    phi ranges over the homomorphisms H -> Aut(G), so the first condition,
    conj(f(x, y)) = phi(x) phi(y) phi(xy)^-1 = 1, puts every f-value in the
    center Z(G) = ker(inner).  Each phi(x) is an automorphism of the abelian
    group Z(G), so the second, phi(x)(f(y, z)) f(x, yz) = f(x, y) f(xy, z),
    holds for the pointwise product of two solutions and for the inverse of
    one: for a fixed phi the f's form a group Z^2_phi (K. S. Brown, Cohomology
    of Groups, IV.3), and a product of cocycles needs no check.  The slots
    are the non-identity pairs of f, row-major, each over the center in
    ascending order.  Off the all-identity path, a cocycle s of each branch
    (slots before k identity, slot k some v) is a product of those found, or
    the first one, searched by the one engine, ``fingroup._backtrack``, with
    forward checking: a cocycle triple is checked once all but the last of
    its f-values are assigned, and it narrows that last value's candidates
    to those that satisfy it.  Every
    cocycle of that branch is s times one whose slots up to k are identity,
    so products give the rest; sorted, the list has the order of the full
    search.
    """
    if H.order * G.order > bound:
        raise BoundExceeded("enumerate_cocycles", H.order * G.order, bound)
    A = aut_xmod(G)
    center = kernel(A.boundary).elements
    nH, t, ht = H.order, G.table, H.table
    n = (nH - 1) ** 2
    # slot of f(x, y) in row-major order; the identity row and column read
    # slot n, which stays 0
    slot = [[n if x == 0 or y == 0 else (x - 1) * (nH - 1) + y - 1 for y in range(nH)] for x in range(nH)]

    # each cocycle triple checks f(b,c), f(a,bc), f(a,b), f(ab,c); it is filed under its
    # second-last slot and narrows its last slot, and a triple with one slot only is filed
    # under slot n, assigned once before the search starts
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for a, b, c in itertools.product(range(1, nH), repeat=3):
        pos = (slot[b][c], slot[a][ht[b][c]], slot[a][b], slot[ht[a][b]][c])
        slots = sorted(set(pos) - {n})
        checks[slots[-2] if len(slots) > 1 else n].append((a, *pos, slots[-1]))

    results: list[FactorSet] = []
    for phi_hom in all_homomorphisms(H, A.G0):
        phi = phi_hom.map
        act = [A.action.act[phi[x]] for x in range(nH)]
        fv = [0] * (n + 1)
        cand = [center] * n

        def narrow(k: int, value: int, trail: list) -> bool:
            fv[k] = value
            for a, s1, s2, s3, s4, last in checks[k]:
                row = act[a]
                keep = []
                for v in cand[last]:
                    fv[last] = v
                    if t[row[fv[s1]]][fv[s2]] == t[fv[s3]][fv[s4]]:
                        keep.append(v)
                if len(keep) < len(cand[last]):
                    trail.append((cand, last, cand[last]))
                    cand[last] = keep
                    if not keep:
                        return False
            return True

        narrow(n, 0, [])
        for c in _cocycle_group(fv, cand, narrow, t):
            results.append(FactorSet(H, G, tuple(phi), tuple([tuple([c[s] for s in row]) for row in slot])))
    return results


def twist_factor_set(fs: FactorSet, h: tuple[int, ...], A: CrossedModule) -> FactorSet:
    """The equivalent factor set obtained by changing the section by h: H -> G,
    with A = aut_xmod(G): phi'(x) = inner(h(x)) phi(x) in Aut(G) and
    f'(x, y) = h(x) phi(x)(h(y)) f(x, y) h(xy)^-1."""
    t, inv, inner, aut = fs.G.table, fs.G.inverse, A.boundary.map, A.G0.table
    rows = [A.action.act[p] for p in fs.phi]
    phi2 = tuple([aut[inner[hx]][p] for hx, p in zip(h, fs.phi)])
    f2 = tuple([
        tuple([t[t[t[hx][row[hy]]][fxy]][inv[h[xy]]] for hy, fxy, xy in zip(h, fx, hrow)])
        for hx, row, fx, hrow in zip(h, rows, fs.f, fs.H.table)
    ])
    return FactorSet(fs.H, fs.G, phi2, f2)


def factor_set_oracle(H: FinGroup, G: FinGroup, bound: int = CLASSIFY_BOUND) -> list[list[FactorSet]]:
    """Equivalence classes of factor sets under section changes.

    Classes are orbits of the twisting action of normalized maps h: H -> G,
    listed by ``_orbit_cosets``, members in enumeration order; the
    reconstruction of each class representative is re-validated as a group.
    """
    cocycles = enumerate_cocycles(H, G, bound)
    index = {(fs.phi, sum(fs.f, ())): i for i, fs in enumerate(cocycles)}
    placed: set[int] = set()
    classes: list[list[FactorSet]] = []
    cosets = _orbit_cosets(G, aut_xmod(G))
    for i, fs in enumerate(cocycles):
        if i in placed:
            continue
        members = []
        for t, phi, f, coboundaries in cosets(fs):
            for dz, z in coboundaries.items():
                j = index.get((phi, _pointwise(G.table, f, dz)))
                if j is None:
                    raise TwistLeavesCocycles(
                        f"section change h={_pointwise(G.table, t, z)} leaves the enumerated cocycles of "
                        f"{H.name} by {G.name}: phi ranges over homomorphisms only, so non-abelian kernels "
                        "are unsupported"
                    )
                if j not in placed:
                    placed.add(j)
                    members.append(j)
        classes.append([cocycles[j] for j in sorted(members)])
        E = _twisted_product(G, H, _aut_rows(fs), fs.f, f"E({G.name},{H.name})")[0]
        E._refuse_if_not_a_group()  # FinGroup's check, on E itself
    return classes


def _orbit_cosets(G: FinGroup, A: CrossedModule):
    """The coset lister of one oracle call, A = aut_xmod(G): it yields the
    orbit of fs as cosets (t, phi, f, B), the twist of fs by t (f flattened)
    times each coboundary dz in B, that twist by h = t z.  Each normalized h
    is one such product, t(x) the least element of its coset of Z(G) and
    z(x) central.  A central z keeps phi and multiplies f by dz(x, y) =
    z(x) phi(x)(z(y)) z(xy)^-1, which reads phi only on Z(G), where inner
    automorphisms act trivially, and z -> dz is a homomorphism from
    Z(G)^(|H|-1) (K. S. Brown, Cohomology of Groups, IV.3 and IV.6).  So B,
    which maps each dz to a z it is the twist of the trivial f by, is closed
    from the twists by the z that are a greedy generator c of Z(G) at one x
    and 1 elsewhere by ``_adjoin``, each product keeping its z.
    B is made once per phi and kept for the lister's life."""
    center = kernel(A.boundary).elements
    transversal = [g for g in range(G.order) if g == min(G.table[g][c] for c in center)]
    gens = _greedy_span(G, center)[0]
    coboundaries: dict = {}

    def cosets(fs: FactorSet):
        n, Gt = fs.H.order, G.table
        if fs.phi not in coboundaries:
            trivial = FactorSet(fs.H, G, fs.phi, ((0,) * n,) * n)
            B = {(0,) * n * n: (0,) * n}
            for x, c in itertools.product(range(1, n), gens):
                z = tuple([c if y == x else 0 for y in range(n)])
                B = _adjoin(Gt, B, sum(twist_factor_set(trivial, z, A).f, ()), z)
            coboundaries[fs.phi] = B
        for t in itertools.product((0,), *[transversal] * (n - 1)):
            twisted = twist_factor_set(fs, t, A)
            yield t, twisted.phi, sum(twisted.f, ()), coboundaries[fs.phi]

    return cosets


# ---------------------------------------------------------------------------
# two-route classification


@dataclass(frozen=True)
class ExtensionClass:
    factor_set: FactorSet
    butterfly: Butterfly
    split: bool
    e_group: str
    count: int


def classify_extensions(H: FinGroup, G: FinGroup, bound: int = CLASSIFY_BOUND) -> list[ExtensionClass]:
    """Classify extensions of H by G on the butterfly side.

    Each cocycle (phi, f) stands for the butterfly D(H) -> A(G) of its
    twisted product E on G x H, with the product
    (g1, x1)(g2, x2) = (g1 phi(x1)(g2) f(x1, x2), x1 x2).  Every such E has
    the same wings, the same sigma and, with the wing images first, the same
    generating sequence (``fingroup._twisted_columns``).  Its Aut-leg is
    rho(g, x) = inner(g) phi(x), since (g, x)(a, 1)(g, x)^-1 =
    (g phi(x)(a) g^-1, 1).  So a cocycle's butterfly is read off (phi, f):
    rho, the generator columns the morphism search reads of its source, and
    the invariant below.  Only a cocycle that starts a class gets E's full
    table, its butterfly from :func:`factor_set_to_extension`, and the checks
    of its representative: ``FinGroup``'s table check runs on E itself, then
    ``identify_group`` names it.  A class is split when the first cocycle of
    some phi's block, the trivial (phi, 1) of a semidirect product, starts or
    joins it: split extensions are those with a trivial factor set (K. S.
    Brown, Cohomology of Groups, IV.3).

    Classes are orbits under butterfly morphisms, decided by backtracking
    search and never by the oracle's twists.  A cocycle joins a class when
    the search finds a morphism to the class's representative, and that
    witness must pass the four triangle equalities and the bijectivity
    check of :func:`butterfly_morphism`.  A witness theta: f -> r within one
    phi's block of cocycles has theta(0, x) = (h(x), x) with inner(h(x)) = 1,
    from sigma theta = sigma and rho_r theta = rho_f, so f r^-1 = delta h lies
    in B^2_phi(H, Z(G)) for every kernel G; these generate K.  A cocycle in a
    known coset r K joins r's class unsearched; the search still decides every
    new coset, and each witness within a block at least doubles K.  For
    abelian G every witness is within a block.

    A cocycle is searched against only the representatives that share its
    invariant, the sorted triples (sigma e, rho e, iota^-1(e^m)) over e in E
    with m the order of sigma e in H.  A butterfly morphism f: E -> E' is an
    isomorphism with f iota = iota', sigma' f = sigma and rho' f = rho.  As
    sigma(e^m) = 1, e^m lies in the image of iota, and f(e)^m = f(e^m) =
    iota'(iota^-1(e^m)).  So f carries the triple of e to that of f(e), and
    isomorphic butterflies have equal invariants.  The proof uses only the
    morphism triangles, so it holds for non-abelian G too.  For e = (g, x),
    sigma e = x, rho e is as above, and e^m is read off the product formula
    (``_morphism_invariant``): the triples are those of the table.
    Representatives are searched in order of appearance and the witness
    search still decides membership, so the classes, their order and their
    counts are those of a search against every representative.
    """
    cocycles = enumerate_cocycles(H, G, bound)
    A = aut_xmod(G)
    _, sigma, pair = _twisted_index(G.order, H.order)
    iota = pair(range(G.order), (0,) * G.order)
    classes: list[dict] = []  # per class, the fields of its ExtensionClass but the E group's name
    buckets: dict[tuple, list[int]] = {}
    t, block_phi = G.table, None
    for fs in cocycles:
        f = sum(fs.f, ())
        if fs.phi != block_phi:  # a new phi's block: K is trivial
            block_phi, K, block, known = fs.phi, {(0,) * len(f): ()}, {}, {}
        if f in known:
            classes[known[f]]["count"] += 1
            continue
        rho = _twisted_rho(fs, A)
        legs = ((0,), iota, sigma, rho)
        bucket = buckets.setdefault(_morphism_invariant(fs, rho), [])
        source = _twisted_columns(G, H, _aut_rows(fs), fs.f) if bucket else None
        k = next((j for j in bucket if _witness_map(source, legs, classes[j]["butterfly"]) is not None), None)
        if k is None:  # fs starts a class
            k = len(classes)
            bucket.append(k)
            B = factor_set_to_extension(fs)
            classes.append({"factor_set": fs, "butterfly": B, "split": False, "count": 0})
            block[k] = f
            known.update({_pointwise(t, f, c): k for c in K})
        elif k in block:  # a witness within one phi: f r^-1 is in B^2
            K = _adjoin(t, K, _pointwise(t, f, [G.inverse[v] for v in block[k]]))
            known = {_pointwise(t, r, c): j for j, r in block.items() for c in K}
        classes[k]["count"] += 1
        classes[k]["split"] |= not any(f)
    for c in classes:
        c["butterfly"].E._refuse_if_not_a_group()  # FinGroup's check, on E itself
    return [ExtensionClass(e_group=identify_group(c["butterfly"].E), **c) for c in classes]


def _twisted_rho(fs: FactorSet, A: CrossedModule) -> tuple[int, ...]:
    """The Aut-leg of the butterfly of fs's twisted product, A = aut_xmod(G):
    rho(g, x) = inner(g) phi(x), one lookup in Aut(G)'s table per element."""
    aut, inner, phi = A.G0.table, A.boundary.map, fs.phi
    gs, xs, _ = _twisted_index(fs.G.order, fs.H.order)
    return tuple([aut[inner[g]][phi[x]] for g, x in zip(gs, xs)])


def _morphism_invariant(fs: FactorSet, rho: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """The isomorphism invariant of ``classify_extensions`` for the butterfly
    of fs's twisted product, whose Aut-leg is rho: the powers e^m come from
    the product formula."""
    H, Gt = fs.H, fs.G.table
    rows = _aut_rows(fs)
    steps = []  # per x, the (phi(y), f(y, x)) of y = x^k != 1: (p, y)(g, x) = (p phi(y)(g) f(y, x), y x)
    for x in range(H.order):
        steps.append([])
        y = x
        while y:
            steps[x].append((rows[y], fs.f[y][x]))
            y = H.table[y][x]
    gs, xs, _ = _twisted_index(fs.G.order, H.order)
    powers = []  # iota^-1(e^m) for each e = (g, x), m the order of x
    for g, x in zip(gs, xs):
        p = g
        for twist, c in steps[x]:
            p = Gt[Gt[p][twist[g]]][c]
        powers.append(p)
    return tuple(sorted(zip(xs, rho, powers)))


# ---------------------------------------------------------------------------
# naming small groups


# bounded at 4x the most orders any benchmark workload asks for (7)
@lru_cache(maxsize=32)
def standard_catalog(order: int) -> tuple[tuple[str, FinGroup], ...]:
    """Well-known groups of the given order, used only for display names."""
    groups: list[tuple[str, FinGroup]] = []

    def add(name: str, G: FinGroup):
        if not any(isomorphism_search(G, K) for _, K in groups):
            groups.append((name, G))

    for parts in _abelian_factorizations(order):
        G = cyclic_group(parts[0]) if parts else trivial_group()
        for p in parts[1:]:
            G = direct_product(G, cyclic_group(p))[0]
        add("x".join(f"Z{p}" for p in parts) or "1", G)
    if order % 2 == 0 and order > 2:
        add(f"D{order // 2}", _cyclic_semidirect(order // 2, 2, -1))
    if order % 4 == 0 and order >= 8:
        add(f"Dic{order // 4}", dicyclic_group(order // 4))
    if order == 12:
        V4 = direct_product(cyclic_group(2), cyclic_group(2))[0]
        autV4, ev = automorphism_group(V4)
        three = next(i for i in range(6) if autV4.element_orders[i] == 3)
        rot = GroupHom(cyclic_group(3), autV4, (0, three, autV4.table[three][three]))
        act = GroupAction(cyclic_group(3), V4, tuple(ev.act[rot.map[x]] for x in range(3)))
        add("A4", semidirect_product(act)[0])
    if order == 16:
        add("SD16", _cyclic_semidirect(8, 2, 3))
        add("M16", _cyclic_semidirect(8, 2, 5))
        add("Z4:Z4", _cyclic_semidirect(4, 4, -1))
        D4 = standard_catalog(8)
        for name, K in D4:
            if name in ("D4", "Dic2"):
                pretty = "Q8" if name == "Dic2" else name
                add(f"{pretty}xZ2", direct_product(K, cyclic_group(2))[0])
    return tuple(groups)


def _cyclic_semidirect(n: int, k: int, m: int) -> FinGroup:
    """Zn x| Zk, where x acts by a -> m^x a."""
    act = tuple(tuple(pow(m, x, n) * a % n for a in range(n)) for x in range(k))
    return semidirect_product(GroupAction(cyclic_group(k), cyclic_group(n), act))[0]


def _abelian_factorizations(order: int, smallest: int = 2) -> list[tuple[int, ...]]:
    if order == 1:
        return [()]
    out = []
    d = smallest
    while d <= order:
        if order % d == 0:
            for rest in _abelian_factorizations(order // d, d):
                out.append((d,) + rest)
        d += 1
    return out


@lru_cache(maxsize=32)
def _catalog_by_invariant(order: int) -> dict[tuple, list[tuple[str, FinGroup]]]:
    """``standard_catalog(order)`` filed by class invariant, in catalog order."""
    index: dict[tuple, list[tuple[str, FinGroup]]] = {}
    for name, K in standard_catalog(order):
        index.setdefault(K.class_invariant, []).append((name, K))
    return index


def identify_group(E: FinGroup) -> str:
    """A display name for E: the first catalog group isomorphic to E, Dic2
    reported as Q8, among the catalog groups with E's class invariant only.
    An abelian E is named with no search, by the first of them: that group is
    abelian too, as its centralizers are whole, and has as many elements of
    each order as E, which fixes a finite abelian group up to isomorphism."""
    for name, K in _catalog_by_invariant(E.order).get(E.class_invariant, ()):
        if E.is_abelian or isomorphism_search(E, K):
            return "Q8" if name == "Dic2" else name
    return f"order{E.order}-unrecognized"
