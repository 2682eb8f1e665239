"""Classification of group extensions H <- E <- G via butterflies and via
Schreier factor sets.

Extensions of H by G correspond to butterflies from the discrete crossed
module on H to the automorphism crossed module of G; equivalence classes are
counted twice, once as orbits of butterflies under butterfly morphisms and
once by the classical factor-set calculus, and the two answers must agree.
The butterfly of an extension is valid by construction and is not re-checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .butterfly import (
    Butterfly,
    butterfly_morphisms,
    isomorphic_butterflies,
)
from .errors import BoundExceeded, ConstructionError, ShapeMismatch, TwistLeavesCocycles
from .fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    _generator_images,
    all_homomorphisms,
    automorphism_group,
    conjugation_action,
    construct_group,
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


@dataclass(frozen=True)
class ExtensionDatum:
    """A short exact sequence H <- E <- G with explicit maps."""

    H: FinGroup
    G: FinGroup
    E: FinGroup
    iota: GroupHom
    sigma: GroupHom

    def __post_init__(self):
        if self.iota.dom != self.G or self.iota.cod != self.E:
            raise ValueError("iota must map G into E")
        if self.sigma.dom != self.E or self.sigma.cod != self.H:
            raise ValueError("sigma must map E onto H")
        if not self.iota.is_injective:
            raise ValueError("iota must be injective")
        if not self.sigma.is_surjective:
            raise ValueError("sigma must be surjective")
        if frozenset(self.iota.map) != frozenset(kernel(self.sigma).elements):
            raise ValueError("image(iota) must equal kernel(sigma)")

    def is_split(self) -> bool:
        """Whether sigma has a homomorphic section: s with sigma(s(x)) = x on
        generators, hence everywhere."""
        s = self.sigma.map
        homs = _generator_images(self.H, self.E, bijective=False, accept=lambda x, e: s[e] == x)
        return next(homs, None) is not None


def butterfly_from_extension(X: ExtensionDatum) -> Butterfly:
    """The butterfly D(H) -> A(G) of an extension; the Aut-leg is the
    conjugation representation and is uniquely determined."""
    dom = discrete_xmod(X.H)
    cod = aut_xmod(X.G)
    iota_inv = {e: g for g, e in enumerate(X.iota.map)}
    pos = {p: i for i, p in enumerate(cod.action.act)}
    rho_map = tuple(
        pos[tuple(iota_inv[X.E.conj(e, X.iota.map[g])] for g in range(X.G.order))] for e in range(X.E.order)
    )
    return Butterfly(
        dom=dom,
        cod=cod,
        E=X.E,
        kappa=zero_hom(_ONE, X.E),
        iota=X.iota,
        sigma=X.sigma,
        rho=GroupHom._trusted(X.E, cod.G0, rho_map),
    )


def extension_from_butterfly(B: Butterfly) -> ExtensionDatum:
    """Forget the Aut-leg of a butterfly D(H) -> A(G)."""
    if B.dom.G.order != 1:
        raise ShapeMismatch("domain is not a discrete crossed module")
    if B.cod != aut_xmod(B.cod.G):
        raise ShapeMismatch("codomain is not the automorphism crossed module of its top group")
    return ExtensionDatum(H=B.dom.G0, G=B.cod.G, E=B.E, iota=B.iota, sigma=B.sigma)


def extension_equivalences(X: ExtensionDatum, Y: ExtensionDatum) -> list[GroupHom]:
    """All isomorphisms E -> E' commuting with iota and sigma (fixing H and G)."""
    if X.H != Y.H or X.G != Y.G:
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

    def __post_init__(self):
        if len(self.phi) != self.H.order:
            raise ValueError("phi must be defined on H")
        if len(self.f) != self.H.order or any(len(row) != self.H.order for row in self.f):
            raise ValueError("f must be defined on H x H")


def validate_factor_set(fs: FactorSet, aut: FinGroup, ev: GroupAction) -> bool:
    """Normalization plus the two Schreier conditions."""
    H, G = fs.H, fs.G
    phi, f = fs.phi, fs.f
    if phi[0] != 0 or any(f[0][y] != 0 for y in range(H.order)) or any(
        f[x][0] != 0 for x in range(H.order)
    ):
        return False
    conj_pos = {p: i for i, p in enumerate(ev.act)}
    for x in range(H.order):
        for y in range(H.order):
            composed = tuple(ev.act[phi[x]][ev.act[phi[y]][g]] for g in range(G.order))
            conj_then = tuple(
                G.conj(f[x][y], ev.act[phi[H.table[x][y]]][g]) for g in range(G.order)
            )
            if composed != conj_then:
                return False
            if composed not in conj_pos:
                return False
    for x in range(H.order):
        for y in range(H.order):
            for z in range(H.order):
                lhs = G.table[ev.act[phi[x]][f[y][z]]][f[x][H.table[y][z]]]
                rhs = G.table[f[x][y]][f[H.table[x][y]][z]]
                if lhs != rhs:
                    return False
    return True


def factor_set_to_extension(fs: FactorSet, validated: bool = False) -> ExtensionDatum:
    """Schreier reconstruction: the twisted product on G x H.

    With validated=False the full group axioms are re-checked by
    construct_group; otherwise associativity is certified by the Schreier
    conditions and only the cheap checks run.
    """
    H, G = fs.H, fs.G
    ev = aut_xmod(G).action
    nH = H.order
    idx = lambda g, x: g * nH + x
    table = [[0] * (G.order * nH) for _ in range(G.order * nH)]
    for g1 in range(G.order):
        for x1 in range(nH):
            row = table[idx(g1, x1)]
            for g2 in range(G.order):
                twisted = G.table[g1][ev.act[fs.phi[x1]][g2]]
                for x2 in range(nH):
                    row[idx(g2, x2)] = idx(G.table[twisted][fs.f[x1][x2]], H.table[x1][x2])
    if validated:
        E = FinGroup(table, f"E({G.name},{H.name})", _validated=True)
        if E.table[0][0] != 0:
            raise ConstructionError("reconstructed table lost the identity")
    else:
        E = construct_group(table, f"E({G.name},{H.name})")
        if E.relabeling is not None:
            raise ConstructionError("reconstructed identity was not at index 0")
    iota = GroupHom._trusted(G, E, tuple(idx(g, 0) for g in range(G.order)))
    sigma = GroupHom._trusted(E, H, tuple(x for g in range(G.order) for x in range(nH)))
    return ExtensionDatum(H=H, G=G, E=E, iota=iota, sigma=sigma)


def factor_set_of_extension(X: ExtensionDatum, section: tuple[int, ...]) -> FactorSet:
    """Read (phi, f) off an extension along a normalized set section of sigma:
    phi is the Aut-leg of its butterfly after the section."""
    H, E, s = X.H, X.E, section
    rho = butterfly_from_extension(X).rho.map
    iota_inv = {e: g for g, e in enumerate(X.iota.map)}
    f = tuple(
        tuple(iota_inv[E.table[E.table[s[x]][s[y]]][E.inv(s[H.table[x][y]])]] for y in range(H.order))
        for x in range(H.order)
    )
    return FactorSet(H, X.G, tuple(rho[e] for e in s), f)


def enumerate_cocycles(H: FinGroup, G: FinGroup, bound: int = 16) -> list[FactorSet]:
    """All normalized pairs (phi, f) satisfying the Schreier conditions.

    phi ranges over the homomorphisms H -> Aut(G), so the first condition,
    conj(f(x, y)) = phi(x) phi(y) phi(xy)^-1 = 1, puts every f-value in the
    center Z(G) = ker(inner).  Backtracking assigns the non-identity pairs of
    f row-major, each over the center in ascending order, with forward
    checking: a cocycle triple is checked as soon as all but the last of its
    f-values are assigned, and it narrows that last value's candidates to
    those that satisfy it.  Narrowing is undone on backtrack, and a branch
    is pruned as soon as some candidate list is empty.  Every triple is
    still checked for every kept value, and the list comes out in the order
    of a search that checks each triple only when its last value is set.
    """
    if H.order * G.order > bound:
        raise BoundExceeded("enumerate_cocycles", H.order * G.order, bound)
    A = aut_xmod(G)
    center = [g for g in range(G.order) if A.boundary.map[g] == 0]
    nH, t, ht = H.order, G.table, H.table
    n = (nH - 1) ** 2
    # slot of f(x, y) in row-major order; the identity row and column read
    # slot n, which stays 0
    slot = [[n if x == 0 or y == 0 else (x - 1) * (nH - 1) + y - 1 for y in range(nH)] for x in range(nH)]

    # each cocycle triple checks f(b,c), f(a,bc), f(a,b), f(ab,c); it is
    # filed under its second-last slot and narrows its last slot, and a
    # triple with one slot only narrows it before the search starts
    initial: list[tuple[int, ...]] = []
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for a, b, c in itertools.product(range(1, nH), repeat=3):
        pos = (slot[b][c], slot[a][ht[b][c]], slot[a][b], slot[ht[a][b]][c])
        slots = sorted(set(pos) - {n})
        (checks[slots[-2]] if len(slots) > 1 else initial).append((a, *pos, slots[-1]))

    results: list[FactorSet] = []
    for phi_hom in all_homomorphisms(H, A.G0):
        phi = phi_hom.map
        act = [A.action.act[phi[x]] for x in range(nH)]
        fv = [0] * (n + 1)
        cand = [center] * n

        def narrow(triples, trail) -> bool:
            for a, s1, s2, s3, s4, last in triples:
                row = act[a]
                keep = []
                for v in cand[last]:
                    fv[last] = v
                    if t[row[fv[s1]]][fv[s2]] == t[fv[s3]][fv[s4]]:
                        keep.append(v)
                if len(keep) < len(cand[last]):
                    trail.append((last, cand[last]))
                    cand[last] = keep
                    if not keep:
                        return False
            return True

        def backtrack(k: int):
            if k == n:
                f = tuple(tuple(fv[s] for s in row) for row in slot)
                results.append(FactorSet(H, G, tuple(phi), f))
                return
            for g in cand[k]:
                fv[k] = g
                trail: list = []
                if narrow(checks[k], trail):
                    backtrack(k + 1)
                for s, old in reversed(trail):
                    cand[s] = old

        if narrow(initial, []):
            backtrack(0)
    return results


def twist_factor_set(fs: FactorSet, h: tuple[int, ...], A: CrossedModule) -> FactorSet:
    """The equivalent factor set obtained by changing the section by h: H -> G,
    with A = aut_xmod(G).  The new phi(x) is inner(h(x)) * phi(x) in Aut(G)."""
    H, G = fs.H, fs.G
    act, inner, aut, t = A.action.act, A.boundary.map, A.G0.table, G.table
    phi, f = fs.phi, fs.f
    phi2 = tuple(aut[inner[h[x]]][phi[x]] for x in range(H.order))
    f2 = tuple(
        tuple(t[t[t[h[x]][act[phi[x]][h[y]]]][f[x][y]]][G.inv(h[H.table[x][y]])] for y in range(H.order))
        for x in range(H.order)
    )
    return FactorSet(H, G, phi2, f2)


def factor_set_oracle(H: FinGroup, G: FinGroup, bound: int = 16) -> list[list[FactorSet]]:
    """Equivalence classes of factor sets under section changes.

    Classes are orbits of the twisting action of normalized maps h: H -> G;
    the reconstruction of each class representative is re-validated as a
    genuine group.
    """
    cocycles = enumerate_cocycles(H, G, bound)
    A = aut_xmod(G)
    index = {(fs.phi, fs.f): i for i, fs in enumerate(cocycles)}
    assigned = [-1] * len(cocycles)
    classes: list[list[FactorSet]] = []
    h_candidates = list(itertools.product(range(G.order), repeat=H.order - 1))
    for i, fs in enumerate(cocycles):
        if assigned[i] != -1:
            continue
        label = len(classes)
        members = []
        for tail in h_candidates:
            h = (0,) + tail
            twisted = twist_factor_set(fs, h, A)
            j = index.get((twisted.phi, twisted.f))
            if j is None:
                raise TwistLeavesCocycles(
                    f"section change h={h} leaves the enumerated cocycles of {H.name} by {G.name}: "
                    "phi ranges over homomorphisms only, so non-abelian kernels are unsupported"
                )
            if assigned[j] == -1:
                assigned[j] = label
                members.append(cocycles[j])
        classes.append(members)
        factor_set_to_extension(fs, validated=False)
    return classes


# ---------------------------------------------------------------------------
# two-route classification


@dataclass(frozen=True)
class ExtensionClass:
    representative: ExtensionDatum
    factor_set: FactorSet
    butterfly: Butterfly
    split: bool
    e_group: str
    count: int


def classify_extensions(H: FinGroup, G: FinGroup, bound: int = 16) -> list[ExtensionClass]:
    """Classify extensions of H by G on the butterfly side.

    Every cocycle is reconstructed into an extension and then a butterfly;
    classes are orbits under butterfly morphisms, found by backtracking
    search, independently of the coboundary calculus of the oracle.

    A butterfly is searched against only the representatives that share its
    invariant, the sorted triples (sigma e, rho e, iota^-1(e^m)) over e in E
    with m the order of sigma e in H.  A butterfly morphism f: E -> E' is an
    isomorphism with f iota = iota', sigma' f = sigma and rho' f = rho.  As
    sigma(e^m) = 1, e^m lies in the image of iota, and f(e)^m = f(e^m) =
    iota'(iota^-1(e^m)).  So f carries the triple of e to that of f(e), and
    isomorphic butterflies have equal invariants.  The proof uses only the
    morphism triangles, so it holds for non-abelian G too.  Representatives
    are searched in order of appearance and the witness search still decides
    membership, so the classes, their order and their counts are those of a
    search against every representative.
    """
    if H.order * G.order > bound:
        raise BoundExceeded("classify_extensions", H.order * G.order, bound)
    cocycles = enumerate_cocycles(H, G, bound)
    reps: list[Butterfly] = []
    data: list[tuple[ExtensionDatum, FactorSet]] = []
    counts: list[int] = []
    buckets: dict[tuple, list[int]] = {}
    for fs in cocycles:
        datum = factor_set_to_extension(fs, validated=True)
        B = butterfly_from_extension(datum)
        bucket = buckets.setdefault(_morphism_invariant(B), [])
        for k in bucket:
            if isomorphic_butterflies(B, reps[k]) is not None:
                counts[k] += 1
                break
        else:
            bucket.append(len(reps))
            reps.append(B)
            data.append((datum, fs))
            counts.append(1)
    out = []
    for k, B in enumerate(reps):
        datum, fs = data[k]
        factor_set_to_extension(fs, validated=False)  # full re-validation per class
        out.append(
            ExtensionClass(
                representative=datum,
                factor_set=fs,
                butterfly=B,
                split=datum.is_split(),
                e_group=identify_group(datum.E),
                count=counts[k],
            )
        )
    return out


def _morphism_invariant(B: Butterfly) -> tuple[tuple[int, int, int], ...]:
    """The isomorphism invariant of ``classify_extensions`` for a butterfly
    D(H) -> A(G)."""
    E, s, r = B.E, B.sigma.map, B.rho.map
    orders = B.sigma.cod.element_orders
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    triples = []
    for e in range(E.order):
        p = e
        for _ in range(orders[s[e]] - 1):
            p = E.table[p][e]
        triples.append((s[e], r[e], iota_inv[p]))
    return tuple(sorted(triples))


# ---------------------------------------------------------------------------
# naming small groups


# bounded at 4x the most orders any benchmark workload asks for (7)
@lru_cache(maxsize=32)
def standard_catalog(order: int) -> tuple[tuple[str, FinGroup], ...]:
    """Well-known groups of the given order, used only for display names."""
    groups: list[tuple[str, FinGroup]] = []

    def add(name: str, G: FinGroup):
        if G.order == order and not any(isomorphism_search(G, K, bound=32) for _, K in groups):
            groups.append((name, G))

    for parts in _abelian_factorizations(order):
        name = "x".join(f"Z{p}" for p in parts)
        G = cyclic_group(parts[0])
        for p in parts[1:]:
            G = direct_product(G, cyclic_group(p))[0]
        add(name, G)
    if order % 2 == 0 and order > 2:
        n = order // 2
        Zn = cyclic_group(n)
        inv = GroupAction(cyclic_group(2), Zn, (tuple(range(n)), tuple((-a) % n for a in range(n))))
        add(f"D{n}", semidirect_product(inv)[0])
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
        Z8 = cyclic_group(8)
        for name, mult in (("SD16", 3), ("M16", 5)):
            act = GroupAction(
                cyclic_group(2), Z8, (tuple(range(8)), tuple((mult * a) % 8 for a in range(8)))
            )
            add(name, semidirect_product(act)[0])
        Z4 = cyclic_group(4)
        act = GroupAction(Z4, Z4, tuple(
            tuple(a if x % 2 == 0 else (-a) % 4 for a in range(4)) for x in range(4)
        ))
        add("Z4:Z4", semidirect_product(act)[0])
        D4 = standard_catalog(8)
        for name, K in D4:
            if name in ("D4", "Dic2"):
                pretty = "Q8" if name == "Dic2" else name
                add(f"{pretty}xZ2", direct_product(K, cyclic_group(2))[0])
    return tuple(groups)


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


def identify_group(E: FinGroup) -> str:
    """A display name for E, via the catalog; Dic2 is reported as Q8."""
    if E.order == 1:
        return "1"
    for name, K in standard_catalog(E.order):
        if isomorphism_search(E, K, bound=max(32, E.order)) is not None:
            return "Q8" if name == "Dic2" else name
    return f"order{E.order}-unrecognized"
