"""Exact finite-group kernel: Cayley tables, homomorphisms, actions, limits.

Every group is a multiplication table over element indices 0..order-1 with
the identity pinned at index 0.  Constructed groups (quotients, pullbacks,
semidirect products) carry a canonical element order so that equal inputs
produce bit-identical outputs.

The public constructors check their input in full.  Results that are groups,
homomorphisms, actions or subgroups by construction (quotient maps,
projections, composites, kernels, search results) skip the checks through
``FinGroup(..., _validated=True)`` and ``_trusted(...)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .errors import BoundExceeded, CodomainMismatch, NotAGroup, NotNormal

DEFAULT_BOUND = 24


class FinGroup:
    """A finite group given by its Cayley table, identity at index 0.

    Equality is table equality; sameness up to relabeling is decided by
    :func:`isomorphism_search`.
    """

    __slots__ = ("order", "table", "name", "element_labels", "inverse", "relabeling", "__dict__")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        name: str = "G",
        element_labels: Optional[Sequence[str]] = None,
        _validated: bool = False,
    ):
        self.order = len(table)
        if _validated:
            self.table: tuple[tuple[int, ...], ...] = tuple(map(tuple, table))
        else:
            self.table = tuple(tuple(int(x) for x in row) for row in table)
            _check_group_table(self)
        self.name = name
        self.element_labels = tuple(element_labels) if element_labels is not None else None
        self.relabeling: Optional[tuple[int, ...]] = None
        self.inverse = tuple(row.index(0) for row in self.table)

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, x: int, a: int) -> int:
        """x a x^-1."""
        return self.table[self.table[x][a]][self.inverse[x]]

    def label(self, a: int) -> str:
        if self.element_labels is not None:
            return self.element_labels[a]
        return str(a)

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for a in range(self.order):
            k, x = 1, a
            while x != 0:
                x = self.table[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    def order_profile(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for o in self.element_orders:
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, FinGroup) and self.table == other.table)

    def __hash__(self) -> int:
        return self._table_hash

    @cached_property
    def _table_hash(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FinGroup({self.name!r}, order={self.order})"


def _check_group_table(G: FinGroup) -> None:
    """Latin square with identity 0, then Light's test: the s with (xs)y = x(sy)
    for all x, y are closed under the product, so the generators suffice
    (Clifford-Preston, The Algebraic Theory of Semigroups I, 1.2)."""
    table, n = G.table, G.order
    if n == 0:
        raise NotAGroup("empty table")
    full = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != full:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise NotAGroup("index 0 is not a two-sided identity")
    for s in _generators(G):
        ts = table[s]
        for x in range(n):
            txs = table[table[x][s]]
            tx = table[x]
            for y in range(n):
                if txs[y] != tx[ts[y]]:
                    raise NotAGroup(f"associativity fails at ({x},{s},{y})")


def construct_group(
    table: Sequence[Sequence[int]],
    name: str = "G",
    element_labels: Optional[Sequence[str]] = None,
) -> FinGroup:
    """Validate a Cayley table, relocating the identity to index 0 if needed."""
    rows = [list(r) for r in table]
    n = len(rows)
    if n < 1:
        raise NotAGroup("table must have side >= 1")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not isinstance(x, int) or x < 0 or x >= n:
                raise NotAGroup(f"entry {x!r} in row {i} out of range")
    identity = None
    for e in range(n):
        if all(rows[e][a] == a and rows[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element")
    relabeling = None
    if identity != 0:
        # swap the identity into slot 0 and remember the permutation used
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        rows = [[perm.index(rows[perm[a]][perm[b]]) for b in range(n)] for a in range(n)]
        if element_labels is not None:
            element_labels = [element_labels[perm[a]] for a in range(n)]
        relabeling = tuple(perm)
    group = FinGroup(rows, name, element_labels)
    group.relabeling = relabeling
    return group


# ---------------------------------------------------------------------------
# standard constructions used by tests, fixtures and the CLI


def trivial_group(name: str = "1") -> FinGroup:
    return FinGroup([[0]], name, ("1",), _validated=True)


def cyclic_group(n: int, name: Optional[str] = None) -> FinGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = tuple(str(a) for a in range(n))
    return FinGroup(table, name or f"Z{n}", labels, _validated=True)


def symmetric_group(n: int) -> FinGroup:
    """S_n on tuples, identity first, remaining permutations in lex order."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    labels = tuple("".join(map(str, p)) for p in perms)
    return FinGroup(table, f"S{n}", labels, _validated=True)


def dicyclic_group(n: int) -> FinGroup:
    """Dicyclic group of order 4n (n=2 gives the quaternion group)."""
    m = 2 * n
    idx = lambda a, e: a + m * e
    table = [[0] * (2 * m) for _ in range(2 * m)]
    for a in range(m):
        for b in range(m):
            table[idx(a, 0)][idx(b, 0)] = idx((a + b) % m, 0)
            table[idx(a, 0)][idx(b, 1)] = idx((b - a) % m, 1)
            table[idx(a, 1)][idx(b, 0)] = idx((a + b) % m, 1)
            table[idx(a, 1)][idx(b, 1)] = idx((b - a + n) % m, 0)
    return FinGroup(table, f"Dic{n}")


class _Trusted:
    """``cls._trusted(*fields)`` builds an instance whose invariants hold by
    construction without running ``__post_init__``, the counterpart of
    ``FinGroup(..., _validated=True)``.  Fields must already be in normal
    form: tuples of ints, subgroup elements sorted without repeats."""

    @classmethod
    def _trusted(cls, *values):
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, values))
        return obj


@dataclass(frozen=True)
class GroupHom(_Trusted):
    """A total multiplication-preserving map between element indices."""

    dom: FinGroup
    cod: FinGroup
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(int(x) for x in self.map))
        if len(self.map) != self.dom.order:
            raise ValueError("map length does not match domain order")
        if any(x < 0 or x >= self.cod.order for x in self.map):
            raise ValueError("map value out of codomain range")
        if self.map[0] != 0:
            raise ValueError("map does not preserve the identity")
        defect = _hom_defect(self.dom, self.cod, self.map)
        if defect is not None:
            raise ValueError(f"map is not multiplicative at ({defect[0]},{defect[1]})")

    def __call__(self, a: int) -> int:
        return self.map[a]

    def then(self, g: "GroupHom") -> "GroupHom":
        """Composite 'self first, then g'."""
        if g.dom is not self.cod and g.dom != self.cod:
            raise CodomainMismatch("cannot compose: middle groups differ")
        return GroupHom._trusted(self.dom, g.cod, tuple(g.map[x] for x in self.map))

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.order

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.order

    @property
    def is_isomorphism(self) -> bool:
        return self.dom.order == self.cod.order and self.is_injective

    def inverse_hom(self) -> "GroupHom":
        if not self.is_isomorphism:
            raise ValueError("not an isomorphism")
        inv = [0] * self.cod.order
        for a, b in enumerate(self.map):
            inv[b] = a
        return GroupHom._trusted(self.cod, self.dom, tuple(inv))


def identity_hom(G: FinGroup) -> GroupHom:
    return GroupHom._trusted(G, G, tuple(range(G.order)))


def zero_hom(G: FinGroup, H: FinGroup) -> GroupHom:
    return GroupHom._trusted(G, H, (0,) * G.order)


@dataclass(frozen=True)
class GroupAction(_Trusted):
    """Action of `actor` on `target` by automorphisms, one permutation per actor element."""

    actor: FinGroup
    target: FinGroup
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "act", tuple(tuple(p) for p in self.act))
        if len(self.act) != self.actor.order:
            raise ValueError("one permutation per actor element required")
        n = self.target.order
        full = set(range(n))
        for x, p in enumerate(self.act):
            if set(p) != full:
                raise ValueError(f"act[{x}] is not a permutation of the target")
        if self.act[0] != tuple(range(n)):
            raise ValueError("act[identity] must be the identity permutation")
        # each generator acting by an automorphism and act[x*g] = act[x] o act[g] suffice
        at = self.actor.table
        for g in _generators(self.actor):
            p = self.act[g]
            defect = _hom_defect(self.target, self.target, p)
            if defect is not None:
                raise ValueError(f"act[{g}] is not an automorphism at ({defect[0]},{defect[1]})")
            for x in range(self.actor.order):
                q = self.act[x]
                if self.act[at[x][g]] != tuple(q[a] for a in p):
                    raise ValueError(f"act[{x}*{g}] != act[{x}] o act[{g}]")

    def __call__(self, x: int, a: int) -> int:
        return self.act[x][a]


def trivial_action(actor: FinGroup, target: FinGroup) -> GroupAction:
    p = tuple(range(target.order))
    return GroupAction._trusted(actor, target, (p,) * actor.order)


def conjugation_action(G: FinGroup) -> GroupAction:
    """The canonical action of G on itself by x a x^-1."""
    perms = tuple(tuple(G.conj(x, a) for a in range(G.order)) for x in range(G.order))
    return GroupAction._trusted(G, G, perms)


@dataclass(frozen=True)
class Subgroup(_Trusted):
    ambient: FinGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(int(x) for x in self.elements)))
        object.__setattr__(self, "elements", elems)
        if not elems or elems[0] != 0:
            raise ValueError("subgroup must contain the identity")
        # a finite subset closed under the product is a subgroup
        s, span, gens = set(elems), {0}, []
        for a in elems:
            if a not in span:
                gens.append(a)
                if not _close(self.ambient, span, gens) <= s:
                    raise ValueError(f"subgroup not closed under product: <{gens}> leaves it")

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_normal(self) -> bool:
        s = set(self.elements)
        G = self.ambient
        return all(G.conj(x, a) in s for x in range(G.order) for a in self.elements)

    def as_group(self, name: Optional[str] = None) -> tuple[FinGroup, GroupHom]:
        """The subgroup as a group in its own right plus the inclusion hom."""
        elems = self.elements
        pos = {e: i for i, e in enumerate(elems)}
        table = [[pos[self.ambient.table[a][b]] for b in elems] for a in elems]
        labels = tuple(self.ambient.label(e) for e in elems)
        grp = FinGroup(table, name or f"{self.ambient.name}|sub{len(elems)}", labels, _validated=True)
        return grp, GroupHom._trusted(grp, self.ambient, elems)


def _close(G: FinGroup, span: set[int], gens: Sequence[int]) -> set[int]:
    """Grow `span`, a subgroup of G contained in <gens>, in place to <gens>."""
    frontier = list(span)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = G.table[a][g]
            if b not in span:
                span.add(b)
                frontier.append(b)
    return span


def subgroup_generated(G: FinGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup._trusted(G, tuple(sorted(_close(G, {0}, list(gens)))))


def kernel(f: GroupHom) -> Subgroup:
    """The kernel subgroup {a : f(a) = 0}; always normal in the domain."""
    return Subgroup._trusted(f.dom, tuple(a for a in range(f.dom.order) if f.map[a] == 0))


def image_and_normal_closure(f: GroupHom) -> tuple[Subgroup, Subgroup]:
    """The image subgroup of f and its normal closure in the codomain."""
    img = Subgroup._trusted(f.cod, tuple(sorted(set(f.map))))
    G = f.cod
    conjugates = {G.conj(x, a) for x in range(G.order) for a in img.elements}
    return img, subgroup_generated(G, sorted(conjugates))


def quotient(G: FinGroup, N: Subgroup) -> tuple[FinGroup, GroupHom]:
    """Quotient by a normal subgroup, cosets ordered by minimal representative."""
    if N.ambient != G:
        raise NotNormal("subgroup is not a subgroup of the given group")
    if not N.is_normal():
        raise NotNormal(f"subgroup {N.elements} is not normal in {G.name}")
    coset_of = [-1] * G.order
    reps: list[int] = []
    for a in range(G.order):
        if coset_of[a] != -1:
            continue
        idx = len(reps)
        reps.append(a)
        for n in N.elements:
            coset_of[G.table[a][n]] = idx
    table = [[coset_of[G.table[ra][rb]] for rb in reps] for ra in reps]
    labels = tuple(f"[{G.label(r)}]" for r in reps)
    Q = FinGroup(table, f"{G.name}/N{N.order}", labels, _validated=True)
    return Q, GroupHom._trusted(G, Q, tuple(coset_of))


def product_and_pullback(
    f: GroupHom, g: GroupHom
) -> tuple[FinGroup, GroupHom, GroupHom, list[Optional[int]]]:
    """The pullback {(a,c) : f(a)=g(c)} with its two projections and the
    index ``pos[a*|C| + c]`` of each pair (a, c) in it (None off the pullback).

    Taking both maps into the trivial group yields the direct product.
    """
    if f.cod != g.cod:
        raise CodomainMismatch(f"codomains differ: {f.cod.name} vs {g.cod.name}")
    A, C = f.dom, g.dom
    pairs, pos, _, P = pullback_quotient(f, g, {(0, 0)}, f"PB({A.name},{C.name})", "({},{})")
    proj1 = GroupHom._trusted(P, A, tuple(a for a, _ in pairs))
    proj2 = GroupHom._trusted(P, C, tuple(c for _, c in pairs))
    return P, proj1, proj2, pos


def pullback_quotient(
    f: GroupHom, g: GroupHom, normal: Collection[tuple[int, int]], name: str, label: str
) -> tuple[list[tuple[int, int]], list[Optional[int]], list[int], FinGroup]:
    """The pullback P = {(a,c) : f(a)=g(c)} modulo its normal subgroup N,
    given by its pairs and trusted to be normal, without P's table.

    Returns P's pairs in lexicographic order, the index ``pos[a*|C| + c]`` of
    each pair (None off P), the coset of each pair, and P/N named `name`.
    Cosets are numbered by minimal pair index, as :func:`quotient` numbers
    them, and the coset of minimal pair (a, c) is labeled
    ``label.format(A.label(a), C.label(c))``.
    """
    A, C = f.dom, g.dom
    nc, At, Ct = C.order, A.table, C.table
    pairs = [(a, c) for a in range(A.order) for c in range(nc) if f.map[a] == g.map[c]]
    pos: list[Optional[int]] = [None] * (A.order * nc)
    for i, (a, c) in enumerate(pairs):
        pos[a * nc + c] = i
    coset_of = [-1] * len(pairs)
    reps: list[tuple[int, int]] = []
    for i, (a, c) in enumerate(pairs):
        if coset_of[i] == -1:
            for na, nn in normal:
                coset_of[pos[At[a][na] * nc + Ct[c][nn]]] = len(reps)
            reps.append((a, c))
    table = [[coset_of[pos[At[a][a2] * nc + Ct[c][c2]]] for a2, c2 in reps] for a, c in reps]
    labels = tuple(label.format(A.label(a), C.label(c)) for a, c in reps)
    return pairs, pos, coset_of, FinGroup(table, name, labels, _validated=True)


def _is_pullback(f: GroupHom, g: GroupHom, u: GroupHom, v: GroupHom) -> bool:
    """Whether x -> (u x, v x) is a bijection onto the pairs {(a,c) : f(a)=g(c)}
    of :func:`product_and_pullback`, i.e. the square f u = g v is a pullback.
    False, never an error, when f and g do not share a codomain."""
    if f.cod != g.cod:
        return False
    images = set(zip(u.map, v.map))
    pairs = {(a, c) for a, y in enumerate(f.map) for c, z in enumerate(g.map) if y == z}
    return len(images) == len(u.map) == len(v.map) and images == pairs


def direct_product(A: FinGroup, B: FinGroup) -> tuple[FinGroup, GroupHom, GroupHom]:
    T = trivial_group()
    P, p1, p2, _ = product_and_pullback(zero_hom(A, T), zero_hom(B, T))
    P.name = f"{A.name}x{B.name}"
    return P, p1, p2


def klein_four() -> FinGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))[0]


def semidirect_product(xi: GroupAction) -> tuple[FinGroup, GroupHom, GroupHom, GroupHom]:
    """G x| G0 with (a,x)(b,y) = (a*(x|>b), x*y).

    Returns the group plus the projection c, its section e, and the kernel
    inclusion g; the sequence G -> G x| G0 -> G0 is split exact.
    """
    G, G0 = xi.target, xi.actor
    n, n0 = G.order, G0.order
    table = []
    for a in range(n):
        ta = G.table[a]
        for x in range(n0):
            # row (a,x) is, for each b, the offset of a*(x|>b) plus the row of x in G0
            offsets = [ta[xb] * n0 for xb in xi.act[x]]
            table.append([offset + y for offset in offsets for y in G0.table[x]])
    labels = tuple(f"({G.label(a)},{G0.label(x)})" for a in range(n) for x in range(n0))
    S = FinGroup(table, f"{G.name}x|{G0.name}", labels, _validated=True)
    c = GroupHom._trusted(S, G0, tuple(x for _ in range(n) for x in range(n0)))
    e = GroupHom._trusted(G0, S, tuple(range(n0)))
    g = GroupHom._trusted(G, S, tuple(a * n0 for a in range(n)))
    return S, c, e, g


# ---------------------------------------------------------------------------
# searches


def _generating_sequence(G: FinGroup, first: Iterable[int] = ()) -> list[int]:
    """Greedy generators of G: each element of `first`, then of 0..order-1,
    that lies outside the span of those taken before it."""
    gens: list[int] = []
    span = {0}
    for a in itertools.chain(first, range(G.order)):
        if a not in span:
            gens.append(a)
            if len(_close(G, span, gens)) == G.order:
                break
    return gens


def _generators(G: FinGroup, first: tuple[int, ...] = ()) -> list[int]:
    """The generating sequence of G with `first` entering first, memoized on G."""
    memo = G.__dict__.setdefault("_generating_sequences", {})
    if first not in memo:
        memo[first] = _generating_sequence(G, first)
    return memo[first]


def _hom_defect(G: FinGroup, H: FinGroup, m: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair (a, g) with m(a*g) != m(a)*m(g), g = 0 or a generator of
    G, or None when m is a homomorphism G -> H: every element is a word in
    the generators, so m is multiplicative once it is on each of them."""
    if m[0] != 0:
        return 0, 0
    t, u = G.table, H.table
    for g in _generators(G):
        mg = m[g]
        for a in range(G.order):
            if m[t[a][g]] != u[m[a]][mg]:
                return a, g
    return None


def _extend_hom(G: FinGroup, H: FinGroup, gens: Sequence[int], images: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Grow a partial map on generators to a full map, or detect inconsistency.

    The closure sets m(a*g) = m(a)*h for every element a and generator g and
    rejects any conflict, so a returned map is a homomorphism.
    """
    m = [-1] * G.order
    m[0] = 0
    for g, h in zip(gens, images):
        if m[g] not in (-1, h):
            return None
        m[g] = h
    frontier = [0] + list(gens)
    while frontier:
        a = frontier.pop()
        for g, h in zip(gens, images):
            b = G.table[a][g]
            image = H.table[m[a]][h]
            if m[b] == -1:
                m[b] = image
                frontier.append(b)
            elif m[b] != image:
                return None
    return tuple(m)


def _generator_images(
    G: FinGroup,
    H: FinGroup,
    bijective: bool,
    fixed: Sequence[tuple[int, int]] = (),
    accept: Optional[Callable[[int, int], bool]] = None,
) -> Iterator[tuple[int, ...]]:
    """Every homomorphism G -> H (only the bijections when `bijective`), as maps,
    in lexicographic order.

    A generator's image must have order dividing its own (equal for
    bijections) and pass `accept(generator, image)` when given.  Each pair
    (a, b) of `fixed` forces m(a) = b.  Those elements enter the generating
    sequence first, and every later generator is the least element outside
    the span of the ones before it, so lexicographic order on generator
    images is lexicographic order on maps.
    """
    forced = dict(fixed)
    gens = _generators(G, tuple(forced))
    go, ho = G.element_orders, H.element_orders
    candidates = [
        [
            b
            for b in ((forced[g],) if g in forced else range(H.order))
            if (ho[b] == go[g] if bijective else go[g] % ho[b] == 0)
            and (accept is None or accept(g, b))
        ]
        for g in gens
    ]
    for images in itertools.product(*candidates):
        m = _extend_hom(G, H, gens, images)
        if (
            m is not None
            and (not bijective or len(set(m)) == G.order)
            and all(m[a] == b for a, b in fixed)
        ):
            yield m


def all_homomorphisms(G: FinGroup, H: FinGroup) -> list[GroupHom]:
    """Every homomorphism G -> H, in a deterministic order."""
    return [GroupHom._trusted(G, H, m) for m in _generator_images(G, H, bijective=False)]


def isomorphism_search(
    G: FinGroup, H: FinGroup, bound: int = DEFAULT_BOUND
) -> Optional[GroupHom]:
    """A witness isomorphism G -> H, or None; order-profile pruned backtracking."""
    if G.order > bound or H.order > bound:
        raise BoundExceeded("isomorphism_search", max(G.order, H.order), bound)
    if G.order != H.order or G.order_profile() != H.order_profile():
        return None
    m = next(_generator_images(G, H, bijective=True), None)
    return None if m is None else GroupHom._trusted(G, H, m)


def automorphism_group(G: FinGroup, bound: int = DEFAULT_BOUND) -> tuple[FinGroup, GroupAction]:
    """Aut(G) as a group over the canonically ordered automorphism list.

    Multiplication is composition: (alpha * beta)(a) = alpha(beta(a)), so the
    evaluation action satisfies act[x*y] = act[x] o act[y].
    """
    if G.order > bound:
        raise BoundExceeded("automorphism_group", G.order, bound)
    autos = sorted(_generator_images(G, G, bijective=True))
    pos = {p: i for i, p in enumerate(autos)}
    table = [[pos[tuple(p[q[a]] for a in range(G.order))] for q in autos] for p in autos]
    labels = tuple("id" if p == tuple(range(G.order)) else "f" + "".join(map(str, p)) for p in autos)
    A = FinGroup(table, f"Aut({G.name})", labels, _validated=True)
    ev = GroupAction._trusted(A, G, tuple(autos))
    return A, ev


def hom_to_action(rho: GroupHom, ev: GroupAction) -> GroupAction:
    """Turn a homomorphism into Aut(G) into an action via the evaluation action."""
    return GroupAction._trusted(rho.dom, ev.target, tuple(ev.act[rho.map[x]] for x in range(rho.dom.order)))
