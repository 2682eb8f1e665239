"""Exact finite-group kernel: Cayley tables, homomorphisms, actions, limits.

Every group is a multiplication table over element indices 0..order-1 with
the identity pinned at index 0.  Constructed groups (quotients, pullbacks,
semidirect products) carry a canonical element order so that equal inputs
produce bit-identical outputs.

The public constructors, ``FinGroup(...)`` included, check their input in
full.  Results that are groups, homomorphisms, actions or subgroups by
construction (quotients, products, projections, composites, kernels, search
results) skip the checks through the classmethod ``_trusted(...)``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from operator import eq, itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BoundExceeded, CodomainMismatch, ConstructionError, NotAGroup, NotNormal

DEFAULT_BOUND = 24
AUT_LIMIT = 336  # the most automorphisms automorphism_group tabulates, |Aut(Z2xZ2xZ2xZ3)|
# the innermost _run_memo() scope's memo, None outside one; each entry keeps its
# operands alive, so the ids in a key are not reused while the memo lives
_memo: ContextVar[Optional[dict]] = ContextVar("_memo", default=None)


@contextmanager
def _run_memo():
    """A scope, also a decorator, in which ``_per_operand`` results live."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _per_operand(f):
    """``f`` once per ids of its positional operands in a ``_run_memo()`` scope, else ``f``."""

    @wraps(f)
    def memoized(*operands):
        memo = _memo.get()
        if memo is None:
            return f(*operands)
        key = (f, *map(id, operands))
        return (memo.get(key) or memo.setdefault(key, (f(*operands), operands)))[0]

    return memoized


class FinGroup:
    """A finite group given by its Cayley table, identity at index 0.

    Equality is table equality; sameness up to relabeling is decided by
    :func:`isomorphism_search`.  The trusted constructions give element labels
    as a function, run on the first read of ``element_labels``, if ever.
    """

    __slots__ = ("order", "table", "name", "_labels", "inverse", "relabeling", "__dict__")

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G", element_labels: Optional[Sequence[str]] = None):
        self.order = len(table)
        self.table: tuple[tuple[int, ...], ...] = tuple(map(tuple, table))
        _check_group_table(self)
        self._table_defect = None
        self.name, self.relabeling = name, None
        # labels given as a function, as the trusted constructions give them, are read on first use
        self._labels = element_labels if element_labels is None or callable(element_labels) else tuple(element_labels)
        self.inverse = tuple([row.index(0) for row in self.table])

    @classmethod
    def _trusted(cls, table: Sequence[Sequence[int]], name: str, labels: Optional[Callable[[], Iterable[str]]] = None):
        """A group whose table is a group table by construction; rows may be lists."""
        G = object.__new__(cls)
        G.order, G.table = len(table), tuple(map(tuple, table))
        G.name, G._labels, G.relabeling = name, labels, None
        G.inverse = tuple([row.index(0) for row in G.table])
        return G

    @property
    def element_labels(self) -> Optional[tuple[str, ...]]:
        if callable(self._labels):
            self._labels = tuple(self._labels())
        return self._labels

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
        return tuple(_order(column, self.order) for column in zip(*self.table))

    @cached_property
    def _table_defect(self) -> Optional[str]:
        """Why the table is no group table, or None.  ``__init__`` has checked
        it; the table of a trusted construction is checked on first read."""
        try:
            _check_group_table(self)
        except NotAGroup as exc:
            return str(exc)
        return None

    @cached_property
    def element_invariants(self) -> tuple[tuple[int, int, int], ...]:
        """The triple (order x, |C(x)|, #{y : y^2 = x}) of each x in G.
        An isomorphism f keeps orders and maps C(x) onto C(f x) and the
        square roots of x onto those of f x, so it carries each element's
        triple to its image's.  |C(x)| counts the y where row x (x*y) and
        column x (y*x) agree; the square roots come from the diagonal."""
        t, roots = self.table, [0] * self.order
        for y, row in enumerate(t):
            roots[row[y]] += 1
        centralizers = [sum(map(eq, row, column)) for row, column in zip(t, zip(*t))]
        return tuple(zip(self.element_orders, centralizers, roots))

    @cached_property
    def class_invariant(self) -> tuple[tuple[int, int, int], ...]:
        """The sorted element invariants: isomorphic groups have equal ones."""
        return tuple(sorted(self.element_invariants))

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
    (Clifford-Preston, The Algebraic Theory of Semigroups I, 1.2).  Rows and
    columns are compared whole; a failing row is scanned for its first cell."""
    table, n = G.table, G.order
    if n == 0:
        raise NotAGroup("empty table")
    full = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != full or not set(map(type, row)) <= {int}:  # a bool or float may equal an int
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*table)):
        if set(column) != full:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
    identity = tuple(range(n))
    if table[0] != identity or next(zip(*table)) != identity:
        raise NotAGroup("index 0 is not a two-sided identity")
    if n == 1:
        return  # [[0]]; below, itemgetter of one index would return an int
    for s in _generators(G):
        # row xs of the table is row x read at the entries of row s
        ts = table[s]
        x_sy = itemgetter(*ts)
        for x, tx in enumerate(table):
            txs = table[tx[s]]
            if txs != x_sy(tx):
                y = next(y for y in range(n) if txs[y] != tx[ts[y]])
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
        if not _maps_into(row, n, n):
            x = next(x for x in row if type(x) is not int or not 0 <= x < n)
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
        # swap the identity into slot 0 by a transposition, its own inverse
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        rows = [[perm[rows[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
        if element_labels is not None:
            element_labels = [element_labels[perm[a]] for a in range(n)]
        relabeling = tuple(perm)
    group = FinGroup(rows, name, element_labels)
    group.relabeling = relabeling
    return group


# ---------------------------------------------------------------------------
# standard constructions used by tests, fixtures and the CLI


def trivial_group() -> FinGroup:
    return FinGroup._trusted([[0]], "1", lambda: ("1",))


def cyclic_group(n: int, name: Optional[str] = None) -> FinGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = lambda: (str(a) for a in range(n))
    return FinGroup._trusted(table, name or f"Z{n}", labels)


def symmetric_group(n: int) -> FinGroup:
    """S_n on tuples, identity first, remaining permutations in lex order."""
    perms = sorted(itertools.permutations(range(n)))
    return _permutation_group(perms, f"S{n}", lambda: ("".join(map(str, p)) for p in perms))


def _permutation_group(perms: Sequence[tuple[int, ...]], name: str, labels: Callable[[], Iterable[str]]) -> FinGroup:
    """The group of `perms`, a list closed under composition with the identity
    first, multiplied by (pq)(a) = p(q(a))."""
    pos = {p: i for i, p in enumerate(perms)}
    return FinGroup._trusted([[pos[tuple(map(p.__getitem__, q))] for q in perms] for p in perms], name, labels)


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
    return FinGroup._trusted(table, f"Dic{n}")


class _Trusted:
    """``cls._trusted(*fields)`` builds an instance whose invariants hold by
    construction without running ``__post_init__``, as ``FinGroup._trusted``
    builds a group without the table check.  Fields must already be in normal
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

    @classmethod
    def _trusted(cls, dom: FinGroup, cod: FinGroup, map: tuple[int, ...]) -> "GroupHom":
        """``_Trusted._trusted`` for the most often built record, its three fields stored directly."""
        h = object.__new__(cls)
        fields = h.__dict__
        fields["dom"], fields["cod"], fields["map"] = dom, cod, map
        return h

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if not _maps_into(self.map, self.dom.order, self.cod.order):
            raise ValueError("map is not one codomain element per domain element")
        defect = _hom_defect(self.dom, self.cod, self.map)
        if defect is not None:
            raise ValueError(f"map is not multiplicative at ({defect[0]},{defect[1]})")

    def then(self, g: "GroupHom") -> "GroupHom":
        """Composite 'self first, then g'."""
        if g.dom is not self.cod and g.dom != self.cod:
            raise CodomainMismatch("cannot compose: middle groups differ")
        return GroupHom._trusted(self.dom, g.cod, tuple(map(g.map.__getitem__, self.map)))

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.order

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.order

    @property
    def is_isomorphism(self) -> bool:
        return self.dom.order == self.cod.order and self.is_injective


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
        defect = _action_defect(self.actor, self.target, self.act)
        if defect is not None:
            raise ValueError(defect[1])


def _action_defect(actor: FinGroup, target: FinGroup, act) -> Optional[tuple[Any, str]]:
    """The first way the rows `act` (tuples) fail to be an action of `actor`
    on `target` by automorphisms, as (witness, reason), or None."""
    if len(act) != actor.order:
        return len(act), "one permutation per actor element required"
    n = target.order
    full = set(range(n))
    for x, p in enumerate(act):
        if set(p) != full or not set(map(type, p)) <= {int}:
            return x, f"act[{x}] is not a permutation of the target"
    if act[0] != tuple(range(n)):
        return 0, "act[identity] must be the identity permutation"
    # each generator acting by an automorphism and act[x*g] = act[x] o act[g] suffice
    at = actor.table
    for g in _generators(actor):
        p = act[g]
        defect = _hom_defect(target, target, p)
        if defect is not None:
            return (g, defect), f"act[{g}] is not an automorphism at ({defect[0]},{defect[1]})"
        for x in range(actor.order):
            q = act[x]
            if act[at[x][g]] != tuple(q[a] for a in p):
                return (x, g), f"act[{x}*{g}] != act[{x}] o act[{g}]"
    return None


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
        if self.elements and not _maps_into(self.elements, len(self.elements), self.ambient.order):
            raise ValueError("subgroup elements must be elements of the ambient group")
        elems = tuple(sorted(set(self.elements)))
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
        labels = lambda: (self.ambient.label(e) for e in elems)
        grp = FinGroup._trusted(table, name or f"{self.ambient.name}|sub{len(elems)}", labels)
        return grp, GroupHom._trusted(grp, self.ambient, elems)


def _close(G: FinGroup, span: set[int], gens: Sequence[int]) -> set[int]:
    """Grow `span`, the subgroup of G generated by gens[:-1], in place to
    <gens>.  It is closed under gens[:-1] and does not hold g = gens[-1], so
    what is new is its coset span*g and what that reaches."""
    t, g = G.table, gens[-1]
    frontier = [t[a][g] for a in span]
    span.update(frontier)
    while frontier:
        a = frontier.pop()
        for h in gens:
            b = t[a][h]
            if b not in span:
                span.add(b)
                frontier.append(b)
    return span


def _greedy_span(G: FinGroup, seq: Iterable[int]) -> tuple[list[int], set[int]]:
    """The greedy generators of `seq` in G, those outside the span of the ones
    before them, and their span; it stops once the span is G."""
    gens: list[int] = []
    span = {0}
    for a in seq:
        if a not in span:
            gens.append(a)
            if len(_close(G, span, gens)) == G.order:
                break
    return gens, span


def subgroup_generated(G: FinGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup._trusted(G, tuple(sorted(_greedy_span(G, gens)[1])))


def kernel(f: GroupHom) -> Subgroup:
    """The kernel subgroup {a : f(a) = 0}; always normal in the domain."""
    return Subgroup._trusted(f.dom, tuple(a for a in range(f.dom.order) if f.map[a] == 0))


def quotient(G: FinGroup, N: Subgroup) -> tuple[FinGroup, GroupHom]:
    """Quotient by a normal subgroup, cosets ordered by minimal representative:
    the pullback of G -> 1 <- 1 modulo {(n, 1) : n in N}."""
    if N.ambient != G:
        raise NotNormal("subgroup is not a subgroup of the given group")
    if not N.is_normal():
        raise NotNormal(f"subgroup {N.elements} is not normal in {G.name}")
    T = trivial_group()
    normal = [(n, 0) for n in N.elements]
    _, coset_of, _, Q = pullback_quotient(zero_hom(G, T), identity_hom(T), normal, f"{G.name}/N{N.order}", "[{}]")
    return Q, GroupHom._trusted(G, Q, tuple(coset_of))


# the map into a pullback induced by a pair of maps into its two factors
PairMap = Callable[[Sequence[int], Sequence[int]], tuple[int, ...]]


@_per_operand
def product_and_pullback(f: GroupHom, g: GroupHom) -> tuple[FinGroup, GroupHom, GroupHom, PairMap]:
    """The pullback {(a,c) : f(a)=g(c)} with its two projections and its pair
    map: ``pair(us, vs)`` is the element (u, v) of the pullback for each u, v
    of two equal-length sequences, the map into the pullback that (us, vs) induce.

    Taking both maps into the trivial group yields the direct product.
    """
    if f.cod != g.cod:
        raise CodomainMismatch(f"codomains differ: {f.cod.name} vs {g.cod.name}")
    return _pullback(f, g, f"PB({f.dom.name},{g.dom.name})")


def _pullback(f: GroupHom, g: GroupHom, name: str) -> tuple[FinGroup, GroupHom, GroupHom, PairMap]:
    """``product_and_pullback`` of maps with one codomain, unmemoized, named `name`."""
    pairs, _, pair, P = pullback_quotient(f, g, {(0, 0)}, name, "({},{})")
    proj1 = GroupHom._trusted(P, f.dom, tuple(a for a, _ in pairs))
    proj2 = GroupHom._trusted(P, g.dom, tuple(c for _, c in pairs))
    return P, proj1, proj2, pair


def pullback_quotient(
    f: GroupHom, g: GroupHom, normal: Collection[tuple[int, int]], name: str, label: str
) -> tuple[list[tuple[int, int]], list[int], PairMap, FinGroup]:
    """The pullback P = {(a,c) : f(a)=g(c)} modulo its normal subgroup N,
    given by its pairs and trusted to be normal, without P's table.

    Returns P's pairs in lexicographic order, the coset of each pair, the
    pair map, and P/N named `name`.  ``pair(us, vs)`` is the coset of each
    pair (u, v) of two equal-length sequences.  On operands off the butterfly
    axioms, a pair off P or a row of P/N without the identity raises
    ``ConstructionError`` with the message of the failed lookup.  Cosets are
    numbered by minimal pair index, and the coset of minimal pair (a, c) is
    labeled ``label.format(A.label(a), C.label(c))``, built on the first read
    of the quotient's ``element_labels``.  A trivial N needs no coset pass.
    """
    A, C = f.dom, g.dom
    nc, At, Ct = C.order, A.table, C.table
    fibres: dict[int, list[int]] = {}
    for c, y in enumerate(g.map):
        fibres.setdefault(y, []).append(c)
    pairs = [(a, c) for a, y in enumerate(f.map) for c in fibres.get(y, ())]
    pos: list[Optional[int]] = [None] * (A.order * nc)
    for i, (a, c) in enumerate(pairs):
        pos[a * nc + c] = i
    try:
        if len(normal) == 1:
            # a list, not a range: a lookup off P fails with the message compose-fault witnesses record
            coset_of, reps = list(range(len(pairs))), pairs
        else:
            coset_of, reps = [-1] * len(pairs), []
            for i, (a, c) in enumerate(pairs):
                if coset_of[i] == -1:
                    for na, nn in normal:
                        coset_of[pos[At[a][na] * nc + Ct[c][nn]]] = len(reps)
                    reps.append((a, c))
        rows = [(At[a], Ct[c]) for a, c in reps]
        table = [[coset_of[pos[ta[a2] * nc + tc[c2]]] for a2, c2 in reps] for ta, tc in rows]
        Q = FinGroup._trusted(table, name, lambda: (label.format(A.label(a), C.label(c)) for a, c in reps))
    except (TypeError, ValueError) as exc:  # a pair off P (pos is None), or a row of P/N without the identity
        raise ConstructionError(str(exc)) from exc

    # the flat index pos[a*|C| + c] of the pairs stays here: callers map in by pairs
    def pair(us: Sequence[int], vs: Sequence[int]) -> tuple[int, ...]:
        try:
            return tuple([coset_of[pos[u * nc + v]] for u, v in zip(us, vs)])
        except TypeError as exc:  # (u, v) is off P
            raise ConstructionError(str(exc)) from exc
    return pairs, coset_of, pair, Q


def _is_pullback(f: GroupHom, g: GroupHom, u: GroupHom, v: GroupHom) -> bool:
    """Whether x -> (u x, v x) is a bijection onto the pairs {(a,c) : f(a)=g(c)}
    of :func:`product_and_pullback`, i.e. the square f u = g v is a pullback.
    False, never an error, when f and g do not share a codomain."""
    if f.cod != g.cod:
        return False
    images = set(zip(u.map, v.map))
    pairs = {(a, c) for a, y in enumerate(f.map) for c, z in enumerate(g.map) if y == z}
    return len(images) == len(u.map) == len(v.map) and images == pairs


def direct_product(A: FinGroup, B: FinGroup) -> tuple[FinGroup, GroupHom, GroupHom, PairMap]:
    """A x B as the pullback over the trivial group, with its projections and
    pair map, built afresh: inside a ``_run_memo()`` scope it stores no
    entry, since its operands are new."""
    T = trivial_group()
    return _pullback(zero_hom(A, T), zero_hom(B, T), f"{A.name}x{B.name}")


def klein_four() -> FinGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))[0]


def semidirect_product(xi: GroupAction) -> tuple[FinGroup, GroupHom, GroupHom, GroupHom]:
    """G x| G0 with (a,x)(b,y) = (a*(x|>b), x*y): the twisted product of the
    action's permutations with f = 1.

    Returns the group plus the projection c, its section e, and the kernel
    inclusion g; the sequence G -> G x| G0 -> G0 is split exact.
    """
    G, G0 = xi.target, xi.actor
    n0 = G0.order
    gs, xs, pair = _twisted_index(G.order, G0.order)
    labels = lambda: (f"({G.label(a)},{G0.label(x)})" for a, x in zip(gs, xs))
    S, c, g = _twisted_product(G, G0, xi.act, ((0,) * n0,) * n0, f"{G.name}x|{G0.name}", labels)
    return S, c, GroupHom._trusted(G0, S, pair((0,) * n0, range(n0))), g


@lru_cache(maxsize=64)
def _twisted_index(n: int, nH: int) -> tuple[tuple[int, ...], tuple[int, ...], PairMap]:
    """The element order of every twisted product on G x H, |G| = n and |H| = nH,
    each crossed module's arrow group among them: each element's g and x, and the
    pair map, ``pair(gs, xs)`` the element (g, x) of each g, x of two equal-length
    sequences.  Only the constructions below also write (g, x) at g*|H| + x out."""
    pair = lambda gs, xs: tuple([g * nH + x for g, x in zip(gs, xs)])
    return tuple(g for g in range(n) for _ in range(nH)), tuple(range(nH)) * n, pair


def _twisted_pairs(
    G: FinGroup, H: FinGroup, perms: Sequence[Sequence[int]], f: Sequence[Sequence[int]], right: Iterable[int]
) -> list[list[tuple[int, int]]]:
    """The one product formula of the twisted product on G x H (``_twisted_index``)
    of the permutations perms[x] of G and the elements f[x][y] of G:

        (g1, x1)(g2, x2) = (g1 perms[x1](g2) f[x1][x2], x1 x2).

    Per x1 in H, the pair (g, x) of (1, x1) e2 for each element e2 in
    `right`; then (g1, x1) e2 = (g1 g, x).  The caller vouches that the data
    make a group: a normalized Schreier factor set, or an action with f = 1.
    """
    nH, Gt = H.order, G.table
    right = [divmod(e, nH) for e in right]
    return [[(Gt[p[g2]][fx[x2]], hx[x2]) for g2, x2 in right] for p, fx, hx in zip(perms, f, H.table)]


def _twisted_product(
    G: FinGroup, H: FinGroup, perms: Sequence[Sequence[int]], f: Sequence[Sequence[int]], name: str, labels=None
) -> tuple[FinGroup, GroupHom, GroupHom]:
    """The twisted product E of ``_twisted_pairs``, its projection
    (g, x) -> x onto H and its inclusion g -> (g, 1) of G.  E's table is
    built row by row: the row of (g1, x1) is the row of (1, x1) moved by
    (g, x) -> (g1 g, x)."""
    n, nH = G.order, H.order
    firsts = [[g * nH + x for g, x in r] for r in _twisted_pairs(G, H, perms, f, range(n * nH))]
    moves = [[g * nH + x for g in tg for x in range(nH)] for tg in G.table]
    E = FinGroup._trusted([list(map(move.__getitem__, r)) for move in moves for r in firsts], name, labels)
    _, xs, pair = _twisted_index(n, nH)
    return E, GroupHom._trusted(E, H, xs), GroupHom._trusted(G, E, pair(range(n), (0,) * n))


def _twisted_columns(G: FinGroup, H: FinGroup, perms, f, gens: Sequence[int]) -> _Columns:
    """The generator-columns record of the twisted product of ``_twisted_pairs``
    (perms and f as there) for the generating sequence `gens`: only their
    columns, not the table."""
    nH = H.order
    pairs = _twisted_pairs(G, H, perms, f, gens)
    # the column of e2 holds (g1, x1) e2 = (g1 g, x) for the (g, x) = (1, x1) e2 of each x1
    columns = [[tg[g] * nH + x for tg in G.table for g, x in col] for col in zip(*pairs)]
    return _columns_record(G.order * nH, gens, columns)


# ---------------------------------------------------------------------------
# searches


def _generating_sequence(G: FinGroup, first: Iterable[int] = ()) -> list[int]:
    """Greedy generators of G: each element of `first`, then of 0..order-1,
    that lies outside the span of those taken before it."""
    return _greedy_span(G, itertools.chain(first, range(G.order)))[0]


class _Columns(NamedTuple):
    """A group as the homomorphism search reads it: its order, a generating
    sequence, the column a -> a*g of each generator g, and each generator's
    order.  A group that is never tabulated in full can be searched from
    this record alone."""

    order: int
    gens: tuple[int, ...]
    columns: tuple[Sequence[int], ...]
    orders: tuple[int, ...]


def _columns_record(order: int, gens: Sequence[int], columns: Sequence[Sequence[int]]) -> _Columns:
    """The record of a group of `order` elements with generating sequence
    `gens` and their columns; each order is read off its column."""
    return _Columns(order, tuple(gens), tuple(columns), tuple(_order(col, order) for col in columns))


def _order(column: Sequence[int], n: int) -> int:
    """The order of g, read off its column x -> x*g in a group of n elements:
    the least k >= 1 with g^k = 1.  A column of a table that is no group
    table may never reach 1, so the walk stops after n steps."""
    x = column[0]
    for k in range(1, n + 1):
        if not x:
            return k
        x = column[x]
    raise NotAGroup(f"element {column[0]} has no order <= {n}")


def _columns(G: FinGroup, first: tuple[int, ...] = ()) -> _Columns:
    """The generator-columns record of G with `first` entering first, memoized on G."""
    memo = G.__dict__.setdefault("_columns", {})
    if first not in memo:
        gens = _generating_sequence(G, first)
        memo[first] = _columns_record(G.order, gens, [[row[g] for row in G.table] for g in gens])
    return memo[first]


def _generators(G: FinGroup) -> tuple[int, ...]:
    """The greedy generating sequence of G, memoized on G."""
    return _columns(G).gens


def _maps_into(m: Sequence[int], n: int, k: int) -> bool:
    """Whether m holds one int in range(k) for each of n >= 1 domain elements."""
    return len(m) == n and set(map(type, m)) <= {int} and min(m) >= 0 and max(m) < k


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


def _extend_hom(src: _Columns, H: FinGroup, images: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Grow a partial map on the generators of `src` to a full map, or detect
    inconsistency.

    The closure sets m(a*g) = m(a)*h for every element a and generator g and
    rejects any conflict, so a returned map is a homomorphism.
    """
    m = [-1] * src.order
    m[0] = 0
    for g, h in zip(src.gens, images):
        m[g] = h
    steps = list(zip(src.columns, images))
    frontier = [0, *src.gens]
    while frontier:
        a = frontier.pop()
        row = H.table[m[a]]
        for col, h in steps:
            b, image = col[a], row[h]
            if m[b] == -1:
                m[b] = image
                frontier.append(b)
            elif m[b] != image:
                return None
    return tuple(m)


def _generator_images(
    G: FinGroup | _Columns,
    H: FinGroup,
    bijective: bool,
    fixed: Sequence[tuple[int, int]] = (),
    accept: Optional[Callable[[int, int], bool]] = None,
) -> Iterator[tuple[int, ...]]:
    """Every homomorphism G -> H (only the bijections when `bijective`), as maps,
    in lexicographic order.

    The source is read only through its generator-columns record
    (:class:`_Columns`): its order, its generating sequence, each
    generator's column a -> a*g, which is all the closure of
    :func:`_extend_hom` reads, and each generator's order.  G may be a group,
    whose record is memoized on it with the elements of `fixed` entering
    first, or a record of a group that is not tabulated, whose sequence must
    be the one that group would give, ``_generating_sequence(G, elements of
    fixed)``.  The target H is a group.

    A generator's image must have order dividing its own (equal for
    bijections) and pass `accept(generator, image)` when given.  Each pair
    (a, b) of `fixed` forces m(a) = b.  Those elements enter the generating
    sequence first, and every later generator is the least element outside
    the span of the ones before it, so lexicographic order on generator
    images is lexicographic order on maps.
    """
    forced = dict(fixed)
    src = G if isinstance(G, _Columns) else _columns(G, tuple(forced))
    ho = H.element_orders
    candidates = [
        [
            b
            for b in ((forced[g],) if g in forced else range(H.order))
            if (ho[b] == o if bijective else o % ho[b] == 0)
            and (accept is None or accept(g, b))
        ]
        for g, o in zip(src.gens, src.orders)
    ]
    for images in itertools.product(*candidates):
        m = _extend_hom(src, H, images)
        if (
            m is not None
            and (not bijective or len(set(m)) == src.order)
            and all(m[a] == b for a, b in fixed)
        ):
            yield m


@_per_operand
def all_homomorphisms(G: FinGroup, H: FinGroup) -> list[GroupHom]:
    """Every homomorphism G -> H, in a deterministic order; in a run scope,
    one list per pair of operands, which callers must not change."""
    return [GroupHom._trusted(G, H, m) for m in _generator_images(G, H, bijective=False)]


def isomorphism_search(
    G: FinGroup, H: FinGroup, bound: int = DEFAULT_BOUND
) -> Optional[GroupHom]:
    """The first isomorphism G -> H in lexicographic order, or None.

    Groups with different class invariants are not searched, and a
    generator's candidate images are only the elements with its element
    invariant.  Every isomorphism keeps those, so the first one's generator
    images pass the filter, and every map before it failed without it: the
    pruning cannot change the witness."""
    if G.order > bound or H.order > bound:
        raise BoundExceeded("isomorphism_search", max(G.order, H.order), bound)
    if G.order != H.order or G.class_invariant != H.class_invariant:
        return None
    eG, eH = G.element_invariants, H.element_invariants
    m = next(_generator_images(G, H, bijective=True, accept=lambda a, b: eG[a] == eH[b]), None)
    return None if m is None else GroupHom._trusted(G, H, m)


def automorphism_group(G: FinGroup) -> tuple[FinGroup, GroupAction]:
    """Aut(G) as a group over the canonically ordered automorphism list.

    Multiplication is composition: (alpha * beta)(a) = alpha(beta(a)), so the
    evaluation action satisfies act[x*y] = act[x] o act[y].
    """
    if G.order > DEFAULT_BOUND:
        raise BoundExceeded("automorphism_group", G.order, DEFAULT_BOUND)
    autos = sorted(_generator_images(G, G, bijective=True))
    if len(autos) > AUT_LIMIT:
        raise BoundExceeded(f"automorphism_group: automorphisms of {G.name}", len(autos), AUT_LIMIT)
    labels = lambda: ("id" if p == tuple(range(G.order)) else "f" + "".join(map(str, p)) for p in autos)
    A = _permutation_group(autos, f"Aut({G.name})", labels)
    return A, GroupAction._trusted(A, G, tuple(autos))
