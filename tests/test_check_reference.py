"""The generator-based exactness checks, checked against the pairwise ones
they replaced.

``GroupHom``, ``GroupAction``, ``Subgroup`` and the group-table check now
test multiplicativity and associativity on a generating sequence only.  The
reference checkers below are the former exhaustive ones: the O(n^2)
homomorphism test, the O(n^3) associativity test, the action test over every
pair of actor elements and the subgroup test over every pair of elements.
Both must give the same verdict on fixture data, on corrupted copies of it,
and on every small case enumerated outright.

The weak-map boundary is checked the same way: the limit butterfly of a
monoidal functor is now built unchecked behind :func:`check_monoidal`, and
the former fully checked assembly is kept here as its oracle.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from helpers import ONE, S3, V4, Z2, Z3, Z4

from butterflies import cli, jsonio
from butterflies.butterfly import Butterfly, validate_butterfly
from butterflies.errors import GroupLawSearchFailed, NotAGroup
from butterflies.fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    all_homomorphisms,
    construct_group,
    cyclic_group,
    dicyclic_group,
    direct_product,
    kernel,
    semidirect_product,
)
from butterflies.laws import generate_fixtures
from butterflies.weakmap import (
    MonoidalFunctor,
    _limit_triples,
    all_set_sections,
    butterfly_from_monoidal,
    check_monoidal,
    extract_monoidal,
)
from butterflies.xmod import Strict2Group, denormalize, normalize

CASES = [(seed, bound) for seed in range(4) for bound in (8, 16)]


# ---------------------------------------------------------------------------
# the former exhaustive checkers


def cubic_group_table(table) -> bool:
    n = len(table)
    full = set(range(n))
    if n == 0 or any(len(row) != n or set(row) != full for row in table):
        return False
    if any({table[i][j] for i in range(n)} != full for j in range(n)):
        return False
    if any(table[0][a] != a or table[a][0] != a for a in range(n)):
        return False
    r = range(n)
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in r for b in r for c in r)


def pairwise_hom(G: FinGroup, H: FinGroup, m) -> bool:
    t, u, r = G.table, H.table, range(G.order)
    return m[0] == 0 and all(m[t[a][b]] == u[m[a]][m[b]] for a in r for b in r)


def pairwise_action(actor: FinGroup, target: FinGroup, act) -> bool:
    n, t, r = target.order, target.table, range(target.order)
    if any(sorted(p) != list(r) for p in act) or tuple(act[0]) != tuple(r):
        return False
    if not all(p[t[a][b]] == t[p[a]][p[b]] for p in act for a in r for b in r):
        return False
    at, ra = actor.table, range(actor.order)
    return all(tuple(act[at[x][y]]) == tuple(act[x][act[y][a]] for a in range(n)) for x in ra for y in ra)


def pairwise_subgroup(G: FinGroup, elements) -> bool:
    s = set(elements)
    return 0 in s and all(G.inv(a) in s and all(G.table[a][b] in s for b in s) for a in s)


def accepts(build) -> bool:
    try:
        build()
    except (ValueError, NotAGroup):
        return False
    return True


def agree_on_hom(G, H, m) -> bool:
    return accepts(lambda: GroupHom(G, H, m)) == pairwise_hom(G, H, m)


def agree_on_action(actor, target, act) -> bool:
    return accepts(lambda: GroupAction(actor, target, act)) == pairwise_action(actor, target, act)


def agree_on_table(table) -> bool:
    return accepts(lambda: FinGroup(table)) == cubic_group_table(table)


# ---------------------------------------------------------------------------
# fixture data and corrupted copies of it


def fixture_data(seed: int, bound: int):
    """The group tables, homomorphisms and actions of a fixture set."""
    fx = generate_fixtures(seed, bound)
    groups, homs, actions = {}, [], []
    for X in fx.crossed_modules:
        for G in (X.G, X.G0, denormalize(X).G1):
            groups[G.table] = G
        homs.append(X.boundary)
        actions.append(X.action)
    for B in fx.butterflies:
        groups[B.E.table] = B.E
        homs += [B.kappa, B.iota, B.sigma, B.rho]
    for P in fx.morphisms:
        homs += [P.p, P.p0]
    return list(groups.values()), homs, actions


@pytest.mark.parametrize("seed, bound", CASES)
def test_fixture_checks_agree(seed, bound):
    rng = random.Random(seed * 100 + bound)
    groups, homs, actions = fixture_data(seed, bound)
    for G in groups:
        rows = [list(r) for r in G.table]
        assert agree_on_table(rows)
        n = G.order
        if n > 2:
            a, b, c = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, n)
            swapped = [list(r) for r in rows]
            swapped[a][b], swapped[a][c] = swapped[a][c], swapped[a][b]
            assert agree_on_table(swapped)
            permuted = [list(r) for r in rows]
            permuted[a] = rng.sample(permuted[a], n)
            assert agree_on_table(permuted)
    for f in homs:
        assert pairwise_hom(f.dom, f.cod, f.map) and agree_on_hom(f.dom, f.cod, f.map)
        for _ in range(3):
            m = list(f.map)
            m[rng.randrange(f.dom.order)] = rng.randrange(f.cod.order)
            assert agree_on_hom(f.dom, f.cod, m)
    for xi in actions:
        assert agree_on_action(xi.actor, xi.target, xi.act)
        for _ in range(3):
            act = [list(p) for p in xi.act]
            x, a, b = rng.randrange(xi.actor.order), rng.randrange(xi.target.order), rng.randrange(xi.target.order)
            act[x][a], act[x][b] = act[x][b], act[x][a]
            assert agree_on_action(xi.actor, xi.target, act)
            act = [list(p) for p in xi.act]
            act[x] = list(xi.act[rng.randrange(xi.actor.order)])
            assert agree_on_action(xi.actor, xi.target, act)


# ---------------------------------------------------------------------------
# small cases, enumerated outright


def reduced_latin_squares(n: int):
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1."""
    square = [[i if j == 0 else j if i == 0 else -1 for j in range(n)] for i in range(n)]
    rows = [set(r) - {-1} for r in square]
    cols = [set(c) - {-1} for c in zip(*square)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [list(r) for r in square]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in rows[i] and v not in cols[j]:
                square[i][j] = v
                rows[i].add(v)
                cols[j].add(v)
                yield from fill(k + 1)
                rows[i].discard(v)
                cols[j].discard(v)

    return fill(0)


def test_reduced_latin_squares_agree():
    squares, groups = Counter(), Counter()
    for n in range(1, 7):
        for table in reduced_latin_squares(n):
            verdict = cubic_group_table(table)
            assert accepts(lambda: FinGroup(table)) == verdict
            squares[n] += 1
            groups[n] += verdict
    assert squares == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}
    assert groups == {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 80}


def test_every_normalized_map_between_small_groups_agrees():
    small = (ONE, Z2, Z3, Z4, V4)
    for G in small:
        for H in small:
            homs = 0
            for tail in itertools.product(range(H.order), repeat=G.order - 1):
                m = (0,) + tail
                assert agree_on_hom(G, H, m)
                homs += pairwise_hom(G, H, m)
            assert homs == len(all_homomorphisms(G, H))


def test_every_v4_action_on_v4_agrees():
    perms = list(itertools.permutations(range(4)))
    identity = tuple(range(4))
    actions = 0
    for rest in itertools.product(perms, repeat=3):
        act = (identity,) + rest
        assert agree_on_action(V4, V4, act)
        actions += pairwise_action(V4, V4, act)
    # one action per homomorphism V4 -> Aut(V4) = S3
    assert actions == 10


def groups_of_order_at_most_8():
    D4 = semidirect_product(GroupAction(Z2, Z4, ((0, 1, 2, 3), (0, 3, 2, 1))))[0]
    Z2xZ4 = direct_product(Z2, Z4)[0]
    return [ONE, S3, V4, D4, Z2xZ4, direct_product(V4, Z2)[0], dicyclic_group(2)] + [
        cyclic_group(n) for n in range(2, 9)
    ]


def test_every_subset_of_small_groups_agrees():
    subgroups = 0
    for G in groups_of_order_at_most_8():
        for mask in range(2 ** (G.order - 1)):
            elements = (0,) + tuple(a for a in range(1, G.order) if mask >> (a - 1) & 1)
            verdict = pairwise_subgroup(G, elements)
            assert accepts(lambda: Subgroup(G, elements)) == verdict
            subgroups += verdict
    # 1 + 6 + 5 + 10 + 8 + 16 + 6, then Z2..Z8
    assert subgroups == 52 + 2 + 2 + 3 + 2 + 4 + 2 + 4


# ---------------------------------------------------------------------------
# the weak-map boundary


def checked_butterfly_from_monoidal(M: MonoidalFunctor) -> Butterfly:
    """The limit butterfly of M with every inner check the assembly ran
    before it trusted :func:`check_monoidal`."""
    report = check_monoidal(M)
    if not report.ok:
        raise GroupLawSearchFailed(f"functor is not monoidal:\n{report}")
    T, U = M.dom, M.cod
    dom, cod = normalize(T), normalize(U)
    triples, pos = _limit_triples(M)
    u1, t0, u0 = U.G1.table, T.G0.table, U.G0.table
    table = []
    for (y1, g1, x1) in triples:
        row = []
        for (y2, g2, x2) in triples:
            product = (t0[y1][y2], U.m[(u1[g1][g2], M.F2[y1][y2])], u0[x1][x2])
            if product not in pos:
                raise GroupLawSearchFailed(f"product of triples leaves the limit at {product}")
            row.append(pos[product])
        table.append(row)
    if not cubic_group_table(table):
        raise GroupLawSearchFailed("triple multiplication is not a group law")
    P0 = construct_group(table, f"P0({T.G1.name}->{U.G1.name})")
    maps = {
        "sigma": (P0, T.G0, tuple(y for (y, _, _) in triples)),
        "rho": (P0, U.G0, tuple(x for (_, _, x) in triples)),
        "kappa": (dom.G, P0, tuple(pos.get((T.d.map[h], M.F1[T.i.map[h]], 0)) for h in kernel(T.c).elements)),
        "iota": (cod.G, P0, tuple(pos.get((0, g, U.d.map[g])) for g in kernel(U.c).elements)),
    }
    for name, (G, H, m) in maps.items():
        if None in m or not pairwise_hom(G, H, m):
            raise GroupLawSearchFailed(f"{name} fails on the limit")
    B = Butterfly(dom, cod, P0, *(GroupHom(*maps[k]) for k in ("kappa", "iota", "sigma", "rho")))
    final = validate_butterfly(B)
    if not final.ok:
        raise GroupLawSearchFailed(f"limit butterfly fails validation:\n{final}")
    return B


def same_limit(M: MonoidalFunctor) -> bool:
    new, old = butterfly_from_monoidal(M), checked_butterfly_from_monoidal(M)
    return jsonio.canonical_bytes(jsonio.to_jsonable(new)) == jsonio.canonical_bytes(jsonio.to_jsonable(old))


@pytest.mark.parametrize("seed, bound", CASES)
def test_extracted_functors_assemble_as_checked(seed, bound):
    for B in generate_fixtures(seed, bound).butterflies:
        for s in all_set_sections(B):
            M = extract_monoidal(B, s)
            assert check_monoidal(M).ok
            assert same_limit(M)


def monoidal_functors(T: Strict2Group, U: Strict2Group):
    """Every normalized monoidal functor T -> U: F0 normalized, F1 and F2
    ranging over the matching hom-sets, kept when check_monoidal passes."""
    n0 = T.G0.order
    t0, u0 = T.G0.table, U.G0.table
    for tail in itertools.product(range(U.G0.order), repeat=n0 - 1):
        F0 = (0,) + tail
        arrows = [U.hom_set(F0[T.d.map[u]], F0[T.c.map[u]]) for u in range(T.G1.order)]
        cells = [
            [U.e.map[F0[t0[x][y]]]] if x == 0 or y == 0 else U.hom_set(u0[F0[x]][F0[y]], F0[t0[x][y]])
            for x in range(n0)
            for y in range(n0)
        ]
        for F1 in itertools.product(*arrows):
            for flat in itertools.product(*cells):
                F2 = tuple(flat[x * n0 : (x + 1) * n0] for x in range(n0))
                M = MonoidalFunctor(T, U, F0, F1, F2)
                if check_monoidal(M).ok:
                    yield M


def test_small_functors_assemble_as_checked():
    two_groups = {}
    for seed, bound in CASES:
        for X in generate_fixtures(seed, bound).crossed_modules:
            T = denormalize(X)
            if T.G1.order <= 4:
                two_groups[jsonio.canonical_bytes(jsonio.to_jsonable(T))] = T
    assert len(two_groups) == 6
    functors = [M for T in two_groups.values() for U in two_groups.values() for M in monoidal_functors(T, U)]
    assert len(functors) == 118
    for M in functors:
        assert same_limit(M)


def s3_over_a_point() -> MonoidalFunctor:
    """M: 1 -> (S3 => 1).  Every functor condition holds, but the codomain
    is no 2-group: ker d = ker c = S3 is not abelian."""
    one, point = GroupHom(ONE, ONE, (0,)), GroupHom(S3, ONE, (0,) * 6)
    T = Strict2Group(ONE, ONE, one, one, one)
    U = Strict2Group(S3, ONE, point, point, GroupHom(ONE, S3, (0,)))
    return MonoidalFunctor(T, U, (0,), (0,), ((0,),))


def test_functor_into_a_non_two_group_rejected(tmp_path, capsys):
    M = s3_over_a_point()
    assert check_monoidal(M).conditions() == {"underlying-2group:interchange"}
    with pytest.raises(GroupLawSearchFailed):
        butterfly_from_monoidal(M)
    path = tmp_path / "m.json"
    path.write_text(jsonio.canonical_bytes(jsonio.to_jsonable(M)).decode())
    ws = str(tmp_path / "store")
    assert cli.main(["--workspace", ws, "validate", str(path)]) == 1
    assert "underlying-2group:interchange" in capsys.readouterr().out
    assert cli.main(["--workspace", ws, "weakmap", "assemble", str(path)]) == 1
    assert "GroupLawSearchFailed" in capsys.readouterr().err
