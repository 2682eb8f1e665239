"""Each construction stated once, checked against the copies it replaced.

``quotient`` is the pullback quotient of G -> 1 <- 1, the semidirect product
and the Schreier reconstruction are one twisted product, and ``to_fractor``'s
rho-bar, EF3's comparison arrows and ``extract_monoidal``'s F1 and F2 read
one arrow map, ``butterfly._arrows``.  The arrows of a crossed module's
2-group are indexed by ``fingroup._twisted_index`` alone: the kernel and
cokernel embeddings are division arrows, and ``denormalize``'s d,
``denormalize_morphism``'s arrow map and the round trip's comparison read
their pairs from it.  The former separate loops, the index (a, x) ->
a*|G0| + x written out in those of the 2-group, are kept below verbatim as
oracles, and each result must equal its oracle in table, labels, name and
maps on:

- every normal subgroup of the catalog groups of order at most 16;
- every fixture action, and every action of the catalog: the ones that
  build its semidirect products, conjugation in each catalog group, and
  Aut(G) on G for the catalog groups of order at most 8;
- every cocycle of the classification grid;
- every fixture butterfly at bounds 8 and 16, with each of its set sections;
  its span's action of E on H x G, read off axioms iii and iv, equals the
  former conjugation in E;
- every fixture crossed module, morphism and 2-cell at bounds 8 and 16, and
  the round trip of the 2-group of each fixture crossed module.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools

import pytest

from helpers import GRID, GRID_BOUND, S3, Z3, Z4, grid_groups

from butterflies.butterfly import (
    _arrows,
    butterfly_morphism,
    identity_butterfly,
    reduced_compose,
    span_of_butterfly,
    to_fractor,
)
from butterflies.errors import ConstructionError
from butterflies.extension import (
    aut_xmod,
    conjugation_xmod,
    enumerate_cocycles,
    factor_set_to_extension,
    standard_catalog,
)
from butterflies.fingroup import (
    FinGroup,
    GroupAction,
    GroupHom,
    _hom_defect,
    automorphism_group,
    conjugation_action,
    cyclic_group,
    direct_product,
    kernel,
    product_and_pullback,
    quotient,
    semidirect_product,
    subgroup_generated,
)
from butterflies.laws import ef3_coincidence, generate_fixtures
from butterflies.weakmap import all_set_sections, extract_monoidal
from butterflies.xmod import (
    cokernel_embedding,
    denormalization_round_trip_iso,
    denormalize,
    denormalize_morphism,
    kernel_embedding,
    normalize,
    pointwise_division_arrow,
    validate_two_group,
)

CASES = [(seed, bound) for seed in range(4) for bound in (8, 16)]
CATALOG = [K for order in range(1, 17) for _, K in standard_catalog(order)]


def reference_quotient(G, N):
    """``quotient`` as it numbered the cosets itself, after its two checks."""
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
    labels = lambda: (f"[{G.label(r)}]" for r in reps)
    Q = FinGroup._trusted(table, f"{G.name}/N{N.order}", labels)
    return Q, GroupHom._trusted(G, Q, tuple(coset_of))


def reference_semidirect_product(xi):
    """``semidirect_product`` with its own product loop."""
    G, G0 = xi.target, xi.actor
    n, n0 = G.order, G0.order
    table = []
    for a in range(n):
        ta = G.table[a]
        for x in range(n0):
            # row (a,x) is, for each b, the offset of a*(x|>b) plus the row of x in G0
            offsets = [ta[xb] * n0 for xb in xi.act[x]]
            table.append([offset + y for offset in offsets for y in G0.table[x]])
    labels = lambda: (f"({G.label(a)},{G0.label(x)})" for a in range(n) for x in range(n0))
    S = FinGroup._trusted(table, f"{G.name}x|{G0.name}", labels)
    c = GroupHom._trusted(S, G0, tuple(x for _ in range(n) for x in range(n0)))
    e = GroupHom._trusted(G0, S, tuple(range(n0)))
    g = GroupHom._trusted(G, S, tuple(a * n0 for a in range(n)))
    return S, c, e, g


def reference_factor_set_to_extension(fs):
    """The twisted product, iota and sigma of ``factor_set_to_extension`` with
    their own product formula."""
    H, G = fs.H, fs.G
    nH, Gt = H.order, G.table
    act = aut_xmod(fs.G).action.act
    twists = [(act[p], fx, hx) for p, fx, hx in zip(fs.phi, fs.f, fs.H.table)]
    # row (g1, x1) holds (g1 phi(x1)(g2) f(x1, x2), x1 x2) for each (g2, x2)
    table = [
        [Gt[tg[t]][f] * nH + x for t in twist for f, x in zip(fx, hx)] for tg in Gt for twist, fx, hx in twists
    ]
    E = FinGroup._trusted(table, f"E({G.name},{H.name})")
    iota = GroupHom._trusted(G, E, tuple(g * nH for g in range(G.order)))
    sigma = GroupHom._trusted(E, H, tuple(x for g in range(G.order) for x in range(nH)))
    return E, iota, sigma


def reference_rho_bar(B, pr1, pr2):
    """``to_fractor``'s rho-bar over the kernel pair with projections pr1, pr2."""
    E = B.E
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    nG0 = B.cod.G0.order
    rho_bar_map = []
    for a in range(len(pr1.map)):
        e1, e2 = pr1.map[a], pr2.map[a]
        g = iota_inv[E.table[e1][E.inv(e2)]]
        rho_bar_map.append(g * nG0 + B.rho.map[e2])
    return tuple(rho_bar_map)


def reference_ef3_coincidence(B) -> bool:
    """``laws.ef3_coincidence`` with its own comparison arrows."""
    _, left, right = span_of_butterfly(B)
    I = identity_butterfly(B.cod)
    L = reduced_compose(left, B)
    R = reduced_compose(right, I)
    E = B.E
    LP, l1, l2, _ = product_and_pullback(B.sigma, B.sigma)
    RP, _, _, pairR = product_and_pullback(B.rho, I.sigma)
    if L.E != LP or R.E != RP:
        return False
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    nG0 = B.cod.G0.order
    arrows = []
    for e1, e2 in zip(l1.map, l2.map):
        g = iota_inv.get(E.table[e2][E.inv(e1)])
        if g is None:
            return False
        arrows.append(g * nG0 + B.rho.map[e1])
    theta = pairR(l1.map, arrows)
    if _hom_defect(L.E, R.E, theta) is not None:
        return False
    try:  # a bijection commuting with both wings and both legs
        butterfly_morphism(L, R, GroupHom._trusted(L.E, R.E, theta))
    except ConstructionError:
        return False
    return True


def reference_span_action(B):
    """``span_of_butterfly``'s action of E on H x G, found by conjugating in E."""
    E, H, G = B.E, B.dom.G, B.cod.G
    k, i = B.kappa.map, B.iota.map
    HxG, piH, piG, pair = direct_product(H, G)
    phi = GroupHom._trusted(HxG, E, tuple(E.table[k[h]][i[g]] for h, g in zip(piH.map, piG.map)))
    iota_inv = {e: g for g, e in enumerate(i)}
    perms = []
    for e in range(E.order):
        # e sends (h, g) to (h2, g2) with h2 = sigma(e)|>h and kappa(h2) iota(g2) = e phi(h, g) e^-1
        hs = [B.dom.act(B.sigma.map[e], h) for h in piH.map]
        gs = [iota_inv[E.table[E.inv(k[h2])][E.conj(e, x)]] for h2, x in zip(hs, phi.map)]
        perms.append(pair(hs, gs))
    return tuple(perms)


def reference_monoidal_components(B, s):
    """``extract_monoidal``'s F0, F1 and F2 loops along the section s."""
    E, H0, G0 = B.E, B.dom.G0, B.cod.G0
    k, r = B.kappa.map, B.rho.map
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    bd = B.dom.boundary.map
    F0 = tuple(r[s[x]] for x in range(H0.order))
    nG0 = G0.order
    F1 = []
    for h in range(B.dom.G.order):
        for x in range(H0.order):
            value = E.table[E.table[E.inv(k[h])][s[H0.table[bd[h]][x]]]][E.inv(s[x])]
            F1.append(iota_inv[value] * nG0 + F0[x])
    F2 = []
    for x in range(H0.order):
        row = []
        for y in range(H0.order):
            xy = H0.table[x][y]
            value = E.table[E.table[s[x]][s[y]]][E.inv(s[xy])]
            row.append(iota_inv[value] * nG0 + r[s[xy]])
        F2.append(tuple(row))
    return F0, tuple(F1), tuple(F2)


def reference_kernel_embedding(X):
    """``kernel_embedding`` with its own index."""
    T = denormalize(X)
    n0 = X.G0.order
    return GroupHom._trusted(X.G, T.G1, tuple(a * n0 for a in range(X.G.order)))


def reference_cokernel_embedding(X):
    """``cokernel_embedding`` with its own index."""
    T = denormalize(X)
    n0 = X.G0.order
    bd = X.boundary.map
    return GroupHom._trusted(
        X.G, T.G1, tuple(X.G.inv(a) * n0 + bd[a] for a in range(X.G.order))
    )


def reference_pointwise_division_arrow(X, a: int, b: int) -> int:
    """``pointwise_division_arrow`` on one pair, with its own index."""
    n0 = X.G0.order
    return X.G.table[a][X.G.inv(b)] * n0 + X.boundary.map[b]


def reference_denormalize_d(X) -> tuple[int, ...]:
    """The source map d of ``denormalize(X)``, its loops nested in index order."""
    t0, bd = X.G0.table, X.boundary.map
    return tuple(t0[bd[a]][x] for a in range(X.G.order) for x in range(X.G0.order))


def reference_denormalize_morphism_p1(P) -> tuple[int, ...]:
    """The arrow map of ``denormalize_morphism(P)`` with its own index."""
    # (h, x) -> (p h, p0 x), in the index order (h, x) at h*|H0| + x of both arrow groups
    return tuple(ph * P.cod.G0.order + px for ph in P.p.map for px in P.p0.map)


def reference_round_trip_f1(T) -> tuple[int, ...]:
    """The arrow map of ``denormalization_round_trip_iso(T)`` with its own index."""
    X = normalize(T)
    U = denormalize(X)
    K = kernel(T.c)
    n0 = X.G0.order
    t1 = T.G1.table
    f1_map = [0] * U.G1.order
    for k, el in enumerate(K.elements):
        for x in range(n0):
            f1_map[k * n0 + x] = t1[el][T.e.map[x]]
    return tuple(f1_map)


def same_group(G, K) -> bool:
    return (G.table, G.element_labels, G.name) == (K.table, K.element_labels, K.name)


def same_hom(f, g) -> bool:
    return f.map == g.map and same_group(f.dom, g.dom) and same_group(f.cod, g.cod)


def subgroups(G):
    """Every subgroup of G, grown from the trivial one an element at a time."""
    found, frontier = set(), [(0,)]
    while frontier:
        S = frontier.pop()
        if S not in found:
            found.add(S)
            frontier += [subgroup_generated(G, (*S, a)).elements for a in range(G.order) if a not in S]
    return [subgroup_generated(G, S) for S in sorted(found)]


def test_quotient_equals_coset_loop_on_every_normal_subgroup():
    count = 0
    for G in CATALOG:
        for N in subgroups(G):
            if N.is_normal():
                (Q, pr), (Q0, pr0) = quotient(G, N), reference_quotient(G, N)
                assert same_group(Q, Q0) and same_hom(pr, pr0)
                count += 1
    assert count == 330


def former_catalog_actions() -> dict[str, GroupAction]:
    """The actions whose semidirect products the catalog names, as the
    catalog wrote them out."""
    out = {}
    for n in range(2, 9):
        Zn = cyclic_group(n)
        out[f"D{n}"] = GroupAction(cyclic_group(2), Zn, (tuple(range(n)), tuple((-a) % n for a in range(n))))
    V4 = direct_product(cyclic_group(2), cyclic_group(2))[0]
    autV4, ev = automorphism_group(V4)
    three = next(i for i in range(6) if autV4.element_orders[i] == 3)
    rot = GroupHom(cyclic_group(3), autV4, (0, three, autV4.table[three][three]))
    out["A4"] = GroupAction(cyclic_group(3), V4, tuple(ev.act[rot.map[x]] for x in range(3)))
    Z8 = cyclic_group(8)
    for name, mult in (("SD16", 3), ("M16", 5)):
        out[name] = GroupAction(cyclic_group(2), Z8, (tuple(range(8)), tuple((mult * a) % 8 for a in range(8))))
    Z4 = cyclic_group(4)
    out["Z4:Z4"] = GroupAction(
        Z4, Z4, tuple(tuple(a if x % 2 == 0 else (-a) % 4 for a in range(4)) for x in range(4))
    )
    return out


def test_semidirect_product_equals_product_loop():
    # the catalog's actions, conjugation in each catalog group, Aut(G) on G
    # for the catalog groups of order at most 8, and every fixture action
    actions = list(former_catalog_actions().values())
    actions += [conjugation_action(K) for K in CATALOG]
    actions += [aut_xmod(K).action for K in CATALOG if K.order <= 8]
    for seed, bound in CASES:
        actions += [X.action for X in generate_fixtures(seed, bound).crossed_modules]
    for xi in actions:
        got, expected = semidirect_product(xi), reference_semidirect_product(xi)
        assert same_group(got[0], expected[0])
        assert all(same_hom(f, g) for f, g in zip(got[1:], expected[1:]))


def test_catalog_products_equal_the_former_catalogs():
    found = []
    for name, xi in former_catalog_actions().items():
        S = reference_semidirect_product(xi)[0]
        catalog = dict(standard_catalog(S.order))
        if name in catalog:
            assert same_group(catalog[name], S)
            found.append(name)
    # D2 is Z2xZ2, which the catalog lists first
    assert found == ["D3", "D4", "D5", "D6", "D7", "D8", "A4", "SD16", "M16", "Z4:Z4"]


@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_twisted_product_equals_product_formula_on_the_grid(pair):
    groups = grid_groups()
    for fs in enumerate_cocycles(groups[pair[0]], groups[pair[1]], GRID_BOUND.get(pair, 16)):
        B = factor_set_to_extension(fs)
        E, iota, sigma = reference_factor_set_to_extension(fs)
        assert same_group(B.E, E) and same_hom(B.iota, iota) and same_hom(B.sigma, sigma)


@pytest.mark.parametrize("seed, bound", CASES)
def test_arrow_map_equals_the_former_loops(seed, bound):
    for B in generate_fixtures(seed, bound).butterflies:
        F = to_fractor(B)
        assert F.right.p1.map == reference_rho_bar(B, F.right.dom.d, F.right.dom.c)
        assert ef3_coincidence(B) == reference_ef3_coincidence(B)
        for s in all_set_sections(B):
            M = extract_monoidal(B, s)
            assert (M.F0, M.F1, M.F2) == reference_monoidal_components(B, s)
        # off the image of iota the arrow map raises ConstructionError
        image, E = set(B.iota.map), B.E
        for e1, e2 in itertools.product(range(E.order), repeat=2):
            if E.table[e1][E.inv(e2)] in image:
                continue
            with pytest.raises(ConstructionError):
                _arrows(B, [e1], [e2])



@functools.lru_cache(maxsize=None)
def fixtures(seed: int, bound: int):
    return generate_fixtures(seed, bound)


@pytest.mark.parametrize("seed, bound", CASES)
def test_span_action_equals_the_former_conjugation(seed, bound):
    for B in fixtures(seed, bound).butterflies:
        assert span_of_butterfly(B)[0].action.act == reference_span_action(B)


@pytest.mark.parametrize("seed, bound", CASES)
def test_embeddings_equal_the_former_formulas(seed, bound):
    for X in fixtures(seed, bound).crossed_modules:
        assert same_hom(kernel_embedding(X), reference_kernel_embedding(X))
        assert same_hom(cokernel_embedding(X), reference_cokernel_embedding(X))


@pytest.mark.parametrize("seed, bound", CASES)
def test_source_map_equals_the_former_loops(seed, bound):
    for X in fixtures(seed, bound).crossed_modules:
        assert denormalize(X).d.map == reference_denormalize_d(X)


@pytest.mark.parametrize("seed, bound", CASES)
def test_division_arrows_equal_the_former_formula(seed, bound):
    for X in fixtures(seed, bound).crossed_modules:
        pairs = list(itertools.product(range(X.G.order), repeat=2))
        expected = tuple(reference_pointwise_division_arrow(X, a, b) for a, b in pairs)
        assert pointwise_division_arrow(X, *zip(*pairs)) == expected


@pytest.mark.parametrize("seed, bound", CASES)
def test_peiffer_values_equal_the_former_formula(seed, bound):
    # the values p(h) / q(h) that validate_two_cell checks and enumerate_two_cells
    # pins, on every fixture 2-cell and every parallel pair of fixture morphisms:
    # the fixture 2-cells all land in crossed modules with a trivial top group
    fx = fixtures(seed, bound)
    assert fx.two_cells
    parallel = [(P, Q) for P in fx.morphisms for Q in fx.morphisms if P.dom == Q.dom and P.cod == Q.cod]
    for P, Q in [(cell.P, cell.Q) for cell in fx.two_cells] + parallel:
        expected = tuple(reference_pointwise_division_arrow(P.cod, a, b) for a, b in zip(P.p.map, Q.p.map))
        assert pointwise_division_arrow(P.cod, P.p.map, Q.p.map) == expected


@pytest.mark.parametrize("seed, bound", CASES)
def test_functor_of_a_morphism_equals_the_former_formula(seed, bound):
    for P in fixtures(seed, bound).morphisms:
        assert denormalize_morphism(P).p1.map == reference_denormalize_morphism_p1(P)


@pytest.mark.parametrize("seed, bound", CASES)
def test_round_trip_comparison_equals_the_former_loops(seed, bound):
    for X in fixtures(seed, bound).crossed_modules:
        T = denormalize(X)
        assert denormalization_round_trip_iso(T).p1.map == reference_round_trip_f1(T)


def corrupted_units(T):
    """T with one entry e(x) replaced by another arrow u, for every x and u."""
    for x in range(T.G0.order):
        for u in range(T.G1.order):
            if u != T.e.map[x]:
                e = T.e.map[:x] + (u,) + T.e.map[x + 1 :]
                yield dataclasses.replace(T, e=GroupHom._trusted(T.G0, T.G1, e))


def test_round_trip_of_a_corrupted_unit_map_is_decided_by_the_functor_check():
    """The comparison is built unchecked and ``validate_two_group_functor``
    decides it.  With one entry of e corrupted, in 308 cases, it is an
    isomorphism exactly when the corrupted graph is still a 2-group, and none
    raises; 51 comparisons are bijections but not homomorphisms and give None."""
    outcomes = collections.Counter()
    for X in (conjugation_xmod(Z3), conjugation_xmod(S3), aut_xmod(Z4), conjugation_xmod(Z4)):
        for T in corrupted_units(denormalize(X)):
            F = denormalization_round_trip_iso(T)
            assert (F is not None) == validate_two_group(T).ok
            f1, tu, tt = reference_round_trip_f1(T), denormalize(normalize(T)).G1.table, T.G1.table
            hom = all(f1[tu[a][b]] == tt[f1[a]][f1[b]] for a in range(len(f1)) for b in range(len(f1)))
            outcomes[F is not None, len(set(f1)) == len(tt) and not hom] += 1
    assert outcomes == {(False, False): 254, (True, False): 3, (False, True): 51}
