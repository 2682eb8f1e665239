"""The fixture layer dedupes and pairs records by their own equality,
checked against the scans it replaced.

``generate_fixtures`` drops a repeated morphism by a set of the records
already listed and a repeated butterfly by ``dict.fromkeys``, and
``_parallel_pairs`` buckets morphisms by ``(dom, cod)``.  The former code,
list scans for both dedups and a bucket key of six tables re-checked
pairwise by ``dom`` and ``cod``, is kept below verbatim as an oracle.  On
seeds 0-13 at bounds 8 and 16:

- every fixture list equals its oracle's, record by record, names included,
  so the seeded duplicate morphism of ``C(Z4)`` and ``C(Z2)^*(Z4)`` stays;
- the pair list equals the oracle's, element by element by identity, for
  every limit.
"""

from __future__ import annotations

import random

import pytest

from butterflies.butterfly import compose, flip, identity_butterfly, is_flippable, split_from_morphism
from butterflies.extension import aut_xmod, butterfly_from_extension, conjugation_xmod, discrete_xmod
from butterflies.fingroup import GroupHom, cyclic_group, klein_four
from butterflies.laws import FixtureSet, _parallel_pairs, _small_extensions, generate_fixtures
from butterflies.xmod import all_xmod_morphisms, enumerate_two_cells, identity_morphism, pullback_crossed_module

CASES = [(seed, bound) for seed in range(14) for bound in (8, 16)]


def reference_generate_fixtures(seed: int, size_bound: int) -> FixtureSet:
    rng = random.Random(seed)
    fx = FixtureSet(seed=seed, size_bound=size_bound)
    Z2, Z3, Z4, V4 = cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()
    base = [Z2, Z3, Z4, V4]

    xmods = [discrete_xmod(G) for G in base]
    xmods += [aut_xmod(G) for G in base]
    optional = [conjugation_xmod(G) for G in (Z2, Z3)]
    if size_bound >= 16:
        optional.append(conjugation_xmod(Z4))
    sigma = GroupHom(Z4, Z2, (0, 1, 0, 1))
    pulled, comparison = pullback_crossed_module(conjugation_xmod(Z2), sigma)
    optional.append(pulled)
    fx.crossed_modules = xmods + [X for X in optional if X.size <= 2 * size_bound]

    small = [X for X in fx.crossed_modules if X.size <= size_bound]
    morphisms = [identity_morphism(X) for X in small]
    morphisms.append(comparison)
    pairs = [
        (X, Y)
        for X in small
        for Y in small
        if X.size * Y.size <= max(size_bound, 8) * 4
    ]
    for X, Y in pairs:
        found = list(all_xmod_morphisms(X, Y))
        if not found:
            continue
        keep = found if len(found) <= 3 else rng.sample(found, 3)
        for P in keep:
            if P not in morphisms:
                morphisms.append(P)
    fx.morphisms = morphisms

    butterflies = [identity_butterfly(X) for X in small]
    for H, G in ((Z2, Z2), (Z2, Z3)):
        if H.order * G.order <= size_bound:
            for X in _small_extensions(H, G):
                butterflies.append(butterfly_from_extension(X.iota, X.sigma))
    split_sources = rng.sample(fx.morphisms, min(6, len(fx.morphisms)))
    for P in split_sources:
        B, _ = split_from_morphism(P)
        if B.E.order <= 2 * size_bound:
            butterflies.append(B)
    for B in butterflies[:]:
        if is_flippable(B) and B.E.order <= size_bound:
            butterflies.append(flip(B))
    composable = [
        (B1, B2)
        for B1 in butterflies
        for B2 in butterflies
        if B1.cod == B2.dom and B1.E.order * B2.E.order <= 8 * size_bound
    ]
    for B1, B2 in rng.sample(composable, min(4, len(composable))):
        butterflies.append(compose(B1, B2))
    seen = []
    for B in butterflies:
        if B not in seen:
            seen.append(B)
    fx.butterflies = seen

    cells = []
    for P, Q in reference_parallel_pairs(fx, limit=12):
        cells.extend(enumerate_two_cells(P, Q))
    fx.two_cells = cells[:40]
    return fx


def reference_parallel_pairs(fx: FixtureSet, limit: int):
    groups: dict[tuple, list] = {}
    for P in fx.morphisms:
        key = (P.dom.G.table, P.dom.G0.table, P.cod.G.table, P.cod.G0.table,
               P.dom.boundary.map, P.cod.boundary.map)
        groups.setdefault(key, []).append(P)
    pairs = []
    for bucket in groups.values():
        for P in bucket:
            for Q in bucket:
                if P.dom == Q.dom and P.cod == Q.cod:
                    pairs.append((P, Q))
    return pairs[:limit]


def same_records(xs, ys) -> bool:
    """Equal lists record by record, the names that equality ignores included."""
    return xs == ys and [repr(x) for x in xs] == [repr(y) for y in ys]


@pytest.mark.parametrize("seed, bound", CASES)
def test_fixture_lists_equal_the_former_scans(seed, bound):
    fx, ref = generate_fixtures(seed, bound), reference_generate_fixtures(seed, bound)
    assert same_records(fx.crossed_modules, ref.crossed_modules)
    assert same_records(fx.morphisms, ref.morphisms)
    assert same_records(fx.butterflies, ref.butterflies)
    assert fx.two_cells == ref.two_cells


@pytest.mark.parametrize("seed, bound", CASES)
def test_parallel_pairs_equal_the_former_buckets(seed, bound):
    fx = generate_fixtures(seed, bound)
    every = reference_parallel_pairs(fx, limit=len(fx.morphisms) ** 2)
    assert len(every) > 12
    for limit in range(len(every) + 2):
        pairs = _parallel_pairs(fx, limit)
        expected = reference_parallel_pairs(fx, limit)
        assert len(pairs) == len(expected)
        assert all(P is R and Q is S for (P, Q), (R, S) in zip(pairs, expected))


@pytest.mark.parametrize("seed", range(14))
def test_seeded_duplicate_morphism_is_kept(seed):
    # C(Z4) and C(Z2)^*(Z4) have the same tables, so their identities are equal
    morphisms = generate_fixtures(seed, 16).morphisms
    twins = [P for P in morphisms if P == morphisms[9]]
    assert [P.dom.name for P in twins] == ["C(Z4)", "C(Z2)^*(Z4)"]
