"""Reference tests for 2-cell enumeration and the pullback-square test.

``enumerate_two_cells`` finds 2-cells as homomorphisms H0 -> G1 through the
generator search, and ``_is_pullback`` answers every "this square is a
pullback" question of the library: EF0's square, the discrete fibrations of
a fractor and its kernel pair.  Here each is checked against the routine it
replaced, kept as an oracle: the product over hom-sets filtered by the full
``validate_two_cell``, and the three hand-written pullback tests.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from butterflies.butterfly import Fractor, TwoGroupFunctor, identity_butterfly, to_fractor, validate_fractor
from butterflies.errors import CodomainMismatch
from butterflies.extension import conjugation_xmod
from butterflies.fingroup import _is_pullback, cyclic_group, direct_product, product_and_pullback, zero_hom
from butterflies.laws import generate_fixtures
from butterflies.xmod import (
    XModMorphism,
    XModTwoCell,
    denormalize,
    enumerate_two_cells,
    pointwise_division_arrow,
    validate_two_cell,
)

CASES = [(seed, bound) for seed in range(4) for bound in (8, 16)]
# parallel morphism pairs of those fixture sets, and the pairs with a 2-cell
PAIRS, NONEMPTY = 2294, 1418


@pytest.fixture(scope="module")
def fixture_sets():
    return [generate_fixtures(seed, bound) for seed, bound in CASES]


def reference_two_cells(P: XModMorphism, Q: XModMorphism) -> list[XModTwoCell]:
    """Candidates range over the hom-sets p0(x) -> q0(x), pinned on the image
    of the boundary, in product order; each is kept if it validates in full."""
    if P.dom != Q.dom or P.cod != Q.cod:
        return []
    TG = denormalize(P.cod)
    fibers = [TG.hom_set(P.p0.map[x], Q.p0.map[x]) for x in range(P.dom.G0.order)]
    if not all(fibers):
        return []
    forced: dict[int, int] = {}
    bd = P.dom.boundary.map
    for h in range(P.dom.G.order):
        value = pointwise_division_arrow(P.cod, P.p.map[h], Q.p.map[h])
        if forced.setdefault(bd[h], value) != value:
            return []
    choices = []
    for x, fiber in enumerate(fibers):
        if x in forced:
            if forced[x] not in fiber:
                return []
            choices.append([forced[x]])
        else:
            choices.append(fiber)
    cells = []
    for combo in itertools.product(*choices):
        cell = XModTwoCell(P, Q, combo)
        if validate_two_cell(cell).ok:
            cells.append(cell)
    return cells


def test_two_cells_match_reference(fixture_sets):
    pairs = nonempty = 0
    for fx in fixture_sets:
        for P in fx.morphisms:
            for Q in fx.morphisms:
                if P.dom != Q.dom or P.cod != Q.cod:
                    continue
                pairs += 1
                cells = [c.alpha for c in enumerate_two_cells(P, Q)]
                assert cells == [c.alpha for c in reference_two_cells(P, Q)]
                nonempty += bool(cells)
    assert (pairs, nonempty) == (PAIRS, NONEMPTY)


# the three pullback tests that _is_pullback replaced


def reference_ef0_square(P: XModMorphism) -> bool:
    """h -> (boundary h, p h) is a bijection onto the pullback of p0 and the
    codomain boundary."""
    PB, _, _, pos = product_and_pullback(P.p0, P.cod.boundary)
    images = set()
    bd, n = P.dom.boundary.map, P.cod.G.order
    for h in range(P.dom.G.order):
        i = pos[bd[h] * n + P.p.map[h]]
        if i is None:
            return False
        images.add(i)
    return len(images) == P.dom.G.order == PB.order


def reference_discrete_fibration(F: TwoGroupFunctor) -> bool:
    """The target square is a pullback: arrows biject with (arrow below, object above)."""
    pairs = {(F.p1.map[a], F.dom.c.map[a]) for a in range(F.dom.G1.order)}
    wanted = {
        (b, x)
        for b in range(F.cod.G1.order)
        for x in range(F.dom.G0.order)
        if F.cod.c.map[b] == F.p0.map[x]
    }
    return len(pairs) == F.dom.G1.order and pairs == wanted


def reference_kernel_pair(F: Fractor) -> bool:
    sigma = F.left.p0
    arrows = {(F.Rsigma.d.map[a], F.Rsigma.c.map[a]) for a in range(F.Rsigma.G1.order)}
    wanted = {
        (e1, e2)
        for e1 in range(F.E.order)
        for e2 in range(F.E.order)
        if sigma.map[e1] == sigma.map[e2]
    }
    return arrows == wanted and F.Rsigma.G1.order == len(wanted)


def fractor_variants(F: Fractor) -> list[Fractor]:
    """F, F with either leg's object map zeroed, and F with R in place of R[sigma]."""

    def zeroed(leg: TwoGroupFunctor) -> TwoGroupFunctor:
        return dataclasses.replace(leg, p0=zero_hom(leg.p0.dom, leg.p0.cod))

    return [
        F,
        dataclasses.replace(F, left=zeroed(F.left)),
        dataclasses.replace(F, right=zeroed(F.right)),
        dataclasses.replace(F, Rsigma=F.R),
    ]


def test_ef0_square_matches_reference(fixture_sets):
    verdicts = []
    for fx in fixture_sets:
        for P in fx.morphisms:
            verdict = _is_pullback(P.p0, P.cod.boundary, P.dom.boundary, P.p)
            assert verdict == reference_ef0_square(P)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_fractor_squares_match_reference(fixture_sets):
    fibrations, kernel_pairs = [], []
    for fx in fixture_sets:
        for B in fx.butterflies:
            for F in fractor_variants(to_fractor(B)):
                for leg in (F.left, F.right):
                    verdict = _is_pullback(leg.cod.c, leg.p0, leg.p1, leg.dom.c)
                    assert verdict == reference_discrete_fibration(leg)
                    fibrations.append(verdict)
                verdict = _is_pullback(F.left.p0, F.left.p0, F.Rsigma.d, F.Rsigma.c)
                assert verdict == reference_kernel_pair(F)
                kernel_pairs.append(verdict)
    assert True in fibrations and False in fibrations
    assert True in kernel_pairs and False in kernel_pairs


def test_codomains_differ_is_not_a_pullback():
    # Z2 x Z2 with its projections would be the pullback if the zero maps shared a codomain
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    f, g = zero_hom(Z2, Z2), zero_hom(Z2, Z3)
    _, p1, p2 = direct_product(Z2, Z2)
    assert _is_pullback(f, zero_hom(Z2, Z2), p1, p2)
    with pytest.raises(CodomainMismatch):
        product_and_pullback(f, g)
    assert _is_pullback(f, g, p1, p2) is False


def test_fractor_leg_into_another_group_is_a_finding():
    F = to_fractor(identity_butterfly(conjugation_xmod(cyclic_group(2))))
    leg = dataclasses.replace(F.left, p0=zero_hom(F.left.p0.dom, cyclic_group(3)))
    report = validate_fractor(dataclasses.replace(F, left=leg))
    assert "1-fibration" in report.conditions()
