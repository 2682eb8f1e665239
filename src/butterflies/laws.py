"""Property-suite harness: deterministic fixtures and the quantified checks
behind the bicategory laws, the flippable-equivalence statements, the action
laws of reduced composition, and the fraction conditions EF0 - EF3.

Every failure carries a machine-replayable witness (serialized inputs).
A fault-injection mode exists solely to prove the suites can fail.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .butterfly import (
    Butterfly,
    butterfly_morphisms,
    compose,
    flip,
    identity_butterfly,
    is_flippable,
    isomorphic_butterflies,
    reduced_compose,
    span_of_butterfly,
    split_from_morphism,
    two_cell_image,
    validate_butterfly,
)
from .errors import BoundExceeded, ConstructionError, UnknownSuite
from .extension import (
    ExtensionDatum,
    aut_xmod,
    butterfly_from_extension,
    conjugation_xmod,
    discrete_xmod,
    enumerate_cocycles,
    factor_set_to_extension,
)
from .fingroup import (
    FinGroup,
    GroupHom,
    _hom_defect,
    _is_pullback,
    all_homomorphisms,
    cyclic_group,
    klein_four,
    product_and_pullback,
)
from .jsonio import to_jsonable
from .xmod import (
    CrossedModule,
    XModMorphism,
    XModTwoCell,
    all_xmod_morphisms,
    compose_morphisms,
    denormalize,
    enumerate_natural_transformations,
    enumerate_two_cells,
    identity_morphism,
    is_weak_equivalence,
    pullback_crossed_module,
    validate_crossed_module,
)


# fault-injection name -> the one suite that implements it
FAULTS = {"compose": "bicategory", "two-cell-count": "fractions"}


def _check_fault(suite: str, fault: str | None) -> None:
    if fault is not None and FAULTS.get(fault) != suite:
        raise UnknownSuite(f"suite {suite} has no fault {fault!r}")


@dataclass
class FixtureSet:
    seed: int
    size_bound: int
    crossed_modules: list[CrossedModule] = field(default_factory=list)
    morphisms: list[XModMorphism] = field(default_factory=list)
    butterflies: list[Butterfly] = field(default_factory=list)
    two_cells: list[XModTwoCell] = field(default_factory=list)


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def case(self) -> None:
        self.cases += 1

    def fail(self, check: str, witness: dict) -> None:
        self.failures.append({"check": check, "witness": witness})

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "wall_time": self.wall_time,
        }

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"suite {self.suite}: {self.cases} cases, {status} ({self.wall_time:.2f}s)"


def generate_fixtures(seed: int, size_bound: int) -> FixtureSet:
    """Deterministic fixture set: the mandated crossed modules, morphisms
    between them, and identity / extension / split / composite butterflies."""
    if size_bound > 16:
        raise BoundExceeded("generate_fixtures", size_bound, 16)
    rng = random.Random(seed)
    fx = FixtureSet(seed=seed, size_bound=size_bound)
    Z2, Z3, Z4, V4 = cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()
    base = [Z2, Z3, Z4, V4]

    # the mandated fixtures are always present, whatever the bound
    xmods: list[CrossedModule] = [discrete_xmod(G) for G in base]
    xmods += [aut_xmod(G) for G in base]
    optional: list[CrossedModule] = [conjugation_xmod(G) for G in (Z2, Z3)]
    if size_bound >= 16:
        optional.append(conjugation_xmod(Z4))
    # a pullback crossed module fixture
    sigma = GroupHom(Z4, Z2, (0, 1, 0, 1))
    pulled, comparison = pullback_crossed_module(conjugation_xmod(Z2), sigma)
    optional.append(pulled)
    fx.crossed_modules = xmods + [X for X in optional if X.size <= 2 * size_bound]

    small = [X for X in fx.crossed_modules if X.size <= size_bound]
    morphisms: list[XModMorphism] = [identity_morphism(X) for X in small]
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

    butterflies: list[Butterfly] = [identity_butterfly(X) for X in small]
    for H, G in ((Z2, Z2), (Z2, Z3)):
        if H.order * G.order <= size_bound:
            for datum in _small_extensions(H, G):
                butterflies.append(butterfly_from_extension(datum))
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
    seen: list[Butterfly] = []
    for B in butterflies:
        if B not in seen:
            seen.append(B)
    fx.butterflies = seen

    cells: list[XModTwoCell] = []
    for P, Q in _parallel_pairs(fx, limit=12):
        cells.extend(enumerate_two_cells(P, Q))
    fx.two_cells = cells[:40]
    return fx


def _small_extensions(H: FinGroup, G: FinGroup) -> list[ExtensionDatum]:
    out = []
    seen_tables = set()
    for fs in enumerate_cocycles(H, G):
        datum = factor_set_to_extension(fs, validated=True)
        if datum.E.table not in seen_tables:
            seen_tables.add(datum.E.table)
            out.append(datum)
    return out


def _parallel_pairs(fx: FixtureSet, limit: int) -> list[tuple[XModMorphism, XModMorphism]]:
    groups: dict[tuple, list[XModMorphism]] = {}
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


# ---------------------------------------------------------------------------
# bicategory suite


def run_bicategory_suite(fx: FixtureSet, fault: str | None = None) -> SuiteReport:
    """Unit and associativity laws of butterfly composition, flippable
    equivalences, and validity of every fixture butterfly."""
    _check_fault("bicategory", fault)
    report = SuiteReport("bicategory")
    start = time.perf_counter()

    def composer(B1: Butterfly, B2: Butterfly) -> Butterfly:
        C = compose(B1, B2)
        if fault == "compose" and C.E.order > 2:
            C = _corrupt_middle_group(C)
        return C

    for B in fx.butterflies:
        report.case()
        check = validate_butterfly(B)
        if not check.ok:
            report.fail("butterfly-valid", {"butterfly": to_jsonable(B), "report": check.to_json()})

    bounded = [B for B in fx.butterflies if B.E.order <= 2 * fx.size_bound]
    for B in bounded:
        report.case()
        left = composer(identity_butterfly(B.dom), B)
        w = _iso_or_none(left, B)
        if w is None:
            report.fail("left-unit", {"butterfly": to_jsonable(B)})
        elif not w.f.is_isomorphism:
            report.fail("witness-bijective", {"butterfly": to_jsonable(B)})
        report.case()
        right = composer(B, identity_butterfly(B.cod))
        if _iso_or_none(right, B) is None:
            report.fail("right-unit", {"butterfly": to_jsonable(B)})

    for B1 in bounded:
        for B2 in bounded:
            if B1.cod != B2.dom:
                continue
            B12 = None  # composer(B1, B2), built at the first third operand
            for B3 in bounded:
                if B2.cod != B3.dom or B1.E.order * B2.E.order * B3.E.order > 64 * fx.size_bound:
                    continue
                report.case()
                try:
                    if B12 is None:
                        B12 = composer(B1, B2)
                    lhs = composer(B12, B3)
                    rhs = composer(B1, composer(B2, B3))
                    w = _iso_or_none(lhs, rhs)
                except Exception as exc:  # corrupt composites may fail later stages
                    report.fail(
                        "associativity",
                        {"error": str(exc), "triple": [to_jsonable(B) for B in (B1, B2, B3)]},
                    )
                    continue
                if w is None:
                    report.fail("associativity", {"triple": [to_jsonable(B) for B in (B1, B2, B3)]})
                elif not w.f.is_isomorphism:
                    report.fail("witness-bijective", {"triple": [to_jsonable(B) for B in (B1, B2, B3)]})

    for B in bounded:
        if not is_flippable(B):
            continue
        report.case()
        Bstar = flip(B)
        if (
            _iso_or_none(composer(B, Bstar), identity_butterfly(B.dom)) is None
            or _iso_or_none(composer(Bstar, B), identity_butterfly(B.cod)) is None
        ):
            report.fail("flip-equivalence", {"butterfly": to_jsonable(B)})

    report.wall_time = time.perf_counter() - start
    return report


def _iso_or_none(B1: Butterfly, B2: Butterfly):
    """A morphism B1 -> B2, or None when there is none or, on operands whose
    legs are not homomorphisms (the compose fault), when building it fails."""
    try:
        return isomorphic_butterflies(B1, B2)
    except ConstructionError:
        return None


def _corrupt_middle_group(B: Butterfly) -> Butterfly:
    """Relabel E by the transposition (1 2) without adjusting the maps."""
    perm = list(range(B.E.order))
    perm[1], perm[2] = 2, 1
    table = [
        [perm.index(B.E.table[perm[a]][perm[b]]) for b in range(B.E.order)]
        for a in range(B.E.order)
    ]
    E2 = FinGroup(table, B.E.name + "!corrupt", _validated=True)
    # keep the map arrays on the relabeled group: the trusted path skips the
    # homomorphism checks, so the corrupted object reaches the validators
    return Butterfly(
        dom=B.dom,
        cod=B.cod,
        E=E2,
        kappa=GroupHom._trusted(B.dom.G, E2, B.kappa.map),
        iota=GroupHom._trusted(B.cod.G, E2, B.iota.map),
        sigma=GroupHom._trusted(E2, B.dom.G0, B.sigma.map),
        rho=GroupHom._trusted(E2, B.cod.G0, B.rho.map),
    )


# ---------------------------------------------------------------------------
# fractions suite


def run_fractions_suite(fx: FixtureSet, fault: str | None = None) -> SuiteReport:
    """EF0 (weak equivalences give flippable splits, and their squares are
    pullbacks), EF2 (2-cells biject with butterfly morphisms), EF3 (the span
    identity holds literally), the action laws A1-A3, and the two-cell and
    pullback-equivalence checks."""
    _check_fault("fractions", fault)
    report = SuiteReport("fractions")
    start = time.perf_counter()

    small_morphisms = [
        P for P in fx.morphisms if P.dom.size <= fx.size_bound and P.cod.size <= fx.size_bound
    ]

    # EF0 and its converse as a negative control
    for P in small_morphisms:
        report.case()
        weak, _, _ = is_weak_equivalence(P)
        B, _ = split_from_morphism(P)
        if weak != is_flippable(B):
            report.fail("ef0-flippable", {"morphism": to_jsonable(P), "weak": weak})
        # the square of boundaries against (p, p0) is a pullback
        if weak and not _is_pullback(P.p0, P.cod.boundary, P.dom.boundary, P.p):
            report.fail("ef0-pullback-square", {"morphism": to_jsonable(P)})

    # EF2: double counting on parallel pairs, each pair's 2-cells enumerated once
    pairs = []
    for P, Q in _parallel_pairs(fx, limit=16):
        if denormalize(P.cod).G1.order <= fx.size_bound:
            cells = enumerate_two_cells(P, Q)
            # the cells come in lexicographic order of alpha: this drops the least
            pairs.append((P, Q, cells[1:] if fault == "two-cell-count" else cells))
    for P, Q, cells in pairs:
        report.case()
        BP, _ = split_from_morphism(P)
        BQ, _ = split_from_morphism(Q)
        morphisms = butterfly_morphisms(BP, BQ)
        images = {two_cell_image(c).f.map for c in cells}
        if len(images) != len(cells):
            report.fail("ef2-faithful", {"P": to_jsonable(P), "Q": to_jsonable(Q)})
        if images != {w.f.map for w in morphisms}:
            report.fail(
                "ef2-full",
                {
                    "P": to_jsonable(P),
                    "Q": to_jsonable(Q),
                    "cells": len(cells),
                    "morphisms": len(morphisms),
                },
            )

    # cross-check: the two exhaustive enumerations agree as sets
    for P, Q, cells in pairs:
        report.case()
        if {c.alpha for c in cells} != set(enumerate_natural_transformations(P, Q)):
            report.fail("two-cell-naturality", {"P": to_jsonable(P), "Q": to_jsonable(Q)})

    # EF3: literal coincidence of the two reduced composites
    for B in fx.butterflies:
        if B.E.order > 2 * fx.size_bound:
            continue
        report.case()
        if not ef3_coincidence(B):
            report.fail("ef3-literal", {"butterfly": to_jsonable(B)})

    # action laws
    bounded = [B for B in fx.butterflies if B.E.order <= fx.size_bound]
    for B in bounded:
        report.case()
        if _iso_or_none(reduced_compose(identity_morphism(B.dom), B), B) is None:
            report.fail("a3-unit", {"butterfly": to_jsonable(B)})
    for P in small_morphisms:
        report.case()
        lhs = reduced_compose(P, identity_butterfly(P.cod))
        rhs, _ = split_from_morphism(P)
        if lhs != rhs:
            report.fail("reduced-vs-split", {"morphism": to_jsonable(P)})
    composable_pq = ((P, Q) for P in small_morphisms for Q in small_morphisms if P.cod == Q.dom)
    for P, Q in itertools.islice(composable_pq, 10):
        targets = [B for B in bounded if B.dom == Q.cod][:2]
        for B in targets:
            report.case()
            lhs = reduced_compose(compose_morphisms(P, Q), B)
            rhs = reduced_compose(P, reduced_compose(Q, B))
            if _iso_or_none(lhs, rhs) is None:
                report.fail(
                    "a2-associativity",
                    {"P": to_jsonable(P), "Q": to_jsonable(Q), "butterfly": to_jsonable(B)},
                )
    # A1: Q .rc (E1 E2) vs (Q .rc E1) E2 on composable data
    a1_triples = (
        (P, B1, B2)
        for P in small_morphisms
        for B1 in bounded
        if P.cod == B1.dom
        for B2 in bounded
        if B1.cod == B2.dom and B1.E.order * B2.E.order <= 8 * fx.size_bound
    )
    for P, B1, B2 in itertools.islice(a1_triples, 8):
        report.case()
        lhs = reduced_compose(P, compose(B1, B2))
        rhs = compose(reduced_compose(P, B1), B2)
        if _iso_or_none(lhs, rhs) is None:
            report.fail(
                "a1-compat",
                {
                    "P": to_jsonable(P),
                    "B1": to_jsonable(B1),
                    "B2": to_jsonable(B2),
                },
            )

    # pulling back along a surjection yields a weak equivalence
    for X in fx.crossed_modules:
        if X.size > fx.size_bound:
            continue
        for E in (cyclic_group(4), klein_four()):
            for sigma in all_homomorphisms(E, X.G0):
                if not sigma.is_surjective:
                    continue
                report.case()
                pulled, comparison = pullback_crossed_module(X, sigma)
                if not validate_crossed_module(pulled).ok or not is_weak_equivalence(comparison)[0]:
                    report.fail(
                        "pullback-weak-equivalence",
                        {"xmod": to_jsonable(X), "sigma": list(sigma.map)},
                    )

    report.wall_time = time.perf_counter() - start
    return report


def ef3_coincidence(B: Butterfly) -> bool:
    """reduced_compose(left leg, B) equals reduced_compose(right leg, I) on
    the nose after the canonical relabeling (e1,e2) -> (e1, arrow e2->e1)."""
    _, left, right = span_of_butterfly(B)
    L = reduced_compose(left, B)
    R = reduced_compose(right, identity_butterfly(B.cod))
    E = B.E
    LP, l1, l2, _ = product_and_pullback(B.sigma, B.sigma)
    I = identity_butterfly(B.cod)
    RP, _, _, posR = product_and_pullback(B.rho, I.sigma)
    if L.E != LP or R.E != RP:
        return False
    iota_inv = {e: g for g, e in enumerate(B.iota.map)}
    nG0 = B.cod.G0.order
    theta = []
    for idx in range(LP.order):
        e1, e2 = l1.map[idx], l2.map[idx]
        g = iota_inv.get(E.table[e2][E.inv(e1)])
        if g is None:
            return False
        i = posR[e1 * I.E.order + g * nG0 + B.rho.map[e1]]
        if i is None:
            return False
        theta.append(i)
    if len(set(theta)) != LP.order or LP.order != RP.order:
        return False
    if _hom_defect(L.E, R.E, theta) is not None:
        return False
    if tuple(theta[x] for x in L.kappa.map) != R.kappa.map:
        return False
    if tuple(theta[x] for x in L.iota.map) != R.iota.map:
        return False
    if tuple(R.sigma.map[theta[a]] for a in range(LP.order)) != L.sigma.map:
        return False
    if tuple(R.rho.map[theta[a]] for a in range(LP.order)) != L.rho.map:
        return False
    return True


SUITES = {
    "bicategory": run_bicategory_suite,
    "fractions": run_fractions_suite,
}
