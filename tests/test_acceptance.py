"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time

import pytest

from butterflies.butterfly import (
    butterfly_morphisms,
    compose,
    flip,
    identity_butterfly,
    is_flippable,
    isomorphic_butterflies,
    reduced_compose,
    split_from_morphism,
    two_cell_image,
)
from butterflies.extension import classify_extensions, factor_set_oracle
from butterflies.fingroup import cyclic_group, klein_four
from butterflies.laws import (
    ef3_coincidence,
    generate_fixtures,
    run_bicategory_suite,
    run_fractions_suite,
)
from butterflies.weakmap import (
    all_set_sections,
    butterfly_from_monoidal,
    canonical_limit_section,
    check_monoidal,
    extract_monoidal,
    find_monoidal_natural_iso,
)
from butterflies.xmod import (
    compose_morphisms,
    denormalization_round_trip_iso,
    denormalize,
    enumerate_natural_transformations,
    enumerate_two_cells,
    identity_morphism,
    is_weak_equivalence,
    normalization_round_trip_equal,
)

Z2, Z3, Z4, V4 = cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()


@pytest.fixture(scope="module")
def fx16():
    return generate_fixtures(0, 16)


@pytest.fixture(scope="module")
def fx8():
    return generate_fixtures(0, 8)


def _conclude(number: int, title: str, failures: list, elapsed: float, limit: float | None):
    bound = f" < {limit:.0f}s" if limit else ""
    status = "PASS" if not failures and (limit is None or elapsed < limit) else "FAIL"
    print(f"{status} criterion {number} ({title}): {len(failures)} failure(s), {elapsed:.2f}s{bound}")
    assert not failures, f"criterion {number}: {failures[:3]}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_normalization_equivalence(fx16):
    start = time.perf_counter()
    failures = []
    for X in fx16.crossed_modules:
        if X.size > 32:
            continue
        if not normalization_round_trip_equal(X):
            failures.append(("xmod-side", X.name))
    for X in fx16.crossed_modules:
        T = denormalize(X)
        if T.G1.order > 16:
            continue
        if denormalization_round_trip_iso(T) is None:
            failures.append(("2group-side", X.name))
    _conclude(1, "normalization round trips", failures, time.perf_counter() - start, 10.0)


def test_criterion_2_two_cell_correspondence(fx16):
    start = time.perf_counter()
    failures = []
    pairs = 0
    buckets: dict[tuple, list] = {}
    for P in fx16.morphisms:
        key = (P.dom.G.table, P.dom.G0.table, P.cod.G.table, P.cod.G0.table,
               P.dom.boundary.map, P.cod.boundary.map)
        buckets.setdefault(key, []).append(P)
    for bucket in buckets.values():
        sample = bucket
        for P in sample:
            if P.dom.G0.order > 8 or denormalize(P.cod).G1.order > 8:
                continue
            for Q in sample:
                if P.dom != Q.dom or P.cod != Q.cod:
                    continue
                pairs += 1
                cells = {c.alpha for c in enumerate_two_cells(P, Q)}
                nats = set(enumerate_natural_transformations(P, Q))
                if cells != nats:
                    failures.append((list(P.p0.map), list(Q.p0.map)))
    assert pairs > 20
    _conclude(2, f"two-cell correspondence on {pairs} pairs", failures, time.perf_counter() - start, 30.0)


def test_criterion_3_bicategory_laws(fx8):
    start = time.perf_counter()
    report = run_bicategory_suite(fx8)
    _conclude(3, f"bicategory laws ({report.cases} cases)", report.failures, time.perf_counter() - start, 60.0)


def test_criterion_4_flippable_equivalences(fx8):
    start = time.perf_counter()
    failures = []
    checked = 0
    for B in fx8.butterflies:
        if not is_flippable(B) or B.E.order > 16:
            continue
        checked += 1
        Bstar = flip(B)
        if isomorphic_butterflies(compose(B, Bstar), identity_butterfly(B.dom)) is None:
            failures.append(("B.B*", B.E.name))
        if isomorphic_butterflies(compose(Bstar, B), identity_butterfly(B.cod)) is None:
            failures.append(("B*.B", B.E.name))
    assert checked >= 5
    _conclude(4, f"flippable equivalences ({checked} butterflies)", failures, time.perf_counter() - start, None)


def test_criterion_5_action_laws(fx8):
    start = time.perf_counter()
    failures = []
    small = [P for P in fx8.morphisms if P.dom.size <= 8 and P.cod.size <= 8]
    bounded = [B for B in fx8.butterflies if B.E.order <= 8]
    for P in small:
        lhs = reduced_compose(P, identity_butterfly(P.cod))
        rhs, _ = split_from_morphism(P)
        if lhs != rhs:
            failures.append(("rc-I-vs-split", list(P.p0.map)))
    for B in bounded:
        if isomorphic_butterflies(reduced_compose(identity_morphism(B.dom), B), B) is None:
            failures.append(("A3", B.E.name))
    a2 = 0
    for P in small:
        for Q in small:
            if P.cod != Q.dom or a2 >= 12:
                continue
            for B in bounded:
                if B.dom != Q.cod:
                    continue
                a2 += 1
                lhs = reduced_compose(compose_morphisms(P, Q), B)
                rhs = reduced_compose(P, reduced_compose(Q, B))
                if isomorphic_butterflies(lhs, rhs) is None:
                    failures.append(("A2", B.E.name))
                break
    a1 = 0
    for P in small:
        for B1 in bounded:
            if P.cod != B1.dom or a1 >= 12:
                continue
            for B2 in bounded:
                if B1.cod != B2.dom or B1.E.order * B2.E.order > 64:
                    continue
                a1 += 1
                lhs = reduced_compose(P, compose(B1, B2))
                rhs = compose(reduced_compose(P, B1), B2)
                if isomorphic_butterflies(lhs, rhs) is None:
                    failures.append(("A1", B1.E.name, B2.E.name))
                break
    assert a1 >= 3 and a2 >= 3
    _conclude(5, f"action laws (A1 x{a1}, A2 x{a2})", failures, time.perf_counter() - start, None)


def test_criterion_6_fraction_conditions(fx8):
    start = time.perf_counter()
    failures = []
    # EF0
    for P in fx8.morphisms:
        if P.dom.size > 8 or P.cod.size > 8:
            continue
        weak, _, _ = is_weak_equivalence(P)
        B, _ = split_from_morphism(P)
        if weak and not is_flippable(B):
            failures.append(("EF0", list(P.p0.map)))
    # EF2 by exhaustive double enumeration
    pairs = 0
    buckets: dict[tuple, list] = {}
    for P in fx8.morphisms:
        key = (P.dom.G.table, P.dom.G0.table, P.cod.G.table, P.cod.G0.table,
               P.dom.boundary.map, P.cod.boundary.map)
        buckets.setdefault(key, []).append(P)
    for bucket in buckets.values():
        for P in bucket:
            if denormalize(P.cod).G1.order > 8 or P.dom.G0.order > 8:
                continue
            for Q in bucket:
                if P.dom != Q.dom or P.cod != Q.cod:
                    continue
                pairs += 1
                cells = enumerate_two_cells(P, Q)
                BP, _ = split_from_morphism(P)
                BQ, _ = split_from_morphism(Q)
                morphisms = butterfly_morphisms(BP, BQ)
                images = {two_cell_image(c).f.map for c in cells}
                if len(images) != len(cells) or images != {w.f.map for w in morphisms}:
                    failures.append(("EF2", list(P.p0.map), list(Q.p0.map)))
    # EF3 literally
    ef3 = 0
    for B in fx8.butterflies:
        if B.E.order > 16:
            continue
        ef3 += 1
        if not ef3_coincidence(B):
            failures.append(("EF3", B.E.name))
    assert pairs >= 10 and ef3 >= 10
    _conclude(
        6,
        f"fraction conditions (EF2 x{pairs}, EF3 x{ef3})",
        failures,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_7_weak_morphism_dictionary(fx8):
    start = time.perf_counter()
    failures = []
    butterflies = [B for B in fx8.butterflies if B.E.order <= 12]
    checked_sections = 0
    for B in butterflies:
        hom_like = []
        for s in all_set_sections(B):
            checked_sections += 1
            M = extract_monoidal(B, s)
            if not check_monoidal(M).ok:
                failures.append(("check", B.E.name, s))
                continue
            B2 = butterfly_from_monoidal(M)
            if isomorphic_butterflies(B2, B) is None:
                failures.append(("round-trip-butterfly", B.E.name, s))
            M2 = extract_monoidal(B2, canonical_limit_section(M))
            if find_monoidal_natural_iso(M, M2) is None:
                failures.append(("round-trip-functor", B.E.name, s))
            is_hom = all(
                B.E.table[s[x]][s[y]] == s[B.dom.G0.table[x][y]]
                for x in range(B.dom.G0.order)
                for y in range(B.dom.G0.order)
            )
            if is_hom and not M.is_strict():
                failures.append(("strictness", B.E.name, s))
    assert checked_sections >= 30
    _conclude(
        7,
        f"weak-morphism dictionary ({checked_sections} sections)",
        failures,
        time.perf_counter() - start,
        None,
    )


def test_criterion_8_classification():
    start = time.perf_counter()
    failures = []
    groups = [Z2, Z3, Z4, V4]
    for H in groups:
        for G in groups:
            if H.order * G.order > 16:
                continue
            butterfly_classes = classify_extensions(H, G)
            oracle_classes = factor_set_oracle(H, G)
            if len(butterfly_classes) != len(oracle_classes):
                failures.append((H.name, G.name, len(butterfly_classes), len(oracle_classes)))
    z2z2 = classify_extensions(Z2, Z2)
    if sorted(c.e_group for c in z2z2) != ["Z2xZ2", "Z4"]:
        failures.append(("Ext(Z2,Z2)", [c.e_group for c in z2z2]))
    trivial_phi = [
        cls for cls in factor_set_oracle(Z3, Z3) if any(fs.phi == (0, 0, 0) for fs in cls)
    ]
    if len(trivial_phi) != 3:
        failures.append(("Ext(Z3,Z3) trivial phi", len(trivial_phi)))
    _conclude(8, "extension classification", failures, time.perf_counter() - start, 120.0)


def test_criterion_9_fault_injection(fx8):
    start = time.perf_counter()
    failures = []
    if run_bicategory_suite(fx8, fault="compose").ok:
        failures.append("bicategory suite silent under compose fault")
    if run_fractions_suite(fx8, fault="two-cell-count").ok:
        failures.append("fractions suite silent under two-cell fault")
    _conclude(9, "fault-injection negative controls", failures, time.perf_counter() - start, None)
