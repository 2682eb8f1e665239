"""Property-suite harness: deterministic fixtures and the quantified checks
behind the bicategory laws, the flippable-equivalence statements, the action
laws of reduced composition, and the fraction conditions EF0 - EF3.

Every failure replays: its witness's records, loaded into a ``FixtureSet``
with the run's seed and bound, fail that check again under the run's fault.
A fault-injection mode exists solely to prove the suites can fail.
Within one fixture build or suite run (a ``_run_memo()`` scope) each
operand's derived structure, and each Hom set, is built once; the memo dies
with the run.  A bicategory run also interns its composites by value, names
left out, and through the same memo makes each composite, and searches each
pair for a witness, once.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Iterator

from .butterfly import (
    Butterfly,
    _arrows,
    _legs,
    butterfly_morphism,
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
    aut_xmod,
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
    _per_operand,
    _run_memo,
    all_homomorphisms,
    cyclic_group,
    klein_four,
    product_and_pullback,
)
from .jsonio import to_jsonable
from .report import ValidationReport
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
class SuiteReport(ValidationReport):
    """A suite's failures as findings, kept by the ``ValidationReport`` rule, with the cases run
    and the wall time since its making.  ``done`` serializes the witnesses, so only kept ones are built."""

    cases: int = 0
    wall_time: float = 0.0
    _started: float = field(default_factory=time.perf_counter, init=False, compare=False, repr=False)

    @property
    def failures(self) -> list[dict]:
        return [{"check": f.condition, "witness": f.witness} for f in self.findings]

    def fail(self, check: str, **witness) -> None:
        self.add(check, witness)

    def to_json(self) -> dict:
        out = {"suite": self.subject, "cases": self.cases, "failures": self.failures, "wall_time": self.wall_time}
        return {**out, "dropped": self.dropped} if self.dropped else out

    def done(self, fault: str | None, fired: bool) -> SuiteReport:
        """Stop the clock and serialize each kept witness.  A fault run whose fault never fired fails."""
        if fault is not None and not fired:
            self.fail("fault-not-exercised", fault=fault)
        for f in self.findings:
            f.witness = {k: _serialized(v) for k, v in f.witness.items()}
        self.wall_time = time.perf_counter() - self._started
        return self

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.findings) + self.dropped} failure(s)"
        if self.dropped:
            status += f", {self.dropped} not kept"
        return f"suite {self.subject}: {self.cases} cases, {status} ({self.wall_time:.2f}s)"


def _serialized(value):
    """A witness field: a group or record through ``to_jsonable``, a tuple of
    records as a list of them, any other value as it is."""
    if isinstance(value, tuple):
        return [to_jsonable(R) for R in value]
    return to_jsonable(value) if isinstance(value, (FinGroup, CrossedModule, XModMorphism, Butterfly)) else value


@_run_memo()
def generate_fixtures(seed: int, size_bound: int) -> FixtureSet:
    """Deterministic fixture set: the mandated crossed modules, morphisms
    between them, and identity / extension / split / composite butterflies.
    The bound must admit the smallest fixture, D(Z2) of size 2.  A run scope:
    each Hom set, and each operand's derived structure, is built once."""
    if size_bound > 16:
        raise BoundExceeded("generate_fixtures", size_bound, 16)
    if size_bound < 2:
        raise BoundExceeded("generate_fixtures", 2, size_bound)
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
    listed = set(morphisms)
    for X, Y in pairs:
        found = list(all_xmod_morphisms(X, Y))
        keep = found if len(found) <= 3 else rng.sample(found, 3)
        for P in keep:
            if P not in listed:
                listed.add(P)
                morphisms.append(P)
    fx.morphisms = morphisms

    butterflies: list[Butterfly] = [identity_butterfly(X) for X in small]
    for H, G in ((Z2, Z2), (Z2, Z3)):
        if H.order * G.order <= size_bound:
            butterflies += _small_extensions(H, G)
    split_sources = rng.sample(fx.morphisms, min(6, len(fx.morphisms)))
    for P in split_sources:
        B, _ = split_from_morphism(P)
        if B.E.order <= 2 * size_bound:
            butterflies.append(B)
    for B in butterflies[:]:
        if is_flippable(B) and B.E.order <= size_bound:
            butterflies.append(flip(B))
    starting = _by_dom(butterflies)
    composable = [
        (B1, B2) for B1 in butterflies for B2 in starting.get(B1.cod, ()) if B1.E.order * B2.E.order <= 8 * size_bound
    ]
    for B1, B2 in rng.sample(composable, min(4, len(composable))):
        butterflies.append(compose(B1, B2))
    fx.butterflies = list(dict.fromkeys(butterflies))

    cells: list[XModTwoCell] = []
    for P, Q in _parallel_pairs(fx, limit=12):
        cells.extend(enumerate_two_cells(P, Q))
    fx.two_cells = cells[:40]
    return fx


def _small_extensions(H: FinGroup, G: FinGroup) -> list[Butterfly]:
    """The butterflies of H's extensions by G, one per middle group table."""
    out: dict = {}
    for fs in enumerate_cocycles(H, G):
        B = factor_set_to_extension(fs)
        out.setdefault(B.E.table, B)
    return list(out.values())


def _by_dom(records: list) -> dict[CrossedModule, list]:
    """The butterflies or morphisms of `records` listed by dom, each list in scan order."""
    index: dict[CrossedModule, list] = {}
    for R in records:
        index.setdefault(R.dom, []).append(R)
    return index


def _parallel_pairs(fx: FixtureSet, limit: int) -> list[tuple[XModMorphism, XModMorphism]]:
    groups: dict[tuple[CrossedModule, CrossedModule], list[XModMorphism]] = {}
    for P in fx.morphisms:
        groups.setdefault((P.dom, P.cod), []).append(P)
    pairs = [(P, Q) for bucket in groups.values() for P in bucket for Q in bucket]
    return pairs[:limit]


# ---------------------------------------------------------------------------
# bicategory suite


@_run_memo()
def run_bicategory_suite(fx: FixtureSet, fault: str | None = None) -> SuiteReport:
    """Unit and associativity laws of butterfly composition, flippable
    equivalences, and validity of every fixture butterfly."""
    _check_fault("bicategory", fault)
    report = SuiteReport("bicategory")
    corrupted = []  # whether each corruption changed E: not when (1 2) is an automorphism
    interned: dict[tuple, Butterfly] = {}  # the one composite of each value
    iso = _per_operand(_iso_or_none)  # interned composites repeat as operands

    @_per_operand
    def composite(B1: Butterfly, B2: Butterfly) -> Butterfly:
        C = compose(B1, B2)
        if fault == "compose" and C.E.order > 2:
            C, before = _corrupt_middle_group(C), C.E
            corrupted.append(C.E != before)
        return interned.setdefault(_value(C), C)

    def composer(B1: Butterfly, B2: Butterfly) -> Butterfly:
        # an operand equal to a composite stands in as that composite; fixtures are never interned
        return composite(interned.get(_value(B1), B1), interned.get(_value(B2), B2))

    for B in fx.butterflies:
        report.cases += 1
        check = validate_butterfly(B)
        if not check.ok:
            report.fail("butterfly-valid", butterfly=B, report=check.to_json())

    bounded = [B for B in fx.butterflies if B.E.order <= 2 * fx.size_bound]
    for B in bounded:
        report.cases += 1
        w = iso(composer(identity_butterfly(B.dom), B), B)
        if w is None:
            report.fail("left-unit", butterfly=B)
        elif not w.f.is_isomorphism:
            report.fail("witness-bijective", butterfly=B)
        report.cases += 1
        if iso(composer(B, identity_butterfly(B.cod)), B) is None:
            report.fail("right-unit", butterfly=B)

    for B1, B2, B3 in _composable_triples(bounded, 64 * fx.size_bound):
        report.cases += 1
        try:
            w = iso(*_bracketings(composer, B1, B2, B3))
        except ConstructionError as exc:  # a corrupt composite is refused as an operand
            report.fail("associativity", error=str(exc), triple=(B1, B2, B3))
            continue
        if w is None:
            report.fail("associativity", triple=(B1, B2, B3))
        elif not w.f.is_isomorphism:
            report.fail("witness-bijective", triple=(B1, B2, B3))

    for B in bounded:
        if not is_flippable(B):
            continue
        report.cases += 1
        Bstar = flip(B)
        if (
            iso(composer(B, Bstar), identity_butterfly(B.dom)) is None
            or iso(composer(Bstar, B), identity_butterfly(B.cod)) is None
        ):
            report.fail("flip-equivalence", butterfly=B)

    return report.done(fault, any(corrupted))


def _value(B: Butterfly) -> tuple:
    """What a butterfly is, without the names of E and its elements: composites
    equal by value have different names, and no report carries a composite."""
    return B.dom, B.cod, B.E.table, *_legs(B)


def _bracketings(composer, B1: Butterfly, B2: Butterfly, B3: Butterfly) -> tuple[Butterfly, Butterfly]:
    """(B1 B2) B3 and B1 (B2 B3), composed by `composer`."""
    return composer(composer(B1, B2), B3), composer(B1, composer(B2, B3))


def _composable_triples(butterflies: list[Butterfly], bound: int) -> Iterator[tuple[Butterfly, Butterfly, Butterfly]]:
    """The triples (B1, B2, B3) of `butterflies` with B1.cod = B2.dom,
    B2.cod = B3.dom and |E1||E2||E3| <= bound, in the order of a scan over
    B1, then B2, then B3: each B2 and B3 is drawn from an index by domain."""
    starting = _by_dom(butterflies)
    for B1 in butterflies:
        for B2 in starting.get(B1.cod, ()):
            for B3 in starting.get(B2.cod, ()):
                if B1.E.order * B2.E.order * B3.E.order <= bound:
                    yield B1, B2, B3


def _iso_or_none(B1: Butterfly, B2: Butterfly):
    """A morphism B1 -> B2, or None when there is none or, on operands off the
    butterfly axioms (the compose fault), when it is refused with ``ConstructionError``."""
    try:
        return isomorphic_butterflies(B1, B2)
    except ConstructionError:
        return None


def _corrupt_middle_group(B: Butterfly) -> Butterfly:
    """Relabel E by the transposition (1 2) without adjusting the maps."""
    perm, t = list(range(B.E.order)), B.E.table
    perm[1], perm[2] = 2, 1
    # (1 2) is its own inverse, so perm also maps old entries to new labels
    table = [[perm[t[a][b]] for b in perm] for a in perm]
    E2 = FinGroup._trusted(table, B.E.name + "!corrupt")
    # keep the map arrays on the relabeled group: the trusted path skips the
    # homomorphism checks, so the corrupted object reaches the validators
    return Butterfly._trusted(
        B.dom,
        B.cod,
        E2,
        GroupHom._trusted(B.dom.G, E2, B.kappa.map),
        GroupHom._trusted(B.cod.G, E2, B.iota.map),
        GroupHom._trusted(E2, B.dom.G0, B.sigma.map),
        GroupHom._trusted(E2, B.cod.G0, B.rho.map),
    )


# ---------------------------------------------------------------------------
# fractions suite


@_run_memo()
def run_fractions_suite(fx: FixtureSet, fault: str | None = None) -> SuiteReport:
    """EF0 (weak equivalences give flippable splits, and their squares are
    pullbacks), EF2 (2-cells biject with butterfly morphisms), EF3 (the span
    identity holds literally), the action laws A1-A3, and the two-cell and
    pullback-equivalence checks."""
    _check_fault("fractions", fault)
    report = SuiteReport("fractions")

    small_morphisms = [
        P for P in fx.morphisms if P.dom.size <= fx.size_bound and P.cod.size <= fx.size_bound
    ]

    # EF0 and its converse as a negative control
    for P in small_morphisms:
        report.cases += 1
        weak, _, _ = is_weak_equivalence(P)
        if weak != is_flippable(split_from_morphism(P)[0]):
            report.fail("ef0-flippable", morphism=P, weak=weak)
        # the square of boundaries against (p, p0) is a pullback
        if weak and not _is_pullback(P.p0, P.cod.boundary, P.dom.boundary, P.p):
            report.fail("ef0-pullback-square", morphism=P)

    # EF2: double counting on parallel pairs, each pair's 2-cells enumerated once
    pairs = []
    dropped_cells = 0
    for P, Q in _parallel_pairs(fx, limit=16):
        if denormalize(P.cod).G1.order <= fx.size_bound:
            cells = enumerate_two_cells(P, Q)
            # the cells come in lexicographic order of alpha: this drops the least
            kept = cells[1:] if fault == "two-cell-count" else cells
            pairs.append((P, Q, kept))
            dropped_cells += len(cells) - len(kept)
    for P, Q, cells in pairs:
        report.cases += 1
        morphisms = butterfly_morphisms(split_from_morphism(P)[0], split_from_morphism(Q)[0])
        images = []
        for c in cells:
            try:
                images.append(two_cell_image(c).f.map)
            except ConstructionError:  # the cell's map of middle groups is no butterfly morphism
                report.fail("ef2-image", P=P, Q=Q, alpha=list(c.alpha))
        distinct = set(images)
        if len(distinct) != len(images):
            report.fail("ef2-faithful", P=P, Q=Q)
        if distinct != {w.f.map for w in morphisms}:
            report.fail("ef2-full", P=P, Q=Q, cells=len(cells), morphisms=len(morphisms))

    # cross-check: the two exhaustive enumerations agree as sets
    for P, Q, cells in pairs:
        report.cases += 1
        if {c.alpha for c in cells} != set(enumerate_natural_transformations(P, Q)):
            report.fail("two-cell-naturality", P=P, Q=Q)

    # EF3: literal coincidence of the two reduced composites
    for B in fx.butterflies:
        if B.E.order > 2 * fx.size_bound:
            continue
        report.cases += 1
        if not ef3_coincidence(B):
            report.fail("ef3-literal", butterfly=B)

    # action laws
    bounded = [B for B in fx.butterflies if B.E.order <= fx.size_bound]
    for B in bounded:
        report.cases += 1
        if _iso_or_none(reduced_compose(identity_morphism(B.dom), B), B) is None:
            report.fail("a3-unit", butterfly=B)
    for P in small_morphisms:
        report.cases += 1
        if reduced_compose(P, identity_butterfly(P.cod)) != split_from_morphism(P)[0]:
            report.fail("reduced-vs-split", morphism=P)
    leaving, starting = _by_dom(small_morphisms), _by_dom(bounded)
    composable_pq = ((P, Q) for P in small_morphisms for Q in leaving.get(P.cod, ()))
    for P, Q in itertools.islice(composable_pq, 10):
        for B in starting.get(Q.cod, [])[:2]:
            report.cases += 1
            lhs = reduced_compose(compose_morphisms(P, Q), B)
            rhs = reduced_compose(P, reduced_compose(Q, B))
            if _iso_or_none(lhs, rhs) is None:
                report.fail("a2-associativity", P=P, Q=Q, butterfly=B)
    # A1: Q .rc (E1 E2) vs (Q .rc E1) E2 on composable data
    a1_triples = (
        (P, B1, B2)
        for P in small_morphisms
        for B1 in starting.get(P.cod, ())
        for B2 in starting.get(B1.cod, ())
        if B1.E.order * B2.E.order <= 8 * fx.size_bound
    )
    for P, B1, B2 in itertools.islice(a1_triples, 8):
        report.cases += 1
        lhs = reduced_compose(P, compose(B1, B2))
        rhs = compose(reduced_compose(P, B1), B2)
        if _iso_or_none(lhs, rhs) is None:
            report.fail("a1-compat", P=P, B1=B1, B2=B2)

    # pulling back along a surjection yields a weak equivalence
    sources = (cyclic_group(4), klein_four())
    for X in fx.crossed_modules:
        if X.size > fx.size_bound:
            continue
        for E in sources:
            for sigma in all_homomorphisms(E, X.G0):
                if not sigma.is_surjective:
                    continue
                report.cases += 1
                pulled, comparison = pullback_crossed_module(X, sigma)
                if not validate_crossed_module(pulled).ok or not is_weak_equivalence(comparison)[0]:
                    report.fail("pullback-weak-equivalence", xmod=X, source=E, sigma=list(sigma.map))

    return report.done(fault, dropped_cells > 0)


def ef3_coincidence(B: Butterfly) -> bool:
    """reduced_compose(left leg, B) equals reduced_compose(right leg, I) on
    the nose after the canonical relabeling (e1,e2) -> (e1, arrow e2->e1);
    False where a step refuses B with ``ConstructionError``."""
    try:
        _, left, right = span_of_butterfly(B)
        I = identity_butterfly(B.cod)
        L = reduced_compose(left, B)
        R = reduced_compose(right, I)
        LP, l1, l2, _ = product_and_pullback(B.sigma, B.sigma)
        RP, _, _, pairR = product_and_pullback(B.rho, I.sigma)
        if L.E != LP or R.E != RP:
            return False
        # arrow(e2, e1) ends at rho(e1), so each pair (e1, arrow) lies on RP
        theta = pairR(l1.map, _arrows(B, l2.map, l1.map))
        if _hom_defect(L.E, R.E, theta) is not None:
            return False
        # a bijection commuting with both wings and both legs
        butterfly_morphism(L, R, GroupHom._trusted(L.E, R.E, theta))
    except ConstructionError:
        return False
    return True


SUITES = {
    "bicategory": run_bicategory_suite,
    "fractions": run_fractions_suite,
}
