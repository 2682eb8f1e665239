"""Every validator is total: on an object with one part edited it reports, and never raises.

The sweep hands each object of fixture set (0, 8) to its validator, with one
part edited at a time and the records that hold it rebuilt, through
``_trusted`` where a record has it:

* each homomorphism of its own parts, the crossed modules or 2-groups it
  goes between (its ends) left out: an entry off range, the last entry
  dropped, or two different entries swapped;
* each group table its records hold, the ends' included: two entries of
  row 1 swapped, an entry off range, or a row one entry short;
* for a morphism, a butterfly or a 2-cell, each end in its place, ``dom`` or
  ``cod``, so that an end equal to the other is edited alone: its boundary
  edited as a homomorphism above, or its last action row given an entry off
  range.

No validator may raise, and wherever the checked constructor rejects the
edited part, ``FinGroup(table)`` or ``GroupHom(dom, cod, map)``, the report
must not be ok (``validate_factor_set`` must answer False).  Every end edit
breaks the end, so its report is never ok.  The factor sets are those of
(Z2, V4), (Z2, Z4) and (Z3, Z3), as fixtures have none.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from functools import lru_cache

import pytest

import butterflies
from butterflies.butterfly import to_fractor, validate_butterfly, validate_fractor
from butterflies.errors import NotAGroup
from butterflies.extension import aut_xmod, enumerate_cocycles, validate_factor_set
from butterflies.fingroup import FinGroup, GroupAction, GroupHom, _Trusted, cyclic_group, klein_four
from butterflies.laws import generate_fixtures
from butterflies.weakmap import all_set_sections, check_monoidal, extract_monoidal
from butterflies.xmod import (
    CrossedModule,
    XModTwoCell,
    denormalize,
    denormalize_morphism,
    validate_crossed_module,
    validate_two_cell,
    validate_two_group,
    validate_two_group_functor,
    validate_xmod_morphism,
)

ENDS = ("dom", "cod", "H2", "G2")


VALIDATORS = (
    validate_crossed_module,
    validate_xmod_morphism,
    validate_two_group,
    validate_two_group_functor,
    validate_butterfly,
    validate_two_cell,
    validate_fractor,
    check_monoidal,
    validate_factor_set,
)


@lru_cache(maxsize=1)
def subjects() -> dict:
    """The objects each validator is swept on, built when a test first asks,
    not at collection: the equality-keyed caches keep the first of equal
    values that a process builds, names included, and other tests pin names."""
    fx = generate_fixtures(0, 8)
    Z2, Z3, Z4, V4 = cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()
    return {
        validate_crossed_module: fx.crossed_modules,
        validate_xmod_morphism: fx.morphisms,
        validate_two_group: [denormalize(X) for X in fx.crossed_modules],
        validate_two_group_functor: [denormalize_morphism(P) for P in fx.morphisms],
        validate_butterfly: fx.butterflies,
        validate_two_cell: fx.two_cells,
        validate_fractor: [to_fractor(B) for B in fx.butterflies],
        check_monoidal: [extract_monoidal(B, all_set_sections(B)[0]) for B in fx.butterflies],
        validate_factor_set: [fs for H, G in ((Z2, V4), (Z2, Z4), (Z3, Z3)) for fs in enumerate_cocycles(H, G)],
    }


def records(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) else []


def own_homs(obj) -> dict:
    """The homomorphisms of obj and of its parts, the ends left out, by identity."""
    if isinstance(obj, GroupHom):
        return {id(obj): obj}
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    return {k: h for f in fields if f.name not in ENDS for k, h in own_homs(getattr(obj, f.name)).items()}


def groups(obj) -> dict:
    """Every group that the records of obj hold, by identity.  The groups
    that a map or an action names are left out: the validators read the
    records' groups, and those of a map may be other objects equal to them."""
    if isinstance(obj, FinGroup):
        return {id(obj): obj}
    if isinstance(obj, (GroupHom, GroupAction)):
        return {}
    return {k: G for part in records(obj) for k, G in groups(part).items()}


def rebuilt(obj, old, new):
    """obj with each occurrence of old replaced by new."""
    if obj is old:
        return new
    values = records(obj)
    fresh = [rebuilt(value, old, new) for value in values]
    if all(a is b for a, b in zip(values, fresh)):
        return obj
    cls = type(obj)
    return cls._trusted(*fresh) if issubclass(cls, _Trusted) else cls(*fresh)


def map_edits(m: list, k: int):
    """(name, edited m) for the edits of a map into a group of order k."""
    yield "off-range", m[:-1] + [k]
    yield "short", m[:-1]
    pairs = [(i, j) for i in range(len(m)) for j in range(i) if m[i] != m[j]]
    if pairs:
        i, j = pairs[0]
        swapped = list(m)
        swapped[i], swapped[j] = m[j], m[i]
        yield "swapped", swapped


def table_edits(table: list):
    """(name, edited table) for the edits of row 1, which keeps its 0."""
    if len(table) < 2:
        return
    last = max(j for j, x in enumerate(table[1]) if x)
    for name in ("swapped", "off-range", "short-row") if len(table) > 2 else ("off-range", "short-row"):
        t = [list(row) for row in table]
        if name == "swapped":
            t[1][1], t[1][2] = t[1][2], t[1][1]
        elif name == "off-range":
            t[1][last] = len(t)
        else:
            del t[1][last]
        yield name, t


def end_edits(X):
    """(name, X with one part edited) for the edits of a crossed module end."""
    bd = X.boundary
    for name, m in map_edits(list(bd.map), X.G0.order):
        yield f"boundary {name}", dataclasses.replace(X, boundary=GroupHom._trusted(bd.dom, bd.cod, tuple(m)))
    rows = [list(row) for row in X.action.act]
    rows[-1][-1] = X.G.order
    action = GroupAction._trusted(X.action.actor, X.action.target, tuple(map(tuple, rows)))
    yield "action row off-range", dataclasses.replace(X, action=action)


def with_end(obj, end: str, Y):
    """obj with its end `end` (of both morphisms, for a 2-cell) replaced by Y."""
    if isinstance(obj, XModTwoCell):
        return XModTwoCell(with_end(obj.P, end, Y), with_end(obj.Q, end, Y), obj.alpha)
    values = [Y if f.name == end else getattr(obj, f.name) for f in dataclasses.fields(obj)]
    cls = type(obj)
    return cls._trusted(*values) if issubclass(cls, _Trusted) else cls(*values)


def rejected(build) -> bool:
    try:
        build()
    except (ValueError, NotAGroup):
        return True
    return False


def edited_cases(obj):
    """(label, edited obj, whether the checked constructor rejects the edit)."""
    for h in own_homs(obj).values():
        for name, m in map_edits(list(h.map), h.cod.order):
            yield f"map {name}", rebuilt(obj, h, GroupHom._trusted(h.dom, h.cod, tuple(m))), rejected(
                lambda: GroupHom(h.dom, h.cod, m)
            )
    for G in groups(obj).values():
        for name, t in table_edits([list(row) for row in G.table]):
            broken = FinGroup._trusted(t, G.name + "!edited")
            yield f"table {name}", rebuilt(obj, G, broken), rejected(lambda: FinGroup(t))
    ends = obj.P if isinstance(obj, XModTwoCell) else obj
    for end in ("dom", "cod") if isinstance(getattr(ends, "dom", None), CrossedModule) else ():
        for name, Y in end_edits(getattr(ends, end)):
            yield f"{end} {name}", with_end(obj, end, Y), True


def passes(validator, obj, broken) -> bool:
    """Whether validator passes broken, an edit of obj."""
    if validator is validate_factor_set:
        A = aut_xmod(obj.G)  # Aut of the unedited kernel
        return validate_factor_set(broken, A.G0, A.action)
    return validator(broken).ok


@pytest.mark.parametrize("validator", VALIDATORS, ids=lambda v: v.__name__)
def test_validator_reports_every_edit_and_never_raises(validator):
    rejections = 0
    for obj in subjects()[validator]:
        for label, broken, reject in edited_cases(obj):
            try:
                ok = passes(validator, obj, broken)
            except Exception as exc:  # any exception is the failure reported
                pytest.fail(f"{validator.__name__} raised {exc!r} on {label} of {obj!r}")
            if reject:
                rejections += 1
                assert not ok, f"{validator.__name__} passed {label} of {obj!r}"
    assert rejections  # the sweep reaches the rejected edits it is about


def test_the_sweep_covers_every_validator():
    modules = [importlib.import_module(f"butterflies.{m.name}") for m in pkgutil.iter_modules(butterflies.__path__)]
    public = {
        name
        for module in modules
        for name, f in vars(module).items()
        if name.startswith("validate_") and inspect.isfunction(f) and f.__module__ == module.__name__
    }
    assert {v.__name__ for v in VALIDATORS} == public | {"check_monoidal"}


def test_a_group_read_by_two_gate_calls_is_reported_once():
    # validate_crossed_module gates the boundary on G and G0 and returns before
    # _action_defect reads G; validate_two_group_functor validates its ends
    # first, each gating its own graph once, and returns before its legs' gate
    X = next(X for X in subjects()[validate_crossed_module] if X.G.order > 2)
    F = next(F for F in subjects()[validate_two_group_functor] if F.dom.G1.order > 2)
    cases = ((validate_crossed_module, X, X.G, ""), (validate_two_group_functor, F, F.dom.G1, "underlying-2group:"))
    for validator, obj, G, prefix in cases:
        _, table = next(table_edits([list(row) for row in G.table]))
        broken = FinGroup._trusted(table, G.name + "!edited")
        report = validator(rebuilt(obj, G, broken))
        assert [(f.condition, f.witness) for f in report.findings] == [(prefix + "not-a-group", broken.name)]
