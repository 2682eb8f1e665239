"""The field table of ``jsonio`` against the per-kind code it replaced.

The oracles below are the writer branches and the five per-kind loaders that
``jsonio`` had before every kind's fields were stated once, in ``_KINDS``:
copied verbatim, with the loaders renamed and calling each other, plus the
two helpers whose signature has changed since, and two rules added since:
the refusal of an xmod name that is not a string, and of a fractor's
``derived`` block that is present but not an object (an empty list, 0,
false, "" or null once loaded as no block).  On every object of the
fixture sets of seeds 0-3 at bounds 8 and 16, with the 2-groups of their
crossed modules, the fractors of their butterflies and a monoidal functor
extracted from each butterfly, both writers must give the same canonical
bytes and both loaders the same object.  On mutations of the JSON of some of
those objects (a key deleted, a value of the wrong type, a negative or a
missing integer, "kind" removed) both loaders must end the same way: the
same exception type and message, or objects with the same canonical bytes.

Both sides load each input one after the other in one process, so the
library's memo caches, keyed by table equality and blind to names, answer
both from the same state.  The mutations are compared outside a run scope
and again inside one, where the loader builds each distinct record once.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

import pytest

from butterflies import jsonio
from butterflies.butterfly import Butterfly, Fractor, from_fractor, to_fractor, validate_butterfly
from butterflies.errors import ParseError, UnknownKind
from butterflies.fingroup import FinGroup, GroupAction, GroupHom, _run_memo
from butterflies.jsonio import Resolver, _int_rows, _ints, _require, _resolve, group_from_json
from butterflies.laws import generate_fixtures
from butterflies.weakmap import MonoidalFunctor, all_set_sections, extract_monoidal
from butterflies.xmod import CrossedModule, Strict2Group, XModMorphism, denormalize

# ---------------------------------------------------------------------------
# the oracles


def reference_to_jsonable(obj: Any) -> dict:
    if isinstance(obj, FinGroup):
        out = {"kind": "group", "name": obj.name, "order": obj.order, "table": [list(r) for r in obj.table]}
        if obj.element_labels is not None:
            out["labels"] = list(obj.element_labels)
        return out
    if isinstance(obj, CrossedModule):
        return {
            "kind": "xmod",
            "name": obj.name,
            "G": reference_to_jsonable(obj.G),
            "G0": reference_to_jsonable(obj.G0),
            "boundary": list(obj.boundary.map),
            "action": [list(p) for p in obj.action.act],
        }
    if isinstance(obj, Strict2Group):
        return {
            "kind": "2group",
            "G1": reference_to_jsonable(obj.G1),
            "G0": reference_to_jsonable(obj.G0),
            "d": list(obj.d.map),
            "c": list(obj.c.map),
            "e": list(obj.e.map),
        }
    if isinstance(obj, Butterfly):
        return {
            "kind": "butterfly",
            "dom": reference_to_jsonable(obj.dom),
            "cod": reference_to_jsonable(obj.cod),
            "E": reference_to_jsonable(obj.E),
            "kappa": list(obj.kappa.map),
            "iota": list(obj.iota.map),
            "sigma": list(obj.sigma.map),
            "rho": list(obj.rho.map),
        }
    if isinstance(obj, XModMorphism):
        return {
            "kind": "xmod-morphism",
            "dom": reference_to_jsonable(obj.dom),
            "cod": reference_to_jsonable(obj.cod),
            "p": list(obj.p.map),
            "p0": list(obj.p0.map),
        }
    if isinstance(obj, MonoidalFunctor):
        return {
            "kind": "monoidal",
            "dom": reference_to_jsonable(obj.dom),
            "cod": reference_to_jsonable(obj.cod),
            "F0": list(obj.F0),
            "F1": list(obj.F1),
            "F2": [list(r) for r in obj.F2],
        }
    if isinstance(obj, Fractor):
        return {
            "kind": "fractor",
            "butterfly": reference_to_jsonable(from_fractor(obj)),
            "derived": {
                "R": reference_to_jsonable(obj.left.dom),
                "Rsigma": reference_to_jsonable(obj.right.dom),
                "sigma_bar": list(obj.left.p1.map),
                "rho_bar": list(obj.right.p1.map),
            },
        }
    raise UnknownKind(f"cannot serialize {type(obj).__name__}")


def _nested_group(data: Any, resolver: Optional[Resolver]) -> FinGroup:
    G = group_from_json(data, resolver)
    if G.relabeling is not None:
        raise ParseError(f"group {G.name!r} inside another object must have its identity at index 0")
    return G


def reference_xmod(data: Any, resolver: Optional[Resolver] = None) -> CrossedModule:
    data = _resolve(data, resolver)
    _require(data, "G", "G0", "boundary", "action")
    name = data.get("name", "")
    if not isinstance(name, str):  # a rule added since the copy
        raise ParseError("field 'name' must be a string")
    G = _nested_group(data["G"], resolver)
    G0 = _nested_group(data["G0"], resolver)
    boundary = GroupHom(G, G0, _ints(data["boundary"], "boundary"))
    action = GroupAction(G0, G, _int_rows(data["action"], "action"))
    return CrossedModule(G, G0, boundary, action, name=name)


def reference_two_group(data: Any, resolver: Optional[Resolver] = None) -> Strict2Group:
    data = _resolve(data, resolver)
    _require(data, "G1", "G0", "d", "c", "e")
    G1 = _nested_group(data["G1"], resolver)
    G0 = _nested_group(data["G0"], resolver)
    d = GroupHom(G1, G0, _ints(data["d"], "d"))
    c = GroupHom(G1, G0, _ints(data["c"], "c"))
    e = GroupHom(G0, G1, _ints(data["e"], "e"))
    return Strict2Group(G1, G0, d, c, e)


def reference_butterfly(data: Any, resolver: Optional[Resolver] = None) -> Butterfly:
    data = _resolve(data, resolver)
    _require(data, "dom", "cod", "E", "kappa", "iota", "sigma", "rho")
    dom = reference_xmod(data["dom"], resolver)
    cod = reference_xmod(data["cod"], resolver)
    E = _nested_group(data["E"], resolver)
    return Butterfly(
        dom=dom,
        cod=cod,
        E=E,
        kappa=GroupHom(dom.G, E, _ints(data["kappa"], "kappa")),
        iota=GroupHom(cod.G, E, _ints(data["iota"], "iota")),
        sigma=GroupHom(E, dom.G0, _ints(data["sigma"], "sigma")),
        rho=GroupHom(E, cod.G0, _ints(data["rho"], "rho")),
    )


def reference_xmod_morphism(data: Any, resolver: Optional[Resolver] = None) -> XModMorphism:
    data = _resolve(data, resolver)
    _require(data, "dom", "cod", "p", "p0")
    dom = reference_xmod(data["dom"], resolver)
    cod = reference_xmod(data["cod"], resolver)
    return XModMorphism(
        dom,
        cod,
        GroupHom(dom.G, cod.G, _ints(data["p"], "p")),
        GroupHom(dom.G0, cod.G0, _ints(data["p0"], "p0")),
    )


def reference_fractor(data: Any, resolver: Optional[Resolver] = None) -> Fractor:
    data = _resolve(data, resolver)
    _require(data, "butterfly")
    B = reference_butterfly(data["butterfly"], resolver)
    report = validate_butterfly(B)
    if not report.ok:
        raise ValueError(f"fractor of an invalid butterfly:\n{report}")
    F = to_fractor(B)
    derived = data.get("derived", {})  # a rule added since the copy: a present non-object is refused
    if not isinstance(derived, dict):
        raise ParseError("field 'derived' must be an object")
    for field, leg in (("sigma_bar", F.left), ("rho_bar", F.right)):
        if field in derived and _ints(derived[field], field) != leg.p1.map:
            raise ParseError("derived block disagrees with the reconstructed fractor")
    return F


def reference_monoidal(data: Any, resolver: Optional[Resolver] = None) -> MonoidalFunctor:
    data = _resolve(data, resolver)
    _require(data, "dom", "cod", "F0", "F1", "F2")
    dom = reference_two_group(data["dom"], resolver)
    cod = reference_two_group(data["cod"], resolver)
    return MonoidalFunctor(
        dom, cod, _ints(data["F0"], "F0"), _ints(data["F1"], "F1"), _int_rows(data["F2"], "F2")
    )


REFERENCE_LOADERS = {
    "group": group_from_json,
    "xmod": reference_xmod,
    "2group": reference_two_group,
    "butterfly": reference_butterfly,
    "xmod-morphism": reference_xmod_morphism,
    "monoidal": reference_monoidal,
    "fractor": reference_fractor,
}


def reference_from_jsonable(data: Any, resolver: Optional[Resolver] = None):
    # dispatch by the required string kind, as the library does
    data = _resolve(data, resolver)
    kind = data.get("kind")
    loader = REFERENCE_LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise UnknownKind(f"no loader for kind {kind!r}")
    return loader(data, resolver)


# ---------------------------------------------------------------------------
# objects and mutations

SETS = [(seed, bound) for seed in range(4) for bound in (8, 16)]


def fixture_objects(seed: int, bound: int) -> list:
    """Every object of a fixture set, the 2-group of each crossed module, and
    the fractor and a monoidal functor of each butterfly."""
    fx = generate_fixtures(seed, bound)
    objects = [*fx.crossed_modules, *fx.morphisms, *fx.butterflies]
    objects += [denormalize(X) for X in fx.crossed_modules]
    objects += [to_fractor(B) for B in fx.butterflies]
    objects += [extract_monoidal(B, all_set_sections(B)[0]) for B in fx.butterflies]
    return objects


def canonical(obj: Any, write) -> bytes:
    return jsonio.canonical_bytes(write(obj))


def outcome(load, write, data: Any):
    """The canonical bytes of what ``load`` makes of a copy of ``data``, or
    the type and message of the exception it raises."""
    try:
        return canonical(load(copy.deepcopy(data)), write)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc).__name__, str(exc)


WRONG = ("x", 7, None, [], {}, [[1]])


def mutations(data: dict) -> list:
    """Copies of ``data`` with one change each, at the top level and in every
    object nested directly under it, and one with all its lists wrong."""
    out = []
    if "kind" in data:
        out.append({k: v for k, v in data.items() if k != "kind"})
    # every list wrong at once: the first error follows the load order
    out.append({k: 7 if isinstance(v, list) else v for k, v in data.items()})
    nodes = [((), data)] + [((k,), v) for k, v in data.items() if isinstance(v, dict)]
    for path, node in nodes:
        for key, value in node.items():
            changes = [None, *WRONG]  # None: delete the key
            if isinstance(value, list) and value:
                changes += [value[:-1], [-1] + value[1:]]
                if isinstance(value[0], list) and value[0]:
                    changes.append([[-1] + value[0][1:]] + value[1:])
            for change in changes:
                mutated = copy.deepcopy(data)
                target = mutated
                for step in path:
                    target = target[step]
                if change is None:
                    del target[key]
                else:
                    target[key] = change
                out.append(mutated)
    return out


# ---------------------------------------------------------------------------
# the tests


@pytest.mark.parametrize("seed, bound", SETS, ids=[f"{s},{b}" for s, b in SETS])
def test_bytes_and_reloads_equal(seed, bound):
    for obj in fixture_objects(seed, bound):
        data = jsonio.to_jsonable(obj)
        assert data == reference_to_jsonable(obj)
        assert list(data) == list(reference_to_jsonable(obj))  # key order, for unsorted dumps
        assert jsonio.canonical_bytes(data) == canonical(obj, reference_to_jsonable)
        new, old = jsonio.from_jsonable(copy.deepcopy(data)), reference_from_jsonable(copy.deepcopy(data))
        assert canonical(new, jsonio.to_jsonable) == canonical(old, reference_to_jsonable)
        assert canonical(new, jsonio.to_jsonable) == jsonio.canonical_bytes(data)


def one_of_each_type(seed: int, bound: int, position: int) -> list:
    """The object at ``position`` among those of each type in a fixture set."""
    by_type: dict = {}
    for obj in fixture_objects(seed, bound):
        by_type.setdefault(type(obj), []).append(obj)
    return [objects[position] for objects in by_type.values()]


def malformed_inputs_compared(seed: int, bound: int, position: int) -> int:
    """Compare how both loaders end on each mutation of the objects of
    ``one_of_each_type``; the number of inputs compared."""
    compared = 0
    for obj in one_of_each_type(seed, bound, position):
        for data in mutations(jsonio.to_jsonable(obj)):
            expected = outcome(reference_from_jsonable, reference_to_jsonable, data)
            assert outcome(jsonio.from_jsonable, jsonio.to_jsonable, data) == expected, data
            compared += 1
    return compared


# the first objects of a small set and the last, largest ones of a large set
@pytest.mark.parametrize("seed, bound, position", [(0, 8, 0), (1, 16, -1)], ids=["0,8,first", "1,16,last"])
def test_malformed_inputs_end_the_same(seed, bound, position):
    assert malformed_inputs_compared(seed, bound, position) > 700


@pytest.mark.parametrize("seed, bound, position", [(0, 8, 0), (1, 16, -1)], ids=["0,8,first", "1,16,last"])
def test_malformed_inputs_end_the_same_in_a_run_scope(seed, bound, position):
    """The same comparison inside one ``_run_memo()`` scope, as a CLI command
    runs: the loader builds each distinct record once, keyed only after each
    field's shape check, so each input still ends with its own first error."""
    with _run_memo():
        assert malformed_inputs_compared(seed, bound, position) > 700
