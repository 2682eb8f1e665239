"""JSON encodings of groups, crossed modules, 2-groups, butterflies and
monoidal functors, plus the canonical serialization used by the object store.

Group tables are written verbatim.  A top-level group's identity is moved to
index 0 if needed, with the permutation recorded; a nested group must have it
there already, as the maps beside it index the table as written.  2-groups
are written as (G1, G0, d, c, e) alone; their composition and inverse are
derived.  Every integer field is shape-checked before any constructor sees
it, so malformed input is a ParseError.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Optional

from .butterfly import Butterfly, Fractor, from_fractor, to_fractor, validate_butterfly
from .errors import ParseError, UnknownKind
from .extension import ExtensionDatum, FactorSet
from .fingroup import FinGroup, GroupAction, GroupHom, construct_group
from .weakmap import MonoidalFunctor
from .xmod import CrossedModule, Strict2Group, XModMorphism

Resolver = Callable[[str], dict]


def to_jsonable(obj: Any) -> dict:
    if isinstance(obj, FinGroup):
        out = {"kind": "group", "name": obj.name, "order": obj.order, "table": [list(r) for r in obj.table]}
        if obj.element_labels is not None:
            out["labels"] = list(obj.element_labels)
        return out
    if isinstance(obj, GroupHom):
        return {
            "kind": "hom",
            "dom": to_jsonable(obj.dom),
            "cod": to_jsonable(obj.cod),
            "map": list(obj.map),
        }
    if isinstance(obj, CrossedModule):
        return {
            "kind": "xmod",
            "name": obj.name,
            "G": to_jsonable(obj.G),
            "G0": to_jsonable(obj.G0),
            "boundary": list(obj.boundary.map),
            "action": [list(p) for p in obj.action.act],
        }
    if isinstance(obj, Strict2Group):
        return {
            "kind": "2group",
            "G1": to_jsonable(obj.G1),
            "G0": to_jsonable(obj.G0),
            "d": list(obj.d.map),
            "c": list(obj.c.map),
            "e": list(obj.e.map),
        }
    if isinstance(obj, Butterfly):
        return {
            "kind": "butterfly",
            "dom": to_jsonable(obj.dom),
            "cod": to_jsonable(obj.cod),
            "E": to_jsonable(obj.E),
            "kappa": list(obj.kappa.map),
            "iota": list(obj.iota.map),
            "sigma": list(obj.sigma.map),
            "rho": list(obj.rho.map),
        }
    if isinstance(obj, XModMorphism):
        return {
            "kind": "xmod-morphism",
            "dom": to_jsonable(obj.dom),
            "cod": to_jsonable(obj.cod),
            "p": list(obj.p.map),
            "p0": list(obj.p0.map),
        }
    if isinstance(obj, MonoidalFunctor):
        return {
            "kind": "monoidal",
            "dom": to_jsonable(obj.dom),
            "cod": to_jsonable(obj.cod),
            "F0": list(obj.F0),
            "F1": list(obj.F1),
            "F2": [list(r) for r in obj.F2],
        }
    if isinstance(obj, Fractor):
        return {
            "kind": "fractor",
            "butterfly": to_jsonable(from_fractor(obj)),
            "derived": {
                "R": to_jsonable(obj.R),
                "Rsigma": to_jsonable(obj.Rsigma),
                "sigma_bar": list(obj.left.p1.map),
                "rho_bar": list(obj.right.p1.map),
            },
        }
    if isinstance(obj, ExtensionDatum):
        return {
            "kind": "extension",
            "H": to_jsonable(obj.H),
            "G": to_jsonable(obj.G),
            "E": to_jsonable(obj.E),
            "iota": list(obj.iota.map),
            "sigma": list(obj.sigma.map),
        }
    if isinstance(obj, FactorSet):
        return {
            "kind": "factor-set",
            "H": to_jsonable(obj.H),
            "G": to_jsonable(obj.G),
            "phi": list(obj.phi),
            "f": [list(r) for r in obj.f],
        }
    raise UnknownKind(f"cannot serialize {type(obj).__name__}")


def canonical_bytes(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def content_ref(data: dict) -> str:
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


def detect_kind(data: dict) -> str:
    if not isinstance(data, dict):
        raise ParseError("top-level JSON object expected")
    if "kind" in data:
        return str(data["kind"])
    if "table" in data:
        return "group"
    if "kappa" in data:
        return "butterfly"
    if "boundary" in data:
        return "xmod"
    if "F2" in data:
        return "monoidal"
    if "d" in data and "c" in data and "e" in data:
        return "2group"
    if "p" in data and "p0" in data:
        return "xmod-morphism"
    raise UnknownKind("object kind not recognized")


def _resolve(value: Any, resolver: Optional[Resolver]) -> dict:
    if isinstance(value, str):
        if resolver is None:
            raise ParseError(f"reference {value!r} given but no store available")
        return resolver(value)
    if isinstance(value, dict):
        return value
    raise ParseError(f"expected object or reference, got {type(value).__name__}")


def _require(data: dict, *fields: str) -> None:
    for field in fields:
        if field not in data:
            raise ParseError(f"missing field {field!r}")


def _ints(value: Any, field: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise ParseError(f"field {field!r} must be a list of integers")
    return tuple(value)


def _int_rows(value: Any, field: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ParseError(f"field {field!r} must be a list of integer lists")
    return tuple(_ints(row, field) for row in value)


def group_from_json(data: Any, resolver: Optional[Resolver] = None) -> FinGroup:
    data = _resolve(data, resolver)
    _require(data, "table")
    table = _int_rows(data["table"], "table")
    if "order" in data and data["order"] != len(table):
        raise ParseError(f"declared order {data['order']} does not match the table")
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != len(table) or not all(isinstance(x, str) for x in labels)
    ):
        raise ParseError("field 'labels' must hold one string per element")
    return construct_group(table, data.get("name", "G"), labels)


def _nested_group(data: Any, resolver: Optional[Resolver]) -> FinGroup:
    G = group_from_json(data, resolver)
    if G.relabeling is not None:
        raise ParseError(f"group {G.name!r} inside another object must have its identity at index 0")
    return G


def xmod_from_json(data: Any, resolver: Optional[Resolver] = None) -> CrossedModule:
    data = _resolve(data, resolver)
    _require(data, "G", "G0", "boundary", "action")
    G = _nested_group(data["G"], resolver)
    G0 = _nested_group(data["G0"], resolver)
    boundary = GroupHom(G, G0, _ints(data["boundary"], "boundary"))
    action = GroupAction(G0, G, _int_rows(data["action"], "action"))
    return CrossedModule(G, G0, boundary, action, name=data.get("name", ""))


def two_group_from_json(data: Any, resolver: Optional[Resolver] = None) -> Strict2Group:
    data = _resolve(data, resolver)
    _require(data, "G1", "G0", "d", "c", "e")
    G1 = _nested_group(data["G1"], resolver)
    G0 = _nested_group(data["G0"], resolver)
    d = GroupHom(G1, G0, _ints(data["d"], "d"))
    c = GroupHom(G1, G0, _ints(data["c"], "c"))
    e = GroupHom(G0, G1, _ints(data["e"], "e"))
    return Strict2Group(G1, G0, d, c, e)


def butterfly_from_json(data: Any, resolver: Optional[Resolver] = None) -> Butterfly:
    data = _resolve(data, resolver)
    _require(data, "dom", "cod", "E", "kappa", "iota", "sigma", "rho")
    dom = xmod_from_json(data["dom"], resolver)
    cod = xmod_from_json(data["cod"], resolver)
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


def xmod_morphism_from_json(data: Any, resolver: Optional[Resolver] = None) -> XModMorphism:
    data = _resolve(data, resolver)
    _require(data, "dom", "cod", "p", "p0")
    dom = xmod_from_json(data["dom"], resolver)
    cod = xmod_from_json(data["cod"], resolver)
    return XModMorphism(
        dom,
        cod,
        GroupHom(dom.G, cod.G, _ints(data["p"], "p")),
        GroupHom(dom.G0, cod.G0, _ints(data["p0"], "p0")),
    )


def fractor_from_json(data: Any, resolver: Optional[Resolver] = None) -> Fractor:
    """Rebuild a fractor from its underlying butterfly, which must be valid;
    the derived block, if present, is cross-checked against the reconstruction."""
    data = _resolve(data, resolver)
    _require(data, "butterfly")
    B = butterfly_from_json(data["butterfly"], resolver)
    report = validate_butterfly(B)
    if not report.ok:
        raise ValueError(f"fractor of an invalid butterfly:\n{report}")
    F = to_fractor(B)
    derived = data.get("derived") or {}
    if not isinstance(derived, dict):
        raise ParseError("field 'derived' must be an object")
    for field, leg in (("sigma_bar", F.left), ("rho_bar", F.right)):
        if field in derived and _ints(derived[field], field) != leg.p1.map:
            raise ParseError("derived block disagrees with the reconstructed fractor")
    return F


def monoidal_from_json(data: Any, resolver: Optional[Resolver] = None) -> MonoidalFunctor:
    data = _resolve(data, resolver)
    _require(data, "dom", "cod", "F0", "F1", "F2")
    dom = two_group_from_json(data["dom"], resolver)
    cod = two_group_from_json(data["cod"], resolver)
    return MonoidalFunctor(
        dom, cod, _ints(data["F0"], "F0"), _ints(data["F1"], "F1"), _int_rows(data["F2"], "F2")
    )


_LOADERS = {
    "group": group_from_json,
    "xmod": xmod_from_json,
    "2group": two_group_from_json,
    "butterfly": butterfly_from_json,
    "xmod-morphism": xmod_morphism_from_json,
    "monoidal": monoidal_from_json,
    "fractor": fractor_from_json,
}


def from_jsonable(data: Any, resolver: Optional[Resolver] = None):
    if isinstance(data, str):
        data = _resolve(data, resolver)
    kind = detect_kind(data)
    loader = _LOADERS.get(kind)
    if loader is None:
        raise UnknownKind(f"no loader for kind {kind!r}")
    return loader(data, resolver)
