"""JSON encodings of groups, crossed modules, 2-groups, butterflies and
monoidal functors, plus the canonical serialization used by the object store.

``_KINDS`` states the fields of every kind but group and fractor once:
``to_jsonable`` and the store's ``encode_each``, which encodes a record shared
by a batch's objects once, write them, and ``_load_fields`` loads them.  Group
tables are written verbatim.  A top-level group's identity is moved to index 0
if needed; a nested group must have it there already, as the maps beside it
index the table as written.  2-groups are written as (G1, G0, d, c, e) alone.
Every integer field is shape-checked, refusing JSON booleans and floats,
before any constructor sees it, so malformed input is a ParseError.  A run
scope (``fingroup._run_memo()``, as a CLI command is) builds each distinct
record once, keyed after its fields' shape checks by its names, its ints and
the objects of its fields (``_built``); outside one, every load builds afresh.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from itertools import chain
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Optional

from .butterfly import Butterfly, Fractor, from_fractor, to_fractor, validate_butterfly
from .errors import ParseError, UnknownKind
from .fingroup import FinGroup, GroupAction, GroupHom, _once, construct_group
from .weakmap import MonoidalFunctor
from .xmod import CrossedModule, Strict2Group, XModMorphism

Resolver = Callable[[str], dict]
Loader = Callable[[Any, str, Optional[Resolver], SimpleNamespace], Any]


def to_jsonable(obj: Any) -> dict:
    return _record(obj, to_jsonable)


def _record(obj: Any, nested: Callable[[Any], Any]) -> dict:
    """`obj`'s JSON fields, each record nested in it given by `nested`."""
    spec = _KIND_OF.get(type(obj))
    if spec is not None:
        kind, fields = spec
        out = {"kind": kind}
        for key, _ in fields:
            value = getattr(obj, key)
            dump = _DUMP.get(type(value), _unchecked)
            out[key] = nested(value) if dump is None else dump(value)
        return out
    if isinstance(obj, FinGroup):
        out = {"kind": "group", "name": obj.name, "order": obj.order, "table": [list(r) for r in obj.table]}
        if obj.element_labels is not None:
            out["labels"] = list(obj.element_labels)
        return out
    if isinstance(obj, Fractor):
        return {
            "kind": "fractor",
            "butterfly": nested(from_fractor(obj)),
            "derived": {
                "R": nested(obj.left.dom),
                "Rsigma": nested(obj.right.dom),
                "sigma_bar": list(obj.left.p1.map),
                "rho_bar": list(obj.right.p1.map),
            },
        }
    raise UnknownKind(f"cannot serialize {type(obj).__name__}")


def canonical_bytes(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Encoded(str):
    """A nested record's canonical text, which `_composed` writes as it is."""


def _composed(data: Any) -> str:
    """`canonical_bytes(data)` as text, for `_record`'s dicts, whose keys need no escaping."""
    if type(data) is dict:
        return "{" + ",".join(f'"{k}":{_composed(v)}' for k, v in sorted(data.items())) + "}"
    return data if type(data) is _Encoded else _compact(data)


def encode_each(objs: Iterable[Any]) -> Iterator[tuple[str, bytes]]:
    """Each object's kind and canonical bytes, composed from the texts of the
    records nested in it.  Groups, crossed modules and 2-groups keep their
    texts, and stay alive, until the iteration ends, so each is encoded once."""
    memo: dict[int, tuple[Any, str, _Encoded]] = {}
    for _, kind, text in (_encoded(obj, memo) for obj in objs):
        yield kind, text.encode()


def _encoded(obj: Any, memo: dict) -> tuple[Any, str, _Encoded]:
    if id(obj) not in memo:
        data = _record(obj, lambda child: _encoded(child, memo)[2])
        hit = (obj, data["kind"], _Encoded(_composed(data)))
        if not isinstance(obj, _SHARED):
            return hit
        memo[id(obj)] = hit
    return memo[id(obj)]


def _indented(data: Any, pad: str) -> str:
    """`json.dumps(data, indent=1, sort_keys=True)` for data that starts on a line
    indented by `pad`, its lists of ints and of int rows written by the C encoder."""
    inner = pad + " "
    if type(data) in (str, int):
        return _compact(data)
    if type(data) is dict and data and all(type(k) is str for k in data):
        items = [f"{_compact(k)}: {_indented(v, inner)}" for k, v in sorted(data.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if type(data) not in (list, tuple) or not data:  # JSON text holds no raw newline inside a string
        return json.dumps(data, indent=1, sort_keys=True).replace("\n", "\n" + pad)
    if set(map(type, data)) == {int}:
        return "[\n" + inner + _compact(data)[1:-1].replace(",", ",\n" + inner) + "\n" + pad + "]"
    if all(type(row) in (list, tuple) and row for row in data) and set(map(type, chain.from_iterable(data))) == {int}:
        deeper = inner + " "  # each row split at its commas, then closed and reopened between rows
        rows = _compact(data)[2:-2].replace(",", ",\n" + deeper)
        rows = rows.replace(f"],\n{deeper}[", f"\n{inner}],\n{inner}[\n{deeper}")
        return f"[\n{inner}[\n{deeper}{rows}\n{inner}]\n{pad}]"
    return "[\n" + inner + (",\n" + inner).join(_indented(v, inner) for v in data) + "\n" + pad + "]"


indented = partial(_indented, pad="")


def content_ref(data: dict) -> str:
    return bytes_ref(canonical_bytes(data))


def bytes_ref(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _resolve(value: Any, resolver: Optional[Resolver]) -> dict:
    if isinstance(value, str):
        if resolver is None:
            raise ParseError(f"reference {value!r} given but no store available")
        value = resolver(value)
    if isinstance(value, dict):
        return value
    raise ParseError(f"expected object or reference, got {type(value).__name__}")


def _require(data: dict, *fields: str) -> None:
    for field in fields:
        if field not in data:
            raise ParseError(f"missing field {field!r}")


def _ints(value: Any, field: str, *_: Any) -> tuple[int, ...]:
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:  # no JSON true, false or 1.0
        raise ParseError(f"field {field!r} must be a list of integers")
    return tuple(value)


def _int_rows(value: Any, field: str, *_: Any) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ParseError(f"field {field!r} must be a list of integer lists")
    return tuple(_ints(row, field) for row in value)


def group_from_json(data: Any, resolver: Optional[Resolver] = None) -> FinGroup:
    data = _resolve(data, resolver)
    _require(data, "table")
    table = _int_rows(data["table"], "table")
    if "order" in data and (type(data["order"]) is not int or data["order"] != len(table)):
        raise ParseError(f"declared order {data['order']!r} does not match the table")
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != len(table) or not all(isinstance(x, str) for x in labels)
    ):
        raise ParseError("field 'labels' must hold one string per element")
    name, labels = _name(data.get("name", "G"), "name"), None if labels is None else tuple(labels)
    return _once((FinGroup, name, table, labels), lambda: construct_group(table, name, labels))


def _nested_group(data: Any, key: str, resolver: Optional[Resolver], loaded: SimpleNamespace) -> FinGroup:
    G = group_from_json(data, resolver)
    if G.relabeling is not None:
        raise ParseError(f"group {G.name!r} inside another object must have its identity at index 0")
    return G


def _nested(kind: str) -> Loader:
    return lambda value, key, resolver, loaded: _load_fields(kind, value, resolver)


def _hom(dom: str, cod: str) -> Loader:
    dom_of, cod_of = attrgetter(dom), attrgetter(cod)
    return lambda value, key, resolver, loaded: _built(GroupHom, dom_of(loaded), cod_of(loaded), _ints(value, key))


def _action(value: Any, key: str, resolver: Optional[Resolver], loaded: SimpleNamespace) -> GroupAction:
    return _built(GroupAction, loaded.G0, loaded.G, _int_rows(value, key))


def _built(cls: type, *args: Any, **fields: Any) -> Any:
    """``cls(*args, **fields)``, in a run scope once per class and values: objects
    by identity, as the record built keeps them alive, names and int tuples by value."""
    key = (cls, *(v if isinstance(v, (str, tuple)) else id(v) for v in (*args, *fields.values())))
    return _once(key, lambda: cls(*args, **fields))


def _name(value: Any, key: str, *_: Any) -> str:
    """A group's or an xmod's optional name, which must be a string."""
    if not isinstance(value, str):
        raise ParseError(f"field {key!r} must be a string")
    return value


def _unchecked(value: Any, *_: Any) -> Any:
    """An xmod's name, written as it is."""
    return value


def _kind(cls: type, **fields: Loader) -> tuple[type, tuple[tuple[str, Loader], ...], tuple[str, ...]]:
    """A kind's class, its fields in load order, and its required keys: all
    but an xmod's name."""
    return cls, tuple(fields.items()), tuple(key for key, load in fields.items() if load is not _name)


# Each kind's class and its fields in load order.  JSON keys are attribute
# names; loader(value, key, resolver, loaded) builds a field from its JSON
# value and the namespace of the fields loaded before it.
_KINDS = {
    "xmod": _kind(
        CrossedModule, name=_name, G=_nested_group, G0=_nested_group, boundary=_hom("G", "G0"), action=_action
    ),
    "2group": _kind(
        Strict2Group, G1=_nested_group, G0=_nested_group, d=_hom("G1", "G0"), c=_hom("G1", "G0"), e=_hom("G0", "G1")
    ),
    "butterfly": _kind(
        Butterfly,
        dom=_nested("xmod"),
        cod=_nested("xmod"),
        E=_nested_group,
        kappa=_hom("dom.G", "E"),
        iota=_hom("cod.G", "E"),
        sigma=_hom("E", "dom.G0"),
        rho=_hom("E", "cod.G0"),
    ),
    "xmod-morphism": _kind(
        XModMorphism, dom=_nested("xmod"), cod=_nested("xmod"), p=_hom("dom.G", "cod.G"), p0=_hom("dom.G0", "cod.G0")
    ),
    "monoidal": _kind(MonoidalFunctor, dom=_nested("2group"), cod=_nested("2group"), F0=_ints, F1=_ints, F2=_int_rows),
}
_KIND_OF = {cls: (kind, fields) for kind, (cls, fields, _) in _KINDS.items()}

# the writer's dumper of a field value, by its type
_DUMP: dict[type, Optional[Callable[[Any], Any]]] = {
    GroupHom: lambda hom: list(hom.map),
    GroupAction: lambda action: [list(p) for p in action.act],
    tuple: lambda ints: [list(row) for row in ints] if ints and type(ints[0]) is tuple else list(ints),
    **dict.fromkeys((FinGroup, *_KIND_OF)),  # a nested record
}
_SHARED = (FinGroup, CrossedModule, Strict2Group)


def _load_fields(kind: str, data: Any, resolver: Optional[Resolver]) -> Any:
    """Every required key is checked before any field loads, so malformed
    input raises its first missing key's error ahead of any field's."""
    cls, fields, required = _KINDS[kind]
    data = _resolve(data, resolver)
    _require(data, *required)
    loaded = SimpleNamespace()
    for key, load in fields:
        # the one optional key, an xmod's name, defaults to ""
        setattr(loaded, key, load(data.get(key, ""), key, resolver, loaded))
    return _built(cls, **vars(loaded))


def fractor_from_json(data: Any, resolver: Optional[Resolver] = None) -> Fractor:
    """Rebuild a fractor from its underlying butterfly, which must be valid;
    the derived block, if present, is cross-checked against the reconstruction."""
    data = _resolve(data, resolver)
    _require(data, "butterfly")
    B = _load_fields("butterfly", data["butterfly"], resolver)
    report = validate_butterfly(B)
    if not report.ok:
        raise ValueError(f"fractor of an invalid butterfly:\n{report}")
    F = to_fractor(B)
    derived = data.get("derived", {})
    if not isinstance(derived, dict):
        raise ParseError("field 'derived' must be an object")
    for field, leg in (("sigma_bar", F.left), ("rho_bar", F.right)):
        if field in derived and _ints(derived[field], field) != leg.p1.map:
            raise ParseError("derived block disagrees with the reconstructed fractor")
    return F


_LOADERS = {"group": group_from_json, "fractor": fractor_from_json, **{k: partial(_load_fields, k) for k in _KINDS}}


def from_jsonable(data: Any, resolver: Optional[Resolver] = None):
    """Load an object by its required string ``kind``."""
    data = _resolve(data, resolver)
    kind = data.get("kind")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise UnknownKind(f"no loader for kind {kind!r}")
    return loader(data, resolver)
