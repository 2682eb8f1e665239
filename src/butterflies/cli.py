"""Command-line front end with a content-addressed object store.

Each object is the file objects/<ref>.<kind>.json, its ref the sha256 of its
canonical serialization, so identical objects share one file and refs are
reproducible across machines.  The workspace root comes from --workspace,
else BUTTERFLY_WORKSPACE, else ./.butterfly_workspace.  Exit codes: 0 ok,
1 domain failure, 2 usage or parse error, or a standard output closed
before the output was written.

Each operand of identity, compose, flip, split, span and weakmap extract is
validated once on load; the operations themselves assume valid operands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from . import jsonio
from .butterfly import (
    Butterfly,
    Fractor,
    compose,
    flip,
    identity_butterfly,
    isomorphic_butterflies,
    span_of_butterfly,
    split_from_morphism,
    validate_butterfly,
    validate_fractor,
)
from .errors import BoundExceeded, ButterflyError, ParseError, UnknownKind, UnknownSuite
from .extension import CLASSIFY_BOUND, classify_extensions, factor_set_oracle
from .fingroup import FinGroup, cyclic_group, direct_product, klein_four, symmetric_group, trivial_group
from .laws import FAULTS, SUITES, generate_fixtures
from .report import ValidationReport
from .weakmap import MonoidalFunctor, butterfly_from_monoidal, check_monoidal, extract_monoidal
from .xmod import CrossedModule, Strict2Group, XModMorphism
from .xmod import validate_crossed_module, validate_two_group, validate_xmod_morphism

ENV_WORKSPACE = "BUTTERFLY_WORKSPACE"
_OBJECT_FILE = re.compile(r"([0-9a-f]{64})(?:\.([a-z0-9-]+))?\.json")


def _read_json(path: Path) -> Any:
    """A file's JSON; a file that cannot be read or parsed is a ParseError."""
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: unreadable: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a decode error, an over-long integer, too deep a nesting
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc


class Workspace:
    """Content-addressed store whose object directory is its index: one listing
    of objects/ finds every ref and kind without opening a file.  Earlier
    versions' objects/<sha256>.json files are read too, and their index.json
    is ignored."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.json"  # the earlier versions' index: never read or written

    def put(self, obj: Any) -> str:
        return self.put_all([obj])[0]

    def put_all(self, objs: Iterable[Any]) -> list[str]:
        """Store each object as soon as its bytes exist and return its ref, in
        order.  Each new object is written to a temporary file in objects/ and
        renamed onto its name, so a ref names either a whole file or none;
        writers need no lock, as the name is the content's hash."""
        refs = []
        try:
            self.objects.mkdir(parents=True, exist_ok=True)
            for kind, blob in jsonio.encode_each(objs):
                refs.append(jsonio.bytes_ref(blob))
                path = self.objects / f"{refs[-1]}.{kind}.json"
                if not path.exists():
                    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=".", dir=self.objects)
                    try:
                        with os.fdopen(fd, "wb") as file:
                            file.write(blob)
                        os.replace(tmp, path)
                    except OSError:
                        os.unlink(tmp)
                        raise
        except OSError as exc:
            raise ParseError(f"workspace {self.root} is unusable: {exc}") from exc
        return refs

    def _files(self, prefix: str = "") -> dict[str, re.Match]:
        """The matched name of each object file whose name starts with `prefix`, by ref."""
        try:
            names = os.listdir(self.objects)
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise ParseError(f"workspace {self.root} is unusable: {exc}") from exc
        # the pattern admits no path separator, so it names no file outside objects/
        matches = (_OBJECT_FILE.fullmatch(name) for name in names if name.startswith(prefix))
        return {m[1]: m for m in matches if m}

    def get(self, ref: str) -> dict:
        matches = self._files(ref)
        if not matches:
            raise ParseError(f"no stored object matches {ref!r}")
        if len(matches) > 1:
            raise ParseError(f"ambiguous ref {ref!r}: {len(matches)} matches")
        [m] = matches.values()
        return _read_json(self.objects / m[0])

    def ls(self) -> list[tuple[str, str]]:
        return [(ref, m[2] or self._kind_in(m[0])) for ref, m in sorted(self._files().items())]

    def _kind_in(self, name: str) -> str:  # an earlier version's file name holds no kind
        data = _read_json(self.objects / name)
        return data.get("kind", "?") if isinstance(data, dict) else "?"


def _spec_factors(spec: str) -> Optional[list[tuple[int, Callable[[], FinGroup]]]]:
    """The factors of a builtin group spec as (order, builder) pairs, or None
    if `spec` is not one.  Nothing is built."""
    factors: list[tuple[int, Callable[[], FinGroup]]] = []
    for s in spec.split("x"):
        try:
            n = int(s[1:]) if s[1:].isdecimal() else None
        except ValueError as exc:  # past int()'s digit limit
            raise ParseError(f"bad group spec: {s[0]} with a {len(s) - 1}-digit index") from exc
        if s == "1":
            factors.append((1, trivial_group))
        elif s == "V4":
            factors.append((4, klein_four))
        elif s.startswith("Z") and n is not None:
            if n < 1:
                raise ParseError(f"bad group spec {spec!r}: Zn needs n >= 1")
            factors.append((n, partial(cyclic_group, n)))
        elif s.startswith("S") and n is not None and 1 <= n <= 4:
            factors.append((math.factorial(n), partial(symmetric_group, n)))
        else:
            return None
    return factors


def parse_group_spec(spec: str) -> Optional[FinGroup]:
    """Builtin group names: 1, Zn (n >= 1), V4, Sn (n <= 4), and x-products of these."""
    factors = _spec_factors(spec)
    if factors is None:
        return None
    out = factors[0][1]()
    for _, build in factors[1:]:
        out = direct_product(out, build())[0]
    out.name = spec
    return out


def _load_json_arg(arg: str, ws: Workspace) -> dict:
    path = Path(arg)
    return _read_json(path) if path.exists() else ws.get(arg)


def _load_object(arg: str, ws: Workspace):
    return jsonio.from_jsonable(_load_json_arg(arg, ws), resolver=ws.get)


def _group_arg(arg: str, ws: Workspace) -> tuple[int, Callable[[], FinGroup]]:
    """The order of a group argument and a builder for it.  A builtin spec's
    order is the product of its factors', so it is known before it is built;
    a stored group is loaded at once."""
    factors = _spec_factors(arg)
    if factors is not None:
        return math.prod(n for n, _ in factors), partial(parse_group_spec, arg)
    obj = _load_object(arg, ws)
    if not isinstance(obj, FinGroup):
        raise ParseError(f"{arg} is not a group")
    return obj.order, lambda: obj


def _emit(args, payload: dict, text: str) -> None:
    print(jsonio.indented(payload) if args.json else text)


# the validator of each kind that the loader returns
_VALIDATORS: dict[type, Callable[[Any], ValidationReport]] = {
    FinGroup: lambda G: ValidationReport(f"group {G.name}"),  # FinGroup(...) checked the table on load
    CrossedModule: validate_crossed_module,
    Strict2Group: validate_two_group,
    XModMorphism: validate_xmod_morphism,
    Butterfly: validate_butterfly,
    MonoidalFunctor: check_monoidal,
    Fractor: validate_fractor,
}


def _load_operand(arg: str, ws: Workspace, kind: type, usage: str):
    """Load an operand of kind `kind` (else a usage error, exit 2) and validate
    it once (else a domain failure naming the failed conditions, exit 1)."""
    obj = _load_object(arg, ws)
    if not isinstance(obj, kind):
        raise ParseError(usage)
    report = _VALIDATORS[type(obj)](obj)
    if not report.ok:
        raise ValueError(str(report))
    return obj


def cmd_validate(args, ws: Workspace) -> int:
    obj = _load_object(args.object, ws)
    report = _VALIDATORS[type(obj)](obj)
    _emit(args, report.to_json(), str(report))
    return 0 if report.ok else 1


def cmd_identity(args, ws: Workspace) -> int:
    X = _load_operand(args.xmod, ws, CrossedModule, "identity expects a crossed module")
    ref = ws.put(identity_butterfly(X))
    _emit(args, {"ref": ref}, ref)
    return 0


def cmd_compose(args, ws: Workspace) -> int:
    B1 = _load_operand(args.first, ws, Butterfly, "compose expects two butterflies")
    B2 = _load_operand(args.second, ws, Butterfly, "compose expects two butterflies")
    C = compose(B1, B2)
    ref = ws.put(C)
    payload: dict = {"ref": ref}
    lines = [ref]
    if args.check:
        report = validate_butterfly(C)
        payload["check"] = report.to_json()
        lines.append(str(report))
    if args.witness:
        for label, other in (("first", B1), ("second", B2)):
            w = isomorphic_butterflies(C, other)
            if w is not None:
                payload[f"witness_{label}"] = list(w.f.map)
                lines.append(f"isomorphic to {label} input via {list(w.f.map)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_flip(args, ws: Workspace) -> int:
    B = _load_operand(args.butterfly, ws, Butterfly, "flip expects a butterfly")
    ref = ws.put(flip(B))
    _emit(args, {"ref": ref}, ref)
    return 0


def cmd_split(args, ws: Workspace) -> int:
    P = _load_operand(args.morphism, ws, XModMorphism, "split expects a crossed module morphism")
    B, section = split_from_morphism(P)
    ref = ws.put(B)
    _emit(
        args,
        {"ref": ref, "section": list(section.map)},
        f"{ref}\nsection {list(section.map)}",
    )
    return 0


def cmd_span(args, ws: Workspace) -> int:
    B = _load_operand(args.butterfly, ws, Butterfly, "span expects a butterfly")
    refs = dict(zip(("middle", "left", "right"), ws.put_all(span_of_butterfly(B))))
    _emit(args, refs, "\n".join(f"{k} {v}" for k, v in refs.items()))
    return 0


def cmd_weakmap(args, ws: Workspace) -> int:
    if args.mode == "extract":
        if args.section is None:
            raise ParseError("weakmap extract requires --section")
        B = _load_operand(args.object, ws, Butterfly, "weakmap extract expects a butterfly")
        try:
            values = tuple(int(v) for v in args.section.split(","))
        except ValueError as exc:
            raise ParseError(f"bad section list: {exc}") from exc
        M = extract_monoidal(B, values)
        ref = ws.put(M)
        _emit(args, {"ref": ref, "monoidal": jsonio.to_jsonable(M)}, ref)
        return 0
    M = _load_object(args.object, ws)
    if not isinstance(M, MonoidalFunctor):
        raise ParseError("weakmap assemble expects a monoidal functor")
    ref = ws.put(butterfly_from_monoidal(M))
    _emit(args, {"ref": ref}, ref)
    return 0


def cmd_classify(args, ws: Workspace) -> int:
    (nH, build_H), (nG, build_G) = _group_arg(args.H, ws), _group_arg(args.G, ws)
    if nH * nG > args.bound:
        raise BoundExceeded("classify_extensions", nH * nG, args.bound)
    H, G = build_H(), build_G()
    classes = classify_extensions(H, G, bound=args.bound)
    refs = ws.put_all([cls.butterfly for cls in classes])
    rows = [
        {
            "E": cls.e_group,
            "split": cls.split,
            "count": cls.count,
            "factor_set": {"phi": list(cls.factor_set.phi), "f": [list(r) for r in cls.factor_set.f]},
            "butterfly": ref,
        }
        for cls, ref in zip(classes, refs)
    ]
    payload: dict = {"H": H.name, "G": G.name, "classes": rows}
    lines = [f"{len(classes)} extension class(es) of {H.name} by {G.name}"]
    for row in rows:
        lines.append(f"  E={row['E']} split={row['split']} cocycles={row['count']} ref={row['butterfly'][:12]}")
    status = 0
    if args.oracle:
        oracle = factor_set_oracle(H, G, bound=args.bound)
        payload["oracle_classes"] = len(oracle)
        agree = [(c.factor_set, c.count) for c in classes] == [(m[0], len(m)) for m in oracle]
        payload["agree"] = agree
        lines.append(f"oracle classes: {len(oracle)} ({'agree' if agree else 'MISMATCH'})")
        if not agree:
            status = 1
    if args.csv:
        if status:  # the CSV row has no field for the oracle's verdict
            print(lines[-1], file=sys.stderr)
        n_split = sum(1 for c in classes if c.split)
        lines = [f"{H.name},{G.name},{len(classes)},{n_split}"]
        payload["csv"] = lines[0]
    _emit(args, payload, "\n".join(lines))
    return status


def cmd_suite(args, ws: Workspace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}; available: {', '.join(SUITES)} or all")
    if args.fault is not None and FAULTS.get(args.fault) not in names:
        known = ", ".join(f"{f} ({s})" for f, s in FAULTS.items())
        raise UnknownSuite(f"no selected suite implements fault {args.fault!r}; known: {known}")
    fx = generate_fixtures(args.seed, args.bound)
    status = 0
    payload = []
    lines = []
    for name in names:
        report = SUITES[name](fx, fault=args.fault if FAULTS.get(args.fault) == name else None)
        payload.append(report.to_json())
        lines.append(str(report))
        if not report.ok:
            status = 1
    _emit(args, {"reports": payload}, "\n".join(lines))
    return status


def cmd_store(args, ws: Workspace) -> int:
    if args.action == "ls":
        entries = ws.ls()
        _emit(
            args,
            {"objects": [{"ref": r, "kind": k} for r, k in entries]},
            "\n".join(f"{r}  {k}" for r, k in entries) or "(empty)",
        )
        return 0
    if not args.ref:
        raise ParseError("store get requires a ref")
    print(jsonio.indented(ws.get(args.ref)))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process."""
    parser = argparse.ArgumentParser(
        prog="butterflies",
        description="Exact computation with crossed modules, 2-groups and butterflies.",
    )
    parser.add_argument("--workspace", help="object store root (overrides BUTTERFLY_WORKSPACE)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a stored or on-disk object")
    p.add_argument("object")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("identity", help="identity butterfly of a crossed module")
    p.add_argument("xmod")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("compose", help="compose two butterflies")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--check", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("flip", help="flip a flippable butterfly")
    p.add_argument("butterfly")
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("split", help="split butterfly of a crossed module morphism")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("span", help="span of a butterfly")
    p.add_argument("butterfly")
    p.set_defaults(func=cmd_span)

    p = sub.add_parser("weakmap", help="butterfly <-> monoidal functor dictionary")
    p.add_argument("mode", choices=("extract", "assemble"))
    p.add_argument("object")
    p.add_argument("--section", help="comma-separated section values for extract")
    p.set_defaults(func=cmd_weakmap)

    p = sub.add_parser("classify", help="classify extensions of H by G")
    p.add_argument("H")
    p.add_argument("G")
    p.add_argument("--oracle", action="store_true", help="cross-check with the factor-set oracle")
    p.add_argument("--bound", type=int, default=CLASSIFY_BOUND)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("suite", help="run a law suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8)
    p.add_argument(
        "--fault",
        default=None,
        help="fault-injection mode, the suite must fail: " + " or ".join(f"{f} ({s})" for f, s in FAULTS.items()),
    )
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("store", help="inspect the object store")
    p.add_argument("action", choices=("ls", "get"))
    p.add_argument("ref", nargs="?")
    p.set_defaults(func=cmd_store)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    root = args.workspace or os.environ.get(ENV_WORKSPACE) or ".butterfly_workspace"
    ws = Workspace(Path(root))
    try:
        status = args.func(args, ws)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left early (`| head`); send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ParseError, UnknownKind, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ButterflyError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid object: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
