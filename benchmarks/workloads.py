"""The three workloads: inputs from the seed, ops, and the check of each op.

An op is one closed-loop call into the library's user-facing API.  Its check
returns ``OK``, ``KNOWN`` (a defect recorded in ``reference``) or a failure
message.  Ops reach library functions through module attributes at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import reference as ref

OK = "ok"
KNOWN = "known"


@dataclass
class Op:
    kind: str  # "read" or "write", for read_p50_ms / write_p50_ms
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Optional[BaseException]], str]


def _relabel(pkg, G, rng: random.Random):
    """G with its non-identity elements permuted, validated by the library."""
    n = G.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return pkg.fingroup.construct_group(table, G.name)


def _named_groups(pkg) -> dict:
    fg = pkg.fingroup
    Z4 = fg.cyclic_group(4)
    inversion = fg.GroupAction(fg.cyclic_group(2), Z4, (tuple(range(4)), tuple((-a) % 4 for a in range(4))))
    D4 = fg.semidirect_product(inversion)[0]
    D4.name = "D4"
    Q8 = fg.dicyclic_group(2)
    Q8.name = "Q8"
    V4 = fg.klein_four()
    V4.name = "V4"
    return {
        "Z2": fg.cyclic_group(2),
        "Z3": fg.cyclic_group(3),
        "Z4": Z4,
        "Z8": fg.cyclic_group(8),
        "V4": V4,
        "S3": fg.symmetric_group(3),
        "D4": D4,
        "Q8": Q8,
    }


# ---------------------------------------------------------------------------
# classify-grid


class ClassifyGrid:
    """Both classification routes on every pair of the extended grid."""

    name = "classify-grid"
    pass_seconds = 7.0  # one pass on a 2 vCPU Xeon at 2.1 GHz; sets the passes per run

    def setup(self, pkg, seed: int, work: Path) -> dict:
        # One fixed relabeling for every seed: the cost of the library's
        # searches depends on element order (Z8 by Z2 takes 0.3 s or 1.1 s
        # depending on the labels), so relabeling per seed made the run-to-run
        # spread of throughput exceed 30%.  The seed orders the ops.
        rng = random.Random("classify-grid/relabel")
        groups = {name: _relabel(pkg, G, rng) for name, G in _named_groups(pkg).items()}
        return {"pkg": pkg, "seed": seed, "groups": groups}

    def pass_ops(self, state, k: int) -> list[Op]:
        ops = self._ops(state["pkg"], state["groups"])
        random.Random(f"classify-grid/{state['seed']}/{k}").shuffle(ops)
        return ops

    def trace_ops(self, state) -> list[Op]:
        return self._ops(state["pkg"], state["groups"])

    def _ops(self, pkg, groups) -> list[Op]:
        ext = pkg.extension
        ops = []
        for pair in ref.CLASSIFY_REFERENCE:
            H, G = groups[pair[0]], groups[pair[1]]
            bound = ref.CLASSIFY_BOUND.get(pair, 16)
            label = f"{pair[0]} by {pair[1]}"
            ops.append(
                Op(
                    "write",
                    f"classify {label}",
                    lambda H=H, G=G, b=bound: ext.classify_extensions(H, G, bound=b),
                    lambda r, e, p=pair: check_classification(p, "butterfly", r, e),
                )
            )
            ops.append(
                Op(
                    "read",
                    f"oracle {label}",
                    lambda H=H, G=G, b=bound: ext.factor_set_oracle(H, G, bound=b),
                    lambda r, e, p=pair: check_classification(p, "oracle", r, e),
                )
            )
        return ops


def check_classification(pair, route: str, result, exc) -> str:
    classes, total = ref.CLASSIFY_REFERENCE[pair]
    known_total = ref.KNOWN_SHORT_TOTAL.get(pair)
    if exc is not None:
        if route == "oracle" and known_total is not None and isinstance(exc, ref.KNOWN_ORACLE_ERROR):
            return KNOWN
        return f"{type(exc).__name__}: {exc}"
    if route == "butterfly":
        got = (len(result), sum(c.count for c in result))
    else:
        got = (len(result), sum(len(members) for members in result))
    if got == (classes, total):
        return OK
    if route == "butterfly" and got == (classes, known_total):
        return KNOWN
    return f"{route} route gave {got[0]} classes over {got[1]} factor sets, expected {classes} over {total}"


# ---------------------------------------------------------------------------
# law-suites


SUITE_OPS = (
    ("bicategory", "run_bicategory_suite", None),
    ("fractions", "run_fractions_suite", None),
    ("bicategory fault=compose", "run_bicategory_suite", "compose"),
    ("fractions fault=two-cell-count", "run_fractions_suite", "two-cell-count"),
)

# the traced pass runs this part of the pool, in this order
TRACE_FIXTURES = ((0, 8), (0, 16), (1, 8), (1, 16))


class LawSuites:
    """Fixture generation, both law suites and both fault-injection runs."""

    name = "law-suites"
    pass_seconds = 35.0

    def setup(self, pkg, seed: int, work: Path) -> dict:
        pool = [(s, b) for s in ref.FIXTURE_SEEDS for b in ref.FIXTURE_BOUNDS]
        return {"pkg": pkg, "seed": seed, "pool": pool}

    def pass_ops(self, state, k: int) -> list[Op]:
        rng = random.Random(f"law-suites/{state['seed']}/{k}")
        groups = list(state["pool"])
        rng.shuffle(groups)
        ops = []
        for fixture in groups:
            ops += self._group(state["pkg"], fixture, rng)
        return ops

    def trace_ops(self, state) -> list[Op]:
        ops = []
        for fixture in TRACE_FIXTURES:
            ops += self._group(state["pkg"], fixture, None)
        return ops

    def _group(self, pkg, fixture, rng) -> list[Op]:
        laws = pkg.laws
        seed, bound = fixture
        held: dict = {}

        def generate():
            held["fx"] = laws.generate_fixtures(seed, bound)
            return held["fx"]

        ops = [
            Op(
                "write",
                f"fixtures seed={seed} bound={bound}",
                generate,
                lambda r, e: check_fixtures(fixture, r, e),
            )
        ]
        suites = []
        for label, fn, fault in SUITE_OPS:
            suites.append(
                Op(
                    "read",
                    f"{label} seed={seed} bound={bound}",
                    lambda fn=fn, fault=fault: getattr(laws, fn)(held["fx"], fault=fault),
                    lambda r, e, fault=fault, label=label: check_suite(fixture, label, fault, r, e),
                )
            )
        if rng is not None:
            rng.shuffle(suites)
        return ops + suites


def check_fixtures(fixture, fx, exc) -> str:
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    got = (len(fx.crossed_modules), len(fx.morphisms), len(fx.butterflies), len(fx.two_cells))
    expected = ref.LAW_REFERENCE[fixture][:4]
    return OK if got == expected else f"fixture sizes {got}, expected {expected}"


def check_suite(fixture, label, fault, report, exc) -> str:
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    cases = ref.LAW_REFERENCE[fixture][4 if label.startswith("bicategory") else 5]
    if report.cases != cases:
        return f"{label}: {report.cases} cases, expected {cases}"
    if fault is None and not report.ok:
        return f"{label}: {len(report.failures)} failures on a clean run"
    if fault is not None and report.ok:
        return f"{label}: fault injection went undetected"
    return OK


# ---------------------------------------------------------------------------
# store-roundtrip

CHAIN = ("identity", "compose", "flip", "span", "split", "extract", "assemble", "validate", "get", "ls")
READS = ("validate", "get", "ls")


class StoreRoundtrip:
    """The CLI store chain on every crossed module of the corpus."""

    name = "store-roundtrip"
    pass_seconds = 2.5

    def setup(self, pkg, seed: int, work: Path) -> dict:
        corpus = self.corpus(pkg)
        files = work / "corpus"
        files.mkdir(parents=True, exist_ok=True)
        entries = []
        for i, X in enumerate(corpus):
            xmod_path, morphism_path = files / f"xmod{i}.json", files / f"morphism{i}.json"
            xmod_path.write_text(json.dumps(pkg.jsonio.to_jsonable(X)))
            morphism_path.write_text(json.dumps(pkg.jsonio.to_jsonable(pkg.xmod.identity_morphism(X))))
            entries.append((X.name, X.G0.order, str(xmod_path), str(morphism_path)))
        return {"pkg": pkg, "seed": seed, "work": work, "entries": entries}

    @staticmethod
    def corpus(pkg) -> list:
        """The fixture crossed modules plus larger automorphism and
        conjugation crossed modules, without duplicates."""
        ext = pkg.extension
        groups = _named_groups(pkg)
        xmods = list(pkg.laws.generate_fixtures(0, 16).crossed_modules)
        # klein_four() keeps the fixtures' group name, so A(V4) is a duplicate
        # by content whatever the library caches
        xmods += [ext.aut_xmod(pkg.fingroup.klein_four())]
        xmods += [ext.conjugation_xmod(groups["S3"]), ext.aut_xmod(groups["S3"])]
        xmods += [ext.conjugation_xmod(groups["D4"]), ext.aut_xmod(groups["D4"]), ext.conjugation_xmod(groups["Q8"])]
        seen, out = set(), []
        for X in xmods:
            key = pkg.jsonio.content_ref(pkg.jsonio.to_jsonable(X))
            if key not in seen:
                seen.add(key)
                out.append(X)
        return out

    def pass_ops(self, state, k: int) -> list[Op]:
        entries = list(state["entries"])
        random.Random(f"store-roundtrip/{state['seed']}/{k}").shuffle(entries)
        return self._ops(state, entries, f"pass{k}")

    def trace_ops(self, state) -> list[Op]:
        return self._ops(state, state["entries"], "trace")

    def _ops(self, state, entries, tag) -> list[Op]:
        """A fresh workspace, then the whole chain on each entry in turn.

        Workspaces of earlier passes stay until the run ends, so that the
        file system's work of deleting them cannot fall into timed ops.
        """
        ws = state["work"] / "stores" / tag
        shutil.rmtree(ws, ignore_errors=True)
        ws.mkdir(parents=True)
        cli = state["pkg"].cli
        stored: set = set()
        ops = []
        for name, n0, xmod_path, morphism_path in entries:
            ops += _chain(cli, str(ws), stored, name, n0, xmod_path, morphism_path)
        return ops


def run_cli(cli, ws: str, *argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--workspace", ws, *argv])
    return code, out.getvalue(), err.getvalue()


def _chain(cli, ws, stored, name, n0, xmod_path, morphism_path) -> list[Op]:
    refs: dict = {}
    section = ",".join(str(x) for x in range(n0))  # identity butterflies: s(x) = (1, x)
    argv = {
        "identity": lambda: ("--json", "identity", xmod_path),
        "compose": lambda: ("--json", "compose", refs["identity"], refs["identity"], "--witness", "--check"),
        "flip": lambda: ("--json", "flip", refs["identity"]),
        "span": lambda: ("--json", "span", refs["identity"]),
        "split": lambda: ("--json", "split", morphism_path),
        "extract": lambda: ("--json", "weakmap", "extract", refs["identity"], "--section", section),
        "assemble": lambda: ("--json", "weakmap", "assemble", refs["extract"]),
        "validate": lambda: ("--json", "validate", refs["assemble"]),
        "get": lambda: ("store", "get", refs["assemble"]),
        "ls": lambda: ("--json", "store", "ls"),
    }

    def op(command):
        def run():
            return run_cli(cli, ws, *argv[command]())

        def check(result, exc):
            if exc is not None:
                return f"{type(exc).__name__}: {exc}"
            return check_store(name, command, result, refs, stored)

        return Op("read" if command in READS else "write", f"{command} {name}", run, check)

    return [op(command) for command in CHAIN]


def check_store(name, command, result, refs, stored) -> str:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    if command == "get":
        data = json.loads(out)
        got = stored_ref(data)
        return OK if got == refs["assemble"] else f"store get returned {got}, stored {refs['assemble']}"
    payload = json.loads(out)
    if command == "validate":
        return OK if payload["ok"] else "validate reported findings"
    if command == "ls":
        listed = {entry["ref"] for entry in payload["objects"]}
        return OK if listed == stored else f"store ls lists {len(listed)} refs, {len(stored)} stored"
    new = [payload[key] for key in ("middle", "left", "right")] if command == "span" else [payload["ref"]]
    refs[command] = new[0]
    stored.update(new)
    if command == "compose" and not (payload["check"]["ok"] and "witness_first" in payload):
        return "compose --check/--witness did not confirm the composite"
    expected = ref.STORE_REFERENCE.get(name, {}).get(command)
    got = tuple(r[: ref.REF_PREFIX] for r in new)
    return OK if got == expected else f"{command} refs {got}, pinned {expected}"


def stored_ref(data) -> str:
    """The content ref of stored JSON, recomputed without the library."""
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (ClassifyGrid(), LawSuites(), StoreRoundtrip())}
