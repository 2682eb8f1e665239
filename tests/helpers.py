"""Shared small fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import random

from butterflies import jsonio
from butterflies.butterfly import identity_butterfly
from butterflies.extension import butterfly_from_extension, conjugation_xmod, standard_catalog
from butterflies.fingroup import (
    GroupAction,
    GroupHom,
    _generator_images,
    construct_group,
    cyclic_group,
    dicyclic_group,
    klein_four,
    semidirect_product,
    symmetric_group,
    trivial_group,
)
from butterflies.laws import FixtureSet

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
V4 = klein_four()
S3 = symmetric_group(3)
ONE = trivial_group()


def z4_extension_butterfly():
    """The nonsplit extension Z2 <- Z4 <- Z2 as a butterfly D(Z2) -> A(Z2)."""
    return butterfly_from_extension(GroupHom(Z2, Z4, (0, 2)), GroupHom(Z4, Z2, (0, 1, 0, 1)))


def trivial_extension_butterfly():
    """The split extension Z2 <- Z2xZ2 <- Z2 as a butterfly D(Z2) -> A(Z2)."""
    return butterfly_from_extension(GroupHom(Z2, V4, (0, 1)), GroupHom(V4, Z2, (0, 0, 1, 1)))


def is_split(B) -> bool:
    """Whether the sigma of an extension's butterfly B has a homomorphic
    section: s with sigma(s(x)) = x on generators, hence everywhere."""
    s = B.sigma.map
    homs = _generator_images(B.sigma.cod, B.E, bijective=False, accept=lambda x, e: s[e] == x)
    return next(homs, None) is not None


# the fixture-set field that each record kind of a suite witness replays into
REPLAYED_KINDS = {"xmod": "crossed_modules", "xmod-morphism": "morphisms", "butterfly": "butterflies"}


def replay_fixtures(failure: dict, seed: int, bound: int) -> FixtureSet:
    """A fixture set of a suite failure's witness records, loaded through
    ``jsonio.from_jsonable`` in witness order (a list field, such as a
    triple, item by item, each distinct record once), with the seed and
    bound of the run that reported it."""
    fx = FixtureSet(seed, bound)
    for value in failure["witness"].values():
        for data in value if isinstance(value, list) else [value]:
            if isinstance(data, dict) and data.get("kind") in REPLAYED_KINDS:
                records = getattr(fx, REPLAYED_KINDS[data["kind"]])
                R = jsonio.from_jsonable(data)
                if R not in records:
                    records.append(R)
    return fx


def invalid_butterfly_json():
    """The identity butterfly of C(Z3) with rho replaced by sigma, as JSON:
    well-typed, but it fails the i-complex and right-wing conditions."""
    data = jsonio.to_jsonable(identity_butterfly(conjugation_xmod(Z3)))
    data["rho"] = data["sigma"]
    return data


def corrupt_graph(T, leg, corrupt):
    """The 2-group T with its map `leg` (d, c or e) out of range or one entry
    short, built unchecked."""
    h = getattr(T, leg)
    bad = (h.cod.order,) * h.dom.order if corrupt == "out-of-range" else h.map[:-1]
    return dataclasses.replace(T, **{leg: GroupHom._trusted(h.dom, h.cod, bad)})


# the 2-group corruptions that once raised IndexError from the validators
# reading the graph: an off-range unit map and a one-short source map
GRAPH_CORRUPTIONS = (("e", "out-of-range"), ("d", "short"))


# the (H, G) pairs of the classify-grid benchmark, with their bounds
GRID = [
    ("Z2", "Z2"), ("Z2", "Z3"), ("Z2", "Z4"), ("Z2", "V4"),
    ("Z3", "Z2"), ("Z3", "Z3"), ("Z3", "Z4"), ("Z3", "V4"),
    ("Z4", "Z2"), ("Z4", "Z3"), ("Z4", "Z4"), ("Z4", "V4"),
    ("V4", "Z2"), ("V4", "Z3"), ("V4", "Z4"), ("V4", "V4"),
    ("Z2", "Z8"), ("Z8", "Z2"), ("S3", "Z2"),
    ("Z2", "S3"), ("Z2", "D4"), ("Z2", "Q8"), ("Z3", "S3"),
]
GRID_BOUND = {("Z3", "S3"): 18}


def named_groups() -> dict:
    """The grid's groups with the tables of their constructors, as the
    classify-grid benchmark's ``_named_groups`` builds them."""
    Z4 = cyclic_group(4)
    return {
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": Z4,
        "Z8": cyclic_group(8),
        "V4": klein_four(),
        "S3": symmetric_group(3),
        "D4": semidirect_product(
            GroupAction(cyclic_group(2), Z4, (tuple(range(4)), tuple((-a) % 4 for a in range(4))))
        )[0],
        "Q8": dicyclic_group(2),
    }


def grid_groups() -> dict:
    """The grid's groups with their non-identity elements permuted by one
    fixed draw, in the classify-grid benchmark's order."""
    rng = random.Random("classify-grid/relabel")
    out = {}
    for name, G in named_groups().items():
        n = G.order
        perm = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[G.table[a][b]]
        out[name] = construct_group(table, name)
    return out


def reference_identify_group(E) -> str:
    """The name of the first catalog group isomorphic to E, every catalog
    group searched."""
    if E.order == 1:
        return "1"
    for name, K in standard_catalog(E.order):
        if next(_generator_images(E, K, bijective=True), None) is not None:
            return "Q8" if name == "Dic2" else name
    return f"order{E.order}-unrecognized"
