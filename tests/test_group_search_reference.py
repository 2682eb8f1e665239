"""The isomorphism search and the group-table check, checked against the
code they replaced.

``FinGroup.element_invariants`` reads each element's triple (order x, |C(x)|,
#{y : y^2 = x}) off whole rows and columns, ``isomorphism_search`` admits as
a generator's images only the elements with its triple, and
``_check_group_table`` accepts a group table by a certificate (in-range int
entries, a two-sided identity 0, a 0 in every row, Light's test) and sends
any other table to the ordered scan, which writes every message.  The former
cell-by-cell formula, the unpruned search and the former check (with the
int-entry rule of ``tests/test_integer_entries.py``) are kept below as
oracles: the triples, the first isomorphism found and every ``NotAGroup``
message must equal theirs on:

- every catalog group of order at most 24 and a relabeled copy of each,
  and the 82 middle groups of the V4 by V4 classification;
- every ordered pair of equal-order groups among the catalog groups of
  order at most 16 and their relabeled copies;
- every single-entry change of a catalog table of order at most 8, the 50
  Latin squares of order 5 with identity 0 that are not associative, and
  tables that pass some of the certificate's gates and fail a later one;
  each refused table reaches the ordered scan once, and no accepted one does.

The pruning must also pay: naming the V4 by V4 classes runs at least 3x
fewer search nodes than the unpruned search.

``identify_group`` walks the catalog, and ``isomorphism_search`` returns at
its class-invariant check before the engine runs: on the 82 V4 by V4 middle
groups the engine makes 39 searches, each against a group with E's class
invariant, and the names are the reference's.  It names an abelian group by
its class invariant, with no search.  Its names must equal those of
``reference_identify_group``, which searches every catalog group in turn, on
every abelian catalog group of order at most 32 under three relabelings and
on the 64 abelian middle groups of the V4 by V4xZ2 classification at bound
32, and naming them must run no node of the search engine.  The same
classification's split flags, read off its trivial cocycles, must equal the
section search ``helpers.is_split`` on every class.
"""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import V4, Z2, is_split, reference_identify_group

from butterflies import extension, fingroup
from butterflies.errors import NotAGroup
from butterflies.extension import classify_extensions, identify_group, standard_catalog
from butterflies.fingroup import (
    FinGroup,
    _generator_images,
    _generators,
    cyclic_group,
    direct_product,
    isomorphism_search,
    symmetric_group,
)

CATALOG = [K for order in range(1, 25) for _, K in standard_catalog(order)]
SMALL = [K for K in CATALOG if K.order <= 16]
ABELIAN = [K for order in range(1, 33) for _, K in standard_catalog(order) if K.is_abelian]
# a Latin square with identity 0 in which every element is its own inverse:
# of odd order, so not associative
LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def reference_triples(G):
    """The class invariant's triples per element, as the former formula wrote them."""
    t, o, rn = G.table, G.element_orders, range(G.order)
    return [(o[x], sum(t[x][y] == t[y][x] for y in rn), sum(t[y][y] == x for y in rn)) for x in rn]


def reference_isomorphism(G, H):
    """The former search's map: the first bijection of the unpruned search,
    after the class-invariant prefilter."""
    if G.order != H.order or sorted(reference_triples(G)) != sorted(reference_triples(H)):
        return None
    return next(_generator_images(G, H, bijective=True), None)


def reference_check_group_table(G) -> None:
    """``_check_group_table`` as it checked every cell."""
    table, n = G.table, G.order
    if n == 0:
        raise NotAGroup("empty table")
    full = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if not set(map(type, row)) <= {int} or set(row) != full:  # a bool or float may equal an int
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise NotAGroup("index 0 is not a two-sided identity")
    for s in _generators(G):
        ts = table[s]
        for x in range(n):
            txs = table[table[x][s]]
            tx = table[x]
            for y in range(n):
                if txs[y] != tx[ts[y]]:
                    raise NotAGroup(f"associativity fails at ({x},{s},{y})")


def relabeled(G, seed: int):
    """G with its elements renamed by a random permutation fixing the identity."""
    perm = [0, *random.Random(seed).sample(range(1, G.order), G.order - 1)]
    table = [[0] * G.order for _ in range(G.order)]
    for a, row in enumerate(G.table):
        for b, c in enumerate(row):
            table[perm[a]][perm[b]] = perm[c]
    return FinGroup(table, f"{G.name}'")


def bare(table):
    """An unchecked group over `table`, rows as tuples, as ``FinGroup`` stores them."""
    G = object.__new__(FinGroup)
    G.order, G.table = len(table), tuple(map(tuple, table))
    return G


def message(check, G):
    try:
        check(G)
    except NotAGroup as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def v4_by_v4_middle_groups():
    return [c.butterfly.E for c in classify_extensions(V4, V4)]


@pytest.fixture(scope="module")
def v4_by_v4xz2_classes():
    return classify_extensions(V4, direct_product(V4, Z2)[0], bound=32)


@pytest.fixture(scope="module")
def abelian_v4_by_v4xz2_middle_groups(v4_by_v4xz2_classes):
    return [c.butterfly.E for c in v4_by_v4xz2_classes if c.butterfly.E.is_abelian]


@pytest.mark.parametrize("kernel", ["V4xZ2", "S3xZ2"])
def test_split_flags_equal_the_section_search(kernel, request):
    # the route reads each flag off the trivial cocycles; the section search,
    # with no cocycle in it, must agree on V4 by V4xZ2 at bound 32 and on the
    # non-abelian kernel of Z4 by S3xZ2 at bound 48
    if kernel == "V4xZ2":
        classes = request.getfixturevalue("v4_by_v4xz2_classes")
    else:
        classes = classify_extensions(cyclic_group(4), direct_product(symmetric_group(3), Z2)[0], bound=48)
    flags = [c.split for c in classes]
    assert flags == [is_split(c.butterfly) for c in classes]
    assert True in flags and False in flags


def test_invariants_match_reference(v4_by_v4_middle_groups):
    groups = [*CATALOG, *(relabeled(K, seed) for seed, K in enumerate(CATALOG)), *v4_by_v4_middle_groups]
    assert len(v4_by_v4_middle_groups) == 82
    for G in groups:
        expected = reference_triples(G)
        assert list(G.element_invariants) == expected
        assert G.class_invariant == tuple(sorted(expected))


def test_search_matches_reference():
    groups = SMALL + [relabeled(K, seed) for seed, K in enumerate(SMALL)]
    found = 0
    for G in groups:
        for H in groups:
            if G.order == H.order:
                witness = isomorphism_search(G, H)
                assert (None if witness is None else witness.map) == reference_isomorphism(G, H)
                found += witness is not None
    # each catalog group is isomorphic to itself and its copy, and to no other
    assert found == 4 * len(SMALL)


def latin_squares_with_identity(n: int):
    """Every Latin square of order n whose row 0 and column 0 are 0..n-1."""
    rows = [list(range(n))]

    def extend():
        if len(rows) == n:
            yield [list(r) for r in rows]
            return
        i = len(rows)
        for p in itertools.permutations(range(n)):
            if p[0] == i and all(p[j] != r[j] for r in rows for j in range(n)):
                rows.append(p)
                yield from extend()
                rows.pop()

    return extend()


# tables that pass some of the certificate's gates and fail a later one, with the
# message of the ordered scan
GATED = {
    "a row holds 0 and repeats an entry": ([[0, 1, 2], [1, 0, 0], [2, 0, 1]], "row 1 is not a permutation of 0..2"),
    "every row holds 0, a column repeats": ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation of 0..2"),
    "a generator's column never reaches 0": ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], "row 2 is not a permutation of 0..2"),
    "a bool": ([[0, 1, 2], [1, 2, 0], [2, 0, True]], "row 2 is not a permutation of 0..2"),
    "a float": ([[0, 1, 2], [1, 2, 0], [2, 0, 1.0]], "row 2 is not a permutation of 0..2"),
    "a negative entry": ([[0, 1, 2], [1, 2, -1], [2, 0, 1]], "row 1 is not a permutation of 0..2"),
    "an entry n": ([[0, 1, 2], [1, 2, 0], [2, 3, 1]], "row 2 is not a permutation of 0..2"),
    "a ragged row": ([[0, 1, 2], [1, 2], [2, 0, 1]], "row 1 has length 2, expected 3"),
}


def test_table_check_matches_reference(monkeypatch):
    # the certificate accepts or sends the table on to the ordered scan, which
    # writes every message
    scanned = []
    scan = fingroup._scan_group_table

    def counting(G):
        scanned.append(G)
        return scan(G)

    monkeypatch.setattr(fingroup, "_scan_group_table", counting)
    for K in [*CATALOG, *(relabeled(K, seed) for seed, K in enumerate(CATALOG))]:
        assert message(fingroup._check_group_table, K) is None
        FinGroup(K.table)
    assert scanned == []

    def refused(table) -> None:
        expected = message(reference_check_group_table, bare(table))
        assert expected is not None
        scanned.clear()
        with pytest.raises(NotAGroup) as exc:
            FinGroup(table)
        assert str(exc.value) == expected
        assert len(scanned) == 1

    for table, expected in GATED.values():
        assert message(reference_check_group_table, bare(table)) == expected
        refused(table)
    loops = [t for t in latin_squares_with_identity(5) if message(reference_check_group_table, bare(t))]
    assert LOOP in loops and len(loops) == 50  # of the 56, 6 are Z5
    for table in loops:
        refused(table)
    mutants = 0
    for K in (K for K in CATALOG if K.order <= 8):
        n = K.order
        for x in range(n):
            for y in range(n):
                for v in range(n + 1):
                    if v != K.table[x][y]:
                        table = [list(row) for row in K.table]
                        table[x][y] = v
                        refused(table)
                        mutants += 1
    assert mutants > 1000


def test_pruning_cuts_closures_on_v4_by_v4(monkeypatch, v4_by_v4_middle_groups):
    # the unpruned search is the former one: the same witnesses, more search nodes
    nodes = []
    original = fingroup._backtrack

    def counting(*args):  # the engine recurses through the module name, so this counts every node
        nodes.append(1)
        return original(*args)

    def unpruned(G, H):
        m = reference_isomorphism(G, H)
        return None if m is None else fingroup.GroupHom._trusted(G, H, m)

    standard_catalog(16)
    monkeypatch.setattr(fingroup, "_backtrack", counting)
    names = [identify_group(E) for E in v4_by_v4_middle_groups]
    pruned = len(nodes)
    nodes.clear()
    monkeypatch.setattr(extension, "isomorphism_search", unpruned)
    assert [identify_group(E) for E in v4_by_v4_middle_groups] == names
    assert len(nodes) >= 3 * pruned


def test_abelian_names_by_invariant_match_search(monkeypatch, abelian_v4_by_v4xz2_middle_groups):
    groups = [*(relabeled(K, seed) for K in ABELIAN for seed in range(3)), *abelian_v4_by_v4xz2_middle_groups]
    assert len(abelian_v4_by_v4xz2_middle_groups) == 64
    nodes = []
    original = fingroup._backtrack

    def counting(*args):
        nodes.append(1)
        return original(*args)

    for order in range(1, 33):  # the catalog's duplicate check searches: build it before counting
        standard_catalog(order)
    monkeypatch.setattr(fingroup, "_backtrack", counting)
    names = [identify_group(E) for E in groups]
    assert nodes == []
    monkeypatch.undo()
    assert names == [reference_identify_group(E) for E in groups]


def test_names_are_searched_only_against_their_class_invariant(monkeypatch, v4_by_v4_middle_groups):
    standard_catalog(16)
    searched = []
    engine = fingroup._generator_images

    def recording(G, H, *args, **kwargs):  # isomorphism_search reaches the engine through the module name
        searched.append((G, H))
        return engine(G, H, *args, **kwargs)

    monkeypatch.setattr(fingroup, "_generator_images", recording)
    names = [identify_group(E) for E in v4_by_v4_middle_groups]
    assert len(searched) == 39
    assert all(E.class_invariant == K.class_invariant for E, K in searched)
    monkeypatch.undo()
    assert names == [reference_identify_group(E) for E in v4_by_v4_middle_groups]
