"""What the butterfly route reads off a factor set (phi, f), against the
twisted product's table.

On every cocycle of the classification grid, with the groups relabeled as
the classify-grid benchmark relabels them: the Aut-leg inner(g) phi(x)
equals ``reference_rho``, which conjugates in the built extension, and the
butterfly of ``factor_set_to_extension`` equals, names included, the one
``butterfly_from_extension`` builds from its wing and left leg; the
generating sequence of the generator-columns record built from (phi, f)
equals the extension's own with the wing images first, the sequence the
morphism search would compute from E's table, and its columns equal those of
``reference_twisted_product``; and the bucket invariant
computed with the product formula equals the one read off that table.
"""

from __future__ import annotations

import pytest

from helpers import GRID, grid_groups
from test_classify_reference import reference_cocycles, reference_rho, reference_twisted_product

from butterflies.extension import (
    _aut_rows,
    _morphism_invariant,
    _twisted_rho,
    aut_xmod,
    butterfly_from_extension,
    factor_set_to_extension,
)
from butterflies.fingroup import _generating_sequence, _twisted_columns

GROUPS = grid_groups()
IDS = [f"{h},{g}" for h, g in GRID]


def test_grid_has_1524_cocycles():
    assert sum(len(reference_cocycles(pair)) for pair in GRID) == 1524


@pytest.mark.parametrize("pair", GRID, ids=IDS)
def test_rho_formula_equals_conjugation(pair):
    A = aut_xmod(GROUPS[pair[1]])
    for fs in reference_cocycles(pair):
        B = factor_set_to_extension(fs)
        assert _twisted_rho(fs, A) == reference_rho(B)
        C = butterfly_from_extension(B.iota, B.sigma)
        assert C == B and _names(C) == _names(B)


def _names(B) -> tuple[str, ...]:
    """The names of B's ends, of their groups and of its middle group."""
    return (B.dom.name, B.cod.name, B.E.name, *(X.name for X in (B.dom.G, B.dom.G0, B.cod.G, B.cod.G0)))


@pytest.mark.parametrize("pair", GRID, ids=IDS)
def test_shared_sequence_is_each_extensions_wing_first_sequence(pair):
    for fs in reference_cocycles(pair):
        B = factor_set_to_extension(fs)
        record = _twisted_columns(fs.G, fs.H, _aut_rows(fs), fs.f)
        assert list(record.gens) == _generating_sequence(B.E, B.iota.map)


@pytest.mark.parametrize("pair", GRID, ids=IDS)
def test_columns_and_orders_equal_the_tables(pair):
    for fs in reference_cocycles(pair):
        table = reference_twisted_product(fs)
        record = _twisted_columns(fs.G, fs.H, _aut_rows(fs), fs.f)
        assert record.order == len(table)
        assert [list(col) for col in record.columns] == [[row[g] for row in table] for g in record.gens]
        assert list(record.orders) == [_order(table, g) for g in record.gens]


@pytest.mark.parametrize("pair", GRID, ids=IDS)
def test_invariant_from_the_product_formula_equals_the_tables(pair):
    H = GROUPS[pair[0]]
    A = aut_xmod(GROUPS[pair[1]])
    for fs in reference_cocycles(pair):
        table, rho = reference_twisted_product(fs), _twisted_rho(fs, A)
        triples = []
        for e in range(len(table)):
            g, x = divmod(e, H.order)
            p = e
            for _ in range(_order(H.table, x) - 1):
                p = table[p][e]
            assert p % H.order == 0  # e^m lies in the image of iota
            triples.append((x, rho[e], p // H.order))
        assert _morphism_invariant(fs, rho) == tuple(sorted(triples))


def _order(table, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = table[x][a]
        k += 1
    return k
