from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpres.errors import InvalidInputError
from fpres.groups import MultGroup, abelian_basis, coordinate_map, span
from fpres.phases import norm1, unit
from oracles import decompose

small_orders = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


def char_exponent(group, label, x):
    """The exact exponent of the character `label` at x, read from the
    integer character table."""
    table, e, col = group.char_table()
    row = list(group.char_labels()).index(tuple(label))
    return Fraction(int(table[row, col[x]]), e)


# ---------------------------------------------------------------------------
# vector groups and characters


@given(small_orders, st.data())
def test_group_laws(orders, data):
    g = decompose(orders)
    elems = list(g.elements)
    x = data.draw(st.sampled_from(elems))
    y = data.draw(st.sampled_from(elems))
    z = data.draw(st.sampled_from(elems))
    assert g.mul(x, g.identity) == x
    assert g.mul(x, g.inverse(x)) == g.identity
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    assert g.mul(x, y) == g.mul(y, x)


@given(small_orders, st.data())
def test_order_of_matches_brute_force(orders, data):
    g = decompose(orders)
    x = data.draw(st.sampled_from(list(g.elements)))
    n, y = 1, x
    while y != g.identity:
        y = g.mul(y, x)
        n += 1
    assert g.order_of(x) == n
    assert g.exponent() % n == 0


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (2, 4), (6, 2)])
def test_character_table_orthogonality(orders):
    g = decompose(orders)
    m = np.array(
        [[unit(char_exponent(g, lab, x)) for x in g.elements]
         for lab in g.char_labels()]
    )
    assert np.allclose(m @ m.conj().T, g.size * np.eye(g.size), atol=1e-12)


@given(small_orders, st.data())
def test_character_group_law_exact(orders, data):
    g = decompose(orders)
    elems = list(g.elements)
    lab = data.draw(st.sampled_from(list(g.char_labels())))
    x = data.draw(st.sampled_from(elems))
    y = data.draw(st.sampled_from(elems))
    assert char_exponent(g, lab, g.mul(x, y)) == norm1(
        char_exponent(g, lab, x) + char_exponent(g, lab, y)
    )


@given(small_orders, st.data())
def test_coordinate_rows_multiply_as_sums(orders, data):
    # positions of summed coordinate rows are the positions of products,
    # and label_index orders exponent vectors as char_labels does
    g = decompose(orders)
    elems = list(g.elements)
    rows = g.coordinate_rows()
    x = data.draw(st.sampled_from(elems))
    y = data.draw(st.sampled_from(elems))
    k = data.draw(st.integers(-7, 7))
    i, j = elems.index(x), elems.index(y)
    assert elems[g.positions(rows[i] + rows[j])] == g.mul(x, y)
    assert elems[g.positions(k * rows[i])] == g.power(x, k)
    assert g.positions(rows).tolist() == list(range(g.size))
    labels = np.array(list(g.char_labels()), dtype=np.int64).reshape(g.size, -1)
    assert g.label_index(labels).tolist() == list(range(g.size))


def test_group_rejects_bad_orders():
    with pytest.raises(InvalidInputError):
        decompose([0, 2])


# ---------------------------------------------------------------------------
# generic basis extraction


@pytest.mark.parametrize(
    "orders,expected",
    [
        ((4,), (4,)),
        ((2, 2), (2, 2)),
        ((2, 4), (4, 2)),
        ((6,), (6,)),
        ((2, 3), (6,)),
        ((4, 6), (12, 2)),
        ((2, 2, 2), (2, 2, 2)),
    ],
)
def test_abelian_basis_invariant_factors(orders, expected):
    g = decompose(orders)
    basis, fac = abelian_basis(list(g.elements), g.mul, g.identity)
    assert tuple(fac) == expected
    for a, b in zip(fac, fac[1:]):
        assert a % b == 0
    coords = coordinate_map(basis, fac, g.mul, g.identity)
    assert len(coords) == g.size


def test_span_closure():
    g = decompose([4, 2])
    sub = span([(2, 0), (0, 1)], g.mul, g.identity)
    assert sub == [(0, 0), (0, 1), (2, 0), (2, 1)]


def test_mult_group_units_mod_15():
    # (Z/15)^* is Z_4 x Z_2
    elems = [k for k in range(15) if np.gcd(k, 15) == 1]
    g = MultGroup(elems, lambda a, b: a * b % 15, 1)
    assert tuple(g.orders) == (4, 2)
    assert g.exponent() == 4
    assert g.order_of(2) == 4
    assert g.inverse(2) == 8
    assert g.power(7, 2) == 4
    labels = list(g.char_labels())
    m = np.array(
        [[unit(char_exponent(g, lab, x)) for x in g.elements] for lab in labels]
    )
    assert np.allclose(m @ m.conj().T, g.size * np.eye(g.size), atol=1e-12)


def test_mult_group_subgroup():
    elems = [k for k in range(15) if np.gcd(k, 15) == 1]
    g = MultGroup(elems, lambda a, b: a * b % 15, 1)
    assert g.subgroup([4]) == (1, 4)
    assert g.subgroup([2]) == (1, 2, 4, 8)
