import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpres.errors import InvalidInputError
from fpres.groups import (
    CocycleData,
    CosetPresentation,
    LiftedCharacters,
    MultGroup,
    abelian_basis,
    coordinate_map,
    span,
)
from fpres.currents import Theory
from fpres.modular import tensor
from fpres.phases import norm1, unit, units
from fpres.wzw import su2, sun
from oracles import decompose

small_orders = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


def char_exponent(group, label, x):
    """The exact exponent of the character `label` at x, read from the
    integer character table."""
    table, e, col = group.char_table()
    row = list(group.char_labels()).index(tuple(label))
    return Fraction(int(table[row, col[x]]), e)


def discrepancy(pres, m, k):
    """h(J,K) with R(J)R(K) = R(JK) h(J,K); factorizes over cyclic factors."""
    out = pres.ambient.identity
    for l, (ml, kl, nl) in enumerate(zip(m, k, pres.class_orders)):
        if ml + kl >= nl:
            out = pres.ambient.mul(out, pres.closure(l))
    return out


def cocycle_law_deviation(cocycle):
    """Max deviation exponent of the defining law; Fraction(0) if exact."""
    phi, den = cocycle.phi_table()
    table, e, col = cocycle.chars.char_table()
    classes = list(cocycle.pres.class_labels())
    index = {m: c for c, m in enumerate(classes)}
    worst = 0
    for a, m in enumerate(classes):
        for b, k in enumerate(classes):
            mk = tuple(
                (x + y) % n
                for x, y, n in zip(m, k, cocycle.pres.class_orders)
            )
            psi = table[:, col[discrepancy(cocycle.pres, m, k)]] * (den // e)
            dev = (psi + phi[:, index[mk]] - phi[:, a] - phi[:, b]) % den
            worst = max(worst, int(np.minimum(dev, den - dev).max()))
    return Fraction(worst, den)


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


def test_group_rejects_bad_orders():
    with pytest.raises(InvalidInputError):
        decompose([0, 2])
    g = decompose([2, 3])
    with pytest.raises(InvalidInputError):
        CosetPresentation(g, [(2, 0)])


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


# ---------------------------------------------------------------------------
# coset presentations


def test_coset_presentation_z4_mod_z2():
    g = decompose([4])
    pres = CosetPresentation(g, [(2,)])
    assert pres.class_orders == (2,)
    assert pres.basis_reps == ((1,),)
    assert pres.closure(0) == (2,)
    assert discrepancy(pres, (1,), (1,)) == (2,)
    assert discrepancy(pres, (0,), (1,)) == (0,)
    assert pres.class_of((3,)) == (1,)
    assert pres.subgroup_part((3,)) == (2,)


@pytest.mark.parametrize(
    "orders,gens",
    [
        ((4,), [(2,)]),
        ((2, 2, 2), [(1, 1, 0)]),
        ((4, 2), [(2, 1)]),
        ((6, 2), [(3, 1)]),
        ((8,), [(4,)]),
        ((9, 3), [(3, 0)]),
    ],
)
def test_representative_map_is_multiplicative(orders, gens):
    g = decompose(orders)
    pres = CosetPresentation(g, gens)
    assert pres.num_classes * len(pres.subgroup) == g.size
    for m in pres.class_labels():
        for k in pres.class_labels():
            mk = tuple((a + b) % n for a, b, n in zip(m, k, pres.class_orders))
            lhs = g.mul(pres.representative(m), pres.representative(k))
            rhs = g.mul(pres.representative(mk), discrepancy(pres, m, k))
            assert lhs == rhs
    for x in g.elements:
        cls = pres.class_of(x)
        assert x == g.mul(pres.representative(cls), pres.subgroup_part(x))


def test_with_representatives_validates_class():
    g = decompose([4])
    pres = CosetPresentation(g, [(2,)])
    alt = CosetPresentation(g, pres.subgroup, basis_reps=[(3,)])
    assert alt.basis_reps == ((3,),)
    with pytest.raises(InvalidInputError, match="lies in the subgroup"):
        CosetPresentation(g, pres.subgroup, basis_reps=[(2,)])
    # Z_4 x Z_2 over <(2, 0)>: the quotient is Z_2 x Z_2, and (3, 0) is in
    # the class of (1, 0)
    g = decompose([4, 2])
    pres = CosetPresentation(g, [(2, 0)], basis_reps=[(1, 0), (1, 1)])
    assert pres.class_of((0, 1)) == (1, 1)
    with pytest.raises(InvalidInputError, match="not free"):
        CosetPresentation(g, [(2, 0)], basis_reps=[(1, 0), (3, 0)])


def test_presentation_takes_any_generating_representative():
    # Z_6 over {0, 3}: the quotient basis class is that of 1 = {1, 4};
    # 2 lies in the other generating class {2, 5}
    g = decompose([6])
    pres = CosetPresentation(g, [(3,)], basis_reps=[(2,)])
    assert pres.quotient.basis == [(1,)]
    assert pres.basis_reps == ((2,),)
    assert pres.class_orders == (3,)
    assert pres.class_of((1,)) == (2,)
    assert pres.class_of((5,)) == (1,)
    assert pres.closure(0) == (0,)
    for x in g.elements:
        assert x == g.mul(pres.representative(pres.class_of(x)),
                          pres.subgroup_part(x))
    chars = MultGroup(pres.subgroup, g.mul, g.identity)
    coc = CocycleData(pres, chars)
    assert cocycle_law_deviation(coc) == 0
    m = units(*LiftedCharacters(coc).table()[:2])
    assert np.abs(m @ m.conj().T - 6 * np.eye(6)).max() < 1e-12


# ---------------------------------------------------------------------------
# cocycle phases and lifted characters


def lifted_exponent(lift, label, g):
    """The exact exponent of the lifted character `label` at g, read from
    the lifted table."""
    nums, den, col = lift.table()
    return Fraction(int(nums[lift.labels.index(label), col[g]]), den)


def base_row(cocycle, row):
    """The basis-factor phases of one subgroup character, as Fractions."""
    return [Fraction(int(n), cocycle.den) for n in cocycle.base[row]]


def test_cocycle_phase_z4_example():
    # H = {0,2} inside Z_4; the nontrivial subgroup character has
    # Psi(closure) = -1 and the principal square root gives phi = i
    g = decompose([4])
    pres = CosetPresentation(g, [(2,)])
    chars = MultGroup(pres.subgroup, g.mul, g.identity)
    coc = CocycleData(pres, chars)
    assert base_row(coc, 1) == [Fraction(1, 4)]
    # phi table: rows (0,), (1,) of H's characters, columns classes (0,), (1,)
    nums, den = coc.phi_table()
    assert units(nums, den)[1, 1] == pytest.approx(1j)
    assert nums[0, 1] == 0
    assert cocycle_law_deviation(coc) == 0


def test_rebase_differs_from_reseed():
    # moving the representative 1 -> 3 would multiply phi by Psi(2) = -1;
    # re-deriving principal roots for the new closure gives +i again
    g = decompose([4])
    pres = CosetPresentation(g, [(2,)])
    chars = MultGroup(pres.subgroup, g.mul, g.identity)
    coc = CocycleData(pres, chars)
    moved = norm1(base_row(coc, 1)[0] + char_exponent(chars, (1,), (2,)))
    assert moved == Fraction(3, 4)
    alt = CosetPresentation(g, pres.subgroup, basis_reps=[(3,)])
    reseeded = CocycleData(alt, chars)
    assert base_row(reseeded, 1) == [Fraction(1, 4)]
    assert cocycle_law_deviation(reseeded) == 0


def _random_pair(rng):
    while True:
        orders = tuple(
            rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))
        )
        g = decompose(orders)
        if not 4 <= g.size <= 64:
            continue
        for _ in range(40):
            gens = [
                tuple(rng.randrange(n) for n in orders)
                for _ in range(rng.randint(1, 2))
            ]
            sub = span(gens, g.mul, g.identity)
            if 1 < len(sub) < g.size:
                return g, gens


@pytest.mark.parametrize("seed", range(12))
def test_lifted_characters_random_pairs(seed):
    rng = random.Random(seed)
    g, gens = _random_pair(rng)
    pres = CosetPresentation(g, gens)
    chars = MultGroup(pres.subgroup, g.mul, g.identity)
    lift = LiftedCharacters(CocycleData(pres, chars))
    assert len(lift.labels) == g.size
    m = units(*lift.table()[:2])
    # orthogonality and completeness
    assert np.allclose(m @ m.conj().T, g.size * np.eye(g.size), atol=1e-12)
    # multiplicative on the nose, as exact exponents
    elems = list(g.elements)
    for lab in lift.labels[:: max(1, len(lift.labels) // 6)]:
        for _ in range(8):
            x = elems[rng.randrange(len(elems))]
            y = elems[rng.randrange(len(elems))]
            assert lifted_exponent(lift, lab, g.mul(x, y)) == norm1(
                lifted_exponent(lift, lab, x) + lifted_exponent(lift, lab, y)
            )
    # restriction to the subgroup forgets the coset and cocycle parts
    for (mc, i) in lift.labels:
        if any(mc):
            continue
        for h in pres.subgroup:
            assert lifted_exponent(lift, (mc, i), h) == char_exponent(
                chars, i, h)


def _su2_4_pair_diagonal():
    md = tensor(su2(4), su2(4))
    return Theory(md).center, md.index((4, 4))


def _su4_2_square():
    # Z_4 center over its Z_2: the basis closure is not the identity
    g = Theory(sun(4, 2)).center
    return g, g.power(g.basis[0], 2)


@pytest.mark.parametrize("build", [_su2_4_pair_diagonal, _su4_2_square])
def test_coset_layer_on_fusion_center(build):
    # field ids are opaque ints; the product is fusion of simple currents
    g, current = build()
    pres = CosetPresentation(g, [current])
    assert pres.num_classes * len(pres.subgroup) == g.size
    for m in pres.class_labels():
        for k in pres.class_labels():
            mk = tuple((a + b) % n for a, b, n in zip(m, k, pres.class_orders))
            lhs = g.mul(pres.representative(m), pres.representative(k))
            rhs = g.mul(pres.representative(mk), discrepancy(pres, m, k))
            assert lhs == rhs
    chars = MultGroup(pres.subgroup, g.mul, g.identity)
    coc = CocycleData(pres, chars)
    assert cocycle_law_deviation(coc) == 0
    m = units(*LiftedCharacters(coc).table()[:2])
    assert np.abs(m @ m.conj().T - g.size * np.eye(g.size)).max() < 1e-12
