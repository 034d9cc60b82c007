"""Exactness of the integer phase representation against Fraction formulas.

The references below recompute every exponent one field at a time with
Fraction arithmetic, the way the charge, T exponent, snap order, twist and
character formulas read on paper.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fpres.currents import Theory
from fpres.errors import InvalidInputError
from fpres.extend import extend
from fpres.groups import MultGroup
from fpres.modular import ModularData, ProductS, tensor
from fpres.phases import (INT64_SAFE, SNAP_ORDER_LIMIT, SNAP_TOL, norm1,
                          snap_phases, unit)
from fpres.wzw import ising, su2, sun
from test_groups import char_exponent


def ref_charge(th, j, a):
    h = th.md.h
    return norm1(h[a] + h[j] - h[int(th.perms[j][a])])


def ref_t_exponent(md, a):
    return norm1(md.h[a] - md.c / 24)


def ref_snap_order(th):
    md = th.md
    return math.lcm(
        *(ref_t_exponent(md, a).denominator for a in range(md.size)),
        *(norm1(md.h[j]).denominator for j in th.center.elements),
        *(th.center.order_of(j) for j in th.center.elements),
    )


def ref_twist(th, a, k, j, snap_order):
    if j == 0:
        return Fraction(0)
    b = th.bundle(j)
    if b.dim == 1:
        return norm1(-ref_charge(th, k, a))
    row_a = b.matrix[b.position(a)]
    row_ka = b.matrix[b.position(th.apply(k, a))]
    phases = np.array([unit(-ref_charge(th, k, c)) for c in b.fields])
    mask = np.abs(row_a) > 1e-6
    ratios = row_ka[mask] * phases[mask] / row_a[mask]
    assert SNAP_TOL == 1e-6
    n = int(snap_phases([ratios.mean()], snap_order)[0])
    assert n >= 0
    return Fraction(n, snap_order)


def dense_su2_cubed():
    md = tensor(su2(4), su2(4), su2(4))
    assert isinstance(md.s_dense(), np.ndarray)
    return md


def factorized_su3_pair():
    md = tensor(sun(3, 3), sun(3, 3))
    assert isinstance(md.s, ProductS)
    return md


def fractional_spins():
    # currents of spin 3/4, 2/3 and 1/2: charges off the half-integers
    return tensor(su2(3), sun(3, 2), ising())


THEORIES = [dense_su2_cubed, factorized_su3_pair, fractional_spins]


@pytest.mark.parametrize("make", THEORIES)
def test_charges_t_exponents_and_snap_order_match_fractions(make):
    md = make()
    th = Theory(md)
    assert len(th.center.elements) > 1
    for j in th.center.elements:
        col = th.charges(j)
        for a in range(md.size):
            ref = ref_charge(th, j, a)
            assert Fraction(int(col[a]), th.den) == ref
            assert (col[a] == 0) == (ref == 0)
    assert th.snap_order == ref_snap_order(th)
    for a in range(md.size):
        assert md.t_exponent(a) == ref_t_exponent(md, a)
    assert np.array_equal(
        md.t_values(),
        np.array([unit(ref_t_exponent(md, a)) for a in range(md.size)]),
    )


def test_snap_order_keeps_spins_and_orders_beyond_the_t_exponents():
    # su2_4's S with every weight 1/7 and c = 24/7: all T exponents vanish,
    # so only the current spins (1/7) and orders (2) set the snap order
    base = su2(4)
    md = ModularData(base.labels, (Fraction(1, 7),) * base.size,
                     Fraction(24, 7), base.s)
    th = Theory(md)
    assert th.snap_order == ref_snap_order(th) == 14
    for j in th.center.elements:
        for a in range(md.size):
            assert Fraction(int(th.charges(j)[a]), th.den) == ref_charge(
                th, j, a)


@pytest.mark.parametrize("make", THEORIES)
def test_tensor_weights_match_fraction_sums(make):
    md = make()
    ref = tuple(
        sum(hs, Fraction(0))
        for hs in itertools.product(*(f.h for f in md.factors))
    )
    assert md.h == ref
    assert all(isinstance(q, Fraction) for q in md.h)


def _compare_twists(th, currents):
    snap_order = ref_snap_order(th)
    assert th.snap_order == snap_order
    compared = 0
    for j in currents:
        b = th.bundle(j)
        support = set(b.fields)
        for a in b.fields:
            for k in th.center.elements:
                if th.apply(k, a) not in support:
                    continue
                assert th.twist_exponent(a, k, j) == ref_twist(
                    th, a, k, j, snap_order
                )
                compared += 1
    return compared


@pytest.mark.parametrize("factor, gen", [(su2(4), 4), (sun(3, 3), (3, 0))])
def test_twist_tables_match_on_a_pair_and_its_diagonal_extension(factor, gen):
    md = tensor(factor, factor)
    th = Theory(md)
    base = [j for j in th.center.elements if j and len(th.fixed_fields(j))]
    assert _compare_twists(th, base) > len(base)
    ex = extend(th, [md.index((gen, gen))])
    res = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    assert res
    th2 = ex.extended_theory(extra_bundles=[r.bundle for r in res])
    assert _compare_twists(th2, [r.bundle.current for r in res]) > len(res)


def test_char_exponents_match_fraction_sums():
    g = MultGroup(range(12), lambda a, b: (a + b) % 12, 0)
    h = MultGroup(
        itertools.product(range(2), range(4), range(6)),
        lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, (2, 4, 6))),
        (0, 0, 0),
    )
    for grp in (g, h, MultGroup([0], lambda a, b: 0, 0)):
        for lab in grp.char_labels():
            for x in grp.elements:
                ref = norm1(sum(
                    (Fraction(i * m, n)
                     for i, m, n in zip(lab, grp.coords[x], grp.orders)),
                    Fraction(0),
                ))
                assert char_exponent(grp, lab, x) == ref


def test_central_charges_past_int64_keep_exact_t_exponents():
    # c / 24 enters the T exponents only mod 1, so a central charge far
    # past the int64 range leaves them exact
    base = su2(4)
    md = ModularData(base.labels, base.h, base.c + 24 * 10 ** 30 + 12, base.s)
    assert [md.t_exponent(a) for a in range(md.size)] == [
        norm1(ref_t_exponent(base, a) + Fraction(1, 2))
        for a in range(md.size)]


def shifted_su2_4(q):
    """su2_4 with the weight of field a shifted by a / q."""
    base = su2(4)
    return ModularData(base.labels, tuple(h + Fraction(a, q) for a, h in
                                          enumerate(base.h)),
                       base.c, base.s, name="shifted")


def test_weight_denominators_past_int64_are_rejected():
    # weights over the prime 2**61 - 1: the common denominator is 24 p
    # alone and 48 p beside su2_2
    p = 2 ** 61 - 1
    odd = shifted_su2_4(p)
    with pytest.raises(InvalidInputError, match=str(48 * p)):
        tensor(odd, su2(2))
    with pytest.raises(InvalidInputError, match=str(24 * p)):
        Theory(odd)


def test_eta_orders_past_int64_are_rejected():
    # weights over 24 q stay below INT64_SAFE, but the eta order is
    # 4 (the squared center exponent) times the snap order 24 q
    q = 4 * 10 ** 15 + 1
    md = shifted_su2_4(q)
    den, _, _ = md.phase_numerators()
    assert den == 24 * q < INT64_SAFE <= 96 * q
    with pytest.raises(InvalidInputError, match=f"shifted: eta order {96 * q}"):
        Theory(md)


def test_eta_orders_past_the_snap_limit_are_rejected():
    # q is prime to 24, so the eta order is 96 q again; it fits int64 but
    # float64 angles cannot be trusted to separate roots of that order
    q = 2 * 10 ** 13 + 3
    md = shifted_su2_4(q)
    assert md.phase_numerators()[0] == 24 * q
    assert SNAP_ORDER_LIMIT <= 96 * q < INT64_SAFE
    with pytest.raises(InvalidInputError, match=f"shifted: eta order {96 * q}"):
        Theory(md)
