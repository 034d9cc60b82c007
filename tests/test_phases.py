"""Snapping complex numbers to exact roots of unity, one at a time and in
bulk."""
import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from fpres.phases import (INT64_SAFE, SNAP_ORDER_LIMIT, SNAP_TOL, snap_phases,
                          unit, units)

TOL = 1e-6


def test_snap_tolerance_is_pinned():
    assert SNAP_TOL == TOL


def shifted_roots(order):
    """(n, z) for every root exp(2 pi i n / order), moved by tol/2 along the
    circle both ways and off it both ways."""
    moves = (cmath.exp(0.5j * TOL), cmath.exp(-0.5j * TOL),
             1 + TOL / 2, 1 - TOL / 2)
    return [(n, unit(Fraction(n, order)) * w)
            for n in range(order) for w in moves]


@pytest.mark.parametrize("order", range(1, 49))
def test_scalar_and_array_snap_agree_on_shifted_roots(order):
    nums, zs = zip(*shifted_roots(order))
    got = snap_phases(np.array(zs), order)
    assert got.dtype == np.int64
    assert got.tolist() == list(nums)
    assert [int(snap_phases([z], order)[0]) for z in zs] == list(nums)


@pytest.mark.parametrize("order", [1, 2, 3, 7, 12, 48])
def test_off_circle_and_midway_points_fail_both_forms(order):
    root = unit(Fraction(1, order))
    bad = [
        (1 + 2 * TOL) * root,                        # |z| != 1
        (1 - 2 * TOL) * root,
        0j,
        complex("nan"),
        unit(Fraction(1, 2 * order)),                # midway between roots
        unit(Fraction(2 * order - 1, 2 * order)),
    ]
    assert snap_phases(np.array(bad), order).tolist() == [-1] * len(bad)


def test_orders_from_int64_safe_up_are_rejected():
    # float64 angles stop separating adjacent roots near order 2**52, so
    # snap orders stop at SNAP_ORDER_LIMIT, below INT64_SAFE
    assert SNAP_ORDER_LIMIT == 2 ** 50 < INT64_SAFE
    zs = np.array([1j, -1, 1])
    for order in (SNAP_ORDER_LIMIT, INT64_SAFE // 4, INT64_SAFE, 0):
        with pytest.raises(ValueError, match="snap order"):
            snap_phases(zs, order)
    # the largest orders below the bound still snap exactly, in int64
    order = SNAP_ORDER_LIMIT - 4
    got = snap_phases(zs, order)
    assert got.dtype == np.int64
    assert got.tolist() == [order // 4, order // 2, 0]
    rng = random.Random(0)
    for order in (SNAP_ORDER_LIMIT - 1, SNAP_ORDER_LIMIT - 3):
        nums = [rng.randrange(order) for _ in range(2000)]
        zs = np.array([unit(Fraction(n, order)) for n in nums])
        assert snap_phases(zs, order).tolist() == nums


@pytest.mark.parametrize("nums, den", [
    (np.array([3, -5, 3, 0, 11, -5, 24]), 12),           # a narrow range
    (np.array([[1, 2], [2, 7]]), 8),                      # two dimensions
    (np.array([5, 10 ** 9, -(10 ** 9), 5]), 7 * 10 ** 9),  # a wide range
    (np.zeros(0, dtype=np.int64), 5),
])
def test_units_equal_unit_of_each_exponent_as_written(nums, den):
    got = units(nums, den)
    assert got.shape == nums.shape
    want = np.array([unit(Fraction(int(v), den)) for v in nums.ravel()],
                    dtype=complex).reshape(nums.shape)
    assert got.tobytes() == want.tobytes()
