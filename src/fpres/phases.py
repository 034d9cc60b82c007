"""Exact roots of unity as integer numerators over a common denominator.

A phase exp(2*pi*i*q) is exact: q is rational and taken mod 1. Bulk data
(weights, T exponents, monodromy charges, character tables) is stored as
integer numerators n over one denominator d, q = n / d, in int64 numpy
arrays, so a whole column of phases is one array operation; numerators too
large for safe int64 sums fall back to object arrays of Python ints. A
single exponent leaves this representation as a Fraction reduced mod 1,
which is what the public accessors, the JSON documents and the reports
carry. Conversion to complex happens only at the numerical boundary,
through `unit`, and back through `snap_phases`, which snaps a whole array
at one order and marks what does not snap.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np


def norm1(q: Fraction) -> Fraction:
    """Reduce an exponent mod 1 into [0, 1)."""
    return q - Fraction(math.floor(q))


QUARTER_TURNS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def unit(q: Fraction | float) -> complex:
    """exp(2 pi i q), exactly 1, i, -1 or -i at an exact multiple of 1/4, so
    real modular data stays exactly real."""
    if isinstance(q, Fraction) and 4 % q.denominator == 0:
        return QUARTER_TURNS[int(4 * q) % 4]
    return cmath.exp(2j * math.pi * float(q))


def principal_root_exp(q: Fraction, n: int) -> Fraction:
    """Exponent of the principal n-th root: argument in [0, 2*pi) divided by n."""
    if n <= 0:
        raise ValueError("root order must be positive")
    return norm1(q) / n


# --- integer numerators over a common denominator


def common_denominator(qs) -> int:
    """Least common denominator of a sequence of rationals (ints allowed)."""
    return math.lcm(*(q.denominator for q in qs))


INT64_SAFE = 2 ** 58  # int64 sums of up to 32 values this size cannot overflow
SNAP_TOL = 1e-6  # how far a phase may lie from the root of unity it snaps to


def numerators(qs, den: int) -> np.ndarray:
    """The integers n with q = n / den: int64 while den and every n stay
    below INT64_SAFE, Python ints in an object array otherwise."""
    ints = [q.numerator * (den // q.denominator) for q in qs]
    if den < INT64_SAFE and max(map(abs, ints), default=0) < INT64_SAFE:
        return np.array(ints, dtype=np.int64)
    return np.array(ints, dtype=object)


def units(nums, den: int) -> np.ndarray:
    """unit(n / den) for every numerator, evaluated once per distinct value,
    so each entry equals `unit` of the exact exponent bit for bit."""
    nums = np.asarray(nums)
    vals, inv = np.unique(nums, return_inverse=True)
    table = np.array([unit(Fraction(int(v), den)) for v in vals], dtype=complex)
    return table[inv.reshape(nums.shape)]


def snap_phases(zs, order: int) -> np.ndarray:
    """Numerators n in [0, order) of the roots of unity exp(2 pi i n / order)
    nearest to each entry of `zs`, as int64 (Python ints for orders from
    INT64_SAFE up), and -1 where an entry lies farther than SNAP_TOL from it."""
    if order <= 0:
        raise ValueError("order must be positive")
    zs = np.asarray(zs, dtype=complex)
    near = np.rint(np.angle(np.where(np.isfinite(zs), zs, 1)) / (2.0 * math.pi)
                   * order)
    if order < INT64_SAFE:
        nums = near.astype(np.int64) % order
    else:
        nums = np.vectorize(int, otypes=[object])(near) % order
    # |z - root| <= SNAP_TOL also bounds ||z| - 1| by SNAP_TOL
    return np.where(np.abs(zs - units(nums, order)) <= SNAP_TOL, nums, -1)
