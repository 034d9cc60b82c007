"""Exact roots of unity as integer numerators over a common denominator.

A phase exp(2*pi*i*q) is exact: q is rational and taken mod 1. Bulk data
(weights, T exponents, monodromy charges, character tables) is stored as
integer numerators n over one denominator d, q = n / d, in int64 numpy
arrays, so a whole column of phases is one array operation. Every d and n
stays below INT64_SAFE = 2**58, so int64 sums of up to 32 of them cannot
overflow: `numerators` rejects input past that bound with
InvalidInputError. Snap orders stay below SNAP_ORDER_LIMIT = 2**50, where
float64 angles still separate adjacent roots: `snap_phases` rejects orders
past it, and a `Theory` whose eta order reaches it is rejected when it is
built. A single exponent leaves this representation as a Fraction
reduced mod 1, which is what the public accessors, the JSON documents and
the reports carry. Conversion to complex happens only at the numerical
boundary, through `unit`, and back through `snap_phases`, which snaps a
whole array at one order and marks what does not snap.
"""
from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError


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


# --- integer numerators over a common denominator


def common_denominator(qs) -> int:
    """Least common denominator of a sequence of rationals (ints allowed)."""
    return math.lcm(*(q.denominator for q in qs))


INT64_SAFE = 2 ** 58  # int64 sums of up to 32 values this size cannot overflow
SNAP_TOL = 1e-6  # how far a phase may lie from the root of unity it snaps to
SNAP_ORDER_LIMIT = 2 ** 50  # float64 angles separate adjacent roots below it


def numerators(qs, den: int) -> np.ndarray:
    """The integers n with q = n / den, as int64; InvalidInputError when den
    or some |n| reaches INT64_SAFE."""
    ints = [q.numerator * (den // q.denominator) for q in qs]
    if den >= INT64_SAFE or max(map(abs, ints), default=0) >= INT64_SAFE:
        raise InvalidInputError(
            f"phases over the denominator {den} leave the int64 range "
            f"(numerators and denominators must stay below 2**58)")
    return np.array(ints, dtype=np.int64)


def units(nums, den: int) -> np.ndarray:
    """unit(n / den) for every numerator, evaluated once per distinct value,
    so each entry equals `unit` of the exact exponent bit for bit. Values
    spanning a range not much wider than the array are looked up by their
    offset in it, which takes no sort."""
    nums = np.asarray(nums)
    lo, hi = int(nums.min(initial=0)), int(nums.max(initial=0))
    if hi - lo > 4 * nums.size + 64:
        vals, inv = np.unique(nums, return_inverse=True)
        table = np.array([_unit_of(int(v), den) for v in vals],
                         dtype=complex)
        return table[inv.reshape(nums.shape)]
    at = nums - lo
    seen = np.zeros(hi - lo + 1, dtype=bool)
    seen[at] = True
    table = np.zeros(len(seen), dtype=complex)
    for v in np.flatnonzero(seen).tolist():
        table[v] = _unit_of(v + lo, den)
    return table[at]


@functools.lru_cache(maxsize=4096)
def _unit_of(n: int, den: int) -> complex:
    """unit(n / den), remembered: `units` meets the same few exponents over
    the same denominators again and again."""
    return unit(Fraction(n, den))


def snap_phases(zs, order: int) -> np.ndarray:
    """Numerators n in [0, order) of the roots of unity exp(2 pi i n / order)
    nearest to each entry of `zs`, as int64, and -1 where an entry lies
    farther than SNAP_TOL from it; `order` lies in (0, SNAP_ORDER_LIMIT)."""
    if not 0 < order < SNAP_ORDER_LIMIT:
        raise ValueError(f"snap order {order} is outside (0, 2**50)")
    zs = np.asarray(zs, dtype=complex)
    near = np.rint(np.angle(np.where(np.isfinite(zs), zs, 1)) / (2.0 * math.pi)
                   * order)
    nums = near.astype(np.int64) % order
    # |z - root| <= SNAP_TOL also bounds ||z| - 1| by SNAP_TOL
    return np.where(np.abs(zs - units(nums, order)) <= SNAP_TOL, nums, -1)
