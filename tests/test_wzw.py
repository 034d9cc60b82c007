import math
from fractions import Fraction

import numpy as np
import pytest

from fpres.errors import InvalidInputError, ResourceLimitError
from fpres.modular import check_modular, fusion_matrix
from fpres.wzw import _cache_load, su2, sun, sun_weight_h, sun_weights


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
def test_sun_reduces_to_su2(k):
    a = su2(k)
    b = sun(2, k)
    assert a.h == b.h
    assert a.c == b.c
    assert np.abs(a.s - b.s).max() < 1e-12


def test_sun_weight_count():
    assert len(sun_weights(3, 3)) == math.comb(5, 2)
    assert len(sun_weights(5, 5)) == math.comb(9, 4)


def ref_weight_h(n, k, lam):
    """The inverse Cartan quadratic form as a Fraction double loop."""
    q = Fraction(0)
    for i in range(1, n):
        for j in range(1, n):
            g = Fraction(min(i, j) * n - i * j, n)
            q += g * lam[i - 1] * (lam[j - 1] + 2)
    return q / (2 * (n + k))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sun_weights_match_fraction_double_loop(n, k):
    md = sun(n, k)
    ref = tuple(ref_weight_h(n, k, lam) for lam in md.labels)
    assert md.h == ref
    assert tuple(sun_weight_h(n, k, lam) for lam in md.labels) == ref


def test_su3_level1_is_z3():
    md = sun(3, 1)
    assert md.size == 3
    n = fusion_matrix(md, 1)
    # the level-1 fields fuse as Z_3
    perm = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert n.tolist() == perm or n.T.tolist() == perm


def test_su3_level3_frozen_values():
    md = sun(3, 3)
    assert md.size == 10
    assert md.c == Fraction(4)
    assert sun_weight_h(3, 3, (3, 0)) == Fraction(1)
    assert sun_weight_h(3, 3, (1, 1)) == Fraction(1, 2)
    rep = check_modular(md)
    assert rep["ok"], rep


def test_su5_level5_frozen_values():
    md = sun(5, 5)
    assert md.size == 126
    assert md.c == Fraction(12)
    f = md.index((1, 1, 1, 1))
    assert md.h[f] == Fraction(3, 2)
    assert md.t_exponent(f) == 0
    assert md.h[md.index((5, 0, 0, 0))] == Fraction(2)
    assert md.h[md.index((0, 5, 0, 0))] == Fraction(3)
    rep = check_modular(md)
    assert rep["ok"], rep


def test_sun_field_limit():
    with pytest.raises(ResourceLimitError):
        sun(5, 20)


def test_sun_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        sun(1, 3)
    with pytest.raises(InvalidInputError):
        su2(0)


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path)
    first = sun(3, 2, cache_dir=cache)
    again = sun(3, 2, cache_dir=cache)
    assert np.array_equal(first.s, again.s)
    assert _cache_load(cache, "su3_2", first.size) is not None


def test_cache_rejects_corruption(tmp_path):
    cache = str(tmp_path)
    sun(3, 2, cache_dir=cache)
    data = tmp_path / "su3_2_s.npy"
    raw = bytearray(data.read_bytes())
    raw[-1] ^= 0xFF
    data.write_bytes(bytes(raw))
    assert _cache_load(cache, "su3_2", 6) is None
    # a corrupted cache is silently rebuilt
    md = sun(3, 2, cache_dir=cache)
    assert check_modular(md)["ok"]
