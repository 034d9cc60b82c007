import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fpres.errors import InvalidInputError, ResourceLimitError
from fpres.modular import check_modular
from fpres.wzw import SUN_S_METHOD, _cache_load, su2, sun, sun_weights
from oracles import fusion_matrix


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
    assert md.h[md.index((3, 0))] == Fraction(1)
    assert md.h[md.index((1, 1))] == Fraction(1, 2)
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


@pytest.mark.parametrize("n, k, admitted", [
    (6, 6, True), (9, 1, True), (5, 5, True), (10, 1, False), (12, 1, False),
    (6, 8, False),
])
def test_sun_weyl_limit(monkeypatch, n, k, admitted):
    # the bound is checked before the Weyl sum; an admitted group reaches it
    from fpres import wzw

    class Reached(Exception):
        pass

    def sentinel(*args):
        raise Reached

    monkeypatch.setattr(wzw, "_sun_s_matrix", sentinel)
    with pytest.raises(Reached if admitted else ResourceLimitError):
        sun(n, k)


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


def _flip_last_byte(tmp_path):
    data = tmp_path / "su3_2_s.npy"
    raw = bytearray(data.read_bytes())
    raw[-1] ^= 0xFF
    data.write_bytes(bytes(raw))


def _drop_method(tmp_path):
    meta = tmp_path / "su3_2_meta.json"
    doc = json.loads(meta.read_text())
    del doc["method"]
    meta.write_text(json.dumps(doc))


CORRUPTIONS = {
    "flipped-last-byte": _flip_last_byte,
    "empty-data": lambda p: (p / "su3_2_s.npy").write_bytes(b""),
    "truncated-header": lambda p: (p / "su3_2_s.npy").write_bytes(
        (p / "su3_2_s.npy").read_bytes()[:20]),
    "meta-not-an-object": lambda p: (p / "su3_2_meta.json").write_text("[1]"),
    "meta-without-method": _drop_method,
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_cache_rejects_corruption(tmp_path, corrupt):
    cache = str(tmp_path)
    fresh = sun(3, 2, cache_dir=cache)
    corrupt(tmp_path)
    assert _cache_load(cache, "su3_2", 6) is None
    # a corrupted cache is silently rebuilt
    md = sun(3, 2, cache_dir=cache)
    assert check_modular(md)["ok"]
    assert np.array_equal(md.s, fresh.s)
    assert _cache_load(cache, "su3_2", 6) is not None
    assert json.loads((tmp_path / "su3_2_meta.json").read_text())["method"] == SUN_S_METHOD


def test_cache_hit_and_miss_are_bitwise_equal(tmp_path):
    cache = str(tmp_path)
    miss = sun(5, 2, cache_dir=cache)
    hit = sun(5, 2, cache_dir=cache)
    assert miss.s.tobytes() == hit.s.tobytes()
    assert miss.s.tobytes() == sun(5, 2).s.tobytes()


# ---------------------------------------------------------------------------
# oracle: the Weyl sum with one float exponential per entry and permutation


def oracle_sun(n, k):
    """(labels, h, c, S) from float orthogonal coordinates, Fraction weights
    and inversion-count signs, with unitarity fixed by the full SS-dagger."""
    labels = [lam for lam in itertools.product(range(k + 1), repeat=n - 1)
              if sum(lam) <= k]
    coords = []
    for lam in labels:
        a = [sum(lam[i:]) + (n - 1 - i) for i in range(n - 1)] + [0]
        coords.append(np.array(a, dtype=float) - sum(a) / n)
    coords = np.array(coords)
    acc = np.zeros((len(labels), len(labels)), dtype=complex)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        dots = coords[:, perm] @ coords.T
        acc += (-1) ** inversions * np.exp(-2j * np.pi * dots / (n + k))
    s = acc / math.sqrt((acc @ acc.conj().T)[0, 0].real)
    s *= abs(s[0, 0]) / s[0, 0]
    h = tuple(ref_weight_h(n, k, lam) for lam in labels)
    return tuple(labels), h, Fraction(k * (n * n - 1), n + k), s


@pytest.mark.parametrize("n, k", [(2, 5), (3, 4), (4, 3), (5, 2), (5, 5), (6, 2)])
def test_sun_matches_float_weyl_sum_oracle(n, k):
    md = sun(n, k)
    labels, h, c, s = oracle_sun(n, k)
    assert md.labels == labels
    assert md.h == h
    assert md.c == c
    assert np.abs(md.s - s).max() <= 1e-13
    t_ref = [(x - c / 24) % 1 for x in h]
    assert [md.t_exponent(a) for a in range(md.size)] == t_ref
