"""The dense Verlinde kernel against the complex scan it replaced.

`oracle_scan` is the dense branch of `check_fusion_integrality` before the
real branch: complex products over the rows b >= a and every column c, with
the residual of the real part only. `verlinde_tensor` forms every N_ab^c of
a small S at once. Exact quarter turns in `phases.unit` keep the su2_4^4
diagonal extension's S exactly real, which is what sends it down the real
branch.
"""
import cmath
import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fpres.currents import Theory
from fpres.errors import FusionIntegralityError
from fpres.extend import extend
from fpres.modular import (ModularData, ProductS, fusion_tensor,
                           sampled_fusion_residual, tensor)
from fpres.phases import unit, units
from fpres.validate import check_fusion_integrality
from fpres.wzw import ising, su2, sun
from oracles import fusion_matrix, fusion_scan_by_rows


def oracle_scan(md, tol=1e-6):
    s = md.s_dense()
    sc = s.conj().T
    max_residual = 0.0
    min_entry = 0.0
    for a in range(md.size):
        raw = ((s[a:] * (s[a] / s[0])) @ sc).real
        ints = np.rint(raw)
        max_residual = max(max_residual, float(np.abs(raw - ints).max()))
        min_entry = min(min_entry, float(ints.min()))
    return {"max_residual": max_residual, "min_entry": min_entry,
            "ok": max_residual <= tol and min_entry >= 0}


def verlinde_tensor(s):
    """N[a, b, c] = sum_m S_am S_bm conj(S_cm) / S_0m, unrounded."""
    return np.einsum("am,bm,cm->abc", s / s[0], s, s.conj())


def with_s(md, s, name):
    return ModularData(md.labels, md.h, md.c, s, name=name)


@functools.lru_cache(maxsize=None)
def diagonal_extension(k, seed=None):
    md = tensor(*[su2(4)] * k)
    return extend(Theory(md), [md.index((4,) * k)],
                  convention_seed=seed).ext_md


def moved(md, a, b, by):
    s = md.s_dense().copy()
    s[a, b] += by
    return with_s(md, s, f"{md.name} moved")


def noisy_su24():
    """su2_4 with 1e-4 i A added to S, A a fixed random real matrix."""
    md = su2(4)
    a = np.random.default_rng(7).standard_normal((md.size, md.size))
    return with_s(md, md.s + 1e-4j * a, "su2_4 + 1e-4 i A")


# --- exact quarter turns --------------------------------------------------


def test_unit_is_exact_at_quarter_turns():
    exact = {0: 1, 1: 1j, 2: -1, 3: -1j}
    for k in range(-4, 9):
        z = unit(Fraction(k, 4))
        assert z == exact[k % 4] and type(z) is complex
        assert units(np.array([k]), 4)[0] == z
        assert units(np.array([2 * k]), 8)[0] == z


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1, 8),
                               Fraction(5, 12)])
def test_unit_is_unchanged_off_quarter_turns(q):
    z = cmath.exp(2j * math.pi * float(q))
    assert unit(q) == z and unit(q).imag != 0
    got = units(np.array([q.numerator]), q.denominator)[0]
    assert (got.real, got.imag) == (z.real, z.imag)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 5])
def test_su24_diagonal_extension_has_a_real_s(seed):
    s = diagonal_extension(4, seed).s_dense()
    assert s.shape == (158, 158)
    assert not s.imag.any()


def test_su24_cube_extension_stays_complex():
    assert abs(diagonal_extension(3).s_dense().imag).max() > 0.4


# --- the scan against the oracle ------------------------------------------


SCAN_CASES = {
    "su2_4^4-diag": lambda: diagonal_extension(4),
    "su2_4^4-diag-moved": lambda: moved(diagonal_extension(4), 3, 7, 1e-3),
    "su2_4^3-diag": lambda: diagonal_extension(3),
    "su3_3": lambda: sun(3, 3),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_matches_the_complex_oracle(case):
    md = SCAN_CASES[case]()
    got = check_fusion_integrality(md)
    want = oracle_scan(md)
    assert got["mode"] == "full"
    assert got["ok"] == want["ok"] == (case != "su2_4^4-diag-moved")
    assert got["min_entry"] == want["min_entry"]
    assert abs(got["max_residual"] - want["max_residual"]) <= 1e-14


@pytest.mark.parametrize("case", ["su2_4+iA", "su2_4^3-diag-moved"])
def test_complex_scan_covers_every_column(case):
    md = (noisy_su24() if case == "su2_4+iA"
          else moved(diagonal_extension(3), 5, 2, 1e-3))
    n = verlinde_tensor(md.s_dense())
    want = np.abs(n - np.rint(n.real)).max()
    got = check_fusion_integrality(md)
    assert not got["ok"]
    assert abs(got["max_residual"] - want) <= 1e-14


def test_fusion_tensor_matches_the_verlinde_sum():
    for md in (diagonal_extension(3), su2(5), sun(3, 3)):
        n = verlinde_tensor(md.s_dense())
        assert np.array_equal(fusion_tensor(md), np.rint(n.real))


PRODUCTS = {
    "su2_4^2": lambda: (su2(4), su2(4)),
    "su3_3-su2_2": lambda: (sun(3, 3), su2(2)),
    "ising-su2_3-su3_2": lambda: (ising(), su2(3), sun(3, 2)),
    "su4_2-su3_3": lambda: (sun(4, 2), sun(3, 3)),
    "su2_6^2-su2_4": lambda: (su2(6), su2(6), su2(4)),  # 245 fields
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_fusion_tensor_of_a_product_forms_no_product_s(name, monkeypatch):
    # the Kronecker product of the factor tensors against the Verlinde rows
    # of the dense S, np.kron of the factor S matrices
    factors = PRODUCTS[name]()
    md = tensor(*factors)

    def refused(self):
        raise AssertionError("the fusion tensor formed a dense product S")

    monkeypatch.setattr(ProductS, "to_dense", refused)
    tables = fusion_tensor(md)
    s = np.array([[1.0 + 0.0j]])
    for f in factors:
        s = np.kron(s, f.s)
    dense = with_s(md, s, f"{name} dense")
    assert tables.shape == (md.size,) * 3
    for a in range(md.size):
        assert np.array_equal(tables[a], fusion_matrix(dense, a)), a


def test_fusion_tensor_peaks_near_the_tensor():
    # the tensor plus one row's temporaries; holding the rows and the
    # tensor at once would read 2.0x
    md = tensor(su2(4), su2(6), su2(2))  # 105 fields, a 9.3 MB tensor
    tracemalloc.start()
    try:
        tables = fusion_tensor(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables.dtype == np.int64 and tables.shape == (105,) * 3
    assert peak <= 1.3 * tables.nbytes


# --- one residual definition ----------------------------------------------


def test_every_path_counts_the_imaginary_part():
    md = noisy_su24()
    n = verlinde_tensor(md.s)
    complex_residual = np.abs(n - np.rint(n.real)).max()
    assert complex_residual > 1e-4 > 1e-6 > np.abs(n.real
                                                  - np.rint(n.real)).max()
    dense = check_fusion_integrality(md)
    assert not dense["ok"]
    assert dense["max_residual"] == pytest.approx(complex_residual, abs=1e-14)
    with pytest.raises(FusionIntegralityError):
        fusion_matrix(md, 1)
    sampled = sampled_fusion_residual(md, 40, random.Random(0))
    assert 1e-4 < sampled <= complex_residual + 1e-14


# --- NaN fails every path -------------------------------------------------


def nan_su24():
    md = su2(4)
    s = md.s.copy()
    s[1, 2] = complex(float("nan"), 0)
    return with_s(md, s, "su2_4 with a NaN")


def test_nan_fails_the_dense_scan():
    for md in (nan_su24(), tensor(nan_su24(), su2(4))):
        rep = check_fusion_integrality(md)
        assert rep["mode"] == ("factors" if md.is_product else "full")
        assert not rep["ok"]
        assert math.isnan(rep["max_residual"])


# --- the scan over c >= b against the row scan ---------------------------


ROW_SCAN_CASES = {
    "su2_4^4-diag": lambda: diagonal_extension(4),  # real: c >= b
    "su2_4^3-diag": lambda: diagonal_extension(3),  # complex: every c
    "su2_4-nan": nan_su24,  # real, with a NaN
    "su2_4^4-diag-moved": lambda: moved(diagonal_extension(4), 3, 7, 1e-3),
}


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("case", sorted(ROW_SCAN_CASES))
def test_triangle_scan_matches_the_row_scan(case):
    md = ROW_SCAN_CASES[case]()
    got, want = check_fusion_integrality(md), fusion_scan_by_rows(md)
    assert got["mode"] == want["mode"] == "full"
    assert got["ok"] == want["ok"] == (case in ("su2_4^4-diag", "su2_4^3-diag"))
    assert _same(got["min_entry"], want["min_entry"])
    if math.isnan(want["max_residual"]):
        assert math.isnan(got["max_residual"])
    else:
        assert abs(got["max_residual"] - want["max_residual"]) <= 1e-14


def test_nan_in_one_factor_fails_the_factor_report():
    # the NaN factor comes last, where Python's max would drop it
    rep = check_fusion_integrality(tensor(su2(4), su2(3), nan_su24()))
    assert [f["mode"] for f in rep["factors"]] == ["full"] * 3
    assert [f["ok"] for f in rep["factors"]] == [True, True, False]
    assert not rep["ok"]
    assert math.isnan(rep["max_residual"])


def test_nan_fails_the_sampled_scan():
    md = su2(400)  # 401^3 entries, past the dense budget
    s = md.s.copy()
    s[1, 2] = complex(float("nan"), 0)
    md = with_s(md, s, "su2_400 with a NaN")
    rep = check_fusion_integrality(md)
    assert rep["mode"] == "sampled"
    assert not rep["ok"]
    assert math.isnan(rep["max_residual"])
    assert math.isnan(sampled_fusion_residual(md, 60, random.Random(0)))


def test_nan_fails_fusion_matrix():
    md = nan_su24()
    with pytest.raises(FusionIntegralityError, match="nan"):
        fusion_matrix(md, 1)
    with pytest.raises(FusionIntegralityError):
        fusion_tensor(md)
