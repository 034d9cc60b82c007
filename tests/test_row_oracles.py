"""Row-based conjugation, current permutations from a generating set and the
row-block reductions, against the dense formulas they replaced.

The oracles: C read off as the permutation matrix S^2, one row match per
detected current, and S S^dagger, S - S^T and S T S - T^-1 S T^-1 formed
as whole N x N matrices.
"""
import functools

import numpy as np
import pytest

from fpres import currents, modular
from fpres.currents import Theory, detect_simple_currents
from fpres.errors import FusionIntegralityError
from fpres.extend import extend
from fpres.modular import (
    ModularData,
    check_modular,
    cube_deviation,
    symmetry_deviation,
    tensor,
    unitarity_deviation,
)
from fpres.wzw import su2
from test_block_kernel import BUILDERS, built


def conjugation_from_square(s, tol=1e-6):
    """C as the permutation matrix S^2, checked to `tol`."""
    c = s @ s
    n = c.shape[0]
    perm = np.argmax(np.abs(c), axis=1)
    p = np.zeros_like(c)
    p[np.arange(n), perm] = 1.0
    assert np.abs(c - p).max() <= tol
    assert np.array_equal(perm[perm], np.arange(n))
    return perm


def fresh(md):
    """The same data with empty caches."""
    return ModularData(md.labels, md.h, md.c, md.s_dense().copy(), md.name)


@functools.lru_cache(maxsize=None)
def su2x5_diag_ext():
    md = tensor(*(su2(4) for _ in range(5)))
    ext = extend(Theory(md), [md.index((4,) * 5)]).ext_md
    assert ext.size == 783
    return ext


EXTENSIONS = {name: (lambda name=name: built(name).ext_md) for name in BUILDERS}
EXTENSIONS["su2x5-diagonal"] = su2x5_diag_ext


def match_spy(monkeypatch):
    """Currents whose rows `_match_rows` matches."""
    matched = []
    real = currents._match_rows

    def recording(md, j):
        matched.append(j)
        return real(md, j)

    monkeypatch.setattr(currents, "_match_rows", recording)
    return matched


# --- conjugation and permutations against their oracles -------------------


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_row_conjugation_matches_the_square(name):
    md = fresh(EXTENSIONS[name]())
    assert np.array_equal(md.conjugation(), conjugation_from_square(md.s))


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_composed_perms_match_one_row_match_per_current(name):
    md = EXTENSIONS[name]()
    th = Theory(fresh(md))
    ids = detect_simple_currents(md)
    assert list(th.perms) == ids
    oracle = fresh(md)
    for j in ids:
        assert np.array_equal(th.perms[j], currents._match_rows(oracle, j))


@pytest.mark.parametrize("name, gens, orders", [
    ("su2x4-diagonal", [0, 2, 10, 50], [2, 2, 2]),
    ("su5-pair", [0, 1], [5]),
])
def test_theory_row_matches_a_generating_set(monkeypatch, name, gens, orders):
    md = fresh(built(name).ext_md)
    matched = match_spy(monkeypatch)
    th = Theory(md)
    assert th.center.orders == orders
    assert matched == gens


def test_identity_only_theory_still_fails_the_unitarity_gate():
    md = su2(4)
    s = md.s.copy()
    s[0, 0] += 0.1
    bad = ModularData(md.labels, md.h, md.c, s)
    assert detect_simple_currents(bad) == [0]
    with pytest.raises(FusionIntegralityError, match="not unitary"):
        Theory(bad)


# --- row-block reductions against the dense formulas ----------------------


def dense_deviations(s, t):
    n = s.shape[0]
    return (np.abs(s @ s.conj().T - np.eye(n)).max(),
            np.abs(s - s.T).max(),
            np.abs((s * t) @ s - t.conj()[:, None] * s * t.conj()).max())


def perturbed_su2x4():
    s = tensor(*(su2(4) for _ in range(4))).s_dense().copy()
    s[600, 3] += 1e-3  # below the diagonal, in the last row block
    return s


@pytest.mark.parametrize("case", ["su2x4", "su2x4-perturbed", "su5-pair-ext"])
def test_blocked_reductions_match_the_dense_formulas(case, monkeypatch):
    # 96-row panels leave a ragged last panel on 625 and on 640 rows
    monkeypatch.setattr(modular, "ROW_BLOCK", 96)
    if case == "su5-pair-ext":
        md = built("su5-pair").ext_md
        s, t = md.s, md.t_values()
    else:
        md = tensor(*(su2(4) for _ in range(4)))
        s = md.s_dense() if case == "su2x4" else perturbed_su2x4()
        t = md.t_values()
    rows = modular.ROW_BLOCK
    assert s.shape[0] % rows and s.shape[0] > 2 * rows
    unitary, symmetric, cube = dense_deviations(s, t)
    assert abs(unitarity_deviation(s) - unitary) <= 1e-14
    assert abs(symmetry_deviation(s) - symmetric) <= 1e-14
    assert abs(cube_deviation(s, t, symmetric <= 1e-9) - cube) <= 1e-14
    if case == "su2x4-perturbed":
        # the perturbation sits below the diagonal: only all blocks see it
        assert symmetric == pytest.approx(1e-3)
        assert cube > 1e-4 and unitary > 1e-5


def test_nan_propagates_through_the_row_blocks():
    s = tensor(*(su2(4) for _ in range(4))).s_dense().copy()
    s[600, 3] = np.nan
    assert np.isnan(unitarity_deviation(s))
    assert np.isnan(symmetry_deviation(s))


def test_non_symmetric_s_has_no_conjugation():
    md = tensor(*(su2(4) for _ in range(4)))
    bad = ModularData(md.labels, md.h, md.c, perturbed_su2x4())
    rep = check_modular(bad)
    assert rep["checks"]["charge_conjugation"] == float("inf")
    assert rep["checks"]["symmetric"] == pytest.approx(1e-3)
