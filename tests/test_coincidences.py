"""Exact coincidence oracles: extensions that equal theories built apart.

Each extension is resolved, passes `check_modular` and the condition
report, and matches its target under `match_fields`. The targets are
su(3)_1 from `wzw.sun` and pointed theories from `oracles.pointed`, so the
oracle does not come from the extension engine itself.
"""
from fractions import Fraction

import pytest

from fpres.currents import Theory
from fpres.extend import extend, match_fields
from fpres.modular import check_modular, tensor
from fpres.validate import condition_report
from fpres.wzw import ising, su2, sun
from oracles import pointed


def so8_1():
    """Z2 x Z2 with q = 1/2 on every nonzero element, c = 4."""
    return pointed((2, 2), lambda x: Fraction(1, 2) * any(x), 4, "so8_1")


def u1_4():
    """Z4 with q(x) = x^2 / 8, c = 1."""
    return pointed((4,), lambda x: Fraction(x[0] ** 2, 8), 1, "u1_4")


def matched(base, labels, target, seed=None):
    """The extension of `base` by the currents `labels`, resolved and
    checked, and its relabeling onto `target`."""
    ex = extend(Theory(base), [base.index(lab) for lab in labels],
                convention_seed=seed)
    res = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    th = ex.extended_theory(extra_bundles=[r.bundle for r in res])
    assert check_modular(ex.ext_md)["ok"]
    assert condition_report(th)["ok"]
    perm = match_fields(ex.ext_md, target)
    assert sorted(perm.tolist()) == list(range(target.size))
    return ex, perm


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_su2_4_by_z2_is_su3_1(seed):
    base = su2(4)
    ex, perm = matched(base, [4], sun(3, 1), seed)
    # the fixed point 2 splits into the two nontrivial su(3)_1 fields
    split = ex.orbit_of(base.index(2)).ext_ids
    assert perm[0] == 0 and sorted(perm[list(split)].tolist()) == [1, 2]


def test_su3_3_by_z3_is_so8_1():
    base = sun(3, 3)
    ex, perm = matched(base, [(3, 0)], so8_1())
    split = ex.orbit_of(base.index((1, 1))).ext_ids
    assert perm[0] == 0 and sorted(perm[list(split)].tolist()) == [1, 2, 3]


def test_ising_squared_by_psi_psi_is_u1_4():
    base = tensor(ising(), ising())
    ex, perm = matched(base, [("psi", "psi")], u1_4())
    split = ex.orbit_of(base.index(("sigma", "sigma"))).ext_ids
    # sigma x sigma splits into the two fields of weight 1/8, x = 1 and 3
    assert perm[0] == 0 and sorted(perm[list(split)].tolist()) == [1, 3]
