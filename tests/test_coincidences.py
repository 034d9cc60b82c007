"""Exact coincidence oracles: extensions that equal theories built apart.

Each extension is resolved, passes `check_modular` and the condition
report (up to the {5c} spin flag where its surviving current has
half-integer spin), and matches its target under `match_fields`. The
targets are built-in su(N)_k, Ising and products of them, and pointed
theories from `oracles.pointed`, so the oracle does not come from the
extension engine itself.
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


def matched(base, labels, target, seed=None, may_fail=()):
    """The extension of `base` by the currents `labels`, resolved and
    checked, and its relabeling onto `target`. Only the checks in
    `may_fail` may fail in the condition report."""
    ex = extend(Theory(base), [base.index(lab) for lab in labels],
                convention_seed=seed)
    res = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    th = ex.extended_theory(extra_bundles=[r.bundle for r in res])
    assert check_modular(ex.ext_md)["ok"]
    report = condition_report(th)
    assert {cid for r in report["bundles"].values()
            for cid, c in r["checks"].items() if not c["ok"]} <= set(may_fail)
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


SEEDS = [None, 0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_su2_2_squared_by_2_2_is_su4_1(seed):
    base = tensor(su2(2), su2(2))
    ex, perm = matched(base, [(2, 2)], sun(4, 1), seed)
    # (1, 1) splits into the two fields of weight 3/8 of su(4)_1
    split = ex.orbit_of(base.index((1, 1))).ext_ids
    assert perm[0] == 0 and sorted(perm[list(split)].tolist()) == [1, 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_ising_su2_2_by_psi_2_is_su2_1_squared(seed):
    base = tensor(ising(), su2(2))
    target = tensor(su2(1), su2(1))
    ex, perm = matched(base, [("psi", 2)], target, seed)
    # (sigma, 1) splits into the two fields of weight 1/4
    split = ex.orbit_of(base.index(("sigma", 1))).ext_ids
    assert perm[0] == 0 and sorted(perm[list(split)].tolist()) == sorted(
        [target.index((1, 0)), target.index((0, 1))])


@pytest.mark.parametrize("seed", SEEDS)
def test_ising_cubed_by_two_psi_pairs_is_su2_2(seed):
    # two generators; the report may fail only the spin flag {5c}, as the
    # extended currents of weight 1/2 are half-integer
    base = tensor(ising(), ising(), ising())
    ex, perm = matched(base, [("psi", "psi", "1"), ("1", "psi", "psi")],
                       su2(2), seed, may_fail={"{5c}"})
    assert perm[0] == 0
    assert perm[ex.orbit_of(base.index(("sigma",) * 3)).ext_ids[0]] == 1
