"""Condition reports, eta product law, and the twist-row realizations."""
import functools
import json
from fractions import Fraction

import numpy as np
import pytest

from fpres.currents import FixedPointBundle, Theory
from fpres.errors import InvalidInputError, ResolutionError
from fpres.extend import extend
from fpres.modular import ModularData, tensor
from fpres.phases import norm1
from fpres.validate import (
    check_conditions,
    check_fusion_integrality,
    condition_report,
)
from fpres.wzw import ising, su2, sun
from twist_models import check_GF, realize_twist_row

HALF = Fraction(1, 2)


@functools.lru_cache(maxsize=None)
def su5_resolved_theory():
    su5 = sun(5, 5)
    md = tensor(su5, su5)
    th = Theory(md)
    jj = md.index(((5, 0, 0, 0), (5, 0, 0, 0)))
    ex = extend(th, [jj])
    bundles = [
        ex.resolve(c).bundle for c in ex.residual_classes() if c.order > 1
    ]
    return ex.extended_theory(extra_bundles=bundles)


# --- per-bundle condition checks -----------------------------------------


def test_su24_bundle_passes_all_conditions():
    rep = check_conditions(Theory(su2(4)), 4)
    assert rep["ok"]
    assert set(rep["checks"]) == {
        "{1}", "{2}", "{3}", "{4}", "{4a}", "{5}", "{5a}", "{5b}", "{5c}",
        "{6}", "fsym", "spin-rule", "GF",
    }
    assert not any(c.get("skipped") for c in rep["checks"].values())
    assert max(c["deviation"] for c in rep["checks"].values()) < 1e-12


def test_su5_resolved_bundles_pass_all_conditions():
    th = su5_resolved_theory()
    rep = condition_report(th)
    assert rep["format"] == "condition-report v1"
    assert rep["ok"]
    assert len(rep["bundles"]) == 4
    for sub in rep["bundles"].values():
        assert sub["ok"]
        worst = max(c["deviation"] for c in sub["checks"].values())
        assert worst < 1e-8


def test_flipped_eta_fails_5_with_witness():
    md = su2(4)
    honest = Theory(md).bundle(4)
    tampered = FixedPointBundle(
        4, honest.fields, honest.matrix.copy(), -honest.eta
    )
    rep = check_conditions(Theory(md, extra_bundles=[tampered]), 4)
    assert not rep["ok"]
    assert not rep["checks"]["{5}"]["ok"]
    assert rep["checks"]["{5}"]["witness"] == [2, 2]
    # the square itself is untouched
    assert rep["checks"]["{2}"]["ok"]
    assert rep["checks"]["{3}"]["ok"]


def test_perturbed_matrix_fails_unitarity():
    md = su2(4)
    honest = Theory(md).bundle(4)
    mat = honest.matrix.copy()
    mat[0, 0] += 0.05
    rep = check_conditions(
        Theory(md, extra_bundles=[FixedPointBundle(4, honest.fields, mat,
                                                   honest.eta)]), 4
    )
    assert not rep["checks"]["{2}"]["ok"]
    assert rep["checks"]["{2}"]["deviation"] > 1e-3
    assert rep["checks"]["{2}"]["witness"] == [2, 2]


def test_dephased_row_fails_translation_covariance():
    md = tensor(ising(), ising())
    th = Theory(md)
    honest = th.bundle(1)
    mat = honest.matrix.copy()
    mat[0] *= np.exp(0.3j)
    rep = check_conditions(
        Theory(md, extra_bundles=[FixedPointBundle(1, honest.fields, mat,
                                                   honest.eta)]), 1
    )
    assert not rep["checks"]["{4}"]["ok"]


def test_half_integer_current_violates_5c_only():
    # eta on the fermion bundle is imaginary at the self-conjugate fixed
    # point, which is exactly the half-integer spin obstruction
    rep = check_conditions(Theory(ising()), 1)
    failed = [cid for cid, c in rep["checks"].items() if not c["ok"]]
    assert failed == ["{5c}"]
    assert rep["checks"]["{5b}"]["ok"]
    assert rep["checks"]["spin-rule"]["ok"]


def resolved_extension(md, label):
    ex = extend(Theory(md), [md.index(label)])
    return ex.extended_theory(extra_bundles=[
        ex.resolve(c).bundle for c in ex.residual_classes() if c.order > 1])


@pytest.mark.parametrize("build,cells", [
    (lambda: Theory(ising()), 1),
    (lambda: Theory(sun(4, 4)), 2),
    (lambda: resolved_extension(tensor(su2(6), su2(6)), (6, 6)), 2),
    (lambda: resolved_extension(tensor(*[su2(2)] * 4), (2, 2, 2, 2)), 42),
], ids=["ising", "su4_4", "su2_6^2", "su2_2^4"])
def test_5c_is_the_half_integer_spin_flag(build, cells):
    # {2}, {5}, {6} and {5b} with K = J^-1 give, on every bundle cell,
    # eta^J(conj a) = F(a, J^-1, J) - eta^J(a) mod 1, and F(a, J^-1, J) =
    # -F(a, J, J) is minus the spin of J. So {5c}, which asks for
    # eta^J(conj a) = -eta^J(a), fails exactly on the currents of
    # half-integer spin: it flags the spin, not bad data
    th = build()
    conj = th.md.conjugation()
    seen = 0
    for j in th.center.elements[1:]:
        try:
            fields = th.bundle(j).fields
        except ResolutionError:
            continue
        jinv = th.center.inverse(j)
        for a in map(int, fields):
            assert th.eta_exponent(j, int(conj[a])) == norm1(
                th.twist_exponent(a, jinv, j) - th.eta_exponent(j, a))
            seen += 1
    assert seen == cells
    for cur, body in condition_report(th)["bundles"].items():
        failed = [cid for cid, c in body["checks"].items() if not c["ok"]]
        half = norm1(th.md.h[int(cur)]) == HALF
        assert failed == (["{5c}"] if half else []), (cur, failed)


def test_fsym_pairs_the_two_twist_orders():
    # no honest grid twist of su3_3 x su3_3 lies outside {0, 1/2}, where a
    # sign error in F(a, K, J) + F(a, J, K) = 0 cancels; seed order-3 twists
    # at a field that J and K both fix
    su3 = sun(3, 3)
    md = tensor(su3, su3)
    j = md.index(((3, 0), (0, 0)))
    k = md.index(((0, 0), (3, 0)))
    a = md.index(((1, 1), (1, 1)))

    def fsym(f_kj, f_jk):
        th = Theory(md)
        for (x, y), f in (((k, j), f_kj), ((j, k), f_jk)):
            table = th.twists(x, y).copy()
            table[th.bundle(y).position(a)] = int(f * th.snap_order)
            th._twists[(x, y)] = table
        return check_conditions(th, j)["checks"]["fsym"]

    assert fsym(Fraction(1, 3), Fraction(2, 3))["ok"]
    bad = fsym(Fraction(1, 3), Fraction(1, 3))
    assert not bad["ok"]
    assert bad["witness"] == [{"field": a, "current": k}]


def test_report_is_deterministic():
    def run():
        rep = condition_report(Theory(tensor(ising(), ising())))
        return json.dumps(rep, sort_keys=True, default=str)

    assert run() == run()


# --- eta product law ------------------------------------------------------


def test_gf_su24_fixed_point():
    rep = check_GF(Theory(su2(4)), 2)
    assert rep["ok"]
    assert rep["pairs"] == 2
    assert rep["complex_twists"] == []


def test_gf_ising_sigma_holds_with_half_integer_current():
    # eta = -i and F(sigma,psi,psi) = -1 satisfy the product law exactly
    rep = check_GF(Theory(ising()), 2)
    assert rep["ok"]
    assert rep["failures"] == []


def test_gf_on_resolved_extension():
    th = su5_resolved_theory()
    a = int(th.bundle(th.center.elements[1]).fields[0])
    rep = check_GF(th, a)
    assert rep["ok"]
    assert rep["pairs"] == 20


# --- fusion integrality ---------------------------------------------------


def test_fusion_integrality_su24_extension():
    ext_md = extend(Theory(su2(4)), [4]).ext_md
    rep = check_fusion_integrality(ext_md)
    assert rep["mode"] == "full"
    assert rep["ok"]
    assert rep["max_residual"] < 1e-6
    assert rep["min_entry"] >= 0


def test_fusion_integrality_su5_extension_sampled():
    rep = check_fusion_integrality(su5_resolved_theory().md)
    assert rep["mode"] == "sampled"
    assert rep["ok"]
    assert rep["max_residual"] < 1e-6


def test_fusion_integrality_reports_perturbation():
    md = su2(4)
    bad = ModularData(md.labels, md.h, md.c, md.s + 0.01, name="perturbed")
    rep = check_fusion_integrality(bad)
    assert not rep["ok"]
    assert rep["max_residual"] > 1e-3


# --- twist table realizations ---------------------------------------------

TABLE_MINIMAL = [
    (0, None, 2, None, None),
    (HALF, None, 2, None, None),
    (0, 0, 2, 2, 1),
    (0, HALF, 2, 2, 1),
    (HALF, HALF, 2, 2, 1),
    (0, 0, 2, 2, -1),
    (0, HALF, 2, 2, -1),
    (HALF, HALF, 2, 2, -1),
]


@pytest.mark.parametrize("sj,sk,n,m,f", TABLE_MINIMAL)
def test_realize_row_minimal(sj, sk, n, m, f):
    rep = realize_twist_row(sj, sk, n, m, f)
    assert rep["ok"]
    assert rep["direct_product"]
    assert rep["mutually_local"]
    assert rep["spin_rule"]
    assert rep["diagonal_integer_spin"]
    assert rep["diagonal_untwisted"]
    assert rep["gf"]["ok"]
    if f is not None:
        assert rep["cross_matches_target"]
        assert rep["cross_twist"] == ("0" if f == 1 else "1/2")
        assert rep["group_size"] == n * m


def test_realize_row_wider_orders():
    assert realize_twist_row(0, 0, 4, 2, -1)["ok"]
    assert realize_twist_row(HALF, HALF, 4, 4, -1)["group_size"] == 16
    assert realize_twist_row(0, 0, 3, 5, 1)["group_size"] == 15


def test_realize_row_swapped_spins():
    rep = realize_twist_row(HALF, 0, 2, 4, 1)
    assert rep["ok"]
    assert rep["swapped"]
    assert rep["currents"]["J"]["order"] == 4


def test_realize_row_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        realize_twist_row(0, 0, 3, 2, -1)
    with pytest.raises(InvalidInputError):
        realize_twist_row(HALF, None, 3, None, None)
    with pytest.raises(InvalidInputError):
        realize_twist_row(Fraction(1, 3), None, 2, None, None)
    with pytest.raises(InvalidInputError):
        realize_twist_row(0, 0, 2, 2, 2)
