"""Acceptance suite: one test per headline guarantee of the package.

Each test pins its tolerances and, where promised, a wall-clock budget.
The checks run end to end on freshly built data; nothing is mocked.
"""
import functools
import time
from fractions import Fraction

import numpy as np

from fpres.currents import Theory
from fpres.extend import GRID_TOL, extend, match_fields
from fpres.modular import FUSION_TOL, check_modular, tensor
from fpres.validate import check_fusion_integrality, condition_report
from fpres.wzw import ising, su2, sun
from oracles import fusion_matrix, orbit_representative
from twist_models import TWIST_TABLE, realize_twist_row


# --- shared builders ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def su5_pair_theory():
    su5 = sun(5, 5)
    return Theory(tensor(su5, su5))


def diagonal_current(th):
    return next(
        j
        for j in th.center.elements
        if j and th.md.labels[j][0] == th.md.labels[j][1]
    )


@functools.lru_cache(maxsize=None)
def su2_4_su3_3_theory():
    return Theory(tensor(su2(4), sun(3, 3)))


@functools.lru_cache(maxsize=None)
def su5_resolved():
    """Diagonal extension of the level-5 pair with all classes resolved."""
    ex = extend(su5_pair_theory(), [diagonal_current(su5_pair_theory())])
    bundles = tuple(
        ex.resolve(c).bundle for c in ex.residual_classes() if c.order > 1
    )
    return ex, bundles, ex.extended_theory(extra_bundles=bundles)


@functools.lru_cache(maxsize=None)
def triple_su2_resolved():
    md = tensor(su2(4), su2(6), su2(2))
    ex = extend(Theory(md), [md.labels.index((4, 6, 2))])
    bundles = tuple(
        ex.resolve(c).bundle for c in ex.residual_classes() if c.order > 1
    )
    return ex, ex.extended_theory(extra_bundles=bundles)


# --- 1: smallest worked example, end to end -------------------------------


def test_su2_level4_extension_yields_z3_fusion_ring():
    t0 = time.perf_counter()
    ex = extend(Theory(su2(4)), [4])
    modularity = check_modular(ex.ext_md)
    fusion = check_fusion_integrality(ex.ext_md)
    mats = [fusion_matrix(ex.ext_md, a) for a in range(ex.n_ext)]
    elapsed = time.perf_counter() - t0

    assert FUSION_TOL == 1e-6
    assert ex.n_ext == 3
    assert modularity["ok"] and modularity["max_deviation"] < 1e-9
    assert fusion["ok"] and fusion["max_residual"] < 1e-6
    assert fusion["min_entry"] >= 0
    # the three fields close on the cyclic ring of order three
    assert mats[0].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mats[1].tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert np.array_equal(mats[1] @ mats[1], mats[2])
    assert np.array_equal(mats[1] @ mats[2], mats[0])
    assert elapsed < 1.0


# --- 2: level-5 pair, four distinct asymmetric resolutions ----------------


def test_su5_pair_diagonal_extension_four_asymmetric_bundles(tmp_path):
    cache = str(tmp_path)

    def pipeline():
        su5 = sun(5, 5, cache_dir=cache)
        th = Theory(tensor(su5, su5))
        ex = extend(th, [diagonal_current(th)])
        classes = [c for c in ex.residual_classes() if c.order > 1]
        bundles = [ex.resolve(c).bundle for c in classes]
        return th, ex, classes, bundles

    t0 = time.perf_counter()
    th, ex, classes, bundles = pipeline()
    th2 = ex.extended_theory(extra_bundles=tuple(bundles))
    report = condition_report(th2, tol=1e-8)
    cold = time.perf_counter() - t0

    # the surviving classes form one cyclic group of order five generated
    # by the class of the purely left-handed current
    all_classes = ex.residual_classes()
    assert [c.order for c in all_classes] == [1, 5, 5, 5, 5]
    gen5 = (5, 0, 0, 0)
    vac5 = (0, 0, 0, 0)
    left = th.md.labels.index((gen5, vac5))

    def class_rep(g):
        return min(th.center.mul(g, h) for h in ex.h_members)

    power = 0
    reps = []
    for _ in range(5):
        power = th.center.mul(power, left)
        reps.append(class_rep(power))
    assert len(set(reps[:4])) == 4
    assert sorted(reps[:4]) == sorted(c.rep for c in classes)
    assert reps[4] == all_classes[0].rep == class_rep(0)

    # four resolutions on the same support, pairwise distinct, each asymmetric
    assert len(bundles) == 4
    for i, b1 in enumerate(bundles):
        assert len(b1.fields) == 15
        assert np.abs(b1.matrix - b1.matrix.T).max() > 1e-3
        for b2 in bundles[i + 1:]:
            assert b1.fields == b2.fields
            assert np.abs(b1.matrix - b2.matrix).max() > 1e-3

    # every condition, including the transpose pairing with the inverse
    # class, holds within 1e-8 on all four resolutions
    assert report["ok"]
    assert len(report["bundles"]) == 4
    for body in report["bundles"].values():
        assert body["ok"]
        for cid, entry in body["checks"].items():
            assert entry["ok"] and entry["deviation"] < 1e-8, (cid, entry)
        assert not body["checks"]["{6}"].get("skipped")

    t1 = time.perf_counter()
    pipeline()  # the S matrix now comes from the on-disk cache
    warm = time.perf_counter() - t1
    assert cold < 60.0
    assert warm < 5.0


# --- 3: representatives and twists depend on the orbit --------------------


def test_triple_su2_representatives_and_opposite_twists():
    t0 = time.perf_counter()
    md = tensor(su2(4), su2(6), su2(2))
    ex = extend(Theory(md), [md.labels.index((4, 6, 2))])
    labels = md.labels
    oa = ex.orbit_of(labels.index((2, 1, 1)))
    ob = ex.orbit_of(labels.index((4, 3, 1)))
    assert oa.index != ob.index
    classes = [c for c in ex.residual_classes() if c.order > 1]
    assert [labels[c.rep] for c in classes] == [(0, 0, 2), (0, 6, 0), (0, 6, 2)]

    picks_a = {
        labels[c.rep]: labels[orbit_representative(ex, c, oa)] for c in classes
    }
    picks_b = {
        labels[c.rep]: labels[orbit_representative(ex, c, ob)] for c in classes
    }
    assert picks_a == {
        (0, 0, 2): (0, 0, 2),
        (0, 6, 0): (4, 0, 2),
        (0, 6, 2): (4, 0, 0),
    }
    assert picks_b == {
        (0, 0, 2): (0, 0, 2),
        (0, 6, 0): (0, 6, 0),
        (0, 6, 2): (0, 6, 2),
    }

    # twists on the resolved extended theory at each orbit's extended field
    th2 = ex.extended_theory(
        extra_bundles=[ex.resolve(c).bundle for c in classes])
    (ea,), (eb,) = oa.ext_ids, ob.ext_ids
    pairs = [(ex.class_current_ext_id(c1), ex.class_current_ext_id(c2))
             for i, c1 in enumerate(classes) for c2 in classes[i + 1:]]
    twists_a = [th2.twist_exponent(ea, k, j) for k, j in pairs]
    twists_b = [th2.twist_exponent(eb, k, j) for k, j in pairs]
    assert twists_a == [Fraction(1, 2), Fraction(0), Fraction(0)]
    assert twists_b == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    for qa, qb in zip(twists_a, twists_b):
        # exact exponents 0 and 1/2: the phases are opposite signs pairwise
        assert {qa, qb} == {Fraction(0), Fraction(1, 2)}
    assert time.perf_counter() - t0 < 5.0


# --- 4: closure phases under convention seeds, end to end ---------------


def test_closure_phases_pass_every_check_under_seeds():
    # su2_4 x su3_3 by (0, (3, 0)): the class of (4, (0, 0)) has order 2.
    # Seeds 0 and 2 pick r = (4, (3, 0)) of order 6 on the orbit of
    # (2, (1, 1)), so r^2 = (0, (0, 3)) is not the identity and the closure
    # phases chi(r^2) / 2 reach the dressing and eta
    th = su2_4_su3_3_theory()
    t0 = time.perf_counter()
    for seed in (None, 0, 2):
        ex = extend(th, [th.md.index((0, (3, 0)))], convention_seed=seed)
        classes = [c for c in ex.residual_classes() if c.order > 1]
        resolutions = [ex.resolve(c) for c in classes]
        closures = [th.center.power(r, res.cls.order)
                    for res in resolutions for r in res.r_assignments.values()]
        assert any(closures) == (seed is not None), seed
        assert check_modular(ex.ext_md)["ok"], seed
        assert check_fusion_integrality(ex.ext_md)["ok"], seed
        report = condition_report(ex.extended_theory(
            extra_bundles=[res.bundle for res in resolutions]))
        assert len(report["bundles"]) == len(classes)
        failed = [(j, cid) for j, body in report["bundles"].items()
                  for cid, entry in body["checks"].items() if not entry["ok"]]
        assert failed == [] and report["ok"], (seed, failed)
    assert time.perf_counter() - t0 < 10.0


# --- 5: twist tables and eta sets satisfy the exact identities ------------


def test_twist_and_eta_identities_exact_on_computed_data():
    theories = [
        Theory(su2(4)),
        Theory(su2(2)),
        Theory(ising()),
        Theory(tensor(ising(), ising())),
        triple_su2_resolved()[1],
        su5_resolved()[2],
    ]
    tables = 0
    eta_sets = 0
    for th in theories:
        report = condition_report(th)
        assert report["bundles"], th.md.name
        for cur, body in report["bundles"].items():
            checks = body["checks"]
            # multiplicativity in the last argument, conjugation symmetry,
            # and the self-twist spin rule, all as exact exponents
            for cid in ("{4a}", "fsym", "spin-rule"):
                entry = checks[cid]
                if not entry.get("skipped"):
                    assert entry["ok"] and entry["deviation"] == 0.0, (
                        th.md.name, cur, cid, entry,
                    )
            if not checks["spin-rule"].get("skipped"):
                tables += 1
            # eta product law and its agreement with the twist, exact
            for cid in ("{5b}", "GF"):
                entry = checks[cid]
                if not entry.get("skipped"):
                    assert entry["ok"] and entry["deviation"] == 0.0, (
                        th.md.name, cur, cid, entry,
                    )
            if not checks["GF"].get("skipped"):
                eta_sets += 1
    assert tables >= 8
    assert eta_sets >= 8


# --- 6: one-step extension equals two-step resolution ---------------------


def test_one_step_extension_matches_two_step_resolution():
    th = su5_pair_theory()
    ex1, _, th2 = su5_resolved()

    # image of the purely left-handed current in the extended theory
    vac5 = th.md.labels[0][0]
    left = next(
        j for j in th.center.elements if j and th.md.labels[j][1] == vac5
    )
    gen = next(
        e
        for e in th2.center.elements
        if e and left in next(o for o in ex1.orbits if e in o.ext_ids).members
    )
    two = extend(th2, [gen])

    one = extend(th, [diagonal_current(th), left])
    assert one.n_ext == two.n_ext == 100
    assert check_modular(one.ext_md)["ok"]
    assert check_modular(two.ext_md)["ok"]

    assert GRID_TOL == 1e-8
    perm = match_fields(one.ext_md, two.ext_md)
    assert sorted(perm.tolist()) == list(range(one.n_ext))
    assert np.abs(two.ext_md.s[perm][:, perm] - one.ext_md.s).max() < 1e-8


# --- 7: every twist-table row realizes at the smallest orders -------------


def test_twist_table_rows_realize_at_minimal_orders():
    assert len(TWIST_TABLE) == 8
    for row in TWIST_TABLE:
        single = row["k"] is None
        target = None if single else (1 if row["f"] == 0 else -1)
        rep = realize_twist_row(
            row["s_j"], row["s_k"], 2, None if single else 2, target
        )
        assert rep["ok"], (row["factors"], rep)
        assert rep["direct_product"] and rep["fixes_test_field"]
        assert rep["mutually_local"] and rep["spin_rule"]
        # the doubled diagonal group is integer-spin and acts without
        # twist on the paired test field
        assert rep["diagonal_integer_spin"] and rep["diagonal_untwisted"]
        assert rep["gf"]["ok"]
        if not single:
            assert rep["cross_matches_target"]
            assert rep["cross_twist"] == str(row["f"])
