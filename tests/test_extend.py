"""Extension spectra, resolution matrices, and relabeling search."""
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fpres.currents import FixedPointBundle, Theory
from fpres.errors import InvalidInputError, ResolutionError
from fpres.extend import GRID_TOL, extend, match_fields
from fpres.modular import check_modular, tensor
from fpres.validate import condition_report
from fpres.wzw import ising, su2, sun
from oracles import fusion_matrix, orbit_representative


@functools.lru_cache(maxsize=None)
def su2_ext4():
    return extend(Theory(su2(4)), [4])


@functools.lru_cache(maxsize=None)
def triple_su2():
    md = tensor(su2(4), su2(6), su2(2))
    return extend(Theory(md), [104])


@functools.lru_cache(maxsize=None)
def su5_pair():
    su5 = sun(5, 5)
    md = tensor(su5, su5)
    return Theory(md)


@functools.lru_cache(maxsize=None)
def su5_diag_ext():
    th = su5_pair()
    diag = [
        j
        for j in th.center.elements
        if j and th.md.labels[j][0] == th.md.labels[j][1]
    ]
    return extend(th, [diag[0]])


# --- spectra -------------------------------------------------------------


def test_su24_extension_spectrum():
    ex = su2_ext4()
    assert ex.n_ext == 3
    assert ex.ext_md.labels == ((0, ()), (2, (0,)), (2, (1,)))
    assert ex.ext_md.h == (Fraction(0), Fraction(1, 3), Fraction(1, 3))
    assert ex.ext_md.c == 2


def test_su24_extension_s_matrix():
    # third root of unity character table over sqrt(3)
    s = su2_ext4().ext_md.s
    w = np.exp(2j * np.pi / 3)
    expect = np.array(
        [[1, 1, 1], [1, w, w.conjugate()], [1, w.conjugate(), w]]
    ) / np.sqrt(3)
    assert np.abs(s - expect).max() < 1e-12


def test_su24_extension_is_modular_with_z3_fusion():
    ex = su2_ext4()
    assert check_modular(ex.ext_md)["ok"]
    n1 = fusion_matrix(ex.ext_md, 1)
    assert n1.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert np.array_equal(np.linalg.matrix_power(n1, 3), np.eye(3, dtype=n1.dtype))
    th = Theory(ex.ext_md)
    assert tuple(th.center.orders) == (3,)


def test_su24_extension_report():
    rep = su2_ext4().report()
    assert rep["base_fields"] == 5
    assert rep["uncharged_fields"] == 3
    assert rep["orbits"] == 2
    assert rep["split_orbits"] == 1
    assert rep["extended_fields"] == 3
    assert rep["possible_recombination"] == []


def test_vacuum_orbit_comes_first():
    for ex in (su2_ext4(), triple_su2()):
        orbit = next(o for o in ex.orbits if 0 in o.ext_ids)
        assert 0 in orbit.members
        assert orbit.rep == 0


def test_half_integer_generator_rejected():
    th = Theory(su2(2))
    with pytest.raises(InvalidInputError):
        extend(th, [2])


def test_charged_field_has_no_orbit():
    ex = su2_ext4()
    with pytest.raises(InvalidInputError):
        ex.orbit_of(1)


def test_ising_pair_diagonal_extension():
    md = tensor(ising(), ising())
    th = Theory(md)
    diag = md.labels.index(("psi", "psi"))
    ex = extend(th, [diag])
    assert ex.n_ext == 4
    assert ex.ext_md.h == (
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 8),
        Fraction(1, 8),
    )
    assert check_modular(ex.ext_md)["ok"]
    # all four extended fields are simple currents and the center is cyclic
    th2 = Theory(ex.ext_md)
    assert tuple(th2.center.orders) == (4,)
    conj = ex.ext_md.conjugation()
    assert conj.tolist() == [0, 1, 3, 2]


def test_ising_pair_surviving_class_acts_freely():
    md = tensor(ising(), ising())
    ex = extend(Theory(md), [md.labels.index(("psi", "psi"))])
    classes = [c for c in ex.residual_classes() if c.order > 1]
    assert [c.rep for c in classes] == [md.labels.index(("1", "psi"))]
    res = ex.resolve(classes[0])
    assert res.bundle.fields == ()
    assert res.eta_deviation == 0.0


# --- triple su2 resolution ----------------------------------------------


def test_triple_su2_classes():
    ex = triple_su2()
    labels = ex.theory.md.labels
    classes = ex.residual_classes()
    assert [(labels[c.rep], c.order) for c in classes] == [
        ((0, 0, 0), 1),
        ((0, 0, 2), 2),
        ((0, 6, 0), 2),
        ((0, 6, 2), 2),
    ]


def test_triple_su2_orbit_representatives():
    ex = triple_su2()
    labels = ex.theory.md.labels
    oa = ex.orbit_of(46)     # (2, 1, 1)
    ob = ex.orbit_of(10)     # (0, 3, 1)
    assert oa.members == (46, 58)
    assert ob.members == (10, 94)
    picks = {}
    for c in ex.residual_classes():
        if c.order == 1:
            continue
        picks[labels[c.rep]] = (
            labels[orbit_representative(ex, c, oa)],
            labels[orbit_representative(ex, c, ob)],
        )
    assert picks == {
        (0, 0, 2): ((0, 0, 2), (0, 0, 2)),
        (0, 6, 0): ((4, 0, 2), (0, 6, 0)),
        (0, 6, 2): ((4, 0, 0), (0, 6, 2)),
    }


def test_triple_su2_extended_twists_differ_between_orbits():
    # the twist table of one orbit is the sign flip of the other, read on
    # the resolved extended theory at each orbit's extended field
    ex = triple_su2()
    oa = ex.orbit_of(46)
    ob = ex.orbit_of(10)
    classes = [c for c in ex.residual_classes() if c.order > 1]
    th2 = ex.extended_theory(
        extra_bundles=[ex.resolve(c).bundle for c in classes])
    ext = ex.class_current_ext_id
    (ea,), (eb,) = oa.ext_ids, ob.ext_ids
    table_a = []
    table_b = []
    for i, c1 in enumerate(classes):
        for c2 in classes[i + 1:]:
            table_a.append(th2.twist_exponent(ea, ext(c1), ext(c2)))
            table_b.append(th2.twist_exponent(eb, ext(c1), ext(c2)))
    assert table_a == [Fraction(1, 2), Fraction(0), Fraction(0)]
    assert table_b == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    for qa, qb in zip(table_a, table_b):
        assert qa != qb


def test_triple_su2_resolved_bundles_are_consistent():
    ex = triple_su2()
    for c in ex.residual_classes():
        if c.order == 1:
            continue
        res = ex.resolve(c)
        b = res.bundle
        n = len(b.fields)
        assert n > 0
        u = np.abs(b.matrix @ b.matrix.conj().T - np.eye(n)).max()
        assert u < 1e-12
        assert res.eta_deviation < 1e-12
        t = np.diag(
            [np.exp(2j * np.pi * float(ex.ext_md.t_exponent(x))) for x in b.fields]
        )
        st3 = np.linalg.matrix_power(b.matrix @ t, 3)
        assert np.abs(st3 - b.matrix @ b.matrix).max() < 1e-12


def test_trivial_class_is_not_resolvable():
    ex = triple_su2()
    cls = ex.residual_classes()[0]
    assert cls.order == 1
    with pytest.raises(InvalidInputError):
        ex.resolve(cls)


def test_extended_twist_requires_fixed_orbit():
    ex = triple_su2()
    classes = [c for c in ex.residual_classes() if c.order > 1]
    moved = None
    for o in ex.orbits:
        if orbit_representative(ex, classes[0], o) is None:
            moved = o
            break
    assert moved is not None
    # the resolved extended current does not fix the orbit's field
    th2 = ex.extended_theory(
        extra_bundles=[ex.resolve(c).bundle for c in classes])
    ext = ex.class_current_ext_id
    with pytest.raises(ResolutionError):
        th2.twist_exponent(moved.ext_ids[0], ext(classes[1]), ext(classes[0]))


def test_resolve_needs_the_eta_of_the_representative_bundle():
    # the product bundle of (4, 0) given as input without its eta
    md = tensor(su2(4), su2(4))
    j = md.index((4, 0))
    b = Theory(md).bundle(j)
    th = Theory(md, extra_bundles=[FixedPointBundle(j, b.fields, b.matrix)])
    ex = extend(th, [md.index((4, 4))])
    cls = next(c for c in ex.residual_classes() if j in c.members)
    with pytest.raises(ResolutionError, match="lacks eta data"):
        ex.resolve(cls)


def test_a_subgroup_member_without_a_closed_form_bundle_fails_extend():
    # J^2 of su(4)_4 has integer spin and fixes three fields: its bundle
    # has no closed form, so extend refuses it and the report skips it
    md = sun(4, 4)
    j = md.index((0, 4, 0))
    with pytest.raises(ResolutionError, match=(
            f"^no closed form for the 3-dimensional bundle of current {j}; "
            f"provide it as input$")):
        extend(Theory(md), [j])
    assert sorted(condition_report(Theory(md))["bundles"]) == ["34", "4"]


def _broken_section(edit):
    """The triple extension and a class whose section on one of its support
    orbits `edit(section, orbit, basis slot)` has changed, the slot being
    one on which the class has a nonzero coordinate."""
    ex = extend(Theory(tensor(su2(4), su2(6), su2(2))), [104])
    sec = ex._sections()
    cls = next(c for c in ex.residual_classes() if c.order > 1)
    a = int(np.flatnonzero(ex._class_tables(cls)[2])[0])
    k = ex._class_coordinates(cls)[0][sec.gpat[a]]
    edit(sec, a, int(np.flatnonzero(k)[0]))
    return ex, cls


def test_a_product_representative_off_the_class_fails():
    ex, cls = _broken_section(
        lambda sec, a, b: sec.basis.__setitem__((a, b), 0))
    with pytest.raises(ResolutionError, match="product representative"):
        ex.resolve(cls)


def test_a_basis_closure_outside_the_untwisted_stabilizer_fails():
    ex, cls = _broken_section(
        lambda sec, a, b: sec.closure.__setitem__((a, b), -1))
    with pytest.raises(ResolutionError, match="left the untwisted stabilizer"):
        ex.resolve(cls)


def test_marked_twist_in_an_input_bundle_fails_extend_through_its_accessor():
    # the bundle of (4, 0) on su2_4 x su2_4, given as input with the rows of
    # (2, 1) and (2, 3) zeroed: F(a, 1, J) is marked -3 on both fields, and
    # the first orbit in order raises as Theory.twist_exponent does
    md = tensor(su2(4), su2(4))
    j = md.index((4, 0))
    b = Theory(md).bundle(j)
    mat = b.matrix.copy()
    for a in (md.index((2, 3)), md.index((2, 1))):
        mat[b.position(a)] = 0
    th = Theory(md, extra_bundles=[FixedPointBundle(j, b.fields, mat, b.eta)])
    a = md.index((2, 1))
    with pytest.raises(ResolutionError) as err:
        th.twist_exponent(a, 0, j)
    assert str(err.value) == f"row of field {a} in bundle {j} vanishes"
    with pytest.raises(ResolutionError, match=f"^{err.value}$"):
        extend(th, [j])


# --- su5 pair ------------------------------------------------------------


def test_su5_pair_extension_counts():
    ex = su5_diag_ext()
    rep = ex.report()
    assert rep["base_fields"] == 15876
    assert rep["subgroup_size"] == 5
    assert rep["uncharged_fields"] == 3176
    assert rep["orbits"] == 636
    assert rep["split_orbits"] == 1
    assert rep["extended_fields"] == 640
    assert [c["order"] for c in rep["residual_classes"]] == [1, 5, 5, 5, 5]


def test_su5_pair_extension_is_modular():
    rep = check_modular(su5_diag_ext().ext_md)
    assert rep["ok"]
    assert rep["max_deviation"] < 1e-8


def test_su5_pair_resolved_bundles():
    ex = su5_diag_ext()
    classes = [c for c in ex.residual_classes() if c.order > 1]
    assert len(classes) == 4
    mats = {}
    for c in classes:
        res = ex.resolve(c)
        b = res.bundle
        assert len(b.fields) == 15
        u = np.abs(b.matrix @ b.matrix.conj().T - np.eye(15)).max()
        assert u < 1e-10
        assert res.eta_deviation < 1e-10
        mats[c.rep] = b
    # pairwise distinct and individually asymmetric
    reps = [c.rep for c in classes]
    for i, r1 in enumerate(reps):
        assert np.abs(mats[r1].matrix - mats[r1].matrix.T).max() > 1e-3
        for r2 in reps[i + 1:]:
            assert mats[r1].fields == mats[r2].fields
            assert np.abs(mats[r1].matrix - mats[r2].matrix).max() > 1e-3
    # transpose pairing with the inverse class
    th = ex.theory
    for c in classes:
        inv_rep = min(
            th.center.mul(th.center.inverse(c.rep), h) for h in ex.h_members
        )
        d = np.abs(mats[c.rep].matrix - mats[inv_rep].matrix.T).max()
        assert d < 1e-10


def test_su5_pair_two_step_matches_one_step():
    th = su5_pair()
    vac = th.md.labels[0][0]
    ex1 = su5_diag_ext()
    bundles = [
        ex1.resolve(c).bundle for c in ex1.residual_classes() if c.order > 1
    ]
    th2 = ex1.extended_theory(extra_bundles=bundles)
    assert len(th2.center.elements) == 5
    gen = th2.center.elements[1]
    ex2 = extend(th2, [gen])
    assert ex2.n_ext == 100
    assert check_modular(ex2.ext_md)["ok"]

    left = [j for j in th.center.elements if j and th.md.labels[j][1] == vac]
    diag = [
        j for j in th.center.elements if j and th.md.labels[j][0] == th.md.labels[j][1]
    ]
    ex_one = extend(th, [diag[0], left[0]])
    assert ex_one.n_ext == 100
    assert check_modular(ex_one.ext_md)["ok"]

    assert GRID_TOL == 1e-8
    perm = match_fields(ex_one.ext_md, ex2.ext_md)
    s1 = ex_one.ext_md.s
    s2 = ex2.ext_md.s
    assert np.abs(s2[perm][:, perm] - s1).max() < 1e-8


# --- eta and character relabeling ---------------------------------------


def test_sigma_pair_eta_is_minus_one():
    md = tensor(ising(), ising(), su2(4))
    th = Theory(md)
    ex = extend(th, [md.labels.index(("psi", "psi", 0))])
    assert ex.n_ext == 20
    assert check_modular(ex.ext_md)["ok"]
    cls = next(
        c
        for c in ex.residual_classes()
        if c.order > 1 and md.labels[c.rep] == ("1", "1", 4)
    )
    res = ex.resolve(cls)
    b = res.bundle
    assert len(b.fields) == 4
    sig = md.labels.index(("sigma", "sigma", 2))
    idx = [i for i, x in enumerate(b.fields)
           if next(o for o in ex.orbits if x in o.ext_ids).rep == sig]
    assert len(idx) == 2
    assert np.abs(b.eta[idx] - (-1.0)).max() < 1e-12
    assert res.eta_deviation < 1e-12


def test_sigma_pair_other_class_has_empty_support():
    md = tensor(ising(), ising(), su2(4))
    ex = extend(Theory(md), [md.labels.index(("psi", "psi", 0))])
    cls = next(
        c
        for c in ex.residual_classes()
        if c.order > 1 and md.labels[c.rep] == ("1", "psi", 0)
    )
    assert ex.resolve(cls).bundle.fields == ()


def pi_maps_of_diagonal_su24(k, seed):
    """The character relabeling of every support orbit of every class
    resolving the diagonal extension of su2_4^k, read off the orbit
    sections, as (orbit representative label, k_a, cbar label, the map as
    row indices)."""
    md = tensor(*(su2(4) for _ in range(k)))
    ex = extend(Theory(md), [md.index((4,) * k)], convention_seed=seed)
    calls = []
    for cls in ex.residual_classes():
        if cls.order > 1:
            ex.resolve(cls)
            sec = ex._sections()
            for a in np.flatnonzero(ex._class_tables(cls)[2]).tolist():
                o = ex.orbits[a]
                calls.append((md.labels[o.rep], ex.h_members[sec.k[a]],
                              md.labels[sec.cbar[a]],
                              sec.pi[a, :len(o.ext_ids)].tolist()))
    return calls


SWAP = [1, 0]  # rows of the characters (0,) and (1,) trade places


@pytest.mark.parametrize("k, seed, calls, swaps", [
    (3, None, 24, 3), (3, 0, 24, 3), (3, 1, 24, 3), (3, 2, 24, 3),
    (3, 5, 24, 3), (5, None, 1170, 15),
])
def test_pi_map_swaps_the_characters_of_the_all_twos_orbit(k, seed, calls,
                                                           swaps):
    """The eta of the self-conjugate orbit of (2, ..., 2) relabels its two
    stabilizer characters; every other orbit keeps them."""
    got = pi_maps_of_diagonal_su24(k, seed)
    assert len(got) == calls
    moved = [c for c in got if c[3] != list(range(len(c[3])))]
    assert moved == [((2,) * k, 0, (2,) * k, SWAP)] * swaps


# --- convention independence --------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_seeded_conventions_are_equivalent(seed):
    md = tensor(su2(4), su2(6), su2(2))
    th = Theory(md)
    base = triple_su2()
    alt = extend(th, [104], convention_seed=seed)
    assert check_modular(alt.ext_md)["ok"]
    perm = match_fields(base.ext_md, alt.ext_md)
    assert sorted(perm.tolist()) == list(range(base.n_ext))
    for c in alt.residual_classes():
        if c.order == 1:
            continue
        res = alt.resolve(c)
        n = len(res.bundle.fields)
        u = np.abs(res.bundle.matrix @ res.bundle.matrix.conj().T - np.eye(n)).max()
        assert u < 1e-12
        assert res.eta_deviation < 1e-12


# --- relabeling search ---------------------------------------------------


def test_extend_peaks_below_twice_the_extended_s():
    # the extended S plus row-block temporaries; a second S-sized array
    # beside it would read about 2.75x
    md = tensor(*[su2(4)] * 5)
    th = Theory(md)
    tracemalloc.start()
    try:
        ex = extend(th, [md.index((4,) * 5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ex.n_ext == 783
    assert peak <= 2 * ex.ext_md.s.nbytes


def test_match_fields_identity_and_shuffle():
    md = su2(4)
    rng = np.random.default_rng(5)
    perm = rng.permutation(md.size)
    labels = tuple(md.labels[p] for p in perm)
    h = tuple(md.h[p] for p in perm)
    from fpres.modular import ModularData

    md2 = ModularData(labels, h, md.c, md.s[perm][:, perm])
    got = match_fields(md, md2)
    inv = np.argsort(perm)
    # md2 = perm applied to md, so matching sends a to its new position
    assert np.abs(md2.s[got][:, got] - md.s).max() < 1e-12


def test_match_fields_rejects_different_theories():
    with pytest.raises(InvalidInputError):
        match_fields(su2(2), su2_ext4().ext_md)
    with pytest.raises(InvalidInputError):
        match_fields(su2(4), su2(6))
