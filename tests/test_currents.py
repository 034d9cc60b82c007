import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from fpres.currents import (
    NA,
    FixedPointBundle,
    ProductBundle,
    Theory,
    bundle_from_document,
    bundle_array_document,
    detect_simple_currents,
    solve_1x1_bundle,
)
from fpres.errors import (InvalidInputError, MalformedBundleError,
                          PhaseSnapError, ResolutionError)
from fpres.extend import extend
from fpres.modular import dump_json, tensor
from fpres.phases import norm1, unit
from fpres.wzw import ising, su2, sun
from oracles import grids
from test_condition_oracle import CORRUPTED


def test_a_theory_is_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        md = su2(4)
        th = Theory(md)
        th.bundle(4)
        refs = [weakref.ref(th), weakref.ref(md)]
        del th, md
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_a_product_theory_frees_its_factors_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = su2(4)
        md = tensor(f, f)
        th = Theory(md)
        th.bundle(md.index((4, 0)))
        sub = th._factor_theory(f)
        refs = [weakref.ref(x) for x in (th, md, f, sub)]
        del th, md, f, sub
        assert [r() for r in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def test_equal_factors_share_one_theory(monkeypatch):
    built = []
    init = Theory.__init__

    def spy(self, md, *args, **kwargs):
        built.append(md)
        init(self, md, *args, **kwargs)

    monkeypatch.setattr(Theory, "__init__", spy)
    md = tensor(*(su2(4) for _ in range(4)))
    assert len({id(f) for f in md.factors}) == 4
    ex = extend(Theory(md), [md.index((4, 4, 4, 4))])
    [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    assert [f.name for f in built if not f.is_product] == ["su2_4"]
    # factors that differ in any part of their content keep their own
    built.clear()
    md = tensor(su2(4), su2(4), su2(6))
    th = Theory(md)
    th.twists(md.index((4, 4, 6)), md.index((4, 4, 6)))
    assert [f.name for f in built if not f.is_product] == ["su2_4", "su2_6"]


def test_row_ratios_only_for_the_identity_and_the_center_basis(monkeypatch):
    # a multi-field atomic bundle composes every other translator's table;
    # test_condition_oracle checks each table against its row ratios
    md = tensor(*(su2(4) for _ in range(4)))
    ex = extend(Theory(md), [md.index((4, 4, 4, 4))])
    res = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    th = ex.extended_theory(extra_bundles=[r.bundle for r in res])
    taken = []
    direct = Theory._direct_twists

    def spy(self, ks, b):
        taken.append((b.current, sorted(ks)))
        return direct(self, ks, b)

    monkeypatch.setattr(Theory, "_direct_twists", spy)
    z = th.center
    currents = [j for j in z.elements if j and th.bundle(j).dim > 1]
    for j in currents:
        th.layout(th.bundle(j).fields, z.elements, [j])
    assert len(z.elements) > 1 + len(z.basis)
    assert taken == [(j, sorted([0, *z.basis])) for j in currents]


def test_detect_su2_4():
    assert detect_simple_currents(su2(4)) == [0, 4]


def test_detect_ising():
    md = ising()
    assert detect_simple_currents(md) == [0, md.index("psi")]


def test_detect_su5():
    md = sun(5, 5)
    ids = detect_simple_currents(md)
    assert len(ids) == 5
    assert md.index((5, 0, 0, 0)) in ids
    assert md.index((0, 0, 0, 5)) in ids


def test_su2_4_current_action():
    th = Theory(su2(4))
    j = 4
    assert th.center.order_of(j) == 2
    assert [th.apply(j, a) for a in range(5)] == [4, 3, 2, 1, 0]
    assert th.md.h[j] == Fraction(1)
    charges = [Fraction(int(th.charges(j)[a]), th.den) for a in range(5)]
    assert charges == [0, Fraction(1, 2), 0, Fraction(1, 2), 0]
    assert [a for a in range(5) if th.charges(j)[a] == 0] == [0, 2, 4]


def test_su5_center_is_z5():
    th = Theory(sun(5, 5))
    assert tuple(th.center.orders) == (5,)
    j = th.md.index((5, 0, 0, 0))
    assert th.center.order_of(j) == 5
    assert th.center.power(j, 4) == th.md.index((0, 0, 0, 5))
    f = th.md.index((1, 1, 1, 1))
    assert th.apply(j, f) == f
    assert Fraction(int(th.charges(j)[f]), th.den) == 0


def test_su2_4_bundle_closed_form():
    th = Theory(su2(4))
    b = th.bundle(4)
    assert b.fields == (2,)
    assert b.matrix[0, 0] == pytest.approx(1j)
    assert b.eta[0] == pytest.approx(-1)


def test_su2_2_bundle_closed_form():
    th = Theory(su2(2))
    b = th.bundle(2)
    assert b.fields == (1,)
    assert b.matrix[0, 0] == pytest.approx(np.exp(-3j * np.pi / 4))


def test_ising_bundle_closed_form():
    md = ising()
    th = Theory(md)
    psi = md.index("psi")
    b = th.bundle(psi)
    assert b.fields == (md.index("sigma"),)
    assert b.matrix[0, 0] == pytest.approx(np.exp(-1j * np.pi / 4))
    assert b.eta[0] == pytest.approx(-1j)


def test_solve_1x1_bundle_satisfies_torus_relation():
    t = Fraction(5, 24)
    mat, eta = solve_1x1_bundle(t)
    tv = np.exp(2j * np.pi * float(t))
    s = mat[0, 0]
    assert (s * tv) ** 3 == pytest.approx(s * s)
    assert abs(s) == pytest.approx(1)
    assert eta[0] == pytest.approx(s * s)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_self_twist_is_current_spin(k):
    # F(a, J, J) at the fixed field equals exp(2 pi i h_J), i.e. (-1)^(k/2)
    th = Theory(su2(k))
    a = k // 2
    f = unit(th.twist_exponent(a, k, k))
    assert f == pytest.approx((-1) ** (k // 2))
    assert th.twist_exponent(a, k, k) == norm1(th.md.h[k])


def test_ising_self_twist():
    md = ising()
    th = Theory(md)
    psi = md.index("psi")
    sig = md.index("sigma")
    assert unit(th.twist_exponent(sig, psi, psi)) == pytest.approx(-1)


def test_product_center_and_integer_spin_filter():
    md = tensor(su2(2), su2(2))
    th = Theory(md)
    assert th.center.elements == (0, 2, 6, 8)
    assert [j for j in th.center.elements if md.h[j].denominator == 1] == [0, 8]


def test_product_bundle_kron():
    md = tensor(su2(4), su2(4))
    th = Theory(md)
    b = th.bundle(20)  # current (4, 0)
    assert b.fields == tuple(10 + i for i in range(5))
    base = su2(4).s
    assert np.allclose(b.matrix, 1j * base, atol=1e-12)
    assert np.allclose(b.eta, -np.ones(5), atol=1e-12)
    # block lookup respects support positions
    blk = th.bundle_block(20, [12, 10], [14])
    assert blk[0, 0] == pytest.approx(1j * base[2, 4])
    assert blk[1, 0] == pytest.approx(1j * base[0, 4])


def test_bundle_positions_raise_at_the_first_field_off_the_support():
    th = Theory(tensor(su2(4), su2(4)))
    b = th.bundle(20)  # fields 10..14
    assert b.positions([14, 10, 12]).tolist() == [4, 0, 2]
    assert b.position(13) == 3
    assert b.positions([]).tolist() == []
    for fields, bad in (([10, 9, 99], 9), ([11, 99], 99), ([-1], -1)):
        with pytest.raises(ResolutionError, match=f"field {bad} is not fixed"):
            b.positions(fields)
    # rows are looked up before columns
    with pytest.raises(ResolutionError, match="field 3 is not fixed"):
        th.bundle_block(20, [10, 3], [7])
    with pytest.raises(ResolutionError, match="field 7 is not fixed"):
        th.bundle_block(20, [10], [7])


def test_twist_extraction_on_wide_bundle():
    # su2(2) x su2(2), current J = (2,0), K = (2,2): the K-translated rows
    # of S^J pick up the factor self-twist -1
    md = tensor(su2(2), su2(2))
    th = Theory(md)
    a = md.index((1, 1))
    j = md.index((2, 0))
    k = md.index((2, 2))
    assert th.bundle(j).dim == 3
    assert th.twist_exponent(a, k, j) == Fraction(1, 2)
    # against the other factor current the twist is trivial
    assert th.twist_exponent(a, md.index((0, 2)), j) == 0


def test_untwisted_stabilizer_contrast():
    md = tensor(su2(2), su2(2))
    th = Theory(md)
    a = md.index((1, 1))
    full = th.center.elements
    grid = grids(th, [a], full, full)[0][0]  # [translator, current]
    # NA exactly in the columns of the currents that move a
    stab = [y for y in range(len(full)) if (grid[:, y] != NA).all()]
    assert (grid[:, [y for y in range(len(full)) if y not in stab]] == NA).all()
    assert [full[y] for y in stab] == [0, 2, 6, 8]
    # every nontrivial current is twisted against some stabilizer member
    twisted = (grid[np.ix_(stab, stab)] != 0).any(axis=0)
    assert [full[y] for y, t in zip(stab, twisted) if not t] == [0]
    # inside the diagonal subgroup everything is untwisted
    diag = th.subgroup([8])
    assert diag == (0, 8)
    assert (grids(th, [a], diag, diag)[0] == 0).all()
    assert extend(th, [8]).orbit_of(a).unt == (0, 8)


def test_stabilizer_triple_product():
    md = tensor(su2(4), su2(6), su2(2))
    th = Theory(md)
    h_gen = md.index((4, 6, 2))
    assert h_gen == 104
    sub = th.subgroup([h_gen])
    assert sub == (0, 104)
    a = md.index((2, 1, 1))
    assert a == 46
    # only the identity fixes a
    assert grids(th, [a], sub, sub)[0][0].tolist() == [[0, NA], [0, NA]]


def test_layout_cells_read_as_the_exact_accessors():
    # su2_4^2 with the row of a field dephased in S^(0,4), so that some of
    # its twists are marked, and S^(4,0) given without eta; (4, 4) fixes
    # only (2, 2), which is not asked for
    damaged = CORRUPTED["su2_4^2 dephased row"]()
    md = damaged.md
    j, k = md.index((0, 4)), md.index((4, 0))
    honest = damaged.bundle(k)
    th = Theory(md, extra_bundles=[damaged.bundle(j), FixedPointBundle(
        k, honest.fields, honest.matrix, None)])
    fields = [md.index(a) for a in
              [(0, 2), (1, 2), (3, 2), (4, 2), (2, 1), (0, 0)]]
    currents = [0, j, k, md.index((4, 4))]
    translators = th.center.elements
    at, tws, etas = th.layout(fields, translators, currents)
    assert (at[:, 3] == -1).all()
    assert (tws[-1] == NA).all() and etas[-1] == NA
    seen = set()
    for i, a in enumerate(fields):
        for y, c in enumerate(currents):
            r = at[i, y]
            if th.apply(c, a) != a:
                assert r == -1
                seen.add("moved")
                continue
            assert r >= 0 and (c != 0 or r == 0)
            for x, t in enumerate(translators):
                try:
                    want = th.twist_exponent(a, t, c)
                except PhaseSnapError:
                    assert tws[r, x] == -1
                    seen.add("marked twist")
                except ResolutionError as exc:
                    assert tws[r, x] == (-2 if "not constant" in str(exc)
                                         else -3)
                    seen.add("marked twist")
                else:
                    assert Fraction(int(tws[r, x]), th.snap_order) == want
            try:
                want = th.eta_exponent(c, a)
            except PhaseSnapError:
                assert etas[r] == -1
            except ResolutionError:
                assert etas[r] == NA
                seen.add("no eta")
            else:
                assert Fraction(int(etas[r]), th.eta_order) == want
    assert seen == {"moved", "marked twist", "no eta"}
    assert (tws[0] == 0).all() and etas[0] == 0


def test_bundle_document_roundtrip(tmp_path):
    md = tensor(su2(4), su2(4))
    th = Theory(md)
    b = th.bundle(20)
    with open(tmp_path / "b.json", "w") as fh:
        dump_json(bundle_array_document(md, b), fh)
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["format"] == "fp-bundle v1"
    back = bundle_from_document(md, doc)
    assert back.current == b.current
    assert back.fields == b.fields
    assert np.allclose(back.matrix, b.matrix, atol=0)
    assert np.allclose(back.eta, b.eta, atol=0)


def test_bundle_document_rejects_garbage():
    md = su2(4)
    with pytest.raises(MalformedBundleError):
        bundle_from_document(md, {"format": "nope"})
    with pytest.raises(MalformedBundleError):
        bundle_from_document(
            md, {"format": "fp-bundle v1", "current": 4, "fields": [2]}
        )


def test_theory_rejects_bad_extra_bundles():
    md = su2(4)
    good = FixedPointBundle(4, (2,), np.array([[1j]]), np.array([-1 + 0j]))
    th = Theory(md, extra_bundles=[good])
    assert th.bundle(4) is good
    with pytest.raises(MalformedBundleError):
        Theory(
            md,
            extra_bundles=[
                FixedPointBundle(4, (1,), np.array([[1j]]), None)
            ],
        )
    with pytest.raises(InvalidInputError):
        Theory(
            md,
            extra_bundles=[
                FixedPointBundle(1, (1,), np.array([[1j]]), None)
            ],
        )


def test_identity_bundle_block_is_s():
    md = su2(4)
    th = Theory(md)
    assert np.allclose(
        th.bundle_block(0, [0, 2], [1, 3]), md.s[np.ix_([0, 2], [1, 3])]
    )


# --- product bundles: Kronecker factors, read factor-wise ------------------

PRODUCTS = {
    "su2_4^2": lambda: tensor(su2(4), su2(4)),
    "su2_4-su2_6-su2_2": lambda: tensor(su2(4), su2(6), su2(2)),
    "ising^2-su2_4": lambda: tensor(ising(), ising(), su2(4)),
    "su2_4-su3_3": lambda: tensor(su2(4), sun(3, 3)),
    "su3_3^2": lambda: tensor(sun(3, 3), sun(3, 3)),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_bundles_read_factor_wise_as_their_dense_matrix(name):
    md = PRODUCTS[name]()
    th = Theory(md)
    checked = 0
    for j in th.center.elements[1:]:
        b = th.bundle(j)
        assert isinstance(b, ProductBundle)
        assert "matrix" not in vars(b)
        pos = np.arange(b.dim)
        rows, cols = pos[::2], pos[::-3]
        block = th.bundle_block(j, [b.fields[i] for i in rows],
                                [b.fields[i] for i in cols])
        assert "matrix" not in vars(b)
        dense = b.matrix[np.ix_(rows, cols)]
        # bit for bit, signed zeros included
        assert np.array_equal(block.view(np.uint64), dense.view(np.uint64))
        # the numeric twist path on the same bundle as a dense input
        oracle = Theory(md, extra_bundles=[
            FixedPointBundle(j, b.fields, b.matrix, b.eta)])
        for k in th.center.elements:
            assert np.array_equal(th.twists(k, j), oracle.twists(k, j))
            checked += 1
    assert checked


def test_product_twists_mark_what_the_factors_mark():
    md = tensor(su2(4), su2(4))
    th = Theory(md)
    sub = th._factor_theory(md.factors[0])
    j, k = md.index((4, 0)), md.index((4, 4))
    sub._twists[(4, 4)] = np.array([-2])
    assert th.twists(k, j).tolist() == [-2] * 5
    with pytest.raises(ResolutionError, match="not constant"):
        th.twist_exponent(md.index((2, 3)), k, j)
