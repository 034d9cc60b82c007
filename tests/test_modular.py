import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from fpres import modular
from fpres.currents import Theory
from fpres.errors import InvalidInputError, ResourceLimitError
from fpres.extend import Extension
from fpres.modular import (
    FUSION_TOL,
    ModularData,
    ProductS,
    array_document,
    check_modular,
    from_document,
    fusion_tensor,
    sampled_fusion_residual,
    native,
    tensor,
)
from fpres.wzw import ising, su2, sun
from oracles import fusion_matrix
from test_row_oracles import conjugation_from_square


def test_su2_4_frozen_entries():
    md = su2(4)
    assert md.size == 5
    assert md.c == Fraction(2)
    assert md.h == (0, Fraction(1, 8), Fraction(1, 3), Fraction(5, 8), Fraction(1))
    assert md.s_block([0], [0])[0, 0] == pytest.approx(1 / (2 * math.sqrt(3)))
    assert md.s_block([0], [2])[0, 0] == pytest.approx(1 / math.sqrt(3))
    assert md.s_block([2], [2])[0, 0] == pytest.approx(-1 / math.sqrt(3))


def test_t_phase_uses_central_charge():
    md = su2(4)
    # h - c/24 mod 1 at the vacuum
    assert md.t_exponent(0) == Fraction(11, 12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_su2_is_modular(k):
    rep = check_modular(su2(k))
    assert rep["ok"], rep
    assert rep["max_deviation"] < 1e-9


def test_ising_is_modular():
    md = ising()
    assert md.h == (0, Fraction(1, 2), Fraction(1, 16))
    rep = check_modular(md)
    assert rep["ok"], rep


def test_su2_2_fusion_rules():
    nmat = fusion_matrix(su2(2), 1)
    assert nmat.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_ising_fusion_rules():
    md = ising()
    sig = md.index("sigma")
    psi = md.index("psi")
    nmat = fusion_matrix(md, sig)
    # sigma x sigma = 1 + psi, sigma x psi = sigma
    assert nmat[sig].tolist() == [1, 1, 0]
    assert nmat[psi].tolist() == [0, 0, 1]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_fusion_tensor_structure(k):
    md = su2(k)
    n = fusion_tensor(md)
    # commutative, unit acts trivially, conjugation pairing
    assert np.array_equal(n[0], np.eye(md.size, dtype=np.int64))
    for a in range(md.size):
        for b in range(md.size):
            assert np.array_equal(n[a][b], n[b][a])
    # associativity: N_a N_b = sum_c N_ab^c N_c
    for a in range(md.size):
        for b in range(md.size):
            lhs = n[a] @ n[b]
            rhs = sum(n[a][b][c] * n[c] for c in range(md.size))
            assert np.array_equal(lhs, rhs)


def test_conjugation_su3():
    md = sun(3, 2)
    conj = md.conjugation()
    for i, lam in enumerate(md.labels):
        assert md.labels[conj[i]] == lam[::-1]


def test_conjugation_rejects_non_permutation():
    s = np.eye(3) * 0.5
    with pytest.raises(InvalidInputError):
        ModularData((0, 1, 2), (0, 0, 0), Fraction(0), s).conjugation()


def test_tensor_dense():
    md = tensor(su2(2), ising())
    assert md.size == 9
    assert md.c == Fraction(3, 2) + Fraction(1, 2)
    assert md.labels[0] == (0, "1")
    i = md.index((1, "sigma"))
    assert md.h[i] == Fraction(3, 16) + Fraction(1, 16)
    assert check_modular(md)["ok"]
    assert md.factors is not None and len(md.factors) == 2


def test_tensor_flattens_nested_products():
    md = tensor(tensor(su2(2), su2(4)), ising())
    assert len(md.factors) == 3
    assert md.labels[0] == (0, 0, "1")


def test_product_s_matches_dense():
    a, b = su2(3), ising()
    lazy = tensor(a, b)
    assert isinstance(lazy.s, ProductS)
    full = np.kron(a.s, b.s)
    assert np.allclose(lazy.s.to_dense(), full, atol=1e-12)
    rows = [0, 3, 7, 11]
    cols = [1, 2, 5]
    assert np.allclose(lazy.s_block(rows, cols), full[np.ix_(rows, cols)], atol=1e-12)
    assert lazy.s_block([3], [8])[0, 0] == pytest.approx(full[3, 8])
    assert np.array_equal(lazy.conjugation(), conjugation_from_square(full))


LAZY_PRODUCTS = {
    "su3_3^2": lambda: tensor(sun(3, 3), sun(3, 3)),
    "su3_3-su4_2": lambda: tensor(sun(3, 3), sun(4, 2)),
    "su3_3-ising-su3_2": lambda: tensor(sun(3, 3), ising(), sun(3, 2)),
    "su2_4^4": lambda: tensor(*[su2(4)] * 4),  # taller than ROW_BLOCK
}


@pytest.mark.parametrize("name", sorted(LAZY_PRODUCTS))
def test_lazy_product_blocks_equal_dense_bitwise(name):
    # a theory carries the same bits whether its S is lazy or dense; random
    # sub-blocks and single entries against to_dense()
    md = LAZY_PRODUCTS[name]()
    dense = md.s.to_dense()
    rng = random.Random(11)
    for _ in range(400):
        rows = [rng.randrange(md.size) for _ in range(rng.randint(1, 6))]
        cols = [rng.randrange(md.size) for _ in range(rng.randint(1, 6))]
        block = md.s_block(rows, cols)
        assert np.array_equal(block.view(np.uint64),
                              dense[np.ix_(rows, cols)].view(np.uint64))
    for _ in range(200):
        a, b = rng.randrange(md.size), rng.randrange(md.size)
        assert np.array_equal(md.s_block([a], [b])[0].view(np.uint64),
                              dense[a, b:b + 1].view(np.uint64))
    # whole-size blocks, in order and shuffled, formed in slices of
    # ROW_BLOCK rows when the product is taller than that; bit for bit for a
    # real S, while numpy's complex multiply loops may round the last bit of
    # a large complex block unlike np.kron
    every = list(range(md.size))
    shuffled = rng.sample(every, md.size)
    for rows in (every, shuffled):
        block, want = md.s_block(rows, rows), dense[np.ix_(rows, rows)]
        if dense.imag.any():
            assert np.abs(block - want).max() <= 1e-15
        else:
            assert np.array_equal(block.view(np.uint64), want.view(np.uint64))


def test_check_modular_product_report():
    lazy = tensor(su2(2), su2(3))
    rep = check_modular(lazy)
    assert rep["ok"]
    assert len(rep["factors"]) == 2


def test_check_modular_product_keeps_a_nan():
    # the NaN factor is not first, so a max that drops NaN reads the other
    # factors' round-off instead
    md = su2(4)
    s = md.s.copy()
    s[1, 2] = complex(float("nan"), 0)
    bad = ModularData(md.labels, md.h, md.c, s, name="su2_4 with a NaN")
    rep = check_modular(tensor(su2(4), bad, su2(4), su2(4), su2(4)))
    assert math.isnan(rep["factors"][1]["max_deviation"])
    assert math.isnan(rep["max_deviation"])
    assert rep["ok"] is False


def row_match_spy(monkeypatch):
    """Sizes of the S matrices whose rows `modular.match_rows` matches."""
    sizes = []
    real = modular.match_rows

    def recording(s, image):
        sizes.append(s.shape[0])
        return real(s, image)

    monkeypatch.setattr(modular, "match_rows", recording)
    return sizes


def test_check_modular_shares_its_square_with_conjugation(monkeypatch):
    md = sun(3, 2)
    fresh = ModularData(md.labels, md.h, md.c, md.s.copy())
    expect = conjugation_from_square(md.s)
    matched = row_match_spy(monkeypatch)
    assert check_modular(fresh)["ok"]
    assert np.array_equal(fresh.conjugation(), expect)
    # one conjugation for the md, shared by check_modular and conjugation()
    assert matched == [md.size]


@pytest.mark.parametrize("fault", ["central_charge", "s_entry"])
def test_check_modular_flags_wrong_c_and_corrupted_s(fault):
    md = su2(4)
    c, s = md.c, md.s.copy()
    if fault == "central_charge":
        c += 1
    else:
        s[1, 2] += 1e-3
    rep = check_modular(ModularData(md.labels, md.h, c, s))
    assert not rep["ok"]
    # the cube relation fails by itself, not only through unitarity
    assert rep["checks"]["st_cubed"] > 1e-6
    assert (rep["checks"]["unitary"] > 1e-6) == (fault == "s_entry")


def test_dense_product_conjugation_is_factor_wise(monkeypatch):
    md = tensor(su2(4), su2(4), su2(4), su2(4))
    assert md.is_product
    expect = conjugation_from_square(md.s_dense())
    matched = row_match_spy(monkeypatch)
    fresh = tensor(su2(4), su2(4), su2(4), su2(4))
    assert np.array_equal(fresh.conjugation(), expect)
    assert 625 not in matched and matched


def test_sampled_fusion_residual():
    worst = sampled_fusion_residual(sun(3, 3), 20, random.Random(0))
    assert worst < 1e-9


def test_sampled_fusion_detects_corruption():
    md = su2(3)
    bad = ModularData(md.labels, md.h, md.c, md.s + 0.01, name="bad")
    assert sampled_fusion_residual(bad, 50, random.Random(1)) > FUSION_TOL


def test_document_roundtrip_dense(tmp_path):
    md = tensor(su2(2), ising())
    back = from_document(native(array_document(md)))
    assert back.labels == md.labels
    assert back.h == md.h
    assert back.c == md.c
    assert np.allclose(back.s_dense(), np.kron(su2(2).s, ising().s), atol=0)


def test_document_roundtrip_product():
    lazy = tensor(su2(2), su2(5))
    doc = native(array_document(lazy))
    assert "product" in doc
    back = from_document(doc)
    assert back.labels == lazy.labels
    assert back.h == lazy.h
    assert back.c == lazy.c


def test_document_rejects_garbage():
    with pytest.raises(InvalidInputError):
        from_document({"format": "nope"})
    with pytest.raises(InvalidInputError):
        from_document({"format": "modular-data v1", "fields": "x"})


def test_duplicate_labels_rejected():
    md = su2(2)
    with pytest.raises(InvalidInputError):
        ModularData((0, 0, 1), md.h, md.c, md.s)


def test_non_square_s_is_rejected():
    s = np.ones((2, 3), dtype=complex)
    with pytest.raises(InvalidInputError, match=r"S matrix of bad is not square: shape \(2, 3\)"):
        ModularData(("a", "b"), (Fraction(0), Fraction(1, 2)), Fraction(1), s,
                    name="bad")


@pytest.mark.parametrize("admitted", [True, False])
@pytest.mark.parametrize("where", ["to_dense", "fusion_tensor", "sun",
                                   "Extension"])
def test_dense_budget_is_checked_before_allocating(monkeypatch, where,
                                                   admitted):
    # under a budget of 36 entries each call needs at most 36 when admitted
    # and more when not; an admitted call reaches the sentinel on its
    # allocating call, a refused one raises before it
    from fpres import wzw

    class Reached(Exception):
        pass

    def sentinel(*args):
        raise Reached

    monkeypatch.setattr(modular, "DENSE_BUDGET", 36)
    if where == "to_dense":
        ps = ProductS([su2(2).s, su2(1 if admitted else 2).s])  # 6 or 9 fields
        monkeypatch.setattr(modular.np, "kron", sentinel)
        call, args = ps.to_dense, ()
    elif where == "fusion_tensor":
        monkeypatch.setattr(modular, "_verlinde", sentinel)
        call, args = fusion_tensor, (su2(2 if admitted else 3),)  # 3 or 4 fields
    elif where == "sun":
        monkeypatch.setattr(wzw, "_sun_s_matrix", sentinel)
        call, args = sun, (3, 2 if admitted else 3)  # 6 or 10 fields
    else:
        k = 2 if admitted else 4  # 4 or 8 extended fields
        md = tensor(su2(k), su2(k))
        monkeypatch.setattr(Extension, "_build_extended_md", sentinel)
        call, args = Extension, (Theory(md), [md.index((k, k))])
    with pytest.raises(Reached if admitted else ResourceLimitError):
        call(*args)


# --- field indexes -----------------------------------------------------------

# hashable labels that no su2_4 x su3_3 field carries: no tuple, a tuple of
# the wrong length, an unknown label of either factor
BAD_PRODUCT_LABELS = [4, "0", (), (0,), (0, (0, 0), 0), (5, (0, 0)),
                      ((0, 0), 0), (0, (0, 4)), (0, 0)]


def _index_or_none(index, label):
    try:
        return index(label)
    except (InvalidInputError, KeyError):
        return None


def test_product_index_is_the_label_dict_without_one():
    md = tensor(su2(4), sun(3, 3))
    assert not hasattr(md, "_index")
    want = dict(zip(md.labels, range(md.size)))
    assert [md.index(lab) for lab in md.labels] == list(range(md.size))
    for label in BAD_PRODUCT_LABELS:
        assert _index_or_none(want.__getitem__, label) is None
        with pytest.raises(InvalidInputError,
                           match=r"unknown field label " + re.escape(repr(label))):
            md.index(label)
    with pytest.raises(InvalidInputError, match="unknown field label"):
        md.index([0, (0, 0)])  # a list is no label


def test_su5_pair_index_agrees_with_the_label_dict_on_seeded_labels():
    su5 = sun(5, 5)
    md = tensor(su5, su5)
    want = dict(zip(md.labels, range(md.size)))
    rng = random.Random(5)
    labels = [md.labels[rng.randrange(md.size)] for _ in range(1000)]
    # and as many recombined from the factor labels, with some unknown ones
    parts = list(su5.labels) + [(5, 5, 5, 5), (0, 0, 0)]
    labels += [(rng.choice(parts), rng.choice(parts)) for _ in range(1000)]
    assert sum(lab not in want for lab in labels) > 20
    for label in labels:
        assert _index_or_none(md.index, label) == want.get(label)


def test_an_atomic_theory_keeps_its_distinct_label_check():
    md = su2(4)
    assert md.index(3) == 3
    with pytest.raises(InvalidInputError, match="not distinct"):
        ModularData((0, 1, 2, 3, 0), md.h, md.c, md.s)
