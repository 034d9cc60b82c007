"""The row panels of the dense passes: their results do not depend on the
panel height, their temporaries stay within a few panels, and a product
theory caches no charge column that it does not read.

Every row-blocked pass takes its panels from `modular.panels`, so
monkeypatching `modular.ROW_BLOCK` changes the panels of all of them.
"""
import random
import tracemalloc
import types

import numpy as np
import pytest

from fpres import modular
from fpres.currents import Theory, detect_simple_currents
from fpres.extend import Extension, extend
from fpres.modular import (
    ModularData,
    check_modular,
    cube_deviation,
    match_rows,
    symmetry_deviation,
    tensor,
    unitarity_deviation,
)
from fpres.wzw import su2
from test_block_kernel import _su5_pair_theory, built

PANEL_ROWS = (32, 64, 128, 256)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _su2x4():
    md = tensor(*(su2(4) for _ in range(4)))
    return md.s_dense(), md.t_values(), md.index((4, 4, 4, 4))


def _su5_ext():
    md = built("su5-pair").ext_md
    return md.s, md.t_values(), detect_simple_currents(md)[1]


def _passes(s, t, j) -> list:
    """The bytes of every row-blocked result over the square array s, with
    the row match of current j."""
    out = [unitarity_deviation(s), symmetry_deviation(s),
           cube_deviation(s, t, True), cube_deviation(s, t, False)]
    ratio = s[j] / s[0]
    for image in (np.conj, lambda rows: rows * ratio):
        out += match_rows(s, image)
    # rows equal across panel borders, for the recombination keys to group
    s = s.copy()
    s[130], s[-1] = s[3], s[33]
    fake = types.SimpleNamespace(ext_md=types.SimpleNamespace(s=s))
    groups = Extension.recombination_groups(fake)
    assert [3, 130] in groups
    return [_bits(x) for x in out] + [groups]


# a NaN row has no int64 grid key: numpy warns as it casts it
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("case", ["su2_4^4", "su5-pair-ext"])
def test_dense_passes_do_not_depend_on_the_panel_height(case, nan,
                                                        monkeypatch):
    s, t, j = _su2x4() if case == "su2_4^4" else _su5_ext()
    assert len(s) % 256  # a ragged last panel, at every height for 625
    if nan:
        s = s.copy()
        s[600, 3] = np.nan  # below the diagonal, in a late panel
    results = []
    for rows in PANEL_ROWS:
        monkeypatch.setattr(modular, "ROW_BLOCK", rows)
        results.append(_passes(s, t, j))
    assert all(r == results[0] for r in results[1:])
    assert np.isnan(np.frombuffer(results[0][0])[0]) == nan


@pytest.mark.parametrize("case", ["su2_4^4", "su5-pair"])
def test_product_blocks_do_not_depend_on_the_panel_height(case, monkeypatch):
    md = (tensor(*(su2(4) for _ in range(4))) if case == "su2_4^4"
          else _su5_pair_theory().md)
    rng = random.Random(3)
    rows = rng.sample(range(md.size), 625)
    cols = rng.sample(range(md.size), 300)
    blocks = []
    for panel in PANEL_ROWS:
        monkeypatch.setattr(modular, "ROW_BLOCK", panel)
        blocks.append(md.s.block(rows, cols))
    real = case == "su2_4^4"
    assert real == (not np.iscomplex(md.s.mats[0]).any())
    for block in blocks[1:]:
        if real:
            assert _bits(block) == _bits(blocks[0])
        else:
            # numpy's complex multiply may round the last bit by block shape
            assert np.abs(block - blocks[0]).max() <= 1e-15


def _peak_above_kept(fn, *args):
    """(result, peak - kept): the traced peak of fn(*args) above what is
    still allocated when it returns."""
    tracemalloc.start()
    try:
        out = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - kept


def test_dense_checks_of_the_su5_extension_peak_within_three_panels():
    ext = built("su5-pair").ext_md
    md = ModularData(ext.labels, ext.h, ext.c, ext.s.copy(), ext.name)
    bound = 3 * modular.ROW_BLOCK * md.size * 16
    report, over = _peak_above_kept(check_modular, md)
    assert report["ok"] and over <= bound, over
    th, over = _peak_above_kept(Theory, md)
    assert len(th.perms) == 5 and over <= bound, over


def test_a_product_theory_keeps_only_the_subgroup_charge_columns():
    th = Theory(_su5_pair_theory().md)
    ex = extend(th, [th.md.index(((5, 0, 0, 0), (5, 0, 0, 0)))])
    classes = [c for c in ex.residual_classes() if c.order > 1]
    assert classes
    for cls in classes:
        ex.resolve(cls)
    assert set(th._charges) <= set(ex.h_members)
