"""Current permutations by S-row matching against the Verlinde oracle."""
import functools

import numpy as np
import pytest

from fpres import currents, modular
from fpres.currents import Theory, current_permutation, detect_simple_currents
from fpres.errors import FusionIntegralityError, InvalidInputError
from fpres.extend import extend
from fpres.modular import ModularData, check_modular, tensor
from fpres.wzw import ising, su2, sun
from oracles import fusion_matrix


def verlinde_permutation(md, j):
    """The former path: the dense fusion matrix of j, one 1 per row."""
    n = fusion_matrix(md, j)
    assert np.array_equal(n.sum(axis=1), np.ones(md.size, dtype=np.int64))
    return np.argmax(n, axis=1)


def fresh(md):
    """The same data with empty caches."""
    return ModularData(md.labels, md.h, md.c, md.s_dense().copy(), md.name)


@functools.lru_cache(maxsize=None)
def su2x4_diag_ext():
    md = tensor(*(su2(4) for _ in range(4)))
    return extend(Theory(md), [md.index((4, 4, 4, 4))]).ext_md


@functools.lru_cache(maxsize=None)
def su5_pair_ext():
    su5 = sun(5, 5)
    md = tensor(su5, su5)
    return extend(Theory(md), [md.index(((5, 0, 0, 0), (5, 0, 0, 0)))]).ext_md


def assert_matches_oracle(md):
    md = fresh(md)
    ids = detect_simple_currents(md)
    assert len(ids) > 1
    for j in ids:
        perm = current_permutation(md, j)
        assert perm.dtype == np.intp
        assert np.array_equal(perm, verlinde_permutation(md, j))


ATOMIC = {f"su2_{k}": functools.partial(su2, k) for k in range(1, 7)}
ATOMIC.update(su3_3=functools.partial(sun, 3, 3), ising=ising,
              su5_5=functools.partial(sun, 5, 5))


@pytest.mark.parametrize("name", list(ATOMIC))
def test_atomic_perms_match_verlinde(name):
    assert_matches_oracle(ATOMIC[name]())


@pytest.mark.parametrize("make, size", [(su2x4_diag_ext, 158),
                                        (su5_pair_ext, 640)],
                         ids=["su2x4_diag", "su5_pair"])
def test_extension_perms_match_verlinde(make, size):
    md = make()
    assert md.size == size
    assert_matches_oracle(md)


@pytest.mark.parametrize("entry", [0.1, np.nan])
def test_non_unitary_s_fails_as_non_integral_fusion(entry):
    md = su2(4)
    s = md.s.copy()
    s[0, 0] += entry
    with pytest.raises(FusionIntegralityError, match="not unitary"):
        current_permutation(ModularData(md.labels, md.h, md.c, s), 4)


def test_field_that_is_no_current_fails_the_row_match():
    md = su2(4)
    with pytest.raises(InvalidInputError, match="field 1 does not fuse as a "
                       "permutation"):
        current_permutation(fresh(md), 1)


def test_theory_after_check_modular_forms_no_product(monkeypatch):
    md = fresh(su2x4_diag_ext())
    assert check_modular(md)["ok"]

    def forbidden(*args, **kwargs):
        raise AssertionError("dense product formed again")

    # _verlinde is the one Verlinde kernel, behind every fusion matrix
    monkeypatch.setattr(modular, "_verlinde", forbidden)
    monkeypatch.setattr(modular, "unitarity_deviation", forbidden)
    assert not hasattr(currents, "_verlinde")
    th = Theory(md)
    assert len(th.perms) == 8
