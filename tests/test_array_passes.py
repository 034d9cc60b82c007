"""The array passes behind the su5 pair against the loops they replaced: an
extension's orbits, the sampled fusion rows, a product's phase numerators,
the identity's permutation and the recombination keys.

The oracles are `oracles.orbits_by_field`, a set and a sort per uncharged
field, `oracles.sampled_fusion_residual_by_sample`, one matrix-vector
product per sampled pair, and the weight-by-weight Fraction path of
`ModularData.phase_numerators`.
"""
import copy
import functools
import random
import types

import numpy as np
import pytest

from fpres import currents
from fpres.currents import Theory
from fpres.errors import FusionIntegralityError, InvalidInputError
from fpres.extend import RECOMBINATION_ROWS, extend
from fpres.modular import ModularData, sampled_fusion_residual, tensor
from fpres.validate import FUSION_SAMPLES, FUSION_SEED
from fpres.wzw import su2, sun
from oracles import orbits_by_field, sampled_fusion_residual_by_sample
from test_block_kernel import (_su2_4_su3_3_theory, _su5_pair_theory, built,
                               oracle_recombination_groups)


@functools.lru_cache(maxsize=None)
def _su2x4_theory():
    return Theory(tensor(*(su2(4) for _ in range(4))))


@functools.lru_cache(maxsize=None)
def _su2_2_fourth_theory():
    return Theory(tensor(*(su2(2) for _ in range(4))))


def _su5_generator(power):
    # J^power of the diagonal order-5 current: all four give one subgroup
    weight = [0, 0, 0, 0]
    weight[power - 1] = 5
    return (tuple(weight), tuple(weight))


# name -> (theory, generator labels, convention seed)
CASES = {
    **{f"su2x4-diag-seed{s}": (_su2x4_theory, [(4, 4, 4, 4)], s)
       for s in (None, 0, 1, 2, 5)},
    **{f"su5-pair-J{p}": (_su5_pair_theory, [_su5_generator(p)], None)
       for p in (1, 2, 3, 4)},
    **{f"su2_2^4-overlap-seed{s}": (
        _su2_2_fourth_theory, [(2, 2, 0, 0), (0, 2, 2, 0)], s)
       for s in (None, 0, 3)},
    **{f"su2_4-su3_3-seed{s}": (_su2_4_su3_3_theory, [(0, (3, 0))], s)
       for s in (None, 0, 2)},
}


def _group_key(g):
    return (g.elements, tuple(g.basis), tuple(g.orders), g.char_table()[0].tobytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_orbits_match_the_per_field_loop(name):
    make, labels, seed = CASES[name]
    th = make()
    gens = [th.md.index(lab) for lab in labels]
    ex = extend(th, gens, convention_seed=seed)
    want, orbit_of = orbits_by_field(th, gens, seed)
    assert len(ex.orbits) == len(want)
    assert ex.n_ext == sum(len(o.ext_ids) for o in want)
    for got, o in zip(ex.orbits, want):
        assert (got.index, got.rep, got.members, got.stab, got.unt,
                got.char_labels, got.ext_ids) == (
            o.index, o.rep, o.members, o.stab, o.unt, o.char_labels,
            o.ext_ids)
        assert all(type(x) is int for x in (got.rep, *got.members))
        assert _group_key(got.ugroup) == _group_key(o.ugroup)
    for a in range(th.md.size):
        if a in orbit_of:
            assert ex.orbit_of(a).index == orbit_of[a].index
        else:
            with pytest.raises(InvalidInputError, match="charged"):
                ex.orbit_of(a)


def test_a_seeded_case_moves_representatives():
    # so the seeded cases above compare the representatives' draws
    th = _su2x4_theory()
    gens = [th.md.index((4, 4, 4, 4))]
    plain = extend(th, gens).orbits
    seeded = extend(th, gens, convention_seed=5).orbits
    assert any(a.rep != b.rep for a, b in zip(plain, seeded))


@pytest.mark.parametrize("field", [-1, -15876, 15876, 10 ** 6])
def test_orbit_of_rejects_ids_off_the_theory(field):
    ex = built("su5-pair")
    with pytest.raises(InvalidInputError, match=f"field {field} is charged"):
        ex.orbit_of(field)


def test_orbit_of_rejects_a_charged_field():
    ex = built("su5-pair")
    charged = int(np.flatnonzero(~ex._uncharged)[0])
    with pytest.raises(InvalidInputError, match="charged"):
        ex.orbit_of(charged)
    assert ex.orbit_of(0).members == ex.h_members


class Recording(random.Random):
    """A Random that keeps every value `randrange` returns."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def randrange(self, *args):
        x = super().randrange(*args)
        self.drawn.append(x)
        return x


def _far_from_integral(n):
    """A complex n x n matrix whose Verlinde sums are nowhere near integers,
    so that each sampled pair shows in the residual."""
    rng = random.Random(3)
    s = np.array([[complex(rng.random(), rng.random()) for _ in range(n)]
                  for _ in range(n)])
    return types.SimpleNamespace(s=s, size=n)


@pytest.mark.parametrize("case, n", [("su5-pair", FUSION_SAMPLES),
                                     ("su3_3", 20), ("su3_3", 1),
                                     ("far-from-integral", FUSION_SAMPLES)])
def test_sampled_residual_matches_one_product_per_sample(case, n):
    md = {"su5-pair": lambda: built("su5-pair").ext_md,
          "su3_3": lambda: sun(3, 3),
          "far-from-integral": lambda: _far_from_integral(40)}[case]()
    rng, oracle_rng = Recording(FUSION_SEED), Recording(FUSION_SEED)
    got = sampled_fusion_residual(md, n, rng)
    want = sampled_fusion_residual_by_sample(md, n, oracle_rng)
    assert rng.drawn == oracle_rng.drawn and len(rng.drawn) == 2 * n
    assert rng.getstate() == oracle_rng.getstate()
    assert abs(got - want) <= 1e-13 * max(1.0, want)
    assert got < 1e-12 if case != "far-from-integral" else got > 0.1


def test_sampled_residual_of_no_sample_is_zero():
    rng = random.Random(0)
    assert sampled_fusion_residual(sun(3, 3), 0, rng) == 0.0
    assert rng.getstate() == random.Random(0).getstate()


def test_sampled_residual_propagates_a_nan():
    md = sun(3, 3)
    s = md.s.copy()
    s[3, 5] = np.nan
    bad = ModularData(md.labels, md.h, md.c, s)
    got = sampled_fusion_residual(bad, 20, random.Random(0))
    assert np.isnan(got)
    assert np.isnan(sampled_fusion_residual_by_sample(bad, 20, random.Random(0)))


PRODUCTS = {
    # 1/8 + 5/8 = 3/4 and 1 + 1 = 2: sums reduce and leave [0, 1)
    "su2_4^2": lambda: tensor(su2(4), su2(4)),
    "su2_2^4": lambda: tensor(*(su2(2) for _ in range(4))),
    "su2_4-su3_3": lambda: tensor(su2(4), sun(3, 3)),
    "su5-pair": lambda: _su5_pair_theory().md,
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_phase_numerators_match_the_fraction_path(name):
    md = PRODUCTS[name]()
    by_fraction = copy.copy(md)
    by_fraction._phases = by_fraction._distinct_h = None
    den, hn, tn = md.phase_numerators()
    oden, ohn, otn = by_fraction.phase_numerators()
    assert den == oden
    for a, b in ((hn, ohn), (tn, otn)):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    if name == "su2_4^2":
        assert {h.denominator for h in md.h} == {1, 3, 4, 8, 24}


def _vacuum_with(value):
    """The S of su(2)_2 with its vacuum entry S_02 set to `value`."""
    md = su2(2)
    s = md.s.copy()
    s[0, 2] = value
    return ModularData(md.labels, md.h, md.c, s)


def test_a_zero_vacuum_entry_still_fails_the_theory():
    # unitary, so only the vacuum check stops it
    md = ModularData((0, 1), (0, 0), 0, np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(InvalidInputError, match="field 0 does not fuse"):
        Theory(md)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_vacuum_entry_still_fails_the_theory(value):
    with np.errstate(invalid="ignore"), pytest.raises(
            FusionIntegralityError, match="not unitary"):
        Theory(_vacuum_with(value))


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
def test_the_identity_checks_its_vacuum_row_past_the_gate(value):
    md = _vacuum_with(value)
    md._unitary = 0.0  # as if the unitarity gate had passed
    with pytest.raises(InvalidInputError, match="field 0 does not fuse"):
        currents._match_rows(md, 0)


def test_the_identity_acts_as_the_identity():
    md = built("su5-pair").ext_md
    perm = currents._match_rows(md, 0)
    assert perm.dtype == np.intp
    assert np.array_equal(perm, np.arange(md.size))


def test_recombination_groups_across_row_slices():
    ex = built("su5-pair")
    s = ex.ext_md.s.copy()
    assert len(s) > 2 * RECOMBINATION_ROWS
    last = len(s) - 1
    s[RECOMBINATION_ROWS] = s[3]
    s[last] = s[RECOMBINATION_ROWS - 1]
    fake = copy.copy(ex)
    fake.ext_md = types.SimpleNamespace(s=s)
    want = [[3, RECOMBINATION_ROWS], [RECOMBINATION_ROWS - 1, last]]
    assert fake.recombination_groups() == want
    assert oracle_recombination_groups(s) == want
