"""The batched block kernel behind the extended S and the resolution
matrices, checked against the per-orbit-pair sums it replaced.

The oracle below evaluates the same formula one orbit pair and one entry at
a time, reading single S^J entries; it is the reference for the kernel, the
pair representatives, the orbit representatives, the closure phases, eta
and the square/eta deviation, to 1e-12.
"""
import copy
import functools
import itertools
import types
from fractions import Fraction

import numpy as np
import pytest

from fpres import extend as extend_module
from fpres.currents import Theory
from fpres.extend import GRID_TOL, extend
from fpres.groups import MultGroup
from fpres.modular import tensor
from fpres.phases import norm1, unit
from fpres.validate import check_fusion_integrality, condition_report
from fpres.wzw import ising, su2, sun
from oracles import (dressing_by_orbit, orbit_representative,
                     recombination_groups_by_bytes, relabelings_by_orbit,
                     resolved_eta_by_orbit)
from test_groups import char_exponent

TOL = 1e-12


# --- the per-pair oracle -------------------------------------------------


def _prefactor(ex, oa, ob):
    return len(ex.h_members) / np.sqrt(
        len(oa.stab) * len(oa.unt) * len(ob.stab) * len(ob.unt)
    )


def _untwisted_for(th, a, x, members):
    return all(th.twist_exponent(a, x, k) == 0 for k in members if k)


def oracle_extended_s(ex):
    """Free orbits by one S block, split orbits entry by entry."""
    th = ex.theory
    md = th.md
    s = np.zeros((ex.n_ext, ex.n_ext), dtype=complex)
    free = [o for o in ex.orbits if len(o.stab) == 1]
    rest = [o for o in ex.orbits if len(o.stab) > 1]
    f_ids = [o.ext_ids[0] for o in free]
    f_reps = [o.rep for o in free]
    if free:
        s[np.ix_(f_ids, f_ids)] = len(ex.h_members) * md.s_block(f_reps, f_reps)
    for oa in rest:
        for ob in rest:
            common = sorted(set(oa.unt) & set(ob.unt))
            vals = {j: th.bundle_block(j, [oa.rep], [ob.rep])[0, 0]
                    for j in common}
            for i, li in zip(oa.ext_ids, oa.char_labels):
                for jj, lj in zip(ob.ext_ids, ob.char_labels):
                    acc = 0.0 + 0.0j
                    for j in common:
                        xa = unit(char_exponent(oa.ugroup, li, j))
                        xb = unit(char_exponent(ob.ugroup, lj, j))
                        acc += xa * vals[j] * np.conj(xb)
                    s[i, jj] = _prefactor(ex, oa, ob) * acc
        for o in free:
            v = md.s_block([oa.rep], [o.rep])[0, 0] * _prefactor(ex, oa, o)
            for i in oa.ext_ids:
                s[i, o.ext_ids[0]] = s[o.ext_ids[0], i] = v
    return s


def oracle_support(ex, cls):
    """Orbits on which the first fixing class member is untwisted."""
    th = ex.theory
    out = []
    for o in ex.orbits:
        fixing = [x for x in cls.members if th.apply(x, o.rep) == o.rep]
        if fixing and _untwisted_for(th, o.rep, fixing[0], o.unt):
            out.append(o)
    return out


def oracle_representative(ex, cls, o):
    """Unseeded choice: the smallest good member, shared with the orbit of
    the conjugate field."""
    th = ex.theory
    partner = ex.orbit_of(int(th.md.conjugation()[o.rep]))
    if partner.index < o.index:
        return oracle_representative(ex, cls, partner)
    good = [x for x in cls.members
            if th.apply(x, o.rep) == o.rep
            and _untwisted_for(th, o.rep, x, o.stab)]
    return min(good) if good else None


def _pair_block(ex, cls, oa, ob, r_assign, phis):
    th = ex.theory
    cands = [
        x for x in cls.members
        if th.apply(x, oa.rep) == oa.rep and th.apply(x, ob.rep) == ob.rep
        and _untwisted_for(th, oa.rep, x, oa.stab)
        and _untwisted_for(th, ob.rep, x, ob.stab)
    ]
    out = np.zeros((len(oa.ext_ids), len(ob.ext_ids)), dtype=complex)
    if not cands:
        return out
    rab = min(cands)
    common = sorted(set(oa.unt) & set(ob.unt))
    vals = {j: th.bundle_block(th.center.mul(rab, j), [oa.rep], [ob.rep])[0, 0]
            for j in common}
    shift_a = th.center.mul(rab, th.center.inverse(r_assign[oa.rep]))
    shift_b = th.center.mul(rab, th.center.inverse(r_assign[ob.rep]))
    assert shift_a in oa.unt and shift_b in ob.unt
    for p, li in enumerate(oa.char_labels):
        dress_a = unit(phis[oa.index][li]
                       + char_exponent(oa.ugroup, li, shift_a))
        for q, lj in enumerate(ob.char_labels):
            acc = 0.0 + 0.0j
            for j in common:
                acc += (unit(char_exponent(oa.ugroup, li, j)) * vals[j]
                        * np.conj(unit(char_exponent(ob.ugroup, lj, j))))
            dress_b = unit(phis[ob.index][lj]
                           + char_exponent(ob.ugroup, lj, shift_b))
            out[p, q] = (_prefactor(ex, oa, ob) * acc * dress_a
                         * np.conj(dress_b))
    return out


def oracle_pi(th, o, k_a, cbar):
    """Character relabeling from exact character exponents: the label whose
    exponents on U_a are those of lab shifted by eta^u(cbar) - F(a, k_a, u)."""
    shift = [th.eta_exponent(u, cbar) - th.twist_exponent(o.rep, k_a, u)
             for u in o.unt]
    table = {tuple(char_exponent(o.ugroup, lab, u) for u in o.unt): lab
             for lab in o.char_labels}
    return {lab: table[tuple(norm1(q + e) for q, e in zip(shift, key))]
            for key, lab in table.items()}


def oracle_phis(ex, cls, orbits, r_assign):
    """phis[o.index][label]: the character of U_a extended to <U_a, r_b>
    at the representative r of each orbit, with r_b the representatives of
    the basis classes b of the group of classes that have a good member on
    the orbit, found member by member. The extension takes r_b to the
    principal n_b-th root of chi(r_b^{n_b}), n_b the order of b, so
    phi = sum_b k_b norm1(chi(r_b^{n_b})) / n_b, with r = prod_b r_b^{k_b}
    found by search; no such k fails the oracle."""
    th = ex.theory
    z = th.center
    classes = {c.rep: c for c in ex.residual_classes()}
    phis = {}
    for o in orbits:
        g = MultGroup([c.rep for c in classes.values() if any(
            th.apply(x, o.rep) == o.rep and _untwisted_for(th, o.rep, x, o.stab)
            for x in c.members)], ex.quotient.mul, 0)
        rb = [orbit_representative(ex, classes[b], o) for b in g.basis]
        for k in itertools.product(*(range(n) for n in g.orders)):
            x = 0
            for r, kb in zip(rb, k):
                for _ in range(kb):
                    x = z.mul(x, r)
            if x == r_assign[o.rep]:
                break
        else:
            raise AssertionError(
                f"representative {r_assign[o.rep]} on the orbit of {o.rep} is "
                f"no product of the basis representatives {rb}")
        phis[o.index] = {
            lab: sum((kb * norm1(char_exponent(o.ugroup, lab, z.power(r, n))) / n
                      for r, kb, n in zip(rb, k, g.orders)), Fraction(0))
            for lab in o.char_labels
        }
    return phis


def oracle_resolution(ex, cls):
    """(support, matrix, r_assignments, eta, eta deviation), pair by pair,
    on the engine's orbit representatives."""
    th = ex.theory
    orbits = oracle_support(ex, cls)
    support = tuple(e for o in orbits for e in o.ext_ids)
    r_assign = {o.rep: orbit_representative(ex, cls, o) for o in orbits}
    phis = oracle_phis(ex, cls, orbits, r_assign)
    mat = np.block([[_pair_block(ex, cls, oa, ob, r_assign, phis)
                     for ob in orbits] for oa in orbits]) if orbits \
        else np.zeros((0, 0), dtype=complex)
    conj = th.md.conjugation()
    eta = []
    for o in orbits:
        r = r_assign[o.rep]
        cbar = int(conj[ex.orbit_of(int(conj[o.rep])).rep])
        k_a = next(k for k in ex.h_members if th.apply(k, o.rep) == cbar)
        base = th.eta_value(r, o.rep)
        f_corr = np.conj(unit(th.twist_exponent(o.rep, k_a, r)))
        pi = oracle_pi(th, o, k_a, cbar)
        for lab in o.char_labels:
            eta.append(base * f_corr * unit(phis[o.index][lab])
                       * np.conj(unit(phis[o.index][pi[lab]])))
    pos = {e: i for i, e in enumerate(support)}
    ext_conj = ex.ext_md.conjugation()
    expect = np.zeros_like(mat)
    for x in support:
        expect[pos[x], pos[int(ext_conj[x])]] = eta[pos[x]]
    dev = float(np.abs(mat @ mat - expect).max()) if support else 0.0
    return support, mat, r_assign, np.array(eta, dtype=complex), dev


# --- workloads -------------------------------------------------------------


def _triple(seed):
    md = tensor(su2(4), su2(6), su2(2))
    return extend(Theory(md), [104], convention_seed=seed)


def _su2x4_diagonal():
    md = tensor(*(su2(4) for _ in range(4)))
    return extend(Theory(md), [md.index((4, 4, 4, 4))])


def _sigma_pair():
    md = tensor(ising(), ising(), su2(4))
    return extend(Theory(md), [md.labels.index(("psi", "psi", 0))])


@functools.lru_cache(maxsize=None)
def _su5_pair_theory():
    su5 = sun(5, 5)
    return Theory(tensor(su5, su5))


def _su5_pair(seed=None):
    th = _su5_pair_theory()
    return extend(th, [th.md.index(((5, 0, 0, 0), (5, 0, 0, 0)))],
                  convention_seed=seed)


@functools.lru_cache(maxsize=None)
def _su2_4_su3_3_theory():
    return Theory(tensor(su2(4), sun(3, 3)))


def _su2_4_su3_3(seed):
    # the conjugation swaps the two characters of one orbit, whose closure
    # phases are 0 and 1/6: the one workload whose eta depends on phi(pi(i))
    th = _su2_4_su3_3_theory()
    return extend(th, [th.md.index((4, (0, 0)))], convention_seed=seed)


def _su2_4_cubed_two_generators():
    md = tensor(su2(4), su2(4), su2(4))
    return extend(Theory(md), [md.index((4, 4, 0)), md.index((0, 4, 4))])


def _su2_2_overlap(seed):
    # su2_2^4 by (2, 2, 0, 0) and (0, 2, 2, 0): on the fields both fix, the
    # generators twist each other by the self-twist 1/2 of the shared factor,
    # so U_a is smaller than the stabilizer there
    md = tensor(*(su2(2) for _ in range(4)))
    return extend(Theory(md), [md.index((2, 2, 0, 0)), md.index((0, 2, 2, 0))],
                  convention_seed=seed)


BUILDERS = {
    "su2_4": lambda: extend(Theory(su2(4)), [4]),
    "su2_4-su3_3": lambda: _su2_4_su3_3(None),
    "su2_4-su3_3-seed0": lambda: _su2_4_su3_3(0),
    "su2_4-su3_3-seed2": lambda: _su2_4_su3_3(2),
    "triple": lambda: _triple(None),
    "triple-seed1": lambda: _triple(1),
    "triple-seed7": lambda: _triple(7),
    "su2x4-diagonal": _su2x4_diagonal,
    "sigma-pair": _sigma_pair,
    "su5-pair": _su5_pair,
    "su2_4^3-two-generators": _su2_4_cubed_two_generators,
    "su2_2^4-overlap": lambda: _su2_2_overlap(None),
    "su2_2^4-overlap-seed3": lambda: _su2_2_overlap(3),
}


@functools.lru_cache(maxsize=None)
def built(name):
    return BUILDERS[name]()


# --- kernel against the oracle --------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_extended_s_matches_per_pair_oracle(name):
    ex = built(name)
    assert np.abs(ex.ext_md.s - oracle_extended_s(ex)).max() <= TOL


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_resolutions_match_per_pair_oracle(name):
    ex = built(name)
    for cls in ex.residual_classes():
        if cls.order == 1:
            continue
        res = ex.resolve(cls)
        support, mat, r_assign, eta, dev = oracle_resolution(ex, cls)
        assert res.bundle.fields == support
        assert res.r_assignments == r_assign
        if ex.rng is None:
            assert r_assign == {o.rep: oracle_representative(ex, cls, o)
                                for o in oracle_support(ex, cls)}
        if support:
            assert np.abs(res.bundle.matrix - mat).max() <= TOL
            assert np.abs(res.bundle.eta - eta).max() <= TOL
        assert dev <= TOL
        assert res.eta_deviation <= TOL


@pytest.mark.parametrize("name,closures", [
    ("su2_4-su3_3-seed0", True),
    ("su2x4-diagonal", False),
    ("su5-pair", False),
])
def test_closure_phases_are_nonzero_only_past_the_identity(name, closures):
    # phi = sum_b k_b chi(r_b^{n_b}) / n_b is nonzero on some orbit exactly
    # when some representative's basis closure r_b^{n_b} is not the
    # identity
    ex = built(name)
    phases = []
    for cls in ex.residual_classes():
        if cls.order == 1:
            continue
        orbits = oracle_support(ex, cls)
        r_assign = {o.rep: orbit_representative(ex, cls, o) for o in orbits}
        for per_orbit in oracle_phis(ex, cls, orbits, r_assign).values():
            phases.extend(per_orbit.values())
    assert phases
    assert any(phases) == closures


def test_oracle_workloads_cover_the_kernel_cases():
    # a split orbit with two characters, and a class with empty support
    ex = built("su2x4-diagonal")
    o = ex.orbit_of(ex.theory.md.index((2, 2, 2, 2)))
    assert len(o.ext_ids) == 2
    sigma = built("sigma-pair")
    supports = [sigma.resolve(c).bundle.fields
                for c in sigma.residual_classes() if c.order > 1]
    assert () in supports


# --- the array passes against the per-orbit loops ---------------------------


@pytest.mark.parametrize("name", [n for n in sorted(BUILDERS) if "seed" not in n])
def test_array_passes_match_the_per_orbit_loops(name):
    # the dressing, the relabelings and eta bit for bit, on the engine's
    # representatives and closure phases
    ex = built(name)
    sec = ex._sections()
    for cls in ex.residual_classes():
        if cls.order == 1:
            continue
        res = ex.resolve(cls)
        idx = np.flatnonzero(ex._class_tables(cls)[2])
        if not len(idx):
            continue
        orbits = [ex.orbits[a] for a in idx]
        r = ex._representatives(cls, idx)
        parts = ex._parts(idx)
        phis = ex._closure_phases(cls, idx, parts)
        per_orbit = [None] * len(idx)
        for (_, _, on, _), phi in zip(parts, phis):
            for a, row in zip(on.tolist(), phi):
                per_orbit[a] = row
        rab = ex._pair_representatives(cls, idx)
        dress = ex._dressing(cls, parts, rab, r, phis)
        want = dressing_by_orbit(ex, cls, orbits, rab, res.r_assignments,
                                 per_orbit)
        assert dress.tobytes() == want.tobytes()
        ks, cbars, pis = relabelings_by_orbit(ex, orbits)
        assert sec.k[idx].tolist() == ks
        assert sec.cbar[idx].tolist() == cbars
        assert [sec.pi[a, :len(o.ext_ids)].tolist()
                for a, o in zip(idx, orbits)] == [pi.tolist() for pi in pis]
        want = resolved_eta_by_orbit(ex, cls, orbits, res.r_assignments,
                                     per_orbit)
        assert res.bundle.eta.tobytes() == want.tobytes()


# --- orbit and class tables against the per-element loops -------------------


def oracle_stabilizers(th, a, members):
    """The stabilizer of field a in `members` and its untwisted part U_a, the
    currents j with F(a, k, j) = 0 for every k in the stabilizer."""
    stab = tuple(k for k in members if th.apply(k, a) == a)
    return stab, tuple(j for j in stab
                       if all(th.twist_exponent(a, k, j) == 0 for k in stab))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_orbit_and_class_tables_match_the_per_element_loops(name):
    ex = built(name)
    th = ex.theory
    assert [(o.stab, o.unt) for o in ex.orbits] == [
        oracle_stabilizers(th, o.rep, ex.h_members) for o in ex.orbits]
    for cls in ex.residual_classes():
        fix, good = ex._class_tables(cls)[:2]
        want = [[th.apply(x, o.rep) == o.rep for x in cls.members]
                for o in ex.orbits]
        assert fix.tolist() == want
        assert good.tolist() == [
            [f and _untwisted_for(th, o.rep, x, o.stab)
             for f, x in zip(row, cls.members)]
            for row, o in zip(want, ex.orbits)]
        fixed = ex._class_tables(cls)[2]
        assert [o for o, f in zip(ex.orbits, fixed) if f] == \
            oracle_support(ex, cls)


def test_oracle_workloads_cover_twisted_stabilizers():
    ex = built("su2_2^4-overlap")
    assert any(o.unt != o.stab for o in ex.orbits)


# --- recombination groups --------------------------------------------------


def oracle_recombination_groups(s):
    """Rows of s that agree on the GRID_TOL grid, keyed by two tuples."""
    keys = {}
    for i in range(len(s)):
        key = (
            tuple(np.round(s[i].real / GRID_TOL).astype(np.int64).tolist()),
            tuple(np.round(s[i].imag / GRID_TOL).astype(np.int64).tolist()),
        )
        keys.setdefault(key, []).append(i)
    return [g for g in keys.values() if len(g) > 1]


@pytest.mark.parametrize("name", ["su2x4-diagonal", "su5-pair"])
def test_recombination_groups_match_tuple_keys(name):
    ex = built(name)
    assert ex.recombination_groups() == []
    assert oracle_recombination_groups(ex.ext_md.s) == []
    # an S with repeated rows, as a missing resolution would leave
    s = ex.ext_md.s.copy()
    s[5] = s[3]
    s[9] = s[11] = s[2]
    fake = copy.copy(ex)
    fake.ext_md = types.SimpleNamespace(s=s)
    assert fake.recombination_groups() == [[2, 9, 11], [3, 5]]
    assert oracle_recombination_groups(s) == [[2, 9, 11], [3, 5]]


def _duplicate_rows(s):
    s = s.copy()
    s[5] = s[3]
    s[9] = s[11] = s[2]
    return s


RECOMBINATION_CASES = {
    "su2_4^4": ("su2x4-diagonal", lambda s: s),
    "su5-pair": ("su5-pair", lambda s: s),
    "su5-pair-duplicates": ("su5-pair", _duplicate_rows),
}


def _with_s(name, s):
    fake = copy.copy(built(name))
    fake.ext_md = types.SimpleNamespace(s=s)
    return fake


@pytest.mark.parametrize("case", sorted(RECOMBINATION_CASES))
def test_recombination_fingerprints_match_the_byte_keys(case):
    name, edit = RECOMBINATION_CASES[case]
    s = edit(built(name).ext_md.s)
    assert _with_s(name, s).recombination_groups() == \
        recombination_groups_by_bytes(s)


def test_colliding_fingerprints_split_by_bytes(monkeypatch):
    # zero weights give every row one fingerprint: the exact split does
    # all the grouping
    monkeypatch.setattr(extend_module, "_row_weights",
                        lambda width: np.zeros(width, dtype=np.int64))
    s = _duplicate_rows(built("su5-pair").ext_md.s)
    groups = _with_s("su5-pair", s).recombination_groups()
    assert groups == recombination_groups_by_bytes(s) == [[2, 9, 11], [3, 5]]


# --- convention seeds and the inverse class --------------------------------


def test_seeded_su5_pair_passes_every_check():
    # seed 0 used to pick representatives for a class and for the class of
    # the inverse current independently, failing check {6}
    ex = _su5_pair(seed=0)
    bundles = [ex.resolve(c).bundle
               for c in ex.residual_classes() if c.order > 1]
    report = condition_report(ex.extended_theory(extra_bundles=bundles))
    failed = [(j, cid) for j, b in report["bundles"].items()
              for cid, c in b["checks"].items() if not c["ok"]]
    assert failed == []
    th = ex.theory
    for cls in ex.residual_classes():
        if cls.order == 1:
            continue
        inv = min(th.center.inverse(x) for x in cls.members)
        if inv < cls.rep:
            inv_cls = next(c for c in ex.residual_classes() if c.rep == inv)
            for o in ex.orbits:
                r = orbit_representative(ex, cls, o)
                r_inv = orbit_representative(ex, inv_cls, o)
                assert (r is None) == (r_inv is None)
                if r is not None:
                    assert th.center.mul(r, r_inv) == 0


# --- fusion integrality ----------------------------------------------------


def _fusion_loop(md):
    """The full N_a^{bc} scan, one dense product pair per field."""
    s = md.s_dense()
    sc = s.conj().T
    max_residual = 0.0
    min_entry = 0.0
    for a in range(md.size):
        raw = (s @ np.diag(s[a] / s[0]) @ sc).real
        ints = np.rint(raw)
        max_residual = max(max_residual, float(np.abs(raw - ints).max()))
        min_entry = min(min_entry, float(ints.min()))
    return max_residual, min_entry


@pytest.mark.parametrize("name", ["su2_4", "su2x4-diagonal"])
def test_fusion_integrality_matches_full_loop(name):
    md = built(name).ext_md
    rep = check_fusion_integrality(md)
    max_residual, min_entry = _fusion_loop(md)
    assert rep["mode"] == "full"
    assert rep["ok"]
    assert rep["min_entry"] == min_entry
    assert rep["max_residual"] == pytest.approx(max_residual, abs=TOL)
