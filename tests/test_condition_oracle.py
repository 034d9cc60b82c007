"""The array-form condition report and eta product law, checked against the
per-field checks they replaced.

The oracle below runs every check one (field, translator, current) at a
time: it extracts each twist F(a, K, J) from one row ratio of S^J as a
Fraction and snaps each eta on its own, with a scalar copy of the snapping
rule, so it shares no twist or eta table with the library. Reports must
agree in every ok flag, witness, note, skip entry and G/F string, with
deviations within 1e-12; where the oracle raises, the library must raise
the same error.
"""
import cmath
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from fpres.currents import FixedPointBundle, Theory
from fpres.errors import PhaseSnapError, ResolutionError
from fpres.extend import extend
from fpres.modular import tensor
from fpres.phases import norm1, unit, units
from fpres.validate import condition_report
from fpres.wzw import ising, su2, sun
from twist_models import check_GF

TOL = 1e-12


# --- the per-field oracle --------------------------------------------------


def snap(z, order, tol=1e-6):
    r = abs(z)
    if abs(r - 1.0) > tol:
        raise PhaseSnapError(f"|z| = {r!r} is not within {tol} of 1")
    q = Fraction(round(cmath.phase(z) / (2.0 * math.pi) * order) % order, order)
    if abs(z - unit(q)) > tol:
        raise PhaseSnapError(f"z = {z!r} is not a root of order {order}")
    return q


class Oracle:
    """Per-field twist extraction and condition checks on one theory."""

    def __init__(self, theory):
        self.th = theory
        self.twists = {}

    def twist(self, a, k, j):
        th = self.th
        if j == 0:
            return Fraction(0)
        if (a, k, j) not in self.twists:
            b = th.bundle(j)
            if b.dim == 1:
                out = Fraction(-int(th.charges(k)[a]) % th.den, th.den)
            else:
                row_a = b.matrix[b.position(a)]
                row_ka = b.matrix[b.position(th.apply(k, a))]
                phases = units(-th.charges(k)[list(b.fields)], th.den)
                mask = np.abs(row_a) > 1e-6
                if not mask.any():
                    raise ResolutionError(
                        f"row of field {a} in bundle {j} vanishes")
                ratios = row_ka[mask] * phases[mask] / row_a[mask]
                mean = ratios.mean()
                if np.abs(ratios - mean).max() > 1e-6:
                    raise ResolutionError(
                        f"twist of ({a},{k}) against {j} is not constant")
                out = snap(mean, th.snap_order)
            self.twists[(a, k, j)] = out
        return self.twists[(a, k, j)]

    def eta(self, j, a):
        th = self.th
        if j == 0:
            return Fraction(0)
        order = th.snap_order * th.center.exponent() ** 2
        try:
            return snap(th.eta_value(j, a), order)
        except PhaseSnapError:
            raise PhaseSnapError(
                f"eta of current {j} at {a} is not a snapped root") from None

    def stabilizer(self, a):
        th = self.th
        return [x for x in th.center.elements if th.apply(x, a) == a]

    def have_bundle(self, j):
        if j == 0:
            return True
        try:
            self.th.bundle(j)
            return True
        except ResolutionError:
            return False

    def have_eta(self, j):
        return j == 0 or (self.have_bundle(j)
                          and self.th.bundle(j).eta is not None)

    def check_conditions(self, j, tol=1e-8):
        theory = self.th
        b = theory.bundle(j)
        supp = tuple(b.fields)
        n = len(supp)
        m = b.matrix
        checks = {}

        def record(cid, ok, deviation, witness=None, note=None):
            entry = {"ok": bool(ok), "deviation": float(deviation)}
            if witness is not None:
                entry["witness"] = witness
            if note is not None:
                entry["note"] = note
            checks[cid] = entry

        def skip(cid, note):
            checks[cid] = {"ok": True, "deviation": 0.0, "skipped": True,
                           "note": note}

        fixed = tuple(theory.fixed_fields(j))
        extra = sorted(set(supp) - set(fixed))
        missing = sorted(set(fixed) - set(supp))
        record("{1}", not extra and not missing,
               float(bool(extra or missing)),
               witness={"extra": extra, "missing": missing}
               if extra or missing else None)
        if n == 0:
            for cid in ("{2}", "{3}", "{4}", "{4a}", "{5}", "{5a}", "{5b}",
                        "{5c}", "{6}", "fsym", "spin-rule", "GF"):
                skip(cid, "empty support")
            return {"current": j, "ok": all(c["ok"] for c in checks.values()),
                    "checks": checks}

        def worst_entry(diff):
            i, k = np.unravel_index(int(np.abs(diff).argmax()), diff.shape)
            return float(np.abs(diff).max()), [int(supp[i]), int(supp[k])]

        dev, wit = worst_entry(m @ m.conj().T - np.eye(n))
        record("{2}", dev <= tol, dev, witness=wit if dev > tol else None)
        t = np.diag([unit(theory.md.t_exponent(a)) for a in supp])
        dev, wit = worst_entry(np.linalg.matrix_power(m @ t, 3) - m @ m)
        record("{3}", dev <= tol, dev, witness=wit if dev > tol else None)

        pos = {a: i for i, a in enumerate(supp)}
        dev4 = 0.0
        wit4 = None
        for k in theory.center.elements:
            if k == 0:
                continue
            col = units(theory.charges(k)[list(supp)], theory.den)
            for a in supp:
                try:
                    f = unit(self.twist(a, k, j))
                except (ResolutionError, PhaseSnapError):
                    record("{4}", False, 1.0,
                           witness={"field": a, "translator": k},
                           note="row ratio is not a constant snapped phase")
                    break
                d = np.abs(m[pos[theory.apply(k, a)]] - f * col * m[pos[a]]).max()
                if d > dev4:
                    dev4 = d
                    wit4 = {"field": a, "translator": k}
            else:
                continue
            break
        if "{4}" not in checks:
            record("{4}", dev4 <= tol, dev4,
                   witness=wit4 if dev4 > tol else None)

        bad4a = []
        try:
            for a in supp:
                stab = self.stabilizer(a)
                usable = [x for x in stab if self.have_bundle(x)]
                for j1 in usable:
                    j2 = theory.center.mul(theory.center.inverse(j1), j)
                    if j2 not in usable:
                        continue
                    for k in stab:
                        q = norm1(self.twist(a, k, j1) + self.twist(a, k, j2)
                                  - self.twist(a, k, j))
                        if q != 0:
                            bad4a.append({"field": a, "translator": k,
                                          "parts": [j1, j2]})
            record("{4a}", not bad4a, float(bool(bad4a)),
                   witness=bad4a[:3] or None)
        except PhaseSnapError:
            record("{4a}", False, 1.0, note="twist is not a snapped phase")

        conj = theory.md.conjugation()
        closed = all(int(conj[a]) in pos for a in supp)
        if b.eta is None:
            for cid in ("{5}", "{5a}", "{5b}", "{5c}", "GF"):
                skip(cid, "no eta data")
        elif not closed:
            record("{5}", False, 1.0,
                   note="support not closed under conjugation")
            for cid in ("{5a}", "{5b}", "{5c}", "GF"):
                skip(cid, "support not closed under conjugation")
        else:
            pairing = np.zeros((n, n), dtype=complex)
            for a in supp:
                pairing[pos[a], pos[int(conj[a])]] = b.eta[pos[a]]
            dev, wit = worst_entry(m @ m - pairing)
            record("{5}", dev <= tol, dev, witness=wit if dev > tol else None)
            dev = np.abs(np.abs(b.eta) - 1.0).max()
            record("{5a}", dev <= tol, dev)
            try:
                bad5b = []
                gf_fail = []
                complex_f = 0
                pairs = 0
                for a in supp:
                    stab = [x for x in self.stabilizer(a) if self.have_eta(x)]
                    for k in stab:
                        jk = theory.center.mul(j, k)
                        if jk != 0 and (theory.apply(jk, a) != a
                                        or not self.have_eta(jk)):
                            continue
                        g = norm1(self.eta(j, a) + self.eta(k, a)
                                  - self.eta(jk, a))
                        f = self.twist(a, k, j)
                        pairs += 1
                        if norm1(2 * f) != 0:
                            complex_f += 1
                        if g != f:
                            bad5b.append({"field": a, "current": k,
                                          "G": str(g), "F": str(f)})
                        if f == 0 and g != 0:
                            gf_fail.append({"field": a, "current": k,
                                            "G": str(g)})
                record("{5b}", not bad5b, float(bool(bad5b)),
                       witness=bad5b[:3] or None)
                record("GF", not bad5b and not gf_fail,
                       float(bool(bad5b or gf_fail)),
                       witness=(bad5b + gf_fail)[:3] or None,
                       note=f"{pairs} pairs, {complex_f} complex"
                       if pairs else None)
            except PhaseSnapError:
                record("{5b}", False, 1.0, note="eta is not a snapped phase")
                record("GF", False, 1.0, note="eta is not a snapped phase")
            devs = {a: abs(b.eta[pos[int(conj[a])]] - np.conj(b.eta[pos[a]]))
                    for a in supp}
            worst = max(devs, key=devs.get)
            record("{5c}", devs[worst] <= tol, devs[worst],
                   witness=[int(worst)] if devs[worst] > tol else None)

        jinv = theory.center.inverse(j)
        if self.have_bundle(jinv):
            binv = theory.bundle(jinv)
            if tuple(sorted(binv.fields)) != tuple(sorted(supp)):
                record("{6}", False, 1.0, note="inverse support differs")
            else:
                ri = [binv.position(a) for a in supp]
                dev, wit = worst_entry(m - binv.matrix[np.ix_(ri, ri)].T)
                record("{6}", dev <= tol, dev,
                       witness=wit if dev > tol else None)
        else:
            skip("{6}", "inverse bundle unavailable")

        try:
            bad_sym = []
            for a in supp:
                for k in self.stabilizer(a):
                    if k == 0 or not self.have_bundle(k):
                        continue
                    if norm1(self.twist(a, k, j) + self.twist(a, j, k)) != 0:
                        bad_sym.append({"field": a, "current": k})
            record("fsym", not bad_sym, float(bool(bad_sym)),
                   witness=bad_sym[:3] or None)
            spin = norm1(theory.md.h[j])
            bad_spin = [a for a in supp if self.twist(a, j, j) != spin]
            record("spin-rule", not bad_spin, float(bool(bad_spin)),
                   witness=bad_spin[:3] or None)
        except PhaseSnapError:
            for cid in ("fsym", "spin-rule"):
                if cid not in checks:
                    record(cid, False, 1.0,
                           note="twist is not a snapped phase")
        return {"current": j, "ok": all(c["ok"] for c in checks.values()),
                "checks": checks}

    def check_GF(self, a, currents=None):
        theory = self.th
        if currents is None:
            currents = self.stabilizer(a)
        group = [x for x in currents if theory.apply(x, a) == a
                 and self.have_eta(x)]
        failures = []
        complex_f = []
        pairs = 0
        for j in group:
            if j == 0:
                continue
            for k in group:
                jk = theory.center.mul(j, k)
                if jk != 0 and (theory.apply(jk, a) != a
                                or not self.have_eta(jk)):
                    continue
                g = norm1(self.eta(j, a) + self.eta(k, a) - self.eta(jk, a))
                f = self.twist(a, k, j)
                pairs += 1
                if norm1(2 * f) != 0:
                    complex_f.append(
                        {"current": j, "translator": k, "F": str(f)})
                if g != f:
                    failures.append({"current": j, "translator": k,
                                     "G": str(g), "F": str(f)})
        return {"field": a, "pairs": pairs, "ok": not failures,
                "failures": failures, "complex_twists": complex_f}

    def condition_report(self, tol=1e-8):
        th = self.th
        currents = [j for j in th.center.elements
                    if j and len(th.fixed_fields(j)) and self.have_bundle(j)]
        bundles = {str(j): self.check_conditions(j, tol=tol)
                   for j in currents}
        return {"format": "condition-report v1", "tolerance": tol,
                "ok": all(r["ok"] for r in bundles.values()),
                "bundles": bundles}


# --- theories ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def su5_pair():
    su5 = sun(5, 5)
    return tensor(su5, su5)


def extended(md, gen, seed=None):
    ex = extend(Theory(md), [md.index(gen)], convention_seed=seed)
    res = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    return ex.extended_theory(extra_bundles=[r.bundle for r in res])


def corrupted(md, j, damage):
    """Theory(md) with the bundle of j replaced by a damaged copy."""
    honest = Theory(md).bundle(j)
    mat, eta = honest.matrix.copy(), honest.eta.copy()
    damage(mat, eta)
    return Theory(md, extra_bundles=[FixedPointBundle(j, honest.fields, mat,
                                                      eta)])


def flip_eta(mat, eta):
    eta *= -1


def perturb(row, col):
    def damage(mat, eta):
        mat[row, col] += 0.05
    return damage


def dephase_row(mat, eta):
    mat[0] *= np.exp(0.3j)


def dephase_eta(phase, entries):
    def damage(mat, eta):
        eta[entries] *= np.exp(2j * np.pi * phase)
    return damage


def su3_row_on_charged_fields():
    # the row of a field fixed by K = (1, J) moved onto the fields of
    # K-charge 1/3, so that its twists against K have order 3
    su3 = sun(3, 3)
    th = Theory(su3)
    j = su3.index((3, 0))
    charged = np.array([Fraction(int(th.charges(j)[b]), th.den)
                        == Fraction(1, 3)
                        for b in range(su3.size)])

    def damage(mat, eta):
        mat[su3.index((1, 1))] = charged / np.sqrt(charged.sum())
    md = tensor(su3, su3)
    return corrupted(md, md.index(((3, 0), (0, 0))), damage)


def su2x4():
    return tensor(*(su2(4) for _ in range(4)))


def su2_pair():
    return tensor(su2(4), su2(4))


def ising_pair():
    return tensor(ising(), ising())


SU5_GEN = ((5, 0, 0, 0), (5, 0, 0, 0))
CORRUPTED = {
    "su2_4 flipped eta": lambda: corrupted(su2(4), 4, flip_eta),
    "su2_4 perturbed entry": lambda: corrupted(su2(4), 4, perturb(0, 0)),
    "su2_4^2 perturbed entry": lambda: corrupted(su2_pair(), 4, perturb(0, 1)),
    # S^J vanishes there and the entry's charge differs from the row's
    "su2_4^2 perturbed zero entry":
        lambda: corrupted(su2_pair(), 20, perturb(2, 1)),
    "ising^2 dephased row": lambda: corrupted(ising_pair(), 1, dephase_row),
    "su2_4^2 dephased row": lambda: corrupted(su2_pair(), 4, dephase_row),
    "ising^2 dephased eta":
        lambda: corrupted(ising_pair(), 1, dephase_eta(0.05, [-1])),
    "su2_4^2 dephased eta":
        lambda: corrupted(su2_pair(), 4, dephase_eta(0.05, [-1])),
    "su2_4^2 eta times a cube root":
        lambda: corrupted(su2_pair(), 20, dephase_eta(1 / 3, slice(None))),
    "su3_3^2 row on charged fields": su3_row_on_charged_fields,
}
THEORIES = {
    "su2_4": lambda: Theory(su2(4)),
    "su2_2": lambda: Theory(su2(2)),
    "ising": lambda: Theory(ising()),
    "ising^2": lambda: Theory(ising_pair()),
    "su2_4^2": lambda: Theory(su2_pair()),
    "su2_4^4 diagonal": lambda: extended(su2x4(), (4, 4, 4, 4)),
    **{f"su2_4^4 diagonal, seed {s}":
       (lambda s=s: extended(su2x4(), (4, 4, 4, 4), s)) for s in (0, 1, 2, 5)},
    "su2 triple": lambda: extended(tensor(su2(4), su2(6), su2(2)), (4, 6, 2)),
    "su5 pair": lambda: extended(su5_pair(), SU5_GEN),
    "su5 pair, seed 2": lambda: extended(su5_pair(), SU5_GEN, 2),
    "su2_4 x su3_3, seed 0":
        lambda: extended(tensor(su2(4), sun(3, 3)), (0, (3, 0)), 0),
    **CORRUPTED,
}


def outcome(f, *args):
    """The result of f, or the type and message of what it raised."""
    try:
        return f(*args)
    except (PhaseSnapError, ResolutionError) as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}


def assert_same(got, want, path=""):
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= TOL, path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", THEORIES)
def test_report_and_gf_match_the_per_field_oracle(name):
    th = THEORIES[name]()
    oracle = Oracle(th)
    want = outcome(oracle.condition_report)
    assert_same(outcome(condition_report, th), want)
    for a in range(th.md.size):
        assert_same(outcome(check_GF, th, a), outcome(oracle.check_GF, a),
                    f"check_GF({a})")


def row_ratio_table(oracle, k, j):
    """The twist table of (K, J) from the oracle's row ratios, in bundle
    order, marked as `Theory.twists` marks what it cannot snap."""
    th = oracle.th
    table = []
    for a in th.bundle(j).fields:
        try:
            q = oracle.twist(a, k, j)
            table.append(q.numerator * th.snap_order // q.denominator)
        except PhaseSnapError:
            table.append(-1)
        except ResolutionError as exc:
            table.append(-3 if "vanishes" in str(exc) else -2)
    return table


@pytest.mark.parametrize("name", THEORIES)
def test_composed_twist_tables_equal_the_row_ratio_tables(name):
    # Theory.twists takes row ratios only for 0 and the basis of the center
    # and composes the other translators; every table, marks included,
    # must be the one that row ratios give
    th = THEORIES[name]()
    oracle = Oracle(th)
    tables = 0
    for j in th.center.elements:
        if j and oracle.have_bundle(j):
            for k in reversed(th.center.elements):
                assert th.twists(k, j).tolist() == row_ratio_table(
                    oracle, k, j), (k, j)
                tables += 1
    assert tables


@pytest.mark.parametrize("name", CORRUPTED)
def test_corrupted_bundles_fail_in_the_oracle(name):
    # the comparison above sees failing checks and raised errors, not only
    # passing reports
    report = outcome(Oracle(CORRUPTED[name]()).condition_report)
    assert "raised" in report or not report["ok"]
