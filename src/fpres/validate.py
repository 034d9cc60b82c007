"""Consistency checks for current-twisted matrices and their eta data.

Each twisted matrix is checked against the full condition system:
support, unitarity, the cube relation with the restricted T, row
covariance under translations (broadcast over the translators), the
square/eta pairing, and the transpose pairing with the inverse current.
Twist tables are checked for multiplicativity, conjugation symmetry and
the spin rule, and the eta product law against the twists, as integer
identities over (field, stabilizer element) grids of the exact tables of
`Theory`; an entry that did not snap raises through its accessor, as a
field-by-field evaluation would. A report reads the twist and eta cells its
checks share from one `Theory.layout` over the union of the supports it
checks, the layout the extension reads too.

{5c}, eta^J(conj a) = conj eta^J(a), is the half-integer-spin flag. With
{2}, {5}, {6} and {5b} at K = J^-1, correct data satisfy eta^J(conj a) =
F(a, J^-1, J) conj eta^J(a), and F(a, J^-1, J) = exp(-2 pi i h_J) by the
spin rule. So {5c} fails on correct data exactly for the currents of
half-integer spin, such as the Ising fermion, and nowhere else.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import modular
from .currents import NA, Theory
from .errors import PhaseSnapError, ResolutionError
from .modular import (FUSION_TOL, ModularData, _verlinde,
                      sampled_fusion_residual)
from .phases import norm1, units

CHECK_TOL = 1e-8  # default tolerance of the condition checks
FUSION_SAMPLES = 60  # seeded rows the fusion check samples past the budget
FUSION_SEED = 0


def eta_square_residual(sq, eta, fields, conj):
    """(cp, M^2 - eta C) for the square `sq` of a twisted matrix M on `fields`
    with diagonal `eta`: fields[cp[i]] = conj[fields[i]] and (eta C)[i, cp[i]]
    = eta[i]. None when the fields are not closed under conjugation."""
    pos = {a: i for i, a in enumerate(fields)}
    cp = [pos.get(int(conj[a])) for a in fields]
    if None in cp:
        return None
    pairing = np.zeros(sq.shape, dtype=complex)
    pairing[np.arange(len(cp)), cp] = eta
    return cp, sq - pairing


def _has_bundle(theory: Theory, j: int) -> bool:
    try:
        return j == 0 or theory.bundle(j) is not None
    except ResolutionError:
        return False


def _product_law(theory: Theory, grids, fields, i, j, k):
    """The {5b}/GF eta product law on cells (fields[i], J, K), index arrays
    into `grids` in report order, of currents J, K with eta data fixing the
    field: keeps the cells where JK has eta data too, and returns them with
    G = eta^J + eta^K - eta^JK and F(a, K, J), both over `eta_order`. The
    first cell whose lookups fail raises through the accessors."""
    mul, tw, eta = grids
    jk = mul[j, k]
    i, j, k, jk = (v[eta[i, jk] != NA] for v in (i, j, k, jk))
    parts = (eta[i, j], eta[i, k], eta[i, jk], tw[i, k, j])
    hit = np.flatnonzero(np.logical_or.reduce([p < 0 for p in parts]))
    if len(hit):
        a = fields[i[hit[0]]]
        cj, ck, cjk = (theory.center.elements[v[hit[0]]] for v in (j, k, jk))
        for c in (cj, ck, cjk):
            theory.eta_exponent(c, a)
        theory.twist_exponent(a, ck, cj)
    e = theory.eta_order
    g = (parts[0] + parts[1] - parts[2]) % e
    return i, j, k, g, parts[3] * (e // theory.snap_order)


def _report_tables(theory: Theory, currents):
    """What the checks of `currents` share, over the union of their supports,
    `fields` (ascending), and the center `elems`: elems[x] fields[i] and the
    charge phase exp(2 pi i Q_{elems[x]}(fields[i])) at [i, x], the product
    table of `elems` by position, and the `Theory.layout` of the fields
    against the translators and currents `elems`, its `at` -1 in the
    columns of the currents without a bundle."""
    elems = theory.center.elements
    fields = np.array(sorted(set().union(*(theory.bundle(j).fields
                                           for j in currents))), dtype=np.intp)
    moved = np.stack([theory.perms[x][fields] for x in elems], axis=1)
    phases = units(np.stack([theory.charges(x)[fields] for x in elems],
                            axis=1), theory.den)
    mul = np.searchsorted(elems, [theory.perms[x][list(elems)] for x in elems])
    have = [y for y in np.flatnonzero((moved == fields[:, None]).any(axis=0))
            if _has_bundle(theory, elems[y])]
    at = np.full(moved.shape, -1)
    at[:, have], tws, etas = theory.layout(fields, elems,
                                           [elems[y] for y in have])
    return fields, moved, phases, mul, at, tws, etas


def check_conditions(theory: Theory, j: int, tol: float = CHECK_TOL, *,
                     tables=None) -> dict:
    """Full condition report for the twisted matrix of current j, read off
    the `_report_tables` of currents with j among them, or of j alone."""
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
    record("{1}", not extra and not missing, float(bool(extra or missing)),
           witness={"extra": extra, "missing": missing} if extra or missing else None)

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

    t = np.diag(theory.md.t_values()[list(supp)])
    sq = m @ m
    dev, wit = worst_entry(np.linalg.matrix_power(m @ t, 3) - sq)
    record("{3}", dev <= tol, dev, witness=wit if dev > tol else None)

    elems = theory.center.elements
    y = elems.index(j)
    order = theory.snap_order
    fields, moved, phases, mul, at, tws, etas = (
        tables or _report_tables(theory, [j]))
    rows = np.searchsorted(fields, supp)
    moved, phases, at = moved[rows], phases[rows], at[rows]
    fix = moved == np.array(supp)[:, None]
    # the grids over elems, NA at the currents without a bundle
    tw, eta = tws[at].transpose(0, 2, 1), etas[at]
    avail = tw[:, 0] != NA          # [i, y]: y fixes supp[i], has a bundle

    # {4}: S^J_{Ka,c} = F(a, K, J) exp(2 pi i Q_K(c)) S^J_{ac} for every
    # translator K = elems[x + 1], by `panels` of translators
    f = tw[:, 1:, y].T
    if (f < 0).any():
        x, i = np.argwhere(f < 0)[0]
        record("{4}", False, 1.0,
               witness={"field": supp[i], "translator": elems[x + 1]},
               note="row ratio is not a constant snapped phase")
    else:
        pos, u, p = b.positions(moved[:, 1:].T), units(f, order), phases.T[1:]
        d = np.concatenate([np.abs(m[pos[s]] - u[s, :, None] * p[s, None] * m)
                            .max(axis=2) for s in modular.panels(len(pos),
                                                                 n * n, n)])
        dev4, wit4 = 0.0, None
        for x, i in enumerate(d.argmax(axis=1).tolist()):
            if d[x, i] > dev4:
                dev4 = d[x, i]
                wit4 = {"field": supp[i], "translator": elems[x + 1]}
        record("{4}", dev4 <= tol, dev4,
               witness=wit4 if dev4 > tol else None)

    # the twist identities hold exactly mod snap_order; cells in report order
    try:
        # {4a}: F(a, K, J1) + F(a, K, J2) = F(a, K, J) on cells (a, J1, K)
        inv = np.argmax(mul == y, axis=1)           # J1 J2 = J
        cells = (avail & avail[:, inv])[:, :, None] & fix[:, None, :]
        parts = np.stack(np.broadcast_arrays(
            tw, tw[:, :, inv], tw[:, :, [y]])).transpose(0, 1, 3, 2)
        hit = np.argwhere(cells & (parts < 0).any(axis=0))
        if len(hit):
            i, y1, x = hit[0]
            for part in (elems[y1], elems[inv[y1]], j):
                theory.twist_exponent(supp[i], elems[x], part)
        bad = np.argwhere(cells & ((parts[0] + parts[1] - parts[2]) % order != 0))
        record("{4a}", not len(bad), float(bool(len(bad))),
               witness=[{"field": supp[i], "translator": elems[x],
                         "parts": [elems[y1], elems[inv[y1]]]}
                        for i, y1, x in bad[:3]] or None)
    except PhaseSnapError:
        record("{4a}", False, 1.0, note="twist is not a snapped phase")

    conj = theory.md.conjugation()
    if b.eta is None:
        for cid in ("{5}", "{5a}", "{5b}", "{5c}", "GF"):
            skip(cid, "no eta data")
    elif (paired := eta_square_residual(sq, b.eta, supp, conj)) is None:
        record("{5}", False, 1.0, note="support not closed under conjugation")
        for cid in ("{5a}", "{5b}", "{5c}", "GF"):
            skip(cid, "support not closed under conjugation")
    else:
        cp, diff = paired
        dev, wit = worst_entry(diff)
        record("{5}", dev <= tol, dev, witness=wit if dev > tol else None)

        dev = np.abs(np.abs(b.eta) - 1.0).max()
        record("{5a}", dev <= tol, dev)

        try:
            i, x = np.nonzero(eta != NA)
            i, _, x, g, f = _product_law(theory, (mul, tw, eta), supp, i,
                                         np.full_like(x, y), x)
            e = theory.eta_order
            bad5b = [{"field": supp[i[r]], "current": elems[x[r]],
                      "G": str(Fraction(int(g[r]), e)),
                      "F": str(Fraction(int(f[r]), e))}
                     for r in np.flatnonzero(g != f)[:3]]
            gf_fail = [{"field": supp[i[r]], "current": elems[x[r]],
                        "G": str(Fraction(int(g[r]), e))}
                       for r in np.flatnonzero((f == 0) & (g != 0))[:3]]
            complex_f = np.count_nonzero(2 * f % e)
            record("{5b}", not bad5b, float(bool(bad5b)),
                   witness=bad5b or None)
            record("GF", not bad5b and not gf_fail,
                   float(bool(bad5b or gf_fail)),
                   witness=(bad5b + gf_fail)[:3] or None,
                   note=f"{len(i)} pairs, {complex_f} complex" if len(i) else None)
        except PhaseSnapError:
            record("{5b}", False, 1.0, note="eta is not a snapped phase")
            record("GF", False, 1.0, note="eta is not a snapped phase")

        devs = np.abs(b.eta[cp] - np.conj(b.eta))
        worst = int(devs.argmax())
        record("{5c}", devs[worst] <= tol, devs[worst],
               witness=[supp[worst]] if devs[worst] > tol else None)

    jinv = theory.center.inverse(j)
    if _has_bundle(theory, jinv):
        binv = theory.bundle(jinv)
        if tuple(sorted(binv.fields)) != tuple(sorted(supp)):
            record("{6}", False, 1.0, note="inverse support differs")
        else:
            ri = binv.positions(supp)
            dev, wit = worst_entry(m - binv.matrix[np.ix_(ri, ri)].T)
            record("{6}", dev <= tol, dev, witness=wit if dev > tol else None)
    else:
        skip("{6}", "inverse bundle unavailable")

    try:
        # fsym: F(a, K, J) + F(a, J, K) = 0 on cells (a, K); the cells of
        # K = 1 hold 0 + 0, since {4a} raised for any marked F(a, 1, J)
        hit = np.argwhere(avail & ((tw[:, :, y] < 0) | (tw[:, y] < 0)))
        if len(hit):
            i, x = hit[0]
            theory.twist_exponent(supp[i], elems[x], j)
            theory.twist_exponent(supp[i], j, elems[x])
        bad = np.argwhere(avail & ((tw[:, :, y] + tw[:, y]) % order != 0))
        record("fsym", not len(bad), float(bool(len(bad))),
               witness=[{"field": supp[i], "current": elems[x]}
                        for i, x in bad[:3]] or None)

        # spin rule: F(a, J, J) is the spin of J; fsym has read it unmarked
        bad_spin = [supp[i] for i in np.flatnonzero(
            tw[:, y, y] != norm1(theory.md.h[j]) * order)]
        record("spin-rule", not bad_spin, float(bool(bad_spin)),
               witness=bad_spin[:3] or None)
    except PhaseSnapError:
        for cid in ("fsym", "spin-rule"):
            if cid not in checks:
                record(cid, False, 1.0, note="twist is not a snapped phase")

    return {"current": j, "ok": all(c["ok"] for c in checks.values()),
            "checks": checks}


def check_fusion_integrality(md: ModularData) -> dict:
    """Verlinde residual and negativity scan against FUSION_TOL; report-only.
    A product checks each factor, as `check_modular` does. An atomic S is
    scanned row by row where the dense budget admits `fusion_tensor`, N^3
    entries, and in seeded sample rows beyond it. A NaN anywhere in S reads
    as a NaN residual and fails."""
    if md.is_product:
        reports = [check_fusion_integrality(f) for f in md.factors]
        worst = float(np.max([r["max_residual"] for r in reports]))
        return {"mode": "factors", "ok": all(r["ok"] for r in reports),
                "max_residual": worst, "factors": reports}
    if md.size ** 3 > modular.DENSE_BUDGET:
        res = sampled_fusion_residual(md, FUSION_SAMPLES,
                                      random.Random(FUSION_SEED))
        return {"mode": "sampled", "samples": FUSION_SAMPLES,
                "max_residual": res, "ok": res <= FUSION_TOL}
    res, low = np.array([(r, ints.min()) for ints, r in
                         _verlinde(md.s, range(md.size), upper=True)]).T
    max_residual = float(res.max())
    min_entry = float(np.min(low, initial=0.0)) + 0.0  # no -0.0
    return {"mode": "full", "max_residual": max_residual, "min_entry": min_entry,
            "ok": max_residual <= FUSION_TOL and min_entry >= 0}


def condition_report(theory: Theory, currents=None, tol: float = CHECK_TOL) -> dict:
    """Machine-readable report over all checkable currents."""
    if currents is None:
        currents = [
            j
            for j in theory.center.elements
            if j and len(theory.fixed_fields(j)) and _has_bundle(theory, j)
        ]
    tables = _report_tables(theory, currents)
    bundles = {str(j): check_conditions(theory, j, tol, tables=tables)
               for j in currents}
    return {
        "format": "condition-report v1",
        "tolerance": tol,
        "ok": all(r["ok"] for r in bundles.values()),
        "bundles": bundles,
    }
