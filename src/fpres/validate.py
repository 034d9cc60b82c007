"""Consistency checks for current-twisted matrices and their eta data.

Each twisted matrix is checked against the full condition system:
support, unitarity, the cube relation with the restricted T, row
covariance under translations, the square/eta pairing, and the
transpose pairing with the inverse current. Twist tables are checked
for multiplicativity, conjugation symmetry, and the spin rule, and the
eta product law is compared against the twists.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .currents import Theory
from .errors import InvalidInputError, PhaseSnapError, ResolutionError
from .modular import ModularData, sampled_fusion_residual, tensor
from .phases import norm1, snap_phase, unit, units
from .wzw import ising, sun

HALF = Fraction(1, 2)


def _eta_exponent(theory: Theory, j: int, a: int) -> Fraction:
    if j == 0:
        return Fraction(0)
    # resolved eta data carries roots beyond the base snap order: class
    # order times character order, each dividing the center's exponent
    order = theory.snap_order * theory.center.exponent() ** 2
    try:
        return snap_phase(theory.eta_value(j, a), order, tol=1e-6)
    except PhaseSnapError:
        raise PhaseSnapError(
            f"eta of current {j} at {a} is not a snapped root"
        ) from None


def _stabilizer_t(theory: Theory, a: int):
    """Center elements fixing the field (the full stabilizer)."""
    return [x for x in theory.center.elements if theory.apply(x, a) == a]


def _have_bundle(theory: Theory, j: int) -> bool:
    if j == 0:
        return True
    try:
        theory.bundle(j)
        return True
    except ResolutionError:
        return False


def _have_eta(theory: Theory, j: int) -> bool:
    return j == 0 or (_have_bundle(theory, j)
                      and theory.bundle(j).eta is not None)


def check_conditions(theory: Theory, j: int, tol: float = 1e-8) -> dict:
    """Full condition report for the twisted matrix of current j."""
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
                f = theory.twist_value(a, k, j)
            except (ResolutionError, PhaseSnapError):
                record("{4}", False, 1.0, witness={"field": a, "translator": k},
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
            stab = _stabilizer_t(theory, a)
            usable = [x for x in stab if _have_bundle(theory, x)]
            for j1 in usable:
                j2 = theory.center.mul(theory.center.inverse(j1), j)
                if j2 not in usable:
                    continue
                for k in stab:
                    q = norm1(
                        theory.twist_exponent(a, k, j1)
                        + theory.twist_exponent(a, k, j2)
                        - theory.twist_exponent(a, k, j)
                    )
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
        record("{5}", False, 1.0, note="support not closed under conjugation")
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
                stab = [x for x in _stabilizer_t(theory, a)
                        if _have_eta(theory, x)]
                for k in stab:
                    jk = theory.center.mul(j, k)
                    if jk != 0 and (theory.apply(jk, a) != a
                                    or not _have_eta(theory, jk)):
                        continue
                    g = norm1(
                        _eta_exponent(theory, j, a)
                        + _eta_exponent(theory, k, a)
                        - _eta_exponent(theory, jk, a)
                    )
                    f = theory.twist_exponent(a, k, j)
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
                   note=f"{pairs} pairs, {complex_f} complex" if pairs else None)
        except PhaseSnapError:
            record("{5b}", False, 1.0, note="eta is not a snapped phase")
            record("GF", False, 1.0, note="eta is not a snapped phase")

        devs = {a: abs(b.eta[pos[int(conj[a])]] - np.conj(b.eta[pos[a]]))
                for a in supp}
        worst = max(devs, key=devs.get)
        record("{5c}", devs[worst] <= tol, devs[worst],
               witness=[int(worst)] if devs[worst] > tol else None)

    jinv = theory.center.inverse(j)
    if _have_bundle(theory, jinv):
        binv = theory.bundle(jinv)
        if tuple(sorted(binv.fields)) != tuple(sorted(supp)):
            record("{6}", False, 1.0, note="inverse support differs")
        else:
            ri = [binv.position(a) for a in supp]
            dev, wit = worst_entry(m - binv.matrix[np.ix_(ri, ri)].T)
            record("{6}", dev <= tol, dev, witness=wit if dev > tol else None)
    else:
        skip("{6}", "inverse bundle unavailable")

    try:
        bad_sym = []
        for a in supp:
            for k in _stabilizer_t(theory, a):
                if k == 0 or not _have_bundle(theory, k):
                    continue
                q = norm1(theory.twist_exponent(a, k, j)
                          + theory.twist_exponent(a, j, k))
                if q != 0:
                    bad_sym.append({"field": a, "current": k})
        record("fsym", not bad_sym, float(bool(bad_sym)),
               witness=bad_sym[:3] or None)

        spin = norm1(theory.md.h[j])
        bad_spin = [a for a in supp if theory.twist_exponent(a, j, j) != spin]
        record("spin-rule", not bad_spin, float(bool(bad_spin)),
               witness=bad_spin[:3] or None)
    except PhaseSnapError:
        for cid in ("fsym", "spin-rule"):
            if cid not in checks:
                record(cid, False, 1.0, note="twist is not a snapped phase")

    return {"current": j, "ok": all(c["ok"] for c in checks.values()),
            "checks": checks}


def check_GF(theory: Theory, a: int, currents=None) -> dict:
    """Compare the eta product phase with the twist on one field."""
    if currents is None:
        currents = _stabilizer_t(theory, a)
    group = [x for x in currents if theory.apply(x, a) == a
             and _have_eta(theory, x)]
    failures = []
    complex_f = []
    pairs = 0
    for j in group:
        if j == 0:
            continue
        for k in group:
            jk = theory.center.mul(j, k)
            if jk != 0 and (theory.apply(jk, a) != a
                            or not _have_eta(theory, jk)):
                continue
            g = norm1(
                _eta_exponent(theory, j, a)
                + _eta_exponent(theory, k, a)
                - _eta_exponent(theory, jk, a)
            )
            f = theory.twist_exponent(a, k, j)
            pairs += 1
            if norm1(2 * f) != 0:
                complex_f.append({"current": j, "translator": k, "F": str(f)})
            if g != f:
                failures.append(
                    {"current": j, "translator": k, "G": str(g), "F": str(f)}
                )
    return {
        "field": a,
        "pairs": pairs,
        "ok": not failures,
        "failures": failures,
        "complex_twists": complex_f,
    }


def check_fusion_integrality(md: ModularData, tol: float = 1e-6,
                             dense_limit: int = 300, samples: int = 60,
                             seed: int = 0) -> dict:
    """Verlinde residual and negativity scan; report-only."""
    if md.is_product or md.size > dense_limit:
        import random

        rng = random.Random(seed)
        res = sampled_fusion_residual(md, samples, rng, tol=float("inf"))
        return {"mode": "sampled", "samples": samples,
                "max_residual": float(res), "ok": res <= tol}
    s = md.s_dense()
    sc = s.conj().T
    max_residual = 0.0
    min_entry = 0.0
    for a in range(md.size):
        # rows b >= a of N_a: N_ab^c = N_ba^c covers the rest
        raw = ((s[a:] * (s[a] / s[0])) @ sc).real
        ints = np.rint(raw)
        max_residual = max(max_residual, float(np.abs(raw - ints).max()))
        min_entry = min(min_entry, float(ints.min()))
    return {
        "mode": "full",
        "max_residual": max_residual,
        "min_entry": min_entry,
        "ok": max_residual <= tol and min_entry >= 0,
    }


def condition_report(theory: Theory, currents=None, tol: float = 1e-8) -> dict:
    """Machine-readable report over all checkable currents."""
    if currents is None:
        currents = [
            j
            for j in theory.center.elements
            if j and len(theory.fixed_fields(j)) and _have_bundle(theory, j)
        ]
    bundles = {}
    for j in currents:
        bundles[str(j)] = check_conditions(theory, j, tol=tol)
    return {
        "format": "condition-report v1",
        "tolerance": tol,
        "ok": all(r["ok"] for r in bundles.values()),
        "bundles": bundles,
    }


# ---------------------------------------------------------------------------
# tensor realizations of the twist table

# Each row: target self-spins of the two generators (mod 1), target cross
# twist, required order parities, factor template and current words.
# Symbols: "A" first cyclic factor, "B" second, "I" an Ising factor;
# words use "J" for the cyclic generator, "P" for the fermion, "1" for
# the vacuum in that slot.
TWIST_TABLE = (
    {"s_j": Fraction(0), "s_k": None, "f": None, "even": (False, False),
     "factors": "A", "j": "J", "k": None},
    {"s_j": HALF, "s_k": None, "f": None, "even": (True, False),
     "factors": "AI", "j": "JP", "k": None},
    {"s_j": Fraction(0), "s_k": Fraction(0), "f": Fraction(0),
     "even": (False, False), "factors": "AB", "j": "J1", "k": "1J"},
    {"s_j": Fraction(0), "s_k": HALF, "f": Fraction(0),
     "even": (False, True), "factors": "ABI", "j": "J11", "k": "1JP"},
    {"s_j": HALF, "s_k": HALF, "f": Fraction(0),
     "even": (True, True), "factors": "ABII", "j": "J1P1", "k": "1J1P"},
    {"s_j": Fraction(0), "s_k": Fraction(0), "f": HALF,
     "even": (True, True), "factors": "ABIII", "j": "J1PP1", "k": "1JP1P"},
    {"s_j": Fraction(0), "s_k": HALF, "f": HALF,
     "even": (True, True), "factors": "ABII", "j": "J1PP", "k": "1JP1"},
    {"s_j": HALF, "s_k": HALF, "f": HALF,
     "even": (True, True), "factors": "ABI", "j": "J1P", "k": "1JP"},
)


def _cyclic_factor(n: int):
    md = sun(n, n)
    gen = (n,) + (0,) * (n - 2)
    fix = (1,) * (n - 1)
    return md, gen, fix


def realize_twist_row(s_j, s_k, n, m, target_f) -> dict:
    """Build and verify the tensor model for one table row.

    s_j, s_k: generator self-spins mod 1 (s_k None for single rows);
    n, m: cyclic orders; target_f: cross twist (None for single rows).
    """
    s_j = norm1(Fraction(s_j))
    s_k = None if s_k is None else norm1(Fraction(s_k))
    if target_f is None:
        f_exp = None
    elif target_f == 1:
        f_exp = Fraction(0)
    elif target_f == -1:
        f_exp = HALF
    else:
        raise InvalidInputError(f"target twist must be +1 or -1, got {target_f}")
    swapped = False
    if s_k is not None and (s_j, s_k) == (HALF, Fraction(0)):
        s_j, s_k = s_k, s_j
        n, m = m, n
        swapped = True
    row = next(
        (r for r in TWIST_TABLE
         if (r["s_j"], r["s_k"], r["f"]) == (s_j, s_k, f_exp)),
        None,
    )
    if row is None:
        raise InvalidInputError(
            f"no table row with spins ({s_j}, {s_k}) and twist {target_f}"
        )
    target_exp = f_exp
    orders = {"A": n, "B": m}
    for sym, need_even in zip("AB", row["even"]):
        val = orders[sym]
        if sym == "B" and row["k"] is None:
            continue
        if val is None or val < 2:
            raise InvalidInputError(f"order for factor {sym} must be >= 2")
        if need_even and val % 2:
            raise InvalidInputError(
                f"this row requires an even order, got {val}"
            )

    factors = []
    gens = []
    fixes = []
    for sym in row["factors"]:
        if sym == "I":
            factors.append(ising())
            gens.append("psi")
            fixes.append("sigma")
        else:
            md_f, gen, fix = _cyclic_factor(orders[sym])
            factors.append(md_f)
            gens.append(gen)
            fixes.append(fix)

    md = tensor(*factors)
    th = Theory(md)

    def current_id(word):
        label = tuple(
            gens[i] if ch in "JP" else factors[i].labels[0]
            for i, ch in enumerate(word)
        )
        return md.labels.index(label)

    jc = current_id(row["j"])
    kc = current_id(row["k"]) if row["k"] else None
    a = md.labels.index(tuple(fixes))

    # enumerate the group by generator powers; twists against composite
    # currents then follow from the generators by multiplicativity, so
    # only the generator bundles are ever needed
    nj = th.current_order(jc)
    nk = th.current_order(kc) if kc is not None else 1
    powers = {}
    for p in range(nj):
        for q in range(nk):
            g = th.center.power(jc, p)
            if kc is not None:
                g = th.center.mul(g, th.center.power(kc, q))
            powers[g] = (p, q)
    report = {
        "factors": [f.name for f in factors],
        "currents": {
            "J": {"id": jc, "label": md.labels[jc], "order": nj,
                  "spin": str(norm1(md.h[jc]))},
        },
        "test_field": {"id": a, "label": md.labels[a]},
        "group_size": len(powers),
        "swapped": swapped,
    }
    ok = len(powers) == nj * nk
    report["direct_product"] = ok

    fixed = all(th.apply(x, a) == a for x in powers)
    report["fixes_test_field"] = fixed
    ok = ok and fixed

    local = all(
        th.charge_exponent(x, y) == 0 for x in powers for y in powers
    )
    report["mutually_local"] = local
    ok = ok and local

    qj = {x: th.twist_exponent(a, x, jc) for x in powers}
    qk = {x: th.twist_exponent(a, x, kc) for x in powers} if kc is not None \
        else {x: Fraction(0) for x in powers}

    def twist(x, y):
        p, q = powers[y]
        return norm1(p * qj[x] + q * qk[x])

    spin_rule = all(
        twist(x, x) == norm1(md.h[x]) for x in powers if x
    )
    report["spin_rule"] = spin_rule
    ok = ok and spin_rule

    if kc is not None:
        report["currents"]["K"] = {
            "id": kc, "label": md.labels[kc], "order": nk,
            "spin": str(norm1(md.h[kc])),
        }
        cross = qk[jc]
        report["cross_twist"] = str(cross)
        report["cross_matches_target"] = cross == target_exp
        ok = ok and cross == target_exp

    # doubled diagonal group: integer spin, cancelling twists, U = S
    diag_spins = all(norm1(2 * md.h[x]) == 0 for x in powers)
    cancelling = all(
        norm1(2 * twist(x, y)) == 0 for x in powers for y in powers if y
    )
    report["diagonal_integer_spin"] = diag_spins
    report["diagonal_untwisted"] = cancelling
    ok = ok and diag_spins and cancelling

    gf = check_GF(th, a, currents=list(powers))
    report["gf"] = {"ok": gf["ok"], "pairs": gf["pairs"]}
    ok = ok and gf["ok"]

    report["ok"] = ok
    return report
