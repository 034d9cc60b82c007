"""Tensor-model oracles for the twist classification.

`realize_twist_row` builds, for one row of `TWIST_TABLE`, a tensor product
of su(n)_n and Ising factors whose two generating currents have the row's
self-spins and cross twist, and verifies the model: a direct product group
fixing a test field, mutually local, obeying the spin rule, integer-spin
and untwisted on the doubled diagonal, and passing `check_GF`, the eta
product law on one field read off the condition system's grids.
"""
from fractions import Fraction

import numpy as np

from fpres.currents import Theory
from fpres.errors import InvalidInputError
from fpres.modular import tensor
from fpres.phases import norm1
from fpres.validate import NA, _has_bundle, _product_law
from fpres.wzw import ising, sun
from oracles import grids

HALF = Fraction(1, 2)


def check_GF(theory: Theory, a: int, currents=None) -> dict:
    """Compare the eta product phase with the twist on one field."""
    elems = theory.center.elements
    if currents is None:
        currents = [x for x in elems if theory.apply(x, a) == a]
    # the grids of the condition report over `currents`, NA elsewhere
    have = [elems.index(x) for x in currents
            if theory.apply(x, a) == a and _has_bundle(theory, x)]
    tw = np.full((1, len(elems), len(elems)), NA, dtype=np.int64)
    eta = np.full((1, len(elems)), NA, dtype=np.int64)
    tw[:, :, have], eta[:, have] = grids(theory, [a], elems,
                                         [elems[y] for y in have])
    ids = np.array(elems)
    mul = np.searchsorted(ids, [theory.perms[x][ids] for x in elems])
    group = [elems.index(x) for x in currents if eta[0, elems.index(x)] != NA]
    j, k = np.array([(x, y) for x in group if x for y in group],
                    dtype=np.intp).reshape(-1, 2).T
    _, j, k, g, f = _product_law(theory, (mul, tw, eta), (a,),
                                  np.zeros_like(j), j, k)
    e = theory.eta_order
    fs = [str(Fraction(int(v), e)) for v in f]
    return {
        "field": a,
        "pairs": len(j),
        "ok": bool((g == f).all()),
        "failures": [{"current": elems[x], "translator": elems[y],
                      "G": str(Fraction(int(gr), e)), "F": fr}
                     for x, y, gr, fr, bad in zip(j, k, g, fs, g != f) if bad],
        "complex_twists": [{"current": elems[x], "translator": elems[y], "F": fr}
                           for x, y, fr, c in zip(j, k, fs, 2 * f % e) if c],
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
    nj = th.center.order_of(jc)
    nk = th.center.order_of(kc) if kc is not None else 1
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
        th.charges(x)[y] == 0 for x in powers for y in powers
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
