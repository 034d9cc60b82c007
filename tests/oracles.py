"""Reference constructions that only the tests use.

`fusion_matrix` is one field's Verlinde fusion matrix from the dense kernel
behind `modular.fusion_tensor`; `decompose` is the group
Z_{N_1} x ... x Z_{N_r} as a `MultGroup` over int tuples; `pointed` is the
modular data of such a group with a quadratic form, built independently of
the engine. `orbits_by_field` builds an extension's orbits with a set and a
sort per uncharged field, and `sampled_fusion_residual_by_sample` forms one
sampled fusion row per matrix-vector product: the loops that the array
passes of `extend.Extension` and `modular.sampled_fusion_residual` replaced.
`fusion_scan_by_rows` is the full fusion scan over the rows b >= a, and for
a real S the columns c >= a, of each field a; `recombination_groups_by_bytes`
keys every rounded S row by its bytes; `dressing_by_orbit`,
`pi_map_by_orbit`, `relabelings_by_orbit` and `resolved_eta_by_orbit` are
the per-orbit loops of a resolution: the passes that `validate.check_fusion_integrality` and
`Extension.recombination_groups`, `_dressing`, `_relabelings` and
`_resolved_eta` replaced. `native` is a document with its ndarray leaves as
nested lists, as `modular.dump_json` writes them. `grids` spreads a
`Theory.layout` into dense (field, translator, current) grids, and
`orbit_representative` reads one orbit's class representative off
`Extension._representatives`.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from fpres.currents import NA
from fpres.errors import InvalidInputError, ResolutionError
from fpres.extend import GRID_TOL, OrbitData, _all_zero
from fpres.groups import MultGroup
from fpres.modular import ModularData, _fusion_ints, _verlinde, panels
from fpres.phases import unit, units


def native(doc):
    """`doc` with every ndarray leaf replaced by its `.tolist()`."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: native(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [native(v) for v in doc]
    return doc


def grids(th, fields, translators, currents):
    """(tw, eta): F(fields[i], translators[x], currents[y]) at tw[i, x, y]
    and eta^{currents[y]}(fields[i]) at eta[i, y], from `Theory.layout`; NA
    where currents[y] does not fix fields[i]."""
    at, tws, etas = th.layout(fields, translators, currents)
    return tws[at].transpose(0, 2, 1), etas[at]


def orbit_representative(ex, cls, o):
    """The class member fixing the orbit `o` and untwisted against its
    stabilizer, read off the orbit's section; None when the class has no
    such member there."""
    r = int(ex._representatives(cls, np.array([o.index]))[0])
    return None if r < 0 else r


def fusion_matrix(md: ModularData, a: int) -> np.ndarray:
    """Integer matrix (N_a)_b^c from the S-matrix sum over the spectrum."""
    return _fusion_ints(*next(_verlinde(md.s_dense(), [a])))


def decompose(orders) -> MultGroup:
    """Z_{N_1} x ... x Z_{N_r} over int tuples, added componentwise."""
    orders = tuple(int(n) for n in orders)
    if any(n < 1 for n in orders):
        raise InvalidInputError(f"orders must be >= 1, got {orders}")

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    return MultGroup(itertools.product(*(range(n) for n in orders)), add,
                     (0,) * len(orders))


def pointed(orders, q, c, name: str = "") -> ModularData:
    """The pointed theory on G = Z_{N_1} x ... x Z_{N_r} with quadratic form
    `q` (element tuple -> Fraction) and central charge `c`: h_a = q(a) mod 1
    and S_ab = exp(-2 pi i b(a, b)) / sqrt|G|, b(a, b) = q(a + b) - q(a) -
    q(b)."""
    g = decompose(orders)
    els = g.elements
    s = np.array([[unit(q(a) + q(b) - q(g.mul(a, b))) for b in els]
                  for a in els]) / math.sqrt(len(els))
    return ModularData(els, tuple(q(a) % 1 for a in els), Fraction(c), s,
                       name=name)


def orbits_by_field(th, h_gens, convention_seed=None):
    """(orbits, orbit_of): the `OrbitData` of the extension of the Theory
    `th` by the subgroup generated by `h_gens`, and a dict from each
    uncharged field to its orbit, found field by field."""
    rng = random.Random(convention_seed) if convention_seed is not None else None
    h = th.subgroup(h_gens)
    uncharged = np.ones(th.md.size, dtype=bool)
    for j in h[1:]:
        uncharged &= th.charges(j) == 0
    local = np.flatnonzero(uncharged).tolist()
    local_set = set(local)
    seen, reps, orbit_members = set(), [], []
    for a in local:
        if a in seen:
            continue
        members = sorted({th.apply(j, a) for j in h})
        if any(m not in local_set for m in members):
            raise InvalidInputError("subgroup charge is not constant on an orbit")
        seen.update(members)
        rep = members[0]
        if rng is not None and rep != 0:
            rep = rng.choice(members)
        reps.append(rep)
        orbit_members.append(tuple(members))
    grid, _ = grids(th, reps, h, h)
    stab = grid[:, 0] != NA
    unt = _all_zero(
        np.where(stab[:, :, None], grid, 0).transpose(0, 2, 1), stab,
        lambda i, y, x: th.twist_exponent(reps[i], h[x], h[y]))
    groups, orbits, next_id = {}, [], 0
    for i, rep in enumerate(reps):
        u = tuple(h[y] for y in np.flatnonzero(unt[i]))
        if u not in groups:
            groups[u] = MultGroup(u, th.center.mul, 0)
        labels = tuple(groups[u].char_labels())
        orbits.append(OrbitData(
            i, rep, orbit_members[i],
            tuple(h[y] for y in np.flatnonzero(stab[i])), u, groups[u],
            labels, tuple(range(next_id, next_id + len(labels)))))
        next_id += len(labels)
    return orbits, {m: o for o in orbits for m in o.members}


def sampled_fusion_residual_by_sample(md: ModularData, n_samples: int, rng):
    """`modular.sampled_fusion_residual` with one matrix-vector product per
    sampled pair (a, b), drawn a, then b."""
    resids = []
    for _ in range(n_samples):
        a, b = rng.randrange(md.size), rng.randrange(md.size)
        vec = md.s[a] * md.s[b] / md.s[0]
        col = (md.s @ vec.conj()).conj()
        resids.append(np.abs(col - np.rint(col.real)).max())
    return float(np.max(resids, initial=0.0))


def fusion_scan_by_rows(md: ModularData) -> dict:
    """The full-mode report of `validate.check_fusion_integrality` on an
    atomic S from one product per field a over the rows b >= a: every
    column c for a complex S, the columns c >= a for a real one."""
    s = md.s
    real = not s.imag.any()
    s = np.ascontiguousarray(s.real) if real else s
    sc = s.T if real else s.conj().T
    res, low = [], []
    for a in range(md.size):
        raw = (s[a:] * (s[a] / s[0])) @ (sc[:, a:] if real else sc)
        ints = np.rint(raw.real)
        res.append(float(np.abs(raw - ints).max()))
        low.append(ints.min())
    max_residual = float(np.max(res))
    min_entry = float(np.min(low, initial=0.0))
    return {"mode": "full", "max_residual": max_residual,
            "min_entry": min_entry,
            "ok": max_residual <= 1e-6 and min_entry >= 0}


def recombination_groups_by_bytes(s: np.ndarray):
    """Rows of s that agree on the GRID_TOL grid, keyed by the bytes of
    every rounded [Re | Im] row."""
    keys = {}
    n = s.shape[1]
    for p in panels(len(s)):
        part = s[p]
        grid = np.empty((len(part), 2 * n), dtype=np.int64)
        for half, x in enumerate((part.real, part.imag)):
            np.rint(x / GRID_TOL, out=grid[:, half * n:(half + 1) * n],
                    casting="unsafe")
        for i, row in enumerate(grid, p.start):
            keys.setdefault(row.tobytes(), []).append(i)
    return [g for g in keys.values() if len(g) > 1]


def dressing_by_orbit(ex, cls, orbits, rab, r_assign, phis) -> np.ndarray:
    """dress[i, b] = unit(phi_i + chi_i(r_ab / r_a)) for i on orbit a, one
    orbit at a time; phis[a] holds orbit a's closure phases over e N."""
    center = ex.theory.center
    n = cls.order
    den = n * math.lcm(*(o.ugroup.exponent() for o in orbits))
    sizes = [len(o.ext_ids) for o in orbits]
    nums = np.zeros((sum(sizes), len(orbits)), dtype=np.int64)
    start = 0
    for a, (o, phi) in enumerate(zip(orbits, phis)):
        table, e, col = o.ugroup.char_table()
        part = np.flatnonzero(rab[a] >= 0)
        pair = rab[a, part].tolist()
        inv_r = center.inverse(r_assign[o.rep])
        shift = {k: center.mul(cls.members[k], inv_r) for k in set(pair)}
        if not all(u in col for u in shift.values()):
            raise ResolutionError("pair representative differs from the "
                                  "orbit choice by a twisted element")
        d = e * n
        nums[start:start + sizes[a], part] = (
            table[:, [col[shift[k]] for k in pair]] * n + phi[:, None]
        ) % d * (den // d)
        start += sizes[a]
    return units(nums, den)


def pi_map_by_orbit(th, o, k_a, cbar, tw, eta) -> np.ndarray:
    """The character relabeling of one orbit as rows of its U_a table: row
    pi[i] is row i shifted by eta - tw, the rows of eta^u(cbar) and
    F(a, k_a, u) over u in U_a."""
    den = th.eta_order
    table, e, _ = o.ugroup.char_table()
    for u in np.array(o.unt)[(eta < 0) | (tw < 0)][:1].tolist():
        th.eta_exponent(u, cbar)
        th.twist_exponent(o.rep, k_a, u)
    shift = eta - tw * (den // th.snap_order)
    rows = table * (den // e)
    hit = (((rows + shift) % den)[:, None] == rows).all(axis=2)
    if not hit.any(axis=1).all():
        raise ResolutionError("conjugation data does not permute the "
                              "stabilizer characters")
    return hit.argmax(axis=1)


def relabelings_by_orbit(ex, orbits):
    """(k, cbar, pi) of each orbit, one orbit at a time: k indexes the
    first subgroup member k_a taking the rep to cbar, the conjugated rep of
    its conjugate orbit, and pi is `pi_map_by_orbit`."""
    th, h = ex.theory, ex.h_members
    conj = th.md.conjugation()
    reps = [o.rep for o in orbits]
    cbars = [int(conj[ex.orbit_of(int(conj[a])).rep]) for a in reps]
    ks = [next(x for x, k in enumerate(h) if th.apply(k, a) == c)
          for a, c in zip(reps, cbars)]
    elems = sorted(set().union(*(o.unt for o in orbits)))
    tws = grids(th, reps, h, elems)[0][np.arange(len(reps)), ks]
    etas = grids(th, cbars, [], elems)[1]
    pis = []
    for i, o in enumerate(orbits):
        cols = np.searchsorted(elems, o.unt)
        pis.append(pi_map_by_orbit(th, o, h[ks[i]], cbars[i], tws[i, cols],
                                   etas[i, cols]))
    return ks, cbars, pis


def resolved_eta_by_orbit(ex, cls, orbits, r_assign, phis) -> np.ndarray:
    """eta_i = eta^r(a) exp(2 pi i (-F(a, k_a, r) + phi_i - phi_pi(i))) for
    i on each orbit a, one orbit at a time, with k_a and pi from
    `relabelings_by_orbit`."""
    th, h, den = ex.theory, ex.h_members, ex.theory.eta_order
    ks, _, pis = relabelings_by_orbit(ex, orbits)
    nums, base = [], []
    for o, phi, k, pi in zip(orbits, phis, ks, pis):
        a, r = o.rep, r_assign[o.rep]
        f = th.twist_exponent(a, h[k], r)
        phi = phi * (den // (o.ugroup.exponent() * cls.order))
        nums.append(phi - phi[pi] - f.numerator * (den // f.denominator))
        base.append(np.full(len(phi), th.eta_value(r, a)))
    return np.concatenate(base) * units(np.concatenate(nums), den)
