"""Reference constructions that only the tests use.

`fusion_matrix` is one field's Verlinde fusion matrix from the dense kernel
behind `modular.fusion_tensor`; `decompose` is the group
Z_{N_1} x ... x Z_{N_r} as a `MultGroup` over int tuples; `pointed` is the
modular data of such a group with a quadratic form, built independently of
the engine. `orbits_by_field` builds an extension's orbits with a set and a
sort per uncharged field, and `sampled_fusion_residual_by_sample` forms one
sampled fusion row per matrix-vector product: the loops that the array
passes of `extend.Extension` and `modular.sampled_fusion_residual` replaced.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from fpres.currents import NA
from fpres.errors import InvalidInputError
from fpres.extend import OrbitData, _all_zero
from fpres.groups import MultGroup
from fpres.modular import ModularData, _fusion_ints, _verlinde
from fpres.phases import unit


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
    grid = th.twist_grid(reps, h, h)
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
