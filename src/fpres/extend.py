"""Extension of a theory by an integer-spin subgroup of simple currents,
and resolution matrices for the extension's surviving currents.

The extended spectrum consists of subgroup orbits of uncharged fields;
orbits with a nontrivial untwisted stabilizer split into one field per
stabilizer character. The extended S matrix averages the current-twisted
matrices over the untwisted stabilizer intersection.

Surviving currents are subgroup cosets of uncharged currents. For each
such class of order N the resolution matrix on its fixed extended fields
combines a per-orbit class representative r, the characters chi_i of the
orbit's untwisted stabilizer U_a extended to <r, U_a> (chi_i(r u) =
phi_i + chi_i(u), with phi_i = chi_i(r^N) / N the principal root), and the
twisted matrices of the representative's translates.
A class and the class of the inverse current use inverse representatives.

The extended S and every resolution matrix come from one block kernel,
which adds each twisted block S^{r u}, gathered straight over the extended
fields of the orbit pairs that take it, into the one output array.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .currents import NA, FixedPointBundle, Theory
from .errors import InvalidInputError, ResolutionError
from .groups import MultGroup
from .modular import GATE_TOL, ModularData, dense_budget, panels
from .phases import norm1, units
from .validate import eta_square_residual

GRID_TOL = 1e-8  # S entries this close are equal: recombination, relabeling
FINGERPRINT_TOL = 1e-6  # the coarser grid of the relabeling candidates


@dataclass
class OrbitData:
    """One subgroup orbit of uncharged fields and its splitting data."""

    index: int
    rep: int
    members: tuple
    stab: tuple           # subgroup members fixing the orbit
    unt: tuple            # untwisted part of the stabilizer, ascending
    ugroup: MultGroup     # over unt: its elements, the char_table columns
    char_labels: tuple
    ext_ids: tuple        # extended field ids, one per character


@dataclass
class ResidualClass:
    """Coset of the extension subgroup inside the uncharged currents."""

    rep: int
    members: tuple
    order: int


@dataclass
class Resolution:
    """Resolved matrix of one surviving current class."""

    cls: ResidualClass
    bundle: FixedPointBundle          # over extended field ids
    r_assignments: dict               # orbit rep -> class member used
    eta_deviation: float              # worst |S^2 - eta C| entry


class Extension:
    """Extension of `theory` by the subgroup generated by `h_gens`."""

    def __init__(self, theory: Theory, h_gens, convention_seed=None):
        self.theory = theory
        self.rng = random.Random(convention_seed) if convention_seed is not None else None
        h = theory.subgroup(h_gens)
        # integer spin on a closed subgroup implies mutual locality
        for j in h:
            if norm1(theory.md.h[j]) != 0:
                raise InvalidInputError(
                    f"current {j} has spin {theory.md.h[j]}; the extension "
                    f"subgroup must have integer spin"
                )
        self.h_members = h
        self._build_orbits()
        self._build_quotient()
        dense_budget(self.n_ext ** 2, f"the extended S of {theory.md.name}")
        self._build_extended_md()
        self._ext_theory = None
        self._resolutions = {}
        self._r_cache = {}
        self._tables = {}

    # ------------------------------------------------------------------
    # spectrum

    def _build_orbits(self):
        th, h = self.theory, self.h_members
        n = th.md.size
        uncharged = self._uncharged = np.ones(n, dtype=bool)
        for j in h[1:]:
            uncharged &= th.charges(j) == 0
        local = np.flatnonzero(uncharged)
        # img[x, i]: h[x] applied to local[i]; H is a group, so each column
        # holds its field's orbit, and a column whose minimum is its own
        # field is the orbit of that smallest member
        img = np.stack([th.perms[j][local] for j in h])
        if not uncharged[img].all():
            raise InvalidInputError("subgroup charge is not constant on an orbit")
        low = img.min(axis=0)
        first = low == local
        # the orbits in ascending order of their smallest members, vacuum
        # first, as are the ext_ids; members sorted and deduplicated
        srt = np.sort(img[:, first], axis=0).T
        keep = np.ones(srt.shape, dtype=bool)
        keep[:, 1:] = srt[:, 1:] != srt[:, :-1]
        flat = srt[keep].tolist()
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        orbit_members = [tuple(flat[lo:hi])
                         for lo, hi in zip([0] + ends[:-1], ends)]
        reps = [m[0] for m in orbit_members]
        if self.rng is not None:
            reps = [r if r == 0 else self.rng.choice(m)
                    for r, m in zip(reps, orbit_members)]
        self._orbit_idx = np.full(n, -1, dtype=np.intp)
        self._orbit_idx[local] = (np.cumsum(first) - 1)[
            np.searchsorted(local, low)]
        # F(reps[i], h[x], h[y]), NA where h[y] moves reps[i] (h[0] = 1); U_a
        # holds h[y] when its twist against every stabilizer member vanishes
        grid = th.twist_grid(reps, h, h)
        stab = grid[:, 0] != NA
        unt = self._unt = _all_zero(  # [orbit, y]: h[y] in U_a
            np.where(stab[:, :, None], grid, 0).transpose(0, 2, 1), stab,
            lambda i, y, x: th.twist_exponent(reps[i], h[x], h[y]))
        # one (stab, U_a, its MultGroup, character labels) per distinct row
        # pattern of stab and unt, one MultGroup per distinct U_a
        patterns = np.concatenate((stab, unt), axis=1)
        groups, shapes = {}, {}
        self.orbits, next_id = [], 0
        for i, (rep, members, row) in enumerate(
                zip(reps, orbit_members, patterns)):
            key = row.tobytes()
            if key not in shapes:
                u = tuple(h[y] for y in np.flatnonzero(unt[i]))
                if u not in groups:
                    groups[u] = MultGroup(u, th.center.mul, 0)
                shapes[key] = (tuple(h[y] for y in np.flatnonzero(stab[i])),
                               u, groups[u], tuple(groups[u].char_labels()))
            size = len(shapes[key][3])
            self.orbits.append(OrbitData(i, rep, members, *shapes[key],
                                         tuple(range(next_id, next_id + size))))
            next_id += size
        self.n_ext = next_id

    def orbit_of(self, base_field: int) -> OrbitData:
        if not 0 <= base_field < len(self._orbit_idx) or (
                self._orbit_idx[base_field] < 0):
            raise InvalidInputError(
                f"field {base_field} is charged under the subgroup")
        return self.orbits[self._orbit_idx[base_field]]

    def _build_extended_md(self):
        md = self.theory.md
        n = len(self.orbits)
        s = self._block_kernel(
            self.orbits, np.broadcast_to(np.intp(0), (n, n)), (0,))
        labels = []
        h = []
        for o in self.orbits:
            for lab in o.char_labels:
                labels.append((md.labels[o.rep], lab))
                h.append(md.h[o.rep])
        self.ext_md = ModularData(
            tuple(labels), tuple(h), md.c, s,
            name=f"{md.name} / ext{len(self.h_members)}",
        )

    def _block_kernel(self, orbits, rab, members, dress=None) -> np.ndarray:
        """The twisted block sum behind both the extended S and every
        resolution matrix, over the extended fields of `orbits` in order.
        For i on orbit a and j on orbit b, with r = members[rab[a, b]],

            M[i, j] = |H| / sqrt(|S_a| |U_a| |S_b| |U_b|)
                      * sum_{u in U_a & U_b} chi_i(u) S^{r u}_{a b} conj chi_j(u)
                      * dress[i, b] * conj dress[j, a],

        S_o and U_o being the stabilizer and its untwisted part. Pairs with
        rab < 0 get a zero block; dress None means no dressing.
        """
        th = self.theory
        n = len(orbits)
        if not n:
            return np.zeros((0, 0), dtype=complex)
        reps = np.array([o.rep for o in orbits], dtype=np.intp)
        eo = np.repeat(np.arange(n), [len(o.ext_ids) for o in orbits])
        elems, has, chars = self._char_columns(orbits, eo)
        m = len(eo)
        out = None
        # one term per u = elems[k] in ascending order (the order of the float
        # sums) and class member r: S^{r u} over the fields of the orbit pairs
        # whose U_a hold u and that take r; the first term sets `out`
        for k, u in enumerate(elems):
            sel = np.flatnonzero(has[:, k])
            sub = rab if len(sel) == n else rab[np.ix_(sel, sel)]
            fields = np.flatnonzero(has[eo, k])
            loc = np.searchsorted(sel, eo[fields])  # each field's orbit in sel
            for x, r in enumerate(members):
                pick = sub == x
                on_r, on_c = pick.any(axis=1)[loc], pick.any(axis=0)[loc]
                if not on_r.any():
                    continue
                fr, fc = fields[on_r], fields[on_c]
                block = th.bundle_block(th.center.mul(r, u),
                                        reps[eo[fr]].tolist(),
                                        reps[eo[fc]].tolist())
                if not pick.all():
                    block = np.where(pick[np.ix_(loc[on_r], loc[on_c])], block, 0)
                if k:
                    block = (chars[fr, k][:, None] * block) * chars[fc, k].conj()
                if out is None and block.shape == (m, m):
                    # every bundle_block branch returns a fresh array, so
                    # `out` may own it; += 0.0 gives 0.0 + block bit for
                    # bit, signed zeros included
                    out = block
                    out += 0.0
                    continue
                if out is None:
                    out = np.zeros((m, m), dtype=complex)
                out[np.ix_(fr, fc)] += block
        weight = np.array([len(o.stab) * len(o.unt) for o in orbits],
                          dtype=float)[eo]
        for p in panels(m):
            w = np.multiply.outer(weight[p], weight)
            np.sqrt(w, out=w)
            np.divide(len(self.h_members), w, out=w)
            out[p] *= w
        if dress is not None:
            d = dress[:, eo]
            out = out * d * d.T.conj()
            # a dressed zero block may carry signed zeros
            out[rab[np.ix_(eo, eo)] < 0] = 0
        return out

    def _char_columns(self, orbits, eo):
        """The union of the orbits' untwisted stabilizers in ascending order
        (the identity first), has[a, k] for elems[k] in U_a, and the
        character table chars[i, k] = chi_i(elems[k]), read only where
        elems[k] lies in the U_a of the orbit a of field i."""
        elems = sorted(set().union(*(o.unt for o in orbits)))
        col = {u: k for k, u in enumerate(elems)}
        den = math.lcm(*(o.ugroup.exponent() for o in orbits))
        nums = np.zeros((len(eo), len(elems)), dtype=np.int64)
        has = np.zeros((len(orbits), len(elems)), dtype=bool)
        has[:, col[0]] = True
        start = 0
        for a, o in enumerate(orbits):
            if len(o.unt) > 1:
                table, e, _ = o.ugroup.char_table()
                ks = [col[u] for u in o.unt]
                has[a, ks] = True
                nums[start:start + len(o.ext_ids), ks] = table * (den // e)
            start += len(o.ext_ids)
        return elems, has, units(nums, den)

    # ------------------------------------------------------------------
    # surviving currents

    def extended_theory(self, extra_bundles=()) -> Theory:
        if self._ext_theory is None or extra_bundles:
            self._ext_theory = Theory(self.ext_md, extra_bundles=extra_bundles)
        return self._ext_theory

    def _build_quotient(self):
        """The cosets of H in the uncharged currents, keyed by their smallest
        members, and `quotient`, the group of those keys."""
        center, cosets, rep_of = self.theory.center, {}, {}
        for j in [x for x in center.elements if self._uncharged[x]]:
            members = tuple(sorted(center.mul(j, k) for k in self.h_members))
            rep_of[j] = members[0]
            cosets[members[0]] = members
        self.quotient = q = MultGroup(
            cosets, lambda a, b: rep_of[center.mul(a, b)], 0)
        self._classes = {rep: ResidualClass(rep, cosets[rep], q.order_of(rep))
                         for rep in q.elements}

    def residual_classes(self):
        """The cosets of H in the uncharged currents, by ascending rep."""
        return list(self._classes.values())

    def class_current_ext_id(self, cls: ResidualClass) -> int:
        """Extended field carrying the class: the orbit of its members."""
        o = self.orbit_of(cls.rep)
        if len(o.ext_ids) != 1:
            raise ResolutionError("a current class sits on a split orbit")
        return o.ext_ids[0]

    # ------------------------------------------------------------------
    # class representatives on orbits

    def _class_tables(self, cls: ResidualClass):
        """(fix, good, fixed), once per class from the twists F(rep of a,
        member x, h[y]): the member fixes the rep, and for good is untwisted
        against the stabilizer; the class fixes the orbit's extended fields,
        its first member fixing the rep being untwisted against U_a."""
        tables = self._tables.get(cls.rep)
        if tables is None:
            th, h, xs = self.theory, self.h_members, cls.members
            reps = [o.rep for o in self.orbits]
            fix = np.stack([th.perms[x][reps] == reps for x in xs], axis=1)
            grid = th.twist_grid(reps, xs, h)  # NA outside the stabilizer
            good = _all_zero(np.where(grid == NA, 0, grid), fix, lambda i, x, y:
                             th.twist_exponent(reps[i], xs[x], h[y]))
            first = fix.argmax(axis=1)
            fixed = _all_zero(
                np.where(self._unt, grid[np.arange(len(reps)), first], 0),
                fix.any(axis=1), lambda i, y:
                th.twist_exponent(reps[i], xs[first[i]], h[y]))
            tables = self._tables[cls.rep] = (fix, good, fixed)
        return tables

    def orbit_representative(self, cls: ResidualClass, o: OrbitData):
        """Class member fixing the orbit and untwisted against its
        stabilizer; None when the class moves the orbit. Conjugate orbits
        share one choice, and the class of the inverse current takes the
        inverse of the choice of the class with the smaller rep."""
        key = (cls.rep, o.index)
        if key in self._r_cache:
            return self._r_cache[key]
        th = self.theory
        good = self._class_tables(cls)[1][o.index]
        inv_cls = self._classes[self.quotient.inverse(cls.rep)]
        partner = self.orbit_of(int(th.md.conjugation()[o.rep]))
        if inv_cls.rep < cls.rep:
            r = self.orbit_representative(inv_cls, o)
            r = None if r is None else th.center.inverse(r)
        elif partner.index < o.index:
            r = self.orbit_representative(cls, partner)
        else:
            cands = [x for x, ok in zip(cls.members, good) if ok]
            if not cands:
                r = None
            elif self.rng is not None:
                r = self.rng.choice(cands)
            else:
                r = cands[0]
        if r is not None and not good[cls.members.index(r)]:
            raise ResolutionError(
                f"linked representative {r} fails on orbit of {o.rep}"
            )
        self._r_cache[key] = r
        return r

    def _pair_representatives(self, cls: ResidualClass, orbits) -> np.ndarray:
        """rab[a, b]: index of the first class member good on both orbits,
        -1 where there is none."""
        good = self._class_tables(cls)[1][[o.index for o in orbits]]
        both = good[:, None, :] & good[None, :, :]
        return np.where(both.any(axis=2), both.argmax(axis=2), -1)

    # ------------------------------------------------------------------
    # resolution

    def resolve(self, cls: ResidualClass) -> Resolution:
        if cls.rep in self._resolutions:
            return self._resolutions[cls.rep]
        if cls.order == 1:
            raise InvalidInputError("the trivial class needs no resolution")
        th = self.theory
        support_orbits = [o for o, fixed in zip(
            self.orbits, self._class_tables(cls)[2]) if fixed]
        support = tuple(e for o in support_orbits for e in o.ext_ids)
        r_assign = {}
        phis = []
        for o in support_orbits:
            r = self.orbit_representative(cls, o)
            if r is None:
                raise ResolutionError(
                    f"no untwisted representative on the orbit of {o.rep}"
                )
            r_assign[o.rep] = r
            closure = th.center.power(r, cls.order)
            if closure not in o.unt:
                raise ResolutionError(
                    f"representative closure {closure} left the untwisted "
                    f"stabilizer of {o.rep}"
                )
            # phi_i = chi_i(r^N) / N, over e N
            table, _, col = o.ugroup.char_table()
            phis.append(table[:, col[closure]])
        rab = self._pair_representatives(cls, support_orbits)
        dress = self._dressing(cls, support_orbits, rab, r_assign, phis)
        mat = self._block_kernel(support_orbits, rab, cls.members, dress)
        eta, dev = self._resolved_eta(cls, support_orbits, support, mat,
                                      r_assign, phis)
        bundle = FixedPointBundle(
            self.class_current_ext_id(cls), support, mat, eta
        )
        res = Resolution(cls, bundle, r_assign, dev)
        self._resolutions[cls.rep] = res
        return res

    def _dressing(self, cls, orbits, rab, r_assign, phis) -> np.ndarray:
        """dress[i, b] = unit(phi_i + chi_i(r_ab / r_a)) for i on orbit a,
        with r_a the orbit's representative and r_ab the pair's: the
        extended character of <r_a, U_a> at r_ab, exact exponents over one
        denominator."""
        center = self.theory.center
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
            # r_ab / r_a fixes the orbit, so it lies in U_a exactly when it
            # is untwisted
            if not all(u in col for u in shift.values()):
                raise ResolutionError(
                    "pair representative differs from the orbit choice by a "
                    "twisted element"
                )
            # reduced mod 1: `units` evaluates each exponent as written
            d = e * n
            nums[start:start + sizes[a], part] = (
                table[:, [col[shift[k]] for k in pair]] * n + phi[:, None]
            ) % d * (den // d)
            start += sizes[a]
        return units(nums, den)

    def _resolved_eta(self, cls, support_orbits, support, mat, r_assign,
                      phis):
        """eta_i = eta^r(a) exp(2 pi i (-F(a, k_a, r) + phi_i - phi_pi(i)))
        for i on support orbit a, with k_a the subgroup member taking a to
        the representative of its conjugate orbit and phi_i = chi_i(r^N) / N,
        in support order. The exponents are numerators over `eta_order`,
        which every phi and F denominator divides."""
        if not support_orbits:
            return np.zeros(0, dtype=complex), 0.0
        th, h, den = self.theory, self.h_members, self.theory.eta_order
        conj = th.md.conjugation()
        reps = [o.rep for o in support_orbits]
        cbars = [int(conj[self.orbit_of(int(conj[a])).rep]) for a in reps]
        ks = [next(x for x, k in enumerate(h) if th.apply(k, a) == c)
              for a, c in zip(reps, cbars)]
        elems = sorted(set().union(*(o.unt for o in support_orbits)))
        tws = th.twist_grid(reps, h, elems)[np.arange(len(reps)), ks]
        etas = th.eta_grid(cbars, elems)
        nums, base = [], []
        for i, (o, phi) in enumerate(zip(support_orbits, phis)):
            a, r, cbar, k_a = o.rep, r_assign[o.rep], cbars[i], h[ks[i]]
            f = th.twist_exponent(a, k_a, r)
            phi = phi * (den // (o.ugroup.exponent() * cls.order))
            cols = np.searchsorted(elems, o.unt)
            pi = self._pi_map(o, k_a, cbar, tws[i, cols], etas[i, cols])
            nums.append(phi - phi[pi] - f.numerator * (den // f.denominator))
            base.append(np.full(len(phi), th.eta_value(r, a)))
        eta = np.concatenate(base) * units(np.concatenate(nums), den)
        # cross-check the defining square relation on the extended theory
        paired = eta_square_residual(mat @ mat, eta, support,
                                     self.ext_md.conjugation())
        if paired is None:
            raise ResolutionError("resolved support is not closed under conjugation")
        dev = float(np.abs(paired[1]).max())
        if dev > GATE_TOL:
            raise ResolutionError(
                f"resolved matrix square deviates from its eta pairing "
                f"by {dev:.2e}"
            )
        return eta, dev

    def _pi_map(self, o: OrbitData, k_a, cbar, tw, eta) -> np.ndarray:
        """Character relabeling of the translation to the conjugate
        representative, as rows of `o.ugroup.char_table()`: row pi[i] is row i
        shifted on U_a by eta - tw, the grid rows of eta^u(cbar), F(a, k_a, u)."""
        th = self.theory
        den = th.eta_order
        table, e, _ = o.ugroup.char_table()
        for u in np.array(o.unt)[(eta < 0) | (tw < 0)][:1].tolist():
            th.eta_exponent(u, cbar)  # the first marked u raises
            th.twist_exponent(o.rep, k_a, u)
        shift = eta - tw * (den // th.snap_order)
        rows = table * (den // e)
        hit = (((rows + shift) % den)[:, None] == rows).all(axis=2)
        if not hit.any(axis=1).all():
            raise ResolutionError("conjugation data does not permute the "
                                  "stabilizer characters")
        return hit.argmax(axis=1)

    # ------------------------------------------------------------------
    # reporting

    def recombination_groups(self):
        """Extended fields whose S rows agree on the GRID_TOL grid, the rows
        rounded to int64 as [Re | Im] once per panel."""
        s, keys = self.ext_md.s, {}
        n = s.shape[1]
        for p in panels(len(s)):
            part = s[p]
            grid = np.empty((len(part), 2 * n), dtype=np.int64)
            scaled = np.empty(part.shape)
            for half, x in enumerate((part.real, part.imag)):
                np.divide(x, GRID_TOL, out=scaled)
                np.rint(scaled, out=grid[:, half * n:(half + 1) * n],
                        casting="unsafe")
            for i, row in enumerate(grid, p.start):
                keys.setdefault(row.tobytes(), []).append(i)
        return [g for g in keys.values() if len(g) > 1]

    def report(self) -> dict:
        fixed = [o for o in self.orbits if len(o.stab) > 1]
        classes = self.residual_classes()
        return {
            "base_fields": self.theory.md.size,
            "subgroup_size": len(self.h_members),
            "uncharged_fields": sum(len(o.members) for o in self.orbits),
            "orbits": len(self.orbits),
            "split_orbits": len(fixed),
            "extended_fields": self.n_ext,
            "residual_classes": [
                {"rep": c.rep, "order": c.order} for c in classes
            ],
            "possible_recombination": self.recombination_groups(),
        }


def extend(theory: Theory, h_gens, convention_seed=None) -> Extension:
    return Extension(theory, h_gens, convention_seed=convention_seed)


def _all_zero(cells, active, raise_at) -> np.ndarray:
    """all(F == 0 for F in row) along the last axis of `cells` where
    `active`, read as a loop stops: at its first nonzero entry; the first
    active row stopping at a mark (< 0) calls raise_at(*row, entry)."""
    at = (cells != 0).argmax(axis=-1)
    stop = np.take_along_axis(cells, at[..., None], axis=-1)[..., 0]
    for row in np.argwhere(active & (stop < 0))[:1].tolist():
        raise_at(*row, int(at[tuple(row)]))
    return active & (stop == 0)


# ---------------------------------------------------------------------------
# relabeling search between two realizations of the same theory


def match_fields(md1: ModularData, md2: ModularData):
    """Permutation p with md2 = p(md1): exact T match, S match to GRID_TOL.

    Candidate sets start from the T exponent and the sorted row magnitudes,
    then shrink by comparing S entries against already matched fields.
    Remaining ambiguity is settled by backtracking.

    Raises InvalidInputError when the theories cannot be matched.
    """
    if md1.size != md2.size or md1.c != md2.c:
        raise InvalidInputError("field counts or central charges differ")
    n = md1.size
    t1 = [md1.t_exponent(a) for a in range(n)]
    t2 = [md2.t_exponent(a) for a in range(n)]
    s1 = md1.s_dense()
    s2 = md2.s_dense()

    def fingerprint(s, a):
        return tuple(sorted(np.round(np.abs(s[a]) / FINGERPRINT_TOL).astype(np.int64)))

    fp2 = {}
    for b in range(n):
        fp2.setdefault((t2[b], fingerprint(s2, b)), []).append(b)
    cand = []
    for a in range(n):
        cand.append(set(fp2.get((t1[a], fingerprint(s1, a)), ())))
        if not cand[a]:
            raise InvalidInputError("field invariants do not match")

    def propagate(cand, pairs):
        if len(set(pairs.values())) != len(pairs):
            return False
        queue = list(pairs.items())
        while queue:
            x, y = queue.pop()
            for a in range(n):
                if a in pairs:
                    continue
                keep = {b for b in cand[a] if abs(s1[a, x] - s2[b, y]) <= GRID_TOL}
                if not keep:
                    return False
                if len(keep) == 1 and len(cand[a]) > 1:
                    b = next(iter(keep))
                    if b in pairs.values():
                        return False
                    pairs[a] = b
                    queue.append((a, b))
                cand[a] = keep
        used = set(pairs.values())
        for a in range(n):
            if a not in pairs and cand[a] <= used:
                return False
        return True

    def search(cand, pairs):
        if not propagate(cand, pairs):
            return None
        open_fields = [a for a in range(n) if a not in pairs]
        if not open_fields:
            return pairs
        a = min(open_fields, key=lambda x: len(cand[x]))
        used = set(pairs.values())
        for b in sorted(cand[a] - used):
            c2 = [set(c) for c in cand]
            c2[a] = {b}
            p2 = dict(pairs)
            p2[a] = b
            got = search(c2, p2)
            if got is not None:
                return got
        return None

    seed = {a: next(iter(cand[a])) for a in range(n) if len(cand[a]) == 1}
    got = search([set(c) for c in cand], dict(seed))
    if got is None:
        raise InvalidInputError("no relabeling matches the S matrices")
    perm = np.array([got[a] for a in range(n)], dtype=np.intp)
    if len(set(got.values())) != n:
        raise InvalidInputError("matched assignment is not a permutation")
    if np.abs(s2[perm][:, perm] - s1).max() > GRID_TOL:
        raise InvalidInputError("matched permutation fails the S check")
    for a in range(n):
        if t1[a] != t2[perm[a]]:
            raise InvalidInputError("matched permutation fails the T check")
    return perm
