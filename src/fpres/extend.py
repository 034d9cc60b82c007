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
phi_i + chi_i(u)), and the twisted matrices of the representative's
translates (Fuchs, Schellekens and Schweigert, "A matrix S for all simple
current extensions", Nucl. Phys. B 473, 1996). Every orbit has one
section, shared by all classes: a good member r_b, of order n_b modulo
the subgroup, for each basis class b of the group of classes with a good
member on the orbit. A class with coordinates k there takes r = prod_b
r_b^{k_b}, so representatives multiply, and phi_i = sum_b k_b
chi_i(r_b^{n_b}) / n_b, the extension of chi_i to <U_a, r_b> at r, so the
inverse class takes the inverse phase.

The extended S and every resolution matrix come from one block kernel,
which adds each twisted block S^{r u}, gathered straight over the extended
fields of the orbit pairs that take it, into the one output array.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .currents import FixedPointBundle, Theory
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
class _Sections:
    """Per-orbit resolution data shared by every class (`Extension._sections`)."""

    gpat: np.ndarray      # [orbit] its section's group in `groups`
    groups: list          # MultGroup over quotient class reps
    orders: np.ndarray    # [group, b] n_b, 1 past the group's rank
    basis: np.ndarray     # [orbit, b] r_b, the identity past the rank
    closure: np.ndarray   # [orbit, b] column of r_b^{n_b} in the U_a table
    cols: np.ndarray      # [U_a, center position] table column, -1 outside
    k: np.ndarray         # [orbit] index of k_a in the subgroup
    cbar: np.ndarray      # [orbit] the conjugated rep of the conjugate orbit
    pi: np.ndarray        # [orbit, i] the character relabeling
    fail: np.ndarray      # [orbit] 1: a marked eta or twist, 2: no relabeling


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
        self._tables = {}
        self._section = None

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
        # F(reps[i], h[x], h[y]) at tws[at[i, y], x], at < 0 where h[y] moves
        # reps[i] (h[0] = 1); U_a holds h[y] when its twist against every
        # stabilizer member vanishes
        at, tws, _ = th.layout(reps, h, h)
        stab = at >= 0
        unt = self._unt = _all_zero(  # [orbit, y]: h[y] in U_a
            tws[at], stab,
            lambda i, y, x: th.twist_exponent(reps[i], h[x], h[y]))
        # one (stab, U_a, its MultGroup, character labels) per distinct row
        # pattern of stab and unt, one MultGroup per distinct U_a; _upat[i]
        # is the position of orbit i's U_a in _ugroups
        patterns = np.concatenate((stab, unt), axis=1)
        groups, shapes, upat = {}, {}, []
        self.orbits, next_id = [], 0
        for i, (rep, members, row) in enumerate(
                zip(reps, orbit_members, patterns)):
            key = row.tobytes()
            if key not in shapes:
                u = tuple(h[y] for y in np.flatnonzero(unt[i]))
                if u not in groups:
                    groups[u] = len(groups), MultGroup(u, th.center.mul, 0)
                shapes[key] = (tuple(h[y] for y in np.flatnonzero(stab[i])),
                               u, groups[u][1],
                               tuple(groups[u][1].char_labels())), groups[u][0]
            shape, p = shapes[key]
            upat.append(p)
            self.orbits.append(OrbitData(i, rep, members, *shape, tuple(
                range(next_id, next_id + len(shape[3])))))
            next_id += len(shape[3])
        self._ugroups = [g for _, g in groups.values()]
        self._upat = np.array(upat, dtype=np.intp)
        self._reps = np.array(reps, dtype=np.intp)
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
            sub = rab if len(sel) == n else rab[sel[:, None], sel]
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
                    block = np.where(pick[loc[on_r, None], loc[on_c]], block, 0)
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
                out[fr[:, None], fc] += block
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
            out[rab[eo[:, None], eo] < 0] = 0
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
        """(fix, good, fixed) of the class, from `_build_class_tables`."""
        if cls.rep not in self._tables:
            self._build_class_tables([cls])
        return self._tables[cls.rep]

    def _build_class_tables(self, classes):
        """(fix, good, fixed) of each class, from one grid of the twists
        F(rep of a, member x, h[y]): the member fixes the rep, and for good
        is untwisted against the stabilizer; the class fixes the orbit's
        extended fields, its first member fixing the rep being untwisted
        against U_a. Every class has |H| members."""
        th, h, reps = self.theory, self.h_members, self._reps
        xs = [x for c in classes for x in c.members]
        if not xs:
            return
        n, m = len(reps), len(h)
        fix = np.stack([th.perms[x][reps] == reps for x in xs], axis=1)
        # F(reps[i], xs[x], h[y]) at [i, x, y], 0 where h[y] moves reps[i]
        at, tws, _ = th.layout(reps, xs, h)
        grid = np.where(at[:, :, None] < 0, 0, tws[at]).transpose(0, 2, 1)
        good = _all_zero(grid, fix, lambda i, x, y:
                         th.twist_exponent(reps[i], xs[x], h[y]))
        fixes = fix.reshape(n, len(classes), m)
        first = fixes.argmax(axis=2) + m * np.arange(len(classes))
        fixed = _all_zero(
            np.where(self._unt[:, None], grid[np.arange(n)[:, None], first], 0),
            fixes.any(axis=2), lambda i, c, y:
            th.twist_exponent(reps[i], xs[first[i, c]], h[y]))
        for c, cls in enumerate(classes):
            part = slice(c * m, (c + 1) * m)
            self._tables[cls.rep] = fix[:, part], good[:, part], fixed[:, c]

    def _sections(self) -> "_Sections":
        """The per-orbit sections, built once for every class. An orbit's
        section is the group g of quotient classes with a good member on it,
        one good member r_b per basis class b of g (the convention seed picks
        it, else the first) and the column of its closure r_b^{n_b} in the
        U_a character table; conjugate orbits share the section of the one
        with the smaller index. Beside it each orbit keeps its conjugation
        data: the subgroup member k_a taking its rep to cbar, the rep of
        its conjugate orbit conjugated, and the character relabeling pi of
        `_relabelings`."""
        if self._section is not None:
            return self._section
        th, q, reps = self.theory, self.quotient, self._reps
        z = th.center
        n = len(self.orbits)
        conj = th.md.conjugation()
        partner = self._orbit_idx[conj[reps]]
        owner = np.minimum(np.arange(n), partner)
        classes = [self._classes[c] for c in q.elements[1:]]
        self._build_class_tables(
            [c for c in classes if c.rep not in self._tables])
        goods = {c.rep: self._tables[c.rep][1][owner] for c in classes}
        inside = np.zeros((n, len(classes)), dtype=bool)
        for y, c in enumerate(classes):
            inside[:, y] = goods[c.rep].any(axis=1)
        shapes, gpat = np.unique(inside, axis=0, return_inverse=True)
        gpat = gpat.reshape(n)
        groups = [MultGroup([0] + [c.rep for c, on in zip(classes, row) if on],
                            q.mul, 0) for row in shapes]
        rank = max(len(g.orders) for g in groups)
        m = len(self.h_members)
        orders = np.ones((len(groups), rank), dtype=np.int64)
        # good[a, b, x]: member x of the basis class b of the section of a
        # is good on the orbit, an empty class past the rank whose member
        # is the identity
        good = np.zeros((n, rank, m), dtype=bool)
        members = np.zeros((n, rank, m), dtype=np.intp)
        for p, g in enumerate(groups):
            orders[p, :len(g.orders)] = g.orders
            on = np.flatnonzero(gpat == p)
            for b, cb in enumerate(g.basis):
                good[on, b] = goods[cb][on]
                members[on, b] = self._classes[cb].members
        # r_b is the first good member, or the seed's draw among them as
        # `random.choice` draws, orbit by orbit
        draw = np.zeros((n, rank), dtype=np.intp)
        if self.rng is not None:
            own = owner == np.arange(n)
            count = good.sum(axis=2) * own[:, None]
            draw[count > 0] = [self.rng.randrange(c)
                               for c in count[count > 0].tolist()]
        pick = (good.cumsum(axis=2) > draw[:, :, None]).argmax(axis=2)
        basis = np.take_along_axis(members, pick[:, :, None], axis=2)[
            :, :, 0][owner]
        zpos = self._zpos = np.full(th.md.size, -1, dtype=np.intp)
        zpos[list(z.elements)] = np.arange(z.size)
        # closure columns in each orbit's own U_a table, -1 outside U_a
        cols = np.full((len(self._ugroups), z.size), -1, dtype=np.intp)
        for p, g in enumerate(self._ugroups):
            cols[p, zpos[list(g.elements)]] = np.arange(g.size)
        zc = z.coordinate_rows()
        closure = z.positions(zc[zpos[basis]] * orders[gpat][:, :, None])
        self._section = _Sections(
            gpat, groups, orders, basis, cols[self._upat[:, None], closure],
            cols, *self._relabelings(reps, conj[reps[partner]]))
        return self._section

    def _relabelings(self, reps, cbar):
        """(k, cbar, pi, fail) per orbit: k[a] indexes the subgroup member
        k_a with k_a(a) = cbar[a], and pi[a] is the character relabeling of
        the translation to the conjugate representative, as rows of the U_a
        character table: row pi[i] is row i shifted by the U_a character
        eta^u(cbar) - F(a, k_a, u). fail[a] is 1 where an eta or twist
        entry on U_a is marked and 2 where the shift is no character."""
        th, h = self.theory, self.h_members
        den = th.eta_order
        img = np.stack([th.perms[j][reps] for j in h])
        k = (img == cbar).argmax(axis=0)
        ks = np.unique(k)
        elems = sorted(set().union(*(g.elements for g in self._ugroups)))
        at, tws, _ = th.layout(reps, [h[x] for x in ks.tolist()], elems)
        tws = tws[at, np.searchsorted(ks, k)[:, None]]
        at, _, etas = th.layout(cbar, [], elems)
        etas = etas[at]
        pi = np.zeros((len(reps), max(g.size for g in self._ugroups)),
                      dtype=np.intp)
        fail = np.zeros(len(reps), dtype=np.int8)
        for p, g in enumerate(self._ugroups):
            on = np.flatnonzero(self._upat == p)
            cols = np.searchsorted(elems, g.elements)
            tw, eta = tws[np.ix_(on, cols)], etas[np.ix_(on, cols)]
            table, e, col = g.char_table()
            shift = (eta - tw * (den // th.snap_order)) % den
            # a character's values on the basis are its label over den
            label = shift[:, [col[b] for b in g.basis]] * np.array(
                g.orders, dtype=np.int64)
            s = g.label_index(label // den)
            ok = (label % den == 0).all(axis=1) & (
                table[s] * (den // e) == shift).all(axis=1)
            labels = np.array(list(g.char_labels()), dtype=np.int64).reshape(
                g.size, -1)
            pi[on, :g.size] = g.label_index(labels[None, :] + labels[s][:, None])
            fail[on] = np.where(((eta < 0) | (tw < 0)).any(axis=1), 1,
                                np.where(ok, 0, 2))
        return k, cbar, pi, fail

    def _class_coordinates(self, cls: ResidualClass):
        """k[p] = the coordinates of the class in section group p, zero past
        its rank, and inside[p] whether the class lies in that group."""
        sec = self._sections()
        k = np.zeros(sec.orders.shape, dtype=np.int64)
        inside = np.zeros(len(sec.groups), dtype=bool)
        for p, g in enumerate(sec.groups):
            if cls.rep in g.coords:
                k[p, :len(g.orders)] = g.coords[cls.rep]
                inside[p] = True
        return k, inside

    def _representatives(self, cls: ResidualClass, idx) -> np.ndarray:
        """r_c = prod_b r_b^{k_b} on each orbit of `idx` from its section,
        with k the coordinates of the class in the section's group; -1 where
        the class has no good member on the section. Representatives so
        multiply, and the inverse class takes the inverse up to closures."""
        sec, z = self._sections(), self.theory.center
        k, inside = self._class_coordinates(cls)
        p = sec.gpat[idx]
        zc = z.coordinate_rows()
        exps = (k[p][:, :, None] * zc[self._zpos[sec.basis[idx]]]).sum(axis=1)
        r = np.where(inside[p], np.array(z.elements)[z.positions(exps)], -1)
        members = np.array(cls.members)
        x = np.minimum(np.searchsorted(members, r), len(members) - 1)
        good = (members[x] == r) & self._class_tables(cls)[1][idx, x]
        for i in np.flatnonzero(inside[p] & ~good)[:1].tolist():
            raise ResolutionError(
                f"product representative {r[i]} fails on the orbit of "
                f"{self.orbits[idx[i]].rep}")
        return r

    def _pair_representatives(self, cls: ResidualClass, idx) -> np.ndarray:
        """rab[a, b]: index of the first class member good on both orbits,
        -1 where there is none."""
        good = self._class_tables(cls)[1][idx]
        rab = np.full((len(idx), len(idx)), -1, dtype=np.intp)
        for x in range(good.shape[1] - 1, -1, -1):
            if good[:, x].any():
                rab[np.outer(good[:, x], good[:, x])] = x
        return rab

    # ------------------------------------------------------------------
    # resolution

    def resolve(self, cls: ResidualClass) -> Resolution:
        if cls.rep in self._resolutions:
            return self._resolutions[cls.rep]
        if cls.order == 1:
            raise InvalidInputError("the trivial class needs no resolution")
        self._sections()  # every class table in one pass
        idx = np.flatnonzero(self._class_tables(cls)[2])
        support_orbits = [self.orbits[a] for a in idx]
        support = tuple(e for o in support_orbits for e in o.ext_ids)
        r = self._representatives(cls, idx)
        for a in np.flatnonzero(r < 0)[:1].tolist():
            raise ResolutionError(
                f"no untwisted representative on the orbit of "
                f"{support_orbits[a].rep}")
        parts = self._parts(idx)
        phis = self._closure_phases(cls, idx, parts)
        rab = self._pair_representatives(cls, idx)
        dress = self._dressing(cls, parts, rab, r, phis)
        mat = self._block_kernel(support_orbits, rab, cls.members, dress)
        eta, dev = self._resolved_eta(cls, idx, parts, support, mat, r, phis)
        bundle = FixedPointBundle(
            self.class_current_ext_id(cls), support, mat, eta
        )
        res = Resolution(cls, bundle, dict(zip(self._reps[idx].tolist(),
                                               r.tolist())), dev)
        self._resolutions[cls.rep] = res
        return res

    def _parts(self, idx):
        """The orbits of `idx` by their U_a: (U_a group, its position in
        `_ugroups`, the positions in idx, and their extended rows in the
        order of idx as an (orbits, characters) array)."""
        upat = self._upat[idx]
        sizes = np.array([g.size for g in self._ugroups], dtype=np.intp)[upat]
        starts = np.cumsum(sizes) - sizes
        parts = []
        for p in np.unique(upat).tolist():
            on = np.flatnonzero(upat == p)
            g = self._ugroups[p]
            parts.append((g, p, on, starts[on, None] + np.arange(g.size)))
        return parts

    def _closure_phases(self, cls, idx, parts):
        """phi_i = sum_b k_b chi_i(r_b^{n_b}) / (e n_b) on each part, the
        extended character of <U_a, r_b> at the class representative, as
        numerators over e N: k the class coordinates, n_b the basis orders
        and e the exponent of U_a."""
        sec, n = self._sections(), cls.order
        k = self._class_coordinates(cls)[0][sec.gpat[idx]]
        cols = sec.closure[idx]
        for a, b in np.argwhere((cols < 0) & (k != 0))[:1].tolist():
            z = self.theory.center
            closure = z.power(int(sec.basis[idx[a], b]),
                              int(sec.orders[sec.gpat[idx[a]], b]))
            raise ResolutionError(
                f"representative closure {closure} left the untwisted "
                f"stabilizer of {self.orbits[idx[a]].rep}")
        # k_b / n_b reduces to a denominator dividing N
        w = k * n // sec.orders[sec.gpat[idx]]
        phis = []
        for g, _, on, _ in parts:
            table, e, _ = g.char_table()
            phis.append((table[:, cols[on]] * w[on]).sum(axis=2).T % (e * n))
        return phis

    def _dressing(self, cls, parts, rab, r, phis) -> np.ndarray:
        """dress[i, b] = unit(phi_i + chi_i(r_ab / r_a)) for i on orbit a,
        with r_a the orbit's representative and r_ab the pair's: the
        extended character of <r_a, U_a> at r_ab, exact exponents over one
        denominator."""
        sec, z, n = self._sections(), self.theory.center, cls.order
        den = n * math.lcm(*(g.exponent() for g, *_ in parts))
        nums = np.zeros((sum(rows.size for *_, rows in parts), len(rab)),
                        dtype=np.int64)
        zc = z.coordinate_rows()
        # shift[a, x] = member x / r_a as a center position; it fixes the
        # orbit, so it lies in U_a exactly when it is untwisted
        shift = z.positions(zc[self._zpos[list(cls.members)]][None]
                            - zc[self._zpos[r]][:, None])
        on_pair = rab >= 0
        pair = np.maximum(rab, 0)
        for (g, p, on, rows), phi in zip(parts, phis):
            table, e, _ = g.char_table()
            cols = np.take_along_axis(sec.cols[p][shift[on]], pair[on], axis=1)
            if (cols[on_pair[on]] < 0).any():
                raise ResolutionError(
                    "pair representative differs from the orbit choice by a "
                    "twisted element"
                )
            # reduced mod 1: `units` evaluates each exponent as written
            d = e * n
            part = (table[:, cols] * n + phi.T[:, :, None]) % d * (den // d)
            part[:, ~on_pair[on]] = 0
            nums[rows.ravel()] = part.transpose(1, 0, 2).reshape(-1, len(rab))
        return units(nums, den)

    def _resolved_eta(self, cls, idx, parts, support, mat, r, phis):
        """eta_i = eta^r(a) exp(2 pi i (-F(a, k_a, r) + phi_i - phi_pi(i)))
        for i on support orbit a, with k_a the subgroup member taking a to
        the representative of its conjugate orbit and phi the closure
        phases, in support order. The exponents are numerators over
        `eta_order`, which every phi and F denominator divides."""
        if not len(idx):
            return np.zeros(0, dtype=complex), 0.0
        th, sec, den = self.theory, self._sections(), self.theory.eta_order
        h, reps, k = self.h_members, self._reps[idx], sec.k[idx]
        ks, rs = np.unique(k), np.unique(r)
        at, tws, _ = th.layout(reps, [h[x] for x in ks.tolist()], rs.tolist())
        f = tws[at[np.arange(len(idx)), np.searchsorted(rs, r)],
                np.searchsorted(ks, k)]
        base = np.zeros(len(idx), dtype=complex)
        no_eta = np.zeros(len(idx), dtype=bool)
        for j in rs.tolist():
            b, on = th.bundle(j), r == j
            if b.eta is None:
                no_eta |= on
            else:
                base[on] = b.eta[b.positions(reps[on])]
        # the first failing orbit raises what the per-orbit loop raised
        for a in np.flatnonzero((f < 0) | (sec.fail[idx] > 0) | no_eta)[
                :1].tolist():
            self._raise_eta(self.orbits[idx[a]], h[k[a]], int(r[a]))
        nums = np.zeros(len(support), dtype=np.int64)
        bases = np.zeros(len(support), dtype=complex)
        for (g, _, on, rows), phi in zip(parts, phis):
            phi = phi * (den // (g.exponent() * cls.order))
            pi = sec.pi[idx[on], :g.size]
            nums[rows] = (phi - np.take_along_axis(phi, pi, axis=1)
                          - (f[on] * (den // th.snap_order))[:, None])
            bases[rows] = base[on, None]
        eta = bases * units(nums, den)
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

    def _raise_eta(self, o: OrbitData, k_a, r):
        """Raise the error of the first failing eta input on orbit o, in
        the order the exact accessors read them."""
        th, sec = self.theory, self._sections()
        th.twist_exponent(o.rep, k_a, r)
        cbar = int(sec.cbar[o.index])
        for u in o.unt:
            th.eta_exponent(u, cbar)
            th.twist_exponent(o.rep, k_a, u)
        if sec.fail[o.index]:
            raise ResolutionError("conjugation data does not permute the "
                                  "stabilizer characters")
        th.eta_value(r, o.rep)

    # ------------------------------------------------------------------
    # reporting

    def recombination_groups(self):
        """Extended fields whose S rows agree on the GRID_TOL grid, in the
        order of their first fields. Each row, rounded to int64 as
        [Re | Im] once per panel, is fingerprinted by one product with
        `_row_weights`; only rows whose fingerprints collide are rounded
        again and split exactly by their bytes."""
        s = self.ext_md.s
        weights = _row_weights(2 * s.shape[1])
        prints = np.empty(len(s), dtype=np.int64)
        for p in panels(len(s)):
            prints[p] = _grid_rows(s[p]) @ weights
        _, inv, counts = np.unique(prints, return_inverse=True,
                                   return_counts=True)
        shared = np.flatnonzero(counts[inv] > 1)
        keys = {}
        for p in panels(len(shared)):
            rows = shared[p]
            for i, row in zip(rows.tolist(), _grid_rows(s[rows])):
                keys.setdefault(row.tobytes(), []).append(i)
        return sorted((g for g in keys.values() if len(g) > 1),
                      key=lambda g: g[0])

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


def _grid_rows(part) -> np.ndarray:
    """The rows of `part` on the GRID_TOL grid as int64 [Re | Im] rows."""
    n = part.shape[1]
    grid = np.empty((len(part), 2 * n), dtype=np.int64)
    scaled = np.empty(part.shape)
    for half, x in enumerate((part.real, part.imag)):
        np.divide(x, GRID_TOL, out=scaled)
        np.rint(scaled, out=grid[:, half * n:(half + 1) * n], casting="unsafe")
    return grid


def _row_weights(width: int) -> np.ndarray:
    """The fixed int64 weights of the recombination fingerprints; the
    stdlib generator keeps numpy.random unimported, as in `match_rows`.
    Products wrap around, which a fingerprint may."""
    rng = random.Random(0)
    return np.array([rng.getrandbits(64) - 2 ** 63 for _ in range(width)],
                    dtype=np.int64)


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
