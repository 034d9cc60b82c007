"""Extension of a theory by an integer-spin subgroup of simple currents,
and resolution matrices for the extension's surviving currents.

The extended spectrum consists of subgroup orbits of uncharged fields;
orbits with a nontrivial untwisted stabilizer split into one field per
stabilizer character. The extended S matrix averages the current-twisted
matrices over the untwisted stabilizer intersection.

Surviving currents are subgroup cosets of uncharged currents. For each
such class the resolution matrix on its fixed extended fields combines a
per-orbit class representative, the character extension phases of its
closure, and the twisted matrices of the representative's translates.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .currents import FixedPointBundle, Theory
from .errors import InvalidInputError, ResolutionError
from .groups import MultGroup
from .modular import ModularData
from .phases import norm1, principal_root_exp, snap_phase, unit


@dataclass
class OrbitData:
    """One subgroup orbit of uncharged fields and its splitting data."""

    index: int
    rep: int
    members: tuple
    stab: tuple           # subgroup members fixing the orbit
    unt: tuple            # untwisted part of the stabilizer
    ugroup: MultGroup
    char_labels: tuple
    ext_ids: tuple        # extended field ids, one per character

    @property
    def is_free(self) -> bool:
        return len(self.stab) == 1


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
        self._build_extended_md()
        self._ext_theory = None
        self._resolutions = {}
        self._r_cache = {}

    # ------------------------------------------------------------------
    # spectrum

    def _build_orbits(self):
        th = self.theory
        md = th.md
        uncharged = np.ones(md.size, dtype=bool)
        for j in self.h_members:
            if j:
                uncharged &= th.charges(j) == 0
        local = np.flatnonzero(uncharged).tolist()
        local_set = set(local)
        seen = set()
        orbits = []
        for a in local:
            if a in seen:
                continue
            members = sorted({th.apply(j, a) for j in self.h_members})
            if any(m not in local_set for m in members):
                raise InvalidInputError(
                    "subgroup charge is not constant on an orbit"
                )
            seen.update(members)
            rep = members[0]
            if self.rng is not None and rep != 0:
                rep = self.rng.choice(members)
            stab = th.stabilizer(rep, self.h_members)
            unt = th.untwisted_stabilizer(rep, self.h_members)
            ugroup = MultGroup(unt, th.center.mul, 0)
            orbits.append(
                OrbitData(
                    index=len(orbits),
                    rep=rep,
                    members=tuple(members),
                    stab=stab,
                    unt=unt,
                    ugroup=ugroup,
                    char_labels=tuple(ugroup.char_labels()),
                    ext_ids=(),
                )
            )
        orbits.sort(key=lambda o: (0 not in o.members, min(o.members)))
        # vacuum orbit first, then ascending smallest member
        next_id = 0
        for idx, o in enumerate(orbits):
            o.index = idx
            o.ext_ids = tuple(range(next_id, next_id + len(o.char_labels)))
            next_id += len(o.char_labels)
        self.orbits = orbits
        self.n_ext = next_id
        self._orbit_of = {}
        for o in orbits:
            for m in o.members:
                self._orbit_of[m] = o
        self._ext_info = {}
        for o in orbits:
            for i, lab in zip(o.ext_ids, o.char_labels):
                self._ext_info[i] = (o, lab)

    def orbit_of(self, base_field: int) -> OrbitData:
        try:
            return self._orbit_of[base_field]
        except KeyError:
            raise InvalidInputError(
                f"field {base_field} is charged under the subgroup"
            ) from None

    def ext_field(self, ext_id: int):
        return self._ext_info[ext_id]

    def _prefactor(self, oa: OrbitData, ob: OrbitData) -> float:
        return len(self.h_members) / np.sqrt(
            len(oa.stab) * len(oa.unt) * len(ob.stab) * len(ob.unt)
        )

    def _build_extended_md(self):
        th = self.theory
        md = th.md
        n = self.n_ext
        s = np.zeros((n, n), dtype=complex)
        free = [o for o in self.orbits if len(o.stab) == 1]
        rest = [o for o in self.orbits if len(o.stab) > 1]
        f_ids = [o.ext_ids[0] for o in free]
        f_reps = [o.rep for o in free]
        if free:
            s[np.ix_(f_ids, f_ids)] = len(self.h_members) * md.s_block(
                f_reps, f_reps
            )
        for oa in rest:
            for ob in rest:
                self._fill_block(s, oa, ob)
            if free:
                pref_f = [self._prefactor(oa, o) for o in free]
                row = md.s_block([oa.rep], f_reps)[0] * np.array(pref_f)
                for i in oa.ext_ids:
                    s[i, f_ids] = row
                    s[f_ids, i] = row
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

    def _fill_block(self, s, oa: OrbitData, ob: OrbitData):
        th = self.theory
        common = sorted(set(oa.unt) & set(ob.unt))
        pref = self._prefactor(oa, ob)
        vals = {j: th.bundle_entry(j, oa.rep, ob.rep) for j in common}
        for i, li in zip(oa.ext_ids, oa.char_labels):
            for jj, lj in zip(ob.ext_ids, ob.char_labels):
                acc = 0.0 + 0.0j
                for j in common:
                    acc += (
                        oa.ugroup.char_value(li, j)
                        * vals[j]
                        * np.conj(ob.ugroup.char_value(lj, j))
                    )
                s[i, jj] = pref * acc

    # ------------------------------------------------------------------
    # surviving currents

    def extended_theory(self, extra_bundles=()) -> Theory:
        if self._ext_theory is None or extra_bundles:
            self._ext_theory = Theory(
                self.ext_md, tol=self.theory.tol, extra_bundles=extra_bundles
            )
        return self._ext_theory

    def residual_classes(self):
        th = self.theory
        center = np.array(th.center.elements, dtype=np.intp)
        uncharged = np.ones(len(center), dtype=bool)
        for k in self.h_members:
            uncharged &= th.charges(k)[center] == 0
        g_loc = center[uncharged].tolist()
        h_set = set(self.h_members)
        by_rep = {}
        for j in g_loc:
            members = tuple(sorted(th.center.mul(j, k) for k in self.h_members))
            by_rep.setdefault(members[0], members)
        out = []
        for rep in sorted(by_rep):
            members = by_rep[rep]
            order = 1
            x = rep
            while x not in h_set:
                x = th.center.mul(x, rep)
                order += 1
            out.append(ResidualClass(rep=rep, members=members, order=order))
        return out

    def class_current_ext_id(self, cls: ResidualClass) -> int:
        """Extended field carrying the class: the orbit of its members."""
        o = self.orbit_of(cls.rep)
        if len(o.ext_ids) != 1:
            raise ResolutionError("a current class sits on a split orbit")
        return o.ext_ids[0]

    # ------------------------------------------------------------------
    # class representatives on orbits

    def _untwisted_for(self, a: int, x: int, members) -> bool:
        th = self.theory
        return all(th.twist_exponent(a, x, k) == 0 for k in members if k)

    def _fixing_members(self, cls: ResidualClass, a: int):
        th = self.theory
        return [x for x in cls.members if th.apply(x, a) == a]

    def orbit_representative(self, cls: ResidualClass, o: OrbitData):
        """Class member fixing the orbit and untwisted against its
        stabilizer; None when the class moves the orbit. Conjugate orbits
        share one choice."""
        key = (cls.rep, o.index)
        if key in self._r_cache:
            return self._r_cache[key]
        th = self.theory
        conj = th.md.conjugation()
        partner = self.orbit_of(int(conj[o.rep]))
        if partner.index < o.index:
            r = self.orbit_representative(cls, partner)
            if r is not None:
                if th.apply(r, o.rep) != o.rep or not self._untwisted_for(
                    o.rep, r, o.stab
                ):
                    raise ResolutionError(
                        f"conjugate-linked representative {r} fails on "
                        f"orbit of {o.rep}"
                    )
            self._r_cache[key] = r
            return r
        fixing = self._fixing_members(cls, o.rep)
        good = [x for x in fixing if self._untwisted_for(o.rep, x, o.stab)]
        if not good:
            self._r_cache[key] = None
            return None
        if self.rng is not None:
            r = self.rng.choice(good)
        else:
            r = min(good)
        self._r_cache[key] = r
        return r

    def _fixed_orbits(self, cls: ResidualClass):
        """Orbits whose extended fields the class fixes."""
        th = self.theory
        out = []
        for o in self.orbits:
            fixing = self._fixing_members(cls, o.rep)
            if not fixing:
                continue
            x = fixing[0]
            if all(th.twist_exponent(o.rep, x, k) == 0 for k in o.unt if k):
                out.append(o)
        return out

    def extended_twist(self, o: OrbitData, cls_k: ResidualClass,
                       cls_j: ResidualClass) -> Fraction:
        """Twist of the extended field against two surviving classes,
        from base data at the chosen orbit representatives."""
        rk = self.orbit_representative(cls_k, o)
        rj = self.orbit_representative(cls_j, o)
        if rk is None or rj is None:
            raise ResolutionError(
                f"class does not fix the orbit of {o.rep}"
            )
        return self.theory.twist_exponent(o.rep, rk, rj)

    # ------------------------------------------------------------------
    # resolution

    def resolve(self, cls: ResidualClass) -> Resolution:
        if cls.rep in self._resolutions:
            return self._resolutions[cls.rep]
        if cls.order == 1:
            raise InvalidInputError("the trivial class needs no resolution")
        th = self.theory
        support_orbits = self._fixed_orbits(cls)
        support = []
        for o in support_orbits:
            support.extend(o.ext_ids)
        support = tuple(sorted(support))
        n = len(support)
        mat = np.zeros((n, n), dtype=complex)
        r_assign = {}
        phis = {}
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
            phis[o.index] = {
                lab: principal_root_exp(
                    o.ugroup.char_exponent(lab, closure), cls.order
                )
                for lab in o.char_labels
            }
        pos = {e: i for i, e in enumerate(support)}
        for oa in support_orbits:
            for ob in support_orbits:
                block = self._resolve_block(cls, oa, ob, r_assign, phis)
                for (i, jj), v in block.items():
                    mat[pos[i], pos[jj]] = v
        eta, dev = self._resolved_eta(cls, support_orbits, support, mat,
                                      r_assign, phis)
        bundle = FixedPointBundle(
            self.class_current_ext_id(cls), support, mat, eta
        )
        res = Resolution(cls, bundle, r_assign, dev)
        self._resolutions[cls.rep] = res
        return res

    def _pair_representative(self, cls: ResidualClass, oa, ob):
        th = self.theory
        cands = [
            x
            for x in cls.members
            if th.apply(x, oa.rep) == oa.rep
            and th.apply(x, ob.rep) == ob.rep
            and self._untwisted_for(oa.rep, x, oa.stab)
            and self._untwisted_for(ob.rep, x, ob.stab)
        ]
        if not cands:
            return None
        return min(cands)

    def _resolve_block(self, cls, oa, ob, r_assign, phis):
        th = self.theory
        out = {}
        rab = self._pair_representative(cls, oa, ob)
        if rab is None:
            for i in oa.ext_ids:
                for jj in ob.ext_ids:
                    out[(i, jj)] = 0.0
            return out
        pref = self._prefactor(oa, ob)
        common = sorted(set(oa.unt) & set(ob.unt))
        vals = {
            j: th.bundle_entry(th.center.mul(rab, j), oa.rep, ob.rep)
            for j in common
        }
        shift_a = th.center.mul(rab, th.center.inverse(r_assign[oa.rep]))
        shift_b = th.center.mul(rab, th.center.inverse(r_assign[ob.rep]))
        if shift_a not in oa.unt or shift_b not in ob.unt:
            raise ResolutionError(
                "pair representative differs from the orbit choice by a "
                "twisted element"
            )
        for i, li in zip(oa.ext_ids, oa.char_labels):
            dress_a = unit(
                phis[oa.index][li] + oa.ugroup.char_exponent(li, shift_a)
            )
            for jj, lj in zip(ob.ext_ids, ob.char_labels):
                acc = 0.0 + 0.0j
                for j in common:
                    acc += (
                        oa.ugroup.char_value(li, j)
                        * vals[j]
                        * np.conj(ob.ugroup.char_value(lj, j))
                    )
                dress_b = unit(
                    phis[ob.index][lj]
                    + ob.ugroup.char_exponent(lj, shift_b)
                )
                out[(i, jj)] = pref * acc * dress_a * np.conj(dress_b)
        return out

    def _resolved_eta(self, cls, support_orbits, support, mat, r_assign, phis):
        th = self.theory
        conj = th.md.conjugation()
        eta = np.zeros(len(support), dtype=complex)
        pos = {e: i for i, e in enumerate(support)}
        for o in support_orbits:
            a = o.rep
            r = r_assign[a]
            partner = self.orbit_of(int(conj[a]))
            cbar = int(conj[partner.rep])
            k_a = next(
                k for k in self.h_members if th.apply(k, a) == cbar
            )
            base = th.eta_value(r, a) if r else 1.0
            f_corr = np.conj(th.twist_value(a, k_a, r))
            pi = self._pi_map(o, k_a, cbar)
            for i, lab in zip(o.ext_ids, o.char_labels):
                phi_i = unit(phis[o.index][lab])
                phi_pi = unit(phis[o.index][pi[lab]])
                eta[pos[i]] = base * f_corr * phi_i * np.conj(phi_pi)
        if not support:
            return eta, 0.0
        # cross-check the defining square relation on the extended theory
        ext_conj = self.ext_md.conjugation()
        sq = mat @ mat
        expect = np.zeros_like(sq)
        for x in support:
            cx = int(ext_conj[x])
            if cx not in pos:
                raise ResolutionError(
                    "resolved support is not closed under conjugation"
                )
            expect[pos[x], pos[cx]] = eta[pos[x]]
        dev = float(np.abs(sq - expect).max())
        if dev > 1e-8:
            raise ResolutionError(
                f"resolved matrix square deviates from its eta pairing "
                f"by {dev:.2e}"
            )
        return eta, dev

    def _pi_map(self, o: OrbitData, k_a: int, cbar: int) -> dict:
        """Character relabeling induced by the translation to the
        conjugate representative."""
        th = self.theory
        out = {}
        targets = {}
        for lab in o.char_labels:
            vals = []
            for hh in o.unt:
                if hh == 0:
                    q = Fraction(0)
                else:
                    f = norm1(-th.twist_exponent(o.rep, k_a, hh))
                    e = snap_phase(
                        th.eta_value(hh, cbar), th.snap_order, tol=1e-6
                    )
                    q = norm1(f + e)
                vals.append(norm1(q + o.ugroup.char_exponent(lab, hh)))
            targets[lab] = tuple(vals)
        table = {
            tuple(
                o.ugroup.char_exponent(lab, hh) for hh in o.unt
            ): lab
            for lab in o.char_labels
        }
        for lab, t in targets.items():
            if t not in table:
                raise ResolutionError(
                    "conjugation data does not permute the stabilizer "
                    "characters"
                )
            out[lab] = table[t]
        return out

    # ------------------------------------------------------------------
    # reporting

    def recombination_groups(self, tol: float = 1e-8):
        s = self.ext_md.s
        keys = {}
        for i in range(self.n_ext):
            key = (
                tuple(np.round(s[i].real / tol).astype(np.int64).tolist()),
                tuple(np.round(s[i].imag / tol).astype(np.int64).tolist()),
            )
            keys.setdefault(key, []).append(i)
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


# ---------------------------------------------------------------------------
# relabeling search between two realizations of the same theory


def match_fields(md1: ModularData, md2: ModularData, tol: float = 1e-8):
    """Permutation p with md2 = p(md1): exact T match, S match within tol.

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
        return tuple(sorted(np.round(np.abs(s[a]) / 1e-6).astype(np.int64)))

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
                keep = {b for b in cand[a] if abs(s1[a, x] - s2[b, y]) <= tol}
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
    if np.abs(s2[perm][:, perm] - s1).max() > tol:
        raise InvalidInputError("matched permutation fails the S check")
    for a in range(n):
        if t1[a] != t2[perm[a]]:
            raise InvalidInputError("matched permutation fails the T check")
    return perm
