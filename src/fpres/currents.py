"""Simple currents, monodromy charges, stabilizers and fixed-point bundles.

A simple current is a field whose fusion acts as a permutation; the set of
all of them forms an abelian group under fusion. A `Theory` finds the
current actions by verified S-row matching, S_{Ja,b} = S_{ab} S_{Jb} / S_{0b},
in O(N^2) for each current of a generating set, composes the rest exactly,
and works factor-wise for tensor products. Each current J
carries a unitary matrix S^J supported on the fields it fixes, together
with a diagonal eta^J. One-dimensional S^J follow in closed form from the
twisted modular relation; product theories compose them factor-wise;
anything else arrives as explicit input.

Monodromy charges are exact: a `Theory` keeps the weights as int64
numerators over one common denominator and builds, once per current J, the
charge column Q_J = (h + h[J] - h[J x]) mod 1 against every field as one
array operation. Fractions appear only at the accessors.

Twist factors F(a, K, J) compare the K-translated rows of S^J against the
monodromy phase. Only this module snaps twists and etas to exact roots of
unity: `Theory.etas(j)` once per table, `Theory.twists(k, j)` only for K = 0
and the basis of the center, in one pass, composing every other table
exactly, F(a, K1 K2, J) = F(K2 a, K1, J) + F(a, K2, J). Both keep int64
numerators and mark what does not snap, so that only the accessor of that
field raises; `Theory.layout` lays them end to end for the cells that the
extension and the condition report read.
"""
from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    FusionIntegralityError,
    InvalidInputError,
    MalformedBundleError,
    PhaseSnapError,
    ResolutionError,
)
from .groups import MultGroup
from .modular import (
    S_TOL,
    ModularData,
    ProductS,
    _file_matrix,
    _label_from_json,
    _label_to_json,
    _read_json,
    complex_array,
    complex_pairs,
    match_rows,
    panels,
    product_ids,
)
from .phases import (SNAP_ORDER_LIMIT, SNAP_TOL, norm1, snap_phases, unit,
                     units)

NA = -4  # layout entry below the twist and eta marks: no data for the cell


@dataclass
class FixedPointBundle:
    """Unitary S^J on the fixed fields of a current, with diagonal eta^J."""

    current: int
    fields: tuple          # sorted base-field ids, the support
    matrix: np.ndarray
    eta: np.ndarray = None
    matrix_file: str = None    # the .npy file the matrix was loaded from,
    matrix_sha256: str = None  # and the sha256 of its bytes the load checked

    def __post_init__(self):
        n = len(self.fields)
        if self.matrix.shape != (n, n):
            raise MalformedBundleError(
                f"matrix shape {self.matrix.shape} does not match {n} fields"
            )
        if self.eta is not None and self.eta.shape != (n,):
            raise MalformedBundleError("eta length does not match the support")

    @property
    def dim(self) -> int:
        return len(self.fields)

    def position(self, a: int) -> int:
        return int(self.positions([a])[0])

    @functools.cached_property
    def _sorted(self):
        """The sorted support, then a key above every id; their positions."""
        fields = np.asarray(self.fields, dtype=np.intp)
        at = np.argsort(fields)
        return np.append(fields[at], np.iinfo(np.intp).max), at

    def positions(self, fields) -> np.ndarray:
        """The position in the support of every field in `fields`, as one
        array lookup; the first field off the support raises."""
        a = np.asarray(fields, dtype=np.intp)
        keys, at = self._sorted
        i = np.searchsorted(keys, a)
        for b in a[keys[i] != a][:1].tolist():
            raise ResolutionError(
                f"field {b} is not fixed by current {self.current}")
        return at[i]


class ProductBundle(FixedPointBundle):
    """S^J of a tensor product: the Kronecker product `kron` of the factor
    bundle matrices, with S itself where the factor current is trivial,
    over the product of their supports in row-major order. `matrix` is
    formed on first use: `Theory.bundle_block` and `Theory.twists` work
    factor-wise without it."""

    def __init__(self, current: int, fields: tuple, mats, eta):
        self.current, self.fields, self.eta = current, fields, eta
        self.kron = ProductS(mats)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.kron.to_dense()


def solve_1x1_bundle(t_exponent: Fraction):
    """Unique unimodular solution of the twisted torus relation in size one:
    s = t^-3, and (s)^2 = eta gives eta = t^-6."""
    s = unit(norm1(-3 * t_exponent))
    eta = unit(norm1(-6 * t_exponent))
    return np.array([[s]]), np.array([eta])


def detect_simple_currents(md: ModularData):
    """Field ids whose vacuum S-column has vacuum magnitude, within S_TOL."""
    if md.is_product:
        parts = [detect_simple_currents(f) for f in md.factors]
        return sorted(product_ids(parts, [f.size for f in md.factors]).tolist())
    col = np.abs(md.s_block(range(md.size), [0]).ravel())
    return [int(j) for j in np.where(np.abs(col - col[0]) < S_TOL)[0]]


def current_permutation(md: ModularData, j: int) -> np.ndarray:
    """Fusion action of a simple current as a permutation of field ids.

    An atomic theory finds the current action by verified S-row matching:
    J maps a to the field whose S row is S_{ab} S_{Jb} / S_{0b}. Rows are
    paired through their projections onto one fixed key vector, then
    checked in full, in O(N^2) and in row blocks (`modular.match_rows`).
    As N_J = P S S^dagger + (S Lambda_J - P S) S^dagger, this is the
    Verlinde test as long as S is unitary, so a non-unitary S fails first,
    as non-integral fusion.

    Permutations of atomic theories are cached on their ModularData, so a
    product computes each factor permutation once. `current_permutations`
    matches only a generating set."""
    if md.is_product:
        sizes = [f.size for f in md.factors]
        ji = np.unravel_index(j, sizes)
        parts = [current_permutation(f, int(jf)) for f, jf in zip(md.factors, ji)]
        return product_ids(parts, sizes)
    if j not in md._perms:
        perm = _match_rows(md, j)
        perm.flags.writeable = False
        md._perms[j] = perm
    return md._perms[j]


def current_permutations(md: ModularData, ids) -> dict:
    """Fusion actions of the detected currents `ids`, by id.

    A product theory takes each one factor-wise. An atomic theory
    row-matches (`current_permutation`) only the currents that are not yet
    reached, in ascending order, so the identity comes first. It is not
    row-matched: it passes the unitarity gate and a vacuum row with no zero
    and no non-finite entry, and acts as the identity. Everything else is
    composed exactly,
    perm[J1 J2] = perm[J1][perm[J2]] with J1 J2 = perm[J1][J2]: the row
    ratios multiply, lambda_{J1 J2} = lambda_{J1} lambda_{J2}, so this is
    the action the row match of J1 J2 would verify."""
    if md.is_product:
        return {j: current_permutation(md, j) for j in ids}
    perms, gens = {}, []
    for j in ids:
        if j in perms:
            continue
        gens.append(current_permutation(md, j))
        # multiply everything reached so far by every generator, to closure
        frontier = list(perms.values())
        if not perms:
            perms[j] = gens[-1]
            frontier = [gens[-1]]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g[p]
                if int(q[0]) not in perms:
                    q.flags.writeable = False
                    perms[int(q[0])] = q
                    frontier.append(q)
    return {j: perms[j] for j in ids}


def _match_rows(md: ModularData, j: int) -> np.ndarray:
    dev = md.unitarity()
    if not dev <= S_TOL:  # NaN fails too
        raise FusionIntegralityError(
            f"S is not unitary (deviation {dev:.2e}), so the fusion of "
            f"field {j} is not integral"
        )
    s = md.s_dense()
    if j == 0:
        # the identity's ratio S_0b / S_0b is 1 wherever it is defined
        if not (np.isfinite(s[0]).all() and s[0].all()):
            raise InvalidInputError(f"field {j} does not fuse as a permutation")
        return np.arange(md.size)
    ratio = s[j] / s[0]
    perm, dev = match_rows(s, lambda rows: rows * ratio)
    if not dev <= S_TOL or not np.array_equal(np.sort(perm), np.arange(md.size)):
        raise InvalidInputError(f"field {j} does not fuse as a permutation")
    return perm


class Theory:
    """Modular data together with its simple-current group and bundles."""

    def __init__(self, md: ModularData, extra_bundles=()):
        self.md = md
        ids = detect_simple_currents(md)
        self.perms = perms = current_permutations(md, ids)
        # closing over perms, not self, leaves the theory out of a cycle
        self.center = MultGroup(ids, lambda a, b: int(perms[a][b]), 0)
        # weights and T exponents mod 1, as numerators over self.den
        self.den, self._hn, tn = md.phase_numerators()
        self._charges = {}
        # the Theory of each factor, by id and by content: kept here, not
        # on the factor, so that no factor and its Theory form a cycle
        self._factor_theories = {}
        # lcm of the T-exponent denominators, the current spin denominators
        # and the current orders: twist orders divide current orders
        self.snap_order = math.lcm(
            self.den // math.gcd(self.den, int(np.gcd.reduce(tn))),
            *(self.den // math.gcd(self.den, int(self._hn[j])) for j in ids),
            *(self.center.order_of(j) for j in ids),
        )
        self._bundles = {}
        for b in extra_bundles:
            if b.current not in self.perms:
                raise InvalidInputError(
                    f"bundle current {b.current} is not a simple current"
                )
            fixed = tuple(int(a) for a in self.fixed_fields(b.current))
            if tuple(sorted(b.fields)) != fixed:
                raise MalformedBundleError(
                    f"bundle support for current {b.current} does not match "
                    f"its fixed fields"
                )
            self._bundles[b.current] = b
        # resolved etas are roots of class order times character order
        # beyond the base snap order, each dividing the center's exponent
        self.eta_order = self.snap_order * self.center.exponent() ** 2
        if self.eta_order >= SNAP_ORDER_LIMIT:
            raise InvalidInputError(
                f"theory {md.name or '?'}: eta order {self.eta_order} "
                f"is too large to snap (it must stay below 2**50)")
        self._twists = {}
        self._etas = {}

    # --- current basics

    def apply(self, j: int, a: int) -> int:
        return int(self.perms[j][a])

    def charges(self, j: int) -> np.ndarray:
        """Monodromy charges of current j against every field, as numerators
        over `den`; built once per current."""
        col = self._charges.get(j)
        if col is None:
            hn = self._hn
            col = (hn + hn[j] - hn[self.perms[j]]) % self.den
            col.flags.writeable = False
            self._charges[j] = col
        return col

    def subgroup(self, gens):
        for g in gens:
            if g not in self.perms:
                raise InvalidInputError(f"{g} is not a simple current")
        return self.center.subgroup(gens)

    def fixed_fields(self, j: int) -> np.ndarray:
        return np.where(self.perms[j] == np.arange(self.md.size))[0]

    # --- bundles

    def bundle(self, j: int) -> FixedPointBundle:
        if j in self._bundles:
            return self._bundles[j]
        if j == 0:
            raise InvalidInputError("the identity current has no bundle; use S")
        fixed = self.fixed_fields(j)
        if self.md.is_product:
            b = self._product_bundle(j, fixed)
        elif len(fixed) == 0:
            b = FixedPointBundle(j, (), np.zeros((0, 0), dtype=complex),
                                 np.zeros(0, dtype=complex))
        elif len(fixed) == 1:
            mat, eta = solve_1x1_bundle(self.md.t_exponent(int(fixed[0])))
            b = FixedPointBundle(j, tuple(fixed.tolist()), mat, eta)
        else:
            raise ResolutionError(
                f"no closed form for the {len(fixed)}-dimensional bundle of "
                f"current {j}; provide it as input"
            )
        self._bundles[j] = b
        return b

    def _factor_theory(self, f: ModularData) -> "Theory":
        sub = self._factor_theories.get(id(f))
        if sub is None:  # equal factors share one; repr tells 1 and 1.0 apart
            key = (repr(f.labels), f.h, f.c, f.name,
                   hashlib.sha256(np.ascontiguousarray(f.s)).digest())
            sub = self._factor_theories.get(key) or Theory(f)
            self._factor_theories[id(f)] = self._factor_theories[key] = sub
        return sub

    def _product_bundle(self, j: int, fixed) -> ProductBundle:
        sizes = [f.size for f in self.md.factors]
        ji = np.unravel_index(j, sizes)
        mats, etas, supports = [], [], []
        for f, jf in zip(self.md.factors, ji):
            jf = int(jf)
            if jf == 0:
                mats.append(f.s)
                etas.append(np.ones(f.size, dtype=complex))
                supports.append(np.arange(f.size))
            else:
                fb = self._factor_theory(f).bundle(jf)
                mats.append(fb.matrix)
                eta = fb.eta
                if eta is None:
                    raise ResolutionError(
                        f"factor bundle for {jf} lacks eta data"
                    )
                etas.append(eta)
                supports.append(np.asarray(fb.fields, dtype=np.intp))
        eta = np.array([1.0 + 0.0j])
        for e in etas:
            eta = np.multiply.outer(eta, e).ravel()  # np.kron's products
        support = product_ids(supports, sizes)
        if not np.array_equal(np.sort(support), fixed):
            raise ResolutionError("factor supports do not tile the fixed set")
        return ProductBundle(j, tuple(support.tolist()), mats, eta)

    def bundle_block(self, j: int, rows, cols) -> np.ndarray:
        """S^J entries on arbitrary support fields; j = 0 means S itself."""
        if j == 0:
            return self.md.s_block(rows, cols)
        b = self.bundle(j)
        ri, ci = b.positions(rows), b.positions(cols)
        if isinstance(b, ProductBundle):
            return b.kron.block(ri, ci)
        return b.matrix[ri[:, None], ci]

    def eta_value(self, j: int, a: int) -> complex:
        b = self.bundle(j)
        if b.eta is None:
            raise ResolutionError(f"bundle for current {j} lacks eta data")
        return b.eta[b.position(a)]

    def etas(self, j: int) -> np.ndarray:
        """eta^J at every support field of J, in bundle order, as numerators
        over `eta_order`, snapped once; -1 marks an entry that is no root of
        that order, for which `eta_exponent` raises."""
        if j not in self._etas:
            eta = self.bundle(j).eta
            if eta is None:
                raise ResolutionError(f"bundle for current {j} lacks eta data")
            self._etas[j] = snap_phases(eta, self.eta_order)
        return self._etas[j]

    def eta_exponent(self, j: int, a: int) -> Fraction:
        """Exact exponent of eta^J at a field fixed by J."""
        if j == 0:
            return Fraction(0)
        n = int(self.etas(j)[self.bundle(j).position(a)])
        if n < 0:
            raise PhaseSnapError(f"eta of current {j} at {a} is not a snapped root")
        return Fraction(n, self.eta_order)

    # --- twists

    def twists(self, k: int, j: int) -> np.ndarray:
        """F(a, K, J) for every support field a of J, in bundle order, as
        numerators over `snap_order`, built once per (K, J). Negative
        entries mark the fields for which `twist_exponent` raises: -1 when
        the row ratio is no snapped phase, -2 when it is not constant and
        -3 when the row vanishes. Built as `_twist_stack` says."""
        if (k, j) not in self._twists:
            self._twist_stack([k], j)
        return self._twists[(k, j)]

    def _twist_stack(self, ks, j: int) -> np.ndarray:
        """`twists(k, j)` for every k in `ks`, one row each, building the
        tables not built yet together. A product bundle sums its factor
        tables (`_product_twists`). Other multi-field bundles take row ratios
        for K = 0 and the basis of the center only; any other K = g K', g the
        first basis element with a nonzero coordinate of K, composes as
        F(a, g K', J) = F(K' a, g, J) + F(a, K', J) by one gather, unless a
        part holds a mark: then row ratios give its whole table."""
        b, z, cache = self.bundle(j), self.center, self._twists
        compose = b.dim > 1 and not isinstance(b, ProductBundle)
        split, todo = {}, list(ks)  # translator -> (g, K'), or None
        while todo:
            x = todo.pop()
            if x in split or (x, j) in cache:
                continue
            split[x] = None
            if compose and x and x not in z.basis:
                g = z.basis[np.flatnonzero(z.coords[x])[0]]
                split[x] = g, z.mul(x, z.inverse(g))
                todo += split[x]
        direct = [x for x in split if split[x] is None]
        if direct:
            cache.update(zip([(x, j) for x in direct], self._product_twists(
                direct, j) if isinstance(b, ProductBundle) else
                self._direct_twists(direct, b)))
        for x in sorted((x for x in split if split[x]),
                        key=lambda x: sum(z.coords[x])):
            g, rest = split[x]
            first, second = cache[(g, j)], cache[(rest, j)]
            cache[(x, j)] = self._direct_twists([x], b)[0] if (
                (first < 0).any() or (second < 0).any()) else (first[
                    b.positions(self.perms[rest][list(b.fields)])]
                    + second) % self.snap_order
        return np.array([cache[(k, j)] for k in ks],
                        dtype=np.int64).reshape(len(ks), b.dim)

    def _direct_twists(self, ks, b: FixedPointBundle) -> np.ndarray:
        """The twist tables of the translators `ks` against the atomic
        bundle `b`, one row each: by the inverse monodromy in dimension one,
        whose denominator divides the snap order, else from the row ratios
        S^J_{Ka,c} exp(-2 pi i Q_K(c)) / S^J_{ac} over the entries with a
        non-negligible denominator, snapped once, by `panels` of the rows a
        over all of `ks` at once."""
        fields = np.array(b.fields, dtype=np.intp)
        charges = np.array([self.charges(k)[fields] for k in ks])
        if b.dim == 1:
            g = math.gcd(self.den, self.snap_order)
            return -charges % self.den // (self.den // g) * (
                self.snap_order // g)
        m, phases = b.matrix, units(-charges, self.den)[:, None]
        at = b.positions(np.array([self.perms[k][fields] for k in ks]))
        table = np.empty(at.shape, dtype=np.int64)
        for p in panels(b.dim, len(ks) * b.dim, b.dim):
            mask = np.abs(m[p]) > SNAP_TOL
            ratios = np.divide(m[at[:, p]] * phases, m[p], where=mask,
                               out=np.zeros((len(ks), *mask.shape), complex))
            count = mask.sum(axis=1)
            mean = ratios.sum(axis=2) / np.maximum(count, 1)
            table[:, p] = snap_phases(mean, self.snap_order)
            table[:, p][np.abs(ratios - mean[:, :, None]).max(
                axis=2, where=mask, initial=0) > SNAP_TOL] = -2
            table[:, p][:, count == 0] = -3
        return table

    def _product_twists(self, ks, j: int) -> np.ndarray:
        """The twist tables of the translators `ks` against a product bundle,
        one row each, from the factor tables: row ratios of a Kronecker
        product multiply, so F(a, K, J) is the sum of the F(a_f, K_f, J_f),
        which vanish where J_f is trivial (the current relation of the rows
        of S_f). A factor entry that is marked, or no multiple of
        1/snap_order, marks the entries it enters."""
        order = self.snap_order
        sizes = [f.size for f in self.md.factors]
        nums = np.zeros((len(ks), 1), dtype=np.int64)
        marks = np.zeros_like(nums)
        for f, kf, jf in zip(self.md.factors, np.unravel_index(ks, sizes),
                             np.unravel_index(j, sizes)):
            part = mark = np.zeros((len(ks), f.size), dtype=np.int64)
            if jf:
                sub = self._factor_theory(f)
                part = sub._twist_stack(kf.tolist(), int(jf))
                g = math.gcd(sub.snap_order, order)
                step = sub.snap_order // g
                mark = np.where(part < 0, part, np.where(part % step, -1, 0))
                part = np.where(mark < 0, 0, part // step * (order // g))
            marks = np.minimum(marks[:, :, None], mark[:, None]).reshape(
                len(ks), -1)
            nums = (nums[:, :, None] + part[:, None]).reshape(len(ks), -1)
        return np.where(marks < 0, marks, nums % order)

    def twist_exponent(self, a: int, k: int, j: int) -> Fraction:
        """Exact exponent of F(a, K, J); a must be fixed by J."""
        if j == 0:
            return Fraction(0)
        n = int(self.twists(k, j)[self.bundle(j).position(a)])
        if n == -1:
            raise PhaseSnapError(f"twist of ({a},{k}) against {j} is not a snapped root")
        if n == -2:
            raise ResolutionError(f"twist of ({a},{k}) against {j} is not constant")
        if n == -3:
            raise ResolutionError(f"row of field {a} in bundle {j} vanishes")
        return Fraction(n, self.snap_order)

    def layout(self, fields, translators, currents):
        """(at, tws, etas): the twist and eta data of the cells (fields[i],
        currents[y]), end to end. Cell (i, y) sits at row r = at[i, y]:
        F(fields[i], translators[x], currents[y]) at tws[r, x] over
        `snap_order`, marked as `twists` marks it, and eta^J(fields[i]),
        J = currents[y], at etas[r] over `eta_order`, marked as `etas`
        marks it, NA where the bundle of J has no eta. Row 0 holds the
        identity's zeros, and the last row, at -1, is NA: the row of every
        cell whose current does not fix its field. Each current's tables
        are built over the requested translators only."""
        fields = np.asarray(fields, dtype=np.intp)
        at = np.full((len(fields), len(currents)), -1, dtype=np.intp)
        tws = [np.zeros((1, len(translators)), dtype=np.int64)]
        etas = [np.zeros(1, dtype=np.int64)]
        for y, j in enumerate(currents):
            sel = np.flatnonzero(self.perms[j][fields] == fields)
            if j == 0:
                at[:, y] = 0
            elif len(sel):
                b = self.bundle(j)
                pos = b.positions(fields[sel])
                at[sel, y] = sum(map(len, etas)) + np.arange(len(sel))
                tws.append(self._twist_stack(translators, j)[:, pos].T)
                etas.append(np.full(len(sel), NA) if b.eta is None
                            else self.etas(j)[pos])
        return (at, np.concatenate([*tws, np.full((1, len(translators)), NA)]),
                np.concatenate([*etas, [NA]]))


# ---------------------------------------------------------------------------
# bundle serialization, format "fp-bundle v1"


def bundle_array_document(md: ModularData, b: FixedPointBundle) -> dict:
    """The "fp-bundle v1" document of `b` with its matrix and eta as array
    leaves (see `modular.complex_pairs`): the inline form of hand-written
    inputs; `fpres extend` writes it with the matrix in an .npy file."""
    doc = {
        "format": "fp-bundle v1",
        "current": _label_to_json(md.labels[b.current]),
        "fields": [_label_to_json(md.labels[a]) for a in b.fields],
        "matrix": complex_pairs(b.matrix),
    }
    if b.eta is not None:
        doc["eta"] = complex_pairs(b.eta)
    return doc


def bundle_from_document(md: ModularData, doc: dict,
                         directory=None) -> FixedPointBundle:
    """The bundle of an "fp-bundle v1" document over `md`. A "matrix" that
    names an .npy file is read from `directory` through the checks of an S
    file (`modular._file_matrix`), as an n x n matrix for the n fields."""
    if doc.get("format") != "fp-bundle v1":
        raise MalformedBundleError(
            f"unsupported bundle format {doc.get('format')!r}"
        )
    source = ()
    try:
        j = md.index(_label_from_json(doc["current"]))
        fields = tuple(md.index(_label_from_json(x)) for x in doc["fields"])
        n = len(fields)
        if isinstance(doc["matrix"], dict):
            mat, *source = _file_matrix(doc["matrix"], directory, n, {},
                                        "fp-bundle matrix", "bundle matrix")
        else:
            mat = _pairs(doc["matrix"], "matrix", (n, n))
        eta = None
        if "eta" in doc:
            eta = _pairs(doc["eta"], "eta", (n,))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedBundleError(f"malformed bundle document: {exc}") from exc
    return FixedPointBundle(j, fields, mat, eta, *source)


def _pairs(obj, field: str, shape) -> np.ndarray:
    """`complex_array(obj, field)`; for a bundle of no fields, whose arrays
    have no entries, the [] that `complex_pairs` writes for them too."""
    if 0 in shape and isinstance(obj, list) and not obj:
        return np.zeros(shape, dtype=complex)
    return complex_array(obj, field)


def load_bundle(md: ModularData, path) -> FixedPointBundle:
    return bundle_from_document(md, _read_json(path), os.path.dirname(path))
