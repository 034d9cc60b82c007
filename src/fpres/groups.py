"""Finite abelian groups, coset presentations and phase cocycles.

One group type, ``MultGroup``, carries the algebra: a finite abelian group
over sortable element ids whose product is supplied by a callable, with a
cyclic basis, exponent coordinates and an integer character table. The
engine builds it over field ids (fusion subgroups, untwisted stabilizers).

On top of it sit the coset presentation G/H with a multiplicative
representative map, the cocycle phases that repair products of
representatives (an int64 table over one denominator), and the characters
of G lifted from those of H.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInputError


# ---------------------------------------------------------------------------
# generic decomposition of a small abelian group


def span(gens, add, zero):
    """Closure of a generating set; returns a sorted list."""
    seen = {zero}
    frontier = [zero]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def _element_order(x, add, zero):
    n, y = 1, x
    while y != zero:
        y = add(y, x)
        n += 1
    return n


def abelian_basis(elements, add, zero):
    """Cyclic basis (descending orders, lexicographic tie-breaks) of a finite
    abelian group given by an explicit element list.

    Returns (basis_elements, orders). The first basis element realizes the
    group exponent; the rest are recursive lifts from the quotient, adjusted
    so that each lift's order matches its class order.
    """
    elems = sorted(elements)
    if len(elems) == 1:
        return [], []
    orders = {x: _element_order(x, add, zero) for x in elems}
    expo = max(orders.values())
    g1 = min(x for x in elems if orders[x] == expo)
    sub = span([g1], add, zero)
    if len(sub) == len(elems):
        return [g1], [expo]

    canon: dict = {}
    for x in elems:
        canon[x] = min(add(x, h) for h in sub)
    q_elems = sorted(set(canon.values()))
    q_add = lambda a, b: canon[add(a, b)]
    q_zero = canon[zero]
    q_basis, q_orders = abelian_basis(q_elems, q_add, q_zero)

    basis, out_orders = [g1], [expo]
    for qb, qn in zip(q_basis, q_orders):
        # lift: coset member whose order in the parent equals the class order
        lift = min(y for y in (add(qb, h) for h in sub) if orders[y] == qn)
        basis.append(lift)
        out_orders.append(qn)
    return basis, out_orders


def coordinate_map(basis, orders, add, zero):
    """Map each group element to its exponent vector over the basis.

    Raises if the candidate basis does not span freely (sanity guard).
    """
    coords = {}
    for vec in itertools.product(*(range(n) for n in orders)):
        x = zero
        for m, b in zip(vec, basis):
            for _ in range(m):
                x = add(x, b)
        if x in coords:
            raise InvalidInputError("candidate basis is not free")
        coords[x] = vec
    return coords


class MultGroup:
    """Small abelian group over opaque (sortable) element ids.

    The product is supplied as a callable; basis and coordinates are derived
    eagerly, the character table on first use. Intended for groups of at
    most a few hundred elements (fusion subgroups, stabilizers, coset
    classes, small vector groups).
    """

    def __init__(self, elements, mul, identity):
        self.elements = tuple(sorted(elements))
        self._mul = mul
        self.identity = identity
        if identity not in set(self.elements):
            raise InvalidInputError("identity not in element list")
        self.basis, self.orders = abelian_basis(self.elements, mul, identity)
        self.coords = coordinate_map(self.basis, self.orders, mul, identity)
        if len(self.coords) != len(self.elements):
            raise InvalidInputError("element list is not closed under product")
        self._element = {v: x for x, v in self.coords.items()}
        self._chars = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, x, y):
        return self._mul(x, y)

    def power(self, x, k: int):
        return self._element[tuple(k * c % n for c, n in
                                   zip(self.coords[x], self.orders))]

    def inverse(self, x):
        return self.power(x, -1)

    def order_of(self, x) -> int:
        return _element_order(x, self._mul, self.identity)

    def exponent(self) -> int:
        return math.lcm(*self.orders)

    def subgroup(self, gens):
        return tuple(span(gens, self._mul, self.identity))

    def char_labels(self):
        return itertools.product(*(range(n) for n in self.orders))

    def char_table(self):
        """Character exponents as numerators over the group exponent: row
        per label in `char_labels` order, column per element in `elements`
        order; built on first use."""
        if self._chars is None:
            e = self.exponent()
            r = len(self.orders)
            labels = np.array(list(self.char_labels()), dtype=np.int64)
            coords = np.array([self.coords[x] for x in self.elements],
                              dtype=np.int64)
            scale = np.array([e // n for n in self.orders], dtype=np.int64)
            table = (labels.reshape(self.size, r) * scale) @ coords.reshape(
                self.size, r).T
            self._chars = (table % e, e,
                           {x: i for i, x in enumerate(self.elements)})
        return self._chars


# ---------------------------------------------------------------------------
# coset presentations


def _member(group: MultGroup, x):
    if x not in group.coords:
        raise InvalidInputError(f"{x!r} is not an element of the group")
    return x


class CosetPresentation:
    """Quotient G/H with a multiplicative representative map.

    Classes are labelled by exponent vectors over basis classes whose orders
    are those of the quotient's cyclic basis (descending). The basis
    representatives default to that cyclic basis; any others must lie
    outside H and their classes must generate the quotient freely with the
    same orders. The representative of a product of basis classes is the
    product of basis representatives, so discrepancies R(J)R(K) = R(JK)
    h(J,K) factor over the cyclic factors.
    """

    def __init__(self, ambient: MultGroup, subgroup_gens, basis_reps=None):
        self.ambient = ambient
        mul = ambient.mul
        self.subgroup = ambient.subgroup(
            [_member(ambient, x) for x in subgroup_gens])
        self._sub_set = set(self.subgroup)
        # canonical (smallest) member of each element's class
        self.canon = {
            x: min(mul(x, h) for h in self.subgroup) for x in ambient.elements
        }
        canon = self.canon
        self.quotient = MultGroup(
            set(canon.values()), lambda a, b: canon[mul(a, b)],
            canon[ambient.identity],
        )
        self.class_orders = tuple(self.quotient.orders)
        if basis_reps is None:
            basis_reps = self.quotient.basis
        basis_reps = tuple(_member(ambient, x) for x in basis_reps)
        if len(basis_reps) != len(self.class_orders):
            raise InvalidInputError("wrong number of basis representatives")
        for r in basis_reps:
            if r in self._sub_set:
                raise InvalidInputError(
                    f"representative {r!r} lies in the subgroup")
        self.basis_reps = basis_reps
        # class coordinates over the basis classes; raises unless free
        self._coords = coordinate_map(
            [canon[r] for r in basis_reps], self.class_orders,
            self.quotient.mul, self.quotient.identity)

    @property
    def num_classes(self) -> int:
        return self.quotient.size

    def class_labels(self):
        return itertools.product(*(range(n) for n in self.class_orders))

    def class_of(self, g):
        return self._coords[self.canon[_member(self.ambient, g)]]

    def representative(self, m):
        out = self.ambient.identity
        for k, r in zip(m, self.basis_reps):
            out = self.ambient.mul(out, self.ambient.power(r, k))
        return out

    def subgroup_part(self, g):
        """h such that g = R(class(g)) h."""
        rep = self.representative(self.class_of(g))
        h = self.ambient.mul(g, self.ambient.inverse(rep))
        if h not in self._sub_set:
            raise InvalidInputError("representative map is inconsistent")
        return h

    def closure(self, l: int):
        """R(J_l)^{N_l}, an element of the subgroup."""
        h = self.ambient.power(self.basis_reps[l], self.class_orders[l])
        if h not in self._sub_set:
            raise InvalidInputError("basis closure left the subgroup")
        return h


# ---------------------------------------------------------------------------
# cocycle phases, lifted characters


class CocycleData:
    """Phases phi_i(classes) repairing the mismatch between products of coset
    representatives and representatives of products.

    `chars` is the subgroup H as a `MultGroup`; its labels index the
    subgroup characters Psi_i. Per basis factor the phase is the principal
    N_l-th root of Psi_i at the factor closure; general classes get the
    product. Satisfies  Psi_i(h(J,K)) phi_i(JK) = phi_i(J) phi_i(K)  exactly.

    `base` holds the basis-factor phases as int64 numerators over
    `den` = exponent(H) lcm(N_l): row per label in `chars.char_labels`
    order, column per basis factor. The principal N-th root of v / e is
    v / (e N), so column l is the character-table column at the closure
    of factor l times den / (e N_l).
    """

    def __init__(self, pres: CosetPresentation, chars: MultGroup):
        self.pres = pres
        self.chars = chars
        table, e, col = chars.char_table()
        orders = pres.class_orders
        self.den = e * math.lcm(*orders)
        closures = [col[pres.closure(l)] for l in range(len(orders))]
        scale = np.array([self.den // (e * n) for n in orders], dtype=np.int64)
        self.base = table[:, closures] * scale

    def phi_table(self):
        """(nums, den): phi exponents as numerators over `den`, row per
        label in `chars.char_labels` order, column per class in
        `pres.class_labels` order."""
        pres = self.pres
        classes = np.array(list(pres.class_labels()), dtype=np.int64).reshape(
            pres.num_classes, len(pres.class_orders))
        return self.base @ classes.T % self.den, self.den


class LiftedCharacters:
    """Characters of the ambient group built from coset characters, subgroup
    characters and cocycle phases; restrict to plain subgroup characters on H.

    The coset character with label m is the quotient group's character m at
    the class; labels are pairs (m, i) with i a label of the subgroup.
    """

    def __init__(self, cocycle: CocycleData):
        self.pres = cocycle.pres
        self.chars = cocycle.chars
        self.cocycle = cocycle
        self.labels = [
            (m, i)
            for m in self.pres.class_labels()
            for i in self.chars.char_labels()
        ]
        self._table = None

    def table(self):
        """(nums, den, col): the exponents as numerators over one
        denominator, row per label in `labels` order (those with a trivial
        coset part first), column col[g] per element g of the ambient group;
        built on first use."""
        if self._table is None:
            pres = self.pres
            elems = pres.ambient.elements
            q_table, q_e, q_col = pres.quotient.char_table()
            h_table, h_e, h_col = self.chars.char_table()
            phi, phi_den = self.cocycle.phi_table()
            den = math.lcm(q_e, h_e, phi_den)
            classes = {m: c for c, m in enumerate(pres.class_labels())}
            coset = q_table[:, [q_col[pres.canon[g]] for g in elems]]
            sub = h_table[:, [h_col[pres.subgroup_part(g)] for g in elems]]
            sub = sub * (den // h_e) + phi[:, [classes[pres.class_of(g)]
                                              for g in elems]] * (den // phi_den)
            nums = coset[:, None, :] * (den // q_e) + sub[None, :, :]
            self._table = (nums.reshape(len(self.labels), len(elems)) % den,
                           den, {g: k for k, g in enumerate(elems)})
        return self._table

