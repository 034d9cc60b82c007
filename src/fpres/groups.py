"""Finite abelian groups.

One group type, ``MultGroup``, carries the algebra: a finite abelian group
over sortable element ids whose product is supplied by a callable, with a
cyclic basis, exponent coordinates and an integer character table. The
engine builds it over field ids (the center, untwisted stabilizers, the
residual classes on an orbit); `Extension.resolve` multiplies whole arrays
of center elements as sums of coordinate rows, and reads its closure
phases and its dressing straight off the character table of each orbit's
untwisted stabilizer.
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
    most a few hundred elements (fusion subgroups, stabilizers, small vector
    groups).
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
        self._rows = None

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

    def label_index(self, vectors) -> np.ndarray:
        """Index in `char_labels` order of each exponent vector along the
        last axis of `vectors`, reduced mod the orders."""
        orders = np.array(self.orders, dtype=np.int64)
        strides = np.array([math.prod(self.orders[j + 1:])
                            for j in range(len(orders))], dtype=np.int64)
        return (np.asarray(vectors, dtype=np.int64) % orders) @ strides

    def coordinate_rows(self) -> np.ndarray:
        """Exponent vectors of `elements` in order, as int64 rows; built
        once."""
        if self._rows is None:
            self._rows = np.array([self.coords[x] for x in self.elements],
                                  dtype=np.int64).reshape(self.size, -1)
            self._by_label = np.empty(self.size, dtype=np.intp)
            self._by_label[self.label_index(self._rows)] = np.arange(self.size)
        return self._rows

    def positions(self, vectors) -> np.ndarray:
        """Positions in `elements` of the elements with the exponent vectors
        along the last axis of `vectors`, reduced mod the orders: sums of
        coordinate rows are products, so whole arrays multiply at once."""
        self.coordinate_rows()
        return self._by_label[self.label_index(vectors)]

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
