"""Reference constructions that only the tests use.

`fusion_matrix` is one field's Verlinde fusion matrix from the dense kernel
behind `modular.fusion_tensor`; `decompose` is the group
Z_{N_1} x ... x Z_{N_r} as a `MultGroup` over int tuples; `pointed` is the
modular data of such a group with a quadratic form, built independently of
the engine.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from fpres.errors import InvalidInputError
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
