"""Reference constructions that only the tests use.

`fusion_matrix` is one field's Verlinde fusion matrix from the dense kernel
behind `modular.fusion_tensor`; `decompose` is the group
Z_{N_1} x ... x Z_{N_r} as a `MultGroup` over int tuples.
"""
import itertools

import numpy as np

from fpres.errors import InvalidInputError
from fpres.groups import MultGroup
from fpres.modular import ModularData, _fusion_ints, _verlinde


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
