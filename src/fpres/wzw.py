"""Generators of concrete modular data: su(2)_k, su(N)_k and the Ising model.

The su(N) S matrix is a sum over the Weyl group (the permutations of the N
orthogonal axes) of signed roots of unity. Every exponent is an exact
integer over n (n + k), so each permutation costs one small product and one
lookup in a single table of roots, with no exponential per entry. Weights
are Dynkin label tuples at level k. Conformal weights and central charges
are exact rationals throughout. The S matrix can be cached on disk; cache
entries carry the tag SUN_S_METHOD of the method that computed them, and an
entry with another tag is recomputed.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

from . import modular
from .errors import InvalidInputError, ResourceLimitError
from .modular import GATE_TOL, ModularData, dense_budget, unitarity_deviation

# work of the su(n) Weyl sum: n! permutations, each costing count^2 entries
# of S (count fields) plus a fixed overhead worth about 1024 entries, which
# dominates at small levels; 5e8 is about 5 s on one 2-vCPU BLAS thread
SUN_WEYL_LIMIT = 500_000_000


def su2(k: int) -> ModularData:
    """Level-k su(2): fields a = 0..k (twice the spin)."""
    if k < 1:
        raise InvalidInputError("level must be >= 1")
    # the dense_budget test, inline: su2 makes no call into another module
    if (k + 1) ** 2 > modular.DENSE_BUDGET:
        raise ResourceLimitError(
            f"the S of su2_{k} would need {(k + 1) ** 2:.2e} entries, over "
            f"the dense budget {modular.DENSE_BUDGET:.2e}")
    n = k + 2
    labels = tuple(range(k + 1))
    h = tuple(Fraction(a * (a + 2), 4 * n) for a in labels)
    c = Fraction(3 * k, n)
    grid = np.arange(1, k + 2)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(grid, grid) / n)
    return ModularData(labels, h, c, s.astype(complex), name=f"su2_{k}")


def ising() -> ModularData:
    labels = ("1", "psi", "sigma")
    h = (Fraction(0), Fraction(1, 2), Fraction(1, 16))
    c = Fraction(1, 2)
    r = math.sqrt(2.0)
    s = 0.5 * np.array(
        [[1, 1, r], [1, 1, -r], [r, -r, 0]], dtype=complex
    )
    return ModularData(labels, h, c, s, name="ising")


# ---------------------------------------------------------------------------
# su(N)_k: the Weyl-group sum over exact integer exponents


def sun_weights(n: int, k: int):
    """Dynkin label tuples (lambda_1..lambda_{n-1}) with sum <= k."""
    out = []
    for lam in itertools.product(*(range(k + 1) for _ in range(n - 1))):
        if sum(lam) <= k:
            out.append(lam)
    return out


def _weight_numerators(n: int, labels) -> np.ndarray:
    """2 n (n + k) h for every Dynkin label: the inverse Cartan form, scaled
    by n to integers, of lambda against lambda + 2 rho."""
    i = np.arange(1, n)
    form = np.minimum.outer(i, i) * n - np.outer(i, i)
    lam = np.array(labels, dtype=np.int64).reshape(-1, n - 1)
    return np.einsum("ai,ij,aj->a", lam, form, lam + 2)


def _shifted_coords(n: int, labels) -> np.ndarray:
    """lambda + rho in the orthogonal basis, uncentered: the integers
    a_i = lambda_{i+1} + ... + lambda_{n-1} + (n - 1 - i), one row per label."""
    lam = np.array(labels, dtype=np.int64).reshape(-1, n - 1)
    tails = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
    return np.hstack([tails, np.zeros((len(lam), 1), np.int64)]) + np.arange(n - 1, -1, -1)


def sun(n: int, k: int, cache_dir=None) -> ModularData:
    """Level-k su(n) modular data; Weyl-sum S matrix, weights exact."""
    if n < 2 or k < 1:
        raise InvalidInputError("need n >= 2 and level >= 1")
    count = math.comb(n - 1 + k, k)
    dense_budget(count * count, f"the S of su({n}) level {k}")
    work = math.factorial(n) * (count * count + 1024)
    if work > SUN_WEYL_LIMIT:
        raise ResourceLimitError(
            f"su({n}) level {k}: the Weyl sum over {n}! permutations of "
            f"{count}^2 entries is {work:.1e} steps, over the limit "
            f"{SUN_WEYL_LIMIT:.1e}"
        )
    labels = tuple(sun_weights(n, k))
    if len(labels) != count:
        raise InvalidInputError("weight enumeration mismatch")
    den = 2 * n * (n + k)
    h = tuple(Fraction(int(q), den) for q in _weight_numerators(n, labels))
    c = Fraction(k * (n * n - 1), n + k)
    name = f"su{n}_{k}"

    s = _cache_load(cache_dir, name, count) if cache_dir else None
    if s is None:
        s = _sun_s_matrix(n, k, labels)
        if cache_dir:
            _cache_store(cache_dir, name, s)
    return ModularData(labels, h, c, s, name=name)


def _sun_s_matrix(n: int, k: int, labels) -> np.ndarray:
    """S_ab proportional to sum over permutations p of sign(p) exp(-2 pi i
    x_a[p] . x_b / (n + k)), x the centered coordinates of lambda + rho.

    As x_b sums to zero, x_a[p] . x_b = a[p] . (n x_b) / n with the integer
    rows a of `_shifted_coords`, so every term is w^m for w = exp(-2 pi i /
    (n (n + k))) and an integer m, |m| <= bound. Per permutation, m comes
    from one product of small integers (exact in float64) and the terms from
    one lookup at m + bound in the table of w^j, j = -bound..bound; no
    exponential per entry.
    """
    a = _shifted_coords(n, labels)
    nx = n * a - a.sum(axis=1, keepdims=True)
    order = n * (n + k)
    bound = int(a.max()) * int(np.abs(nx).sum(axis=1).max())
    roots = np.exp(-2j * np.pi * np.arange(order) / order)
    table = roots[np.arange(-bound, bound + 1) % order]
    left, right = a.astype(float), nx.T.astype(float)
    acc = np.zeros((len(labels), len(labels)), dtype=complex)
    for perm in itertools.permutations(range(n)):
        terms = table.take((left[:, perm] @ right).astype(np.intp) + bound)
        if _perm_sign(perm) > 0:
            acc += terms
        else:
            acc -= terms
    # fix normalization by the norm of row 0 and the phase by S_00 > 0
    s = acc / math.sqrt(np.vdot(acc[0], acc[0]).real)
    s *= abs(s[0, 0]) / s[0, 0]
    dev = unitarity_deviation(s)
    if dev > GATE_TOL:
        raise InvalidInputError(f"Weyl sum gave a non-unitary S ({dev:.2e})")
    return s


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# S-matrix disk cache: one .npy and one meta file per su(N)_k. The meta file
# holds the size, the sha256 of the .npy file's bytes (`modular.save_npy`)
# and the method tag; an entry whose tag differs is a miss and is rewritten,
# so a hit returns the same bits as a fresh computation.

SUN_S_METHOD = "weyl-sum exact-exponent table v2"


def _cache_paths(cache_dir, name):
    return (
        os.path.join(cache_dir, f"{name}_s.npy"),
        os.path.join(cache_dir, f"{name}_meta.json"),
    )


def _cache_store(cache_dir, name, s: np.ndarray) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    data_path, meta_path = _cache_paths(cache_dir, name)
    # write-then-rename keeps partial files out of the cache
    fd, tmp = tempfile.mkstemp(dir=cache_dir)
    os.close(fd)
    digest = modular.save_npy(tmp, s)
    os.replace(tmp, data_path)
    meta = {"name": name, "size": s.shape[0], "method": SUN_S_METHOD,
            "sha256": digest}
    fd, tmp = tempfile.mkstemp(dir=cache_dir)
    with os.fdopen(fd, "w") as fh:
        json.dump(meta, fh)
    os.replace(tmp, meta_path)


def _cache_load(cache_dir, name, expected_size):
    """The cached S of `name`, or None on a miss: a missing, unreadable or
    corrupted entry, or one written by another method than SUN_S_METHOD."""
    data_path, meta_path = _cache_paths(cache_dir, name)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        if (not isinstance(meta, dict) or meta.get("method") != SUN_S_METHOD
                or meta.get("size") != expected_size):
            return None
        return modular.load_npy(data_path, meta.get("sha256"),
                                (expected_size, expected_size))
    except (OSError, ValueError):  # InvalidInputError is a ValueError
        return None
