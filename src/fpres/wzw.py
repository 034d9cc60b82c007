"""Generators of concrete modular data: su(2)_k, su(N)_k and the Ising model.

The su(N) S matrix is a Weyl-group sum over centered orthogonal coordinates
of shifted weights; weights are Dynkin label tuples at level k. Conformal
weights and central charges are exact rationals throughout.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .modular import ModularData

SUN_FIELD_LIMIT = 5000


def su2(k: int) -> ModularData:
    """Level-k su(2): fields a = 0..k (twice the spin)."""
    if k < 1:
        raise InvalidInputError("level must be >= 1")
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
# su(N)_k via the Weyl determinant formula


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


def sun_weight_h(n: int, k: int, lam) -> Fraction:
    """Exact conformal weight from the inverse Cartan quadratic form."""
    return Fraction(int(_weight_numerators(n, [lam])[0]), 2 * n * (n + k))


def _orthogonal_coords(n: int, lam) -> np.ndarray:
    """Centered coordinates of lambda + rho in the orthogonal basis."""
    l = [sum(lam[j] for j in range(i, n - 1)) for i in range(n - 1)] + [0]
    a = np.array([l[i] + (n - 1 - i) for i in range(n)], dtype=float)
    return a - a.mean()

def sun(n: int, k: int, cache_dir=None) -> ModularData:
    """Level-k su(n) modular data; Weyl-sum S matrix, weights exact."""
    if n < 2 or k < 1:
        raise InvalidInputError("need n >= 2 and level >= 1")
    count = math.comb(n - 1 + k, k)
    if count > SUN_FIELD_LIMIT:
        raise ResourceLimitError(
            f"su({n}) level {k} has {count} fields, over the limit {SUN_FIELD_LIMIT}"
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
    coords = np.stack([_orthogonal_coords(n, lam) for lam in labels])
    kappa = n + k
    acc = np.zeros((len(labels), len(labels)), dtype=complex)
    for perm in itertools.permutations(range(n)):
        sgn = _perm_sign(perm)
        dots = coords[:, perm] @ coords.T
        acc += sgn * np.exp(-2j * np.pi * dots / kappa)
    # fix normalization and overall phase by unitarity and S_00 > 0
    norm = math.sqrt((acc @ acc.conj().T)[0, 0].real)
    s = acc / norm
    s *= abs(s[0, 0]) / s[0, 0]
    dev = np.abs(s @ s.conj().T - np.eye(len(labels))).max()
    if dev > 1e-8:
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
# S-matrix disk cache


def _cache_paths(cache_dir, name):
    return (
        os.path.join(cache_dir, f"{name}_s.npy"),
        os.path.join(cache_dir, f"{name}_meta.json"),
    )


def _cache_store(cache_dir, name, s: np.ndarray) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    data_path, meta_path = _cache_paths(cache_dir, name)
    payload = s.astype(complex).tobytes()
    meta = {
        "name": name,
        "size": s.shape[0],
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    # write-then-rename keeps partial files out of the cache
    for path, writer in (
        (data_path, lambda fh: np.save(fh, s)),
        (meta_path, lambda fh: fh.write(json.dumps(meta).encode())),
    ):
        fd, tmp = tempfile.mkstemp(dir=cache_dir)
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)


def _cache_load(cache_dir, name, expected_size):
    data_path, meta_path = _cache_paths(cache_dir, name)
    if not (os.path.exists(data_path) and os.path.exists(meta_path)):
        return None
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        s = np.load(data_path)
    except (OSError, ValueError, json.JSONDecodeError):
        return None
    if meta.get("size") != expected_size or s.shape != (expected_size, expected_size):
        return None
    if meta.get("sha256") != hashlib.sha256(s.astype(complex).tobytes()).hexdigest():
        return None
    return s
