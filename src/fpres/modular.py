"""Modular data containers: S and T matrices, fusion, tensor products.

A theory is a list of field labels with exact rational conformal weights,
an exact rational central charge and a unitary symmetric S matrix. A
tensor product keeps S in factorized form (`ProductS`) and materializes
blocks on demand; only `ProductS.to_dense` forms the dense S, on request and
within `dense_budget`, the one size check of every dense array.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    FusionIntegralityError,
    InvalidInputError,
    ResourceLimitError,
)
from .phases import common_denominator, numerators, units

DENSE_BUDGET = 1 << 25  # max entries of any one dense array the engine makes
# rows per panel of every row-blocked pass over an N-column array (`panels`):
# no temporary exceeds ROW_BLOCK x N entries, and a panel holds at most two
ROW_BLOCK = 128
# tolerances, one per job
S_TOL = 1e-6        # S entries: current detection, row matching, conjugation
FUSION_TOL = 1e-6   # integrality of the Verlinde sums
GATE_TOL = 1e-8     # consistency gates that raise (resolved eta^2, su(N) S)
MODULAR_TOL = 1e-9  # check_modular
LABEL_DEPTH = 100  # lists a field label may nest, well inside the stack


def dense_budget(entries: int, what: str) -> None:
    """Raise ResourceLimitError when `what`, a dense array of `entries`
    entries, would exceed DENSE_BUDGET; call it before allocating."""
    if entries > DENSE_BUDGET:
        raise ResourceLimitError(
            f"{what} would need {entries:.2e} entries, over the dense budget "
            f"{DENSE_BUDGET:.2e}"
        )


def panels(n: int, block: int = 0, width: int = 0):
    """The row slices of a pass over n rows: ROW_BLOCK rows each, the last
    one ragged; rows of `block` entries each, out of arrays of `width`
    columns, as many as fit in ROW_BLOCK x max(width, ROW_BLOCK) entries,
    and at least one."""
    h = max(1, ROW_BLOCK * max(width, ROW_BLOCK) // block) if block else ROW_BLOCK
    return [slice(lo, min(lo + h, n)) for lo in range(0, n, h)]


def product_ids(parts, sizes) -> np.ndarray:
    """Row-major field ids of a tensor product over the per-factor id
    arrays `parts`, in itertools.product order of the parts; `sizes` are
    the factor field counts."""
    ids = np.zeros(1, dtype=np.intp)
    for p, n in zip(parts, sizes):
        ids = np.add.outer(ids * n, np.asarray(p, dtype=np.intp)).ravel()
    return ids


class ProductS:
    """Kronecker product of factor S matrices, evaluated lazily.

    Field ids are row-major multi-indices over the factor sizes, matching
    itertools.product over the factor label lists.
    """

    def __init__(self, mats):
        self.mats = [np.asarray(m) for m in mats]
        self.sizes = tuple(m.shape[0] for m in self.mats)
        self.size = math.prod(self.sizes)

    def block(self, rows, cols) -> np.ndarray:
        """`to_dense()[np.ix_(rows, cols)]`, by `panels`: the factor entries
        multiply in np.kron's order and, like it, out of place. Bit for bit
        for a real S only: for a complex S the last bit of an entry may
        depend on the shape of the block that holds it, since numpy may
        multiply a large temporary in place with its operands swapped."""
        ri, ci = (np.unravel_index(np.asarray(x, dtype=np.intp), self.sizes)
                  for x in (rows, cols))
        out = np.empty((len(ri[0]), len(ci[0])), dtype=complex)
        for p in panels(len(out)):
            part = np.ones(out[p].shape, dtype=complex)
            for m, r, c in zip(self.mats, ri, ci):
                part = part * m[r[p, None], c]
            out[p] = part
        return out

    def to_dense(self) -> np.ndarray:
        dense_budget(self.size * self.size, "the dense product S")
        out = np.array([[1.0 + 0.0j]])
        for m in self.mats:
            out = np.kron(out, m)
        return out


@dataclass
class ModularData:
    """Field labels, exact weights, central charge and the S matrix."""

    labels: tuple
    h: tuple
    c: Fraction
    s: object            # np.ndarray, or ProductS for tensor products
    name: str = ""
    factors: tuple = None  # factor ModularData for tensor products
    s_file: str = None   # the .npy file S was loaded from, if not inline,
    s_sha256: str = None  # and the sha256 of its bytes that the load checked

    def __post_init__(self):
        if len(self.labels) != len(self.h):
            raise InvalidInputError("labels and weights differ in length")
        if isinstance(self.s, np.ndarray):
            if self.s.ndim != 2 or self.s.shape[0] != self.s.shape[1]:
                raise InvalidInputError(
                    f"S matrix of {self.name or 'modular data'} is not square: "
                    f"shape {self.s.shape}"
                )
            n_s = self.s.shape[0]
        else:
            n_s = self.s.size
        if self.size != n_s:
            raise InvalidInputError("S matrix size does not match field count")
        # a product indexes row-major through its factors, whose labels are
        # distinct, so only an atomic theory keeps a dict
        if not self.is_product:
            self._index = dict(zip(self.labels, range(len(self.labels))))
            if len(self._index) != len(self.labels):
                raise InvalidInputError("field labels are not distinct")
        self._conj = None
        self._unitary = None
        self._symmetric = None
        self._phases = None
        # (distinct weights, index of each field's weight among them), set
        # by `tensor`: `phase_numerators` then reads each value once
        self._distinct_h = None
        self._perms = {}  # cache: current permutations by current

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def is_product(self) -> bool:
        return self.factors is not None

    def index(self, label) -> int:
        try:
            if not self.is_product:
                return self._index[label]
            if not (isinstance(label, tuple)
                    and len(label) == len(self.factors)):
                raise KeyError(label)
            i = 0
            for f, part in zip(self.factors, label):
                i = i * f.size + f._index[part]
            return i
        except KeyError:
            raise InvalidInputError(f"unknown field label {label!r}") from None

    def phase_numerators(self):
        """(den, hn, tn): the weights h and the T exponents h - c/24, mod 1,
        as integer numerators over their common denominator den."""
        if self._phases is None:
            c24 = Fraction(self.c) / 24
            hs, inv = self._distinct_h or (self.h, None)
            den = math.lcm(common_denominator(hs), c24.denominator)
            hn = numerators(hs, den) % den
            tn = (hn - c24.numerator * (den // c24.denominator) % den) % den
            if inv is not None:
                hn, tn = hn[inv], tn[inv]
            hn.flags.writeable = tn.flags.writeable = False
            self._phases = (den, hn, tn)
        return self._phases

    def t_exponent(self, a: int) -> Fraction:
        den, _, tn = self.phase_numerators()
        return Fraction(int(tn[a]), den)

    def t_values(self) -> np.ndarray:
        den, _, tn = self.phase_numerators()
        return units(tn, den)

    # --- S access, uniform over dense and factorized storage

    def s_block(self, rows, cols) -> np.ndarray:
        if self.is_product:
            return self.s.block(rows, cols)
        return self.s[np.ix_(list(rows), list(cols))]

    def s_dense(self) -> np.ndarray:
        if self.is_product:
            return self.s.to_dense()
        return self.s

    def conjugation(self) -> np.ndarray:
        """Permutation a -> abar, read off from the rows of S
        (`conjugation_from_rows`), factor-wise for tensor products."""
        if self._conj is not None:
            return self._conj
        if self.is_product:
            self._conj = product_ids([f.conjugation() for f in self.factors],
                                     [f.size for f in self.factors])
        else:
            self._conj = conjugation_from_rows(self)
        return self._conj

    def unitarity(self) -> float:
        """|S S^dagger - 1|max, computed once; `check_modular`, the
        conjugation and the current permutations share it."""
        if self._unitary is None:
            self._unitary = unitarity_deviation(self.s_dense())
        return self._unitary

    def symmetry(self) -> float:
        """|S - S^T|max, computed once; `check_modular` and the conjugation
        share it."""
        if self._symmetric is None:
            self._symmetric = symmetry_deviation(self.s_dense())
        return self._symmetric

    def atomic_factors(self):
        return self.factors if self.is_product else (self,)


# ---------------------------------------------------------------------------
# dense reductions over S, by row panels


def _block_max(n: int, dev, upper: bool = False) -> float:
    """Max of dev(rows, lo) over the `panels` of an N x N matrix: `rows` is
    the panel's row slice and `lo` its first column, the panel's first row
    when only entries on and above the diagonal count. NaN propagates."""
    return float(np.max([dev(r, r.start if upper else 0) for r in panels(n)],
                        initial=0.0))


def unitarity_deviation(s: np.ndarray) -> float:
    """max |S S^dagger - 1| over all entries. S S^dagger is Hermitian, so
    only the entries on and above the diagonal are formed, as conjugates."""
    def dev(r, lo):
        block = s[r].conj() @ s[lo:].T   # its columns start at the diagonal
        diag = np.arange(block.shape[0])
        block[diag, diag] -= 1
        return np.abs(block).max()

    return _block_max(s.shape[0], dev, upper=True)


def symmetry_deviation(s: np.ndarray) -> float:
    """max |S - S^T|: antisymmetric, so the entries on and above the
    diagonal suffice."""
    return _block_max(s.shape[0],
                      lambda r, lo: np.abs(s[r, lo:] - s[lo:, r].T).max(),
                      upper=True)


def cube_deviation(s: np.ndarray, t: np.ndarray, symmetric: bool) -> float:
    """max |S T S - T^-1 S T^-1| for the diagonal unitary T = diag(t): the
    relation (ST)^3 = S^2 for unitary S. The difference is symmetric when
    S is, so a `symmetric` S forms only the entries on and above the
    diagonal."""
    tbar = t.conj()

    def dev(r, lo):
        block = (s[r] * t) @ s[:, lo:]
        rhs = tbar[r, np.newaxis] * s[r, lo:]
        rhs *= tbar[lo:]
        block -= rhs
        del rhs
        return np.abs(block).max()

    return _block_max(s.shape[0], dev, upper=symmetric)


def match_rows(s: np.ndarray, image):
    """(perm, dev): perm[a] is the row of S whose key, its projection onto
    one fixed vector, is nearest to the key of image(S[a]), and dev is the
    full check max_a |image(S[a]) - S[perm[a]]|. `image` maps a panel of
    rows to a new array of their images, which the check overwrites. O(N^2),
    by `panels`."""
    n = s.shape[0]
    # one fixed key vector for every call; the stdlib generator keeps
    # numpy.random (several MB resident) unimported
    rng = random.Random(0)
    probe = np.array([rng.random() - 0.5 for _ in range(2 * n)]).view(complex)
    keys = (s @ probe).real
    order = np.argsort(keys)
    ranked = keys[order]
    # nearest key: the number of midpoints between sorted keys below it
    mids = (ranked[1:] + ranked[:-1]) / 2
    perm = np.empty(n, dtype=np.intp)

    def dev(r, lo):
        img = image(s[r])
        perm[r] = order[np.searchsorted(mids, (img @ probe).real)]
        img -= s[perm[r]]
        return np.abs(img).max()

    return perm, _block_max(n, dev)


def conjugation_from_rows(md: ModularData) -> np.ndarray:
    """Charge conjugation C of an atomic S, checked to S_TOL.

    For a unitary symmetric S, S^2 = C holds exactly when S = C conj(S),
    that is when row abar of S is the conjugate of row a. So C is found by
    matching each conjugated row (`match_rows`), behind the unitarity and
    symmetry of S, and the check is |S - C conj(S)|max <= S_TOL together
    with C C = 1."""
    unitary, symmetric = md.unitarity(), md.symmetry()
    if not (unitary <= S_TOL and symmetric <= S_TOL):  # NaN fails too
        raise InvalidInputError(
            f"S is not unitary and symmetric (deviations {unitary:.2e}, "
            f"{symmetric:.2e}), so S^2 is no permutation"
        )
    perm, dev = match_rows(md.s_dense(), np.conj)
    if not dev <= S_TOL:
        raise InvalidInputError(
            f"S is not C conj(S) for a permutation C (deviation {dev:.2e})"
        )
    if np.any(perm[perm] != np.arange(md.size)):
        raise InvalidInputError("conjugation is not an involution")
    return perm


def check_modular(md: ModularData) -> dict:
    """Deviations of the defining constraints, ok within MODULAR_TOL;
    factor-wise for products. A NaN deviation propagates into
    `max_deviation` and fails.

    An atomic S takes two dense products, S S^dagger (`ModularData.unitarity`,
    shared with the current permutations) and S T S for the cube relation
    (`cube_deviation`), each over the entries on and above the diagonal.
    The charge conjugation (`ModularData.conjugation`) reports 0.0 or inf."""
    if md.is_product:
        reports = [check_modular(f) for f in md.factors]
        worst = float(np.max([r["max_deviation"] for r in reports]))
        return {
            "ok": all(r["ok"] for r in reports),
            "max_deviation": worst,
            "factors": reports,
        }

    s = md.s
    checks = {}
    checks["unitary"] = md.unitarity()
    checks["symmetric"] = md.symmetry()
    checks["st_cubed"] = cube_deviation(s, md.t_values(),
                                        checks["symmetric"] <= MODULAR_TOL)
    try:
        md.conjugation()
        checks["charge_conjugation"] = 0.0
    except InvalidInputError:
        checks["charge_conjugation"] = float("inf")
    row = s[0]
    checks["vacuum_row_imag"] = float(np.abs(row.imag).max())
    checks["vacuum_row_positive"] = float(max(0.0, -row.real.min()))
    worst = float(np.max(list(checks.values())))
    return {"ok": worst <= MODULAR_TOL, "max_deviation": worst, "checks": checks}


# ---------------------------------------------------------------------------
# fusion


def _verlinde(s: np.ndarray, fields, upper: bool = False):
    """Yield (N, residual) for each field a in `fields`: the Verlinde sums
    N_ab^c = sum_m S_am S_bm conj(S_cm) / S_0m rounded to integers, and
    max |sum - N| over them, imaginary part included; NaN propagates. Rows
    b run over every field, or over b >= a when `upper` (N_ab^c = N_ba^c).
    An S with no imaginary part at all is summed in real arithmetic, where
    N_ab^c is symmetric in a, b and c by the formula alone, so `upper`
    forms each sum once, over a <= b <= c: the field of `fields` is then
    the middle index b, with the rows a <= b and the columns c >= b, and
    the residual is formed in place. A complex S forms every column."""
    real = not s.imag.any()  # a NaN imaginary part counts as one
    s = np.ascontiguousarray(s.real) if real else s  # contiguous for BLAS
    sc = s.T if real else s.conj().T
    for a in fields:
        if upper and real:
            raw = (s[:a + 1] * (s[a] / s[0])) @ sc[:, a:]
            ints = np.rint(raw)
            raw -= ints
            yield ints, float(np.abs(raw, out=raw).max())
            continue
        lo = a if upper else 0
        raw = (s[lo:] * (s[a] / s[0])) @ (sc[:, lo:] if real else sc)
        ints = np.rint(raw.real)
        yield ints, float(np.abs(raw - ints).max())


def _fusion_ints(out: np.ndarray, residual: float) -> np.ndarray:
    """One `_verlinde` row as int64, raising on a residual above FUSION_TOL
    or a negative coefficient."""
    if not residual <= FUSION_TOL:  # NaN fails too
        raise FusionIntegralityError(
            f"fusion coefficients not integral (residual {residual:.2e})"
        )
    if out.min() < 0:
        raise FusionIntegralityError("negative fusion coefficient")
    return out.astype(np.int64)


def fusion_tensor(md: ModularData) -> np.ndarray:
    """Every fusion matrix (N_a)_b^c. An atomic S takes one `_verlinde` row
    per field a; a product takes the Kronecker product of its factor
    tensors over the row-major product ids, N^A x N^B, and forms no S."""
    dense_budget(md.size ** 3, f"the fusion tensor of {md.name}")
    if md.is_product:
        out = np.ones((1, 1, 1), dtype=np.int64)
        for f in md.factors:
            n = len(out) * f.size
            out = np.einsum("abc,xyz->axbycz", out,
                            fusion_tensor(f)).reshape(n, n, n)
        return out
    out = np.empty((md.size,) * 3, dtype=np.int64)
    for a, row in enumerate(_verlinde(md.s, range(md.size))):
        out[a] = _fusion_ints(*row)
    return out


def sampled_fusion_residual(md: ModularData, n_samples: int, rng) -> float:
    """Max integrality residual over randomly sampled fusion rows of an
    atomic S, NaN propagating; O(N^2) per sample. The pairs (a, b) are
    drawn a, then b, per sample, and their rows N_{ab}^c, for all c, come
    from one matrix product."""
    pairs = [(rng.randrange(md.size), rng.randrange(md.size))
             for _ in range(n_samples)]
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    # row k: S_am S_bm / S_0m for the k-th pair (a, b)
    vecs = md.s[a] * md.s[b] / md.s[0]
    # column k: sum_m S_am S_bm conj(S_cm) / S_0m, as conj(S) @ vecs.T
    # without copying S; the residual is formed in place
    cols = md.s @ vecs.conj().T
    np.conjugate(cols, out=cols)
    cols -= np.rint(cols.real)
    return float(np.abs(cols).max(initial=0.0))


# ---------------------------------------------------------------------------
# tensor products


def tensor(*mds: ModularData, name: str = "") -> ModularData:
    """The product of `mds` over their atomic factors, with its S kept as a
    `ProductS` of the factor S matrices."""
    if len(mds) < 1:
        raise InvalidInputError("tensor needs at least one factor")
    factors = []
    for md in mds:
        factors.extend(md.atomic_factors())
    if any(isinstance(f.s, ProductS) for f in factors):
        raise InvalidInputError("atomic factors must carry dense S matrices")
    labels = tuple(itertools.product(*(f.labels for f in factors)))
    # weights as integer grids over one denominator, row-major like labels
    den = math.lcm(*(common_denominator(f.h) for f in factors))
    grid = np.zeros(1, dtype=np.int64)
    for f in factors:
        grid = np.add.outer(grid, numerators(f.h, den)).ravel()
    vals, inv = np.unique(grid, return_inverse=True)
    distinct = [Fraction(int(v), den) for v in vals]
    h = tuple(map(distinct.__getitem__, inv.tolist()))
    c = sum((f.c for f in factors), Fraction(0))
    if not name:
        name = " x ".join(f.name or "?" for f in factors)
    md = ModularData(labels, h, c, ProductS([f.s for f in factors]),
                     name=name, factors=tuple(factors))
    md._distinct_h = (distinct, inv)
    return md


# ---------------------------------------------------------------------------
# serialization, format "modular-data v1"
#
# Every JSON file fpres writes goes through `dump_json`, the stdlib encoder at
# indent=1 with each ndarray leaf written as its `.tolist()`. Every matrix
# fpres writes is an .npy file beside its document, written by `save_npy` and
# named in the document as {"file": name, "sha256": hex} of its bytes: each S
# (`save`), and each bundle matrix and the table of `fpres fusion --out`
# (`save_beside`, called by `cli._write_json`). Every JSON file fpres reads
# goes through `_read_json`, one `json.load`. An S or a bundle matrix inline
# as [re, im] pairs, as in external inputs and older runs, still loads: its
# nested lists go to `complex_array`, so a load holds the text, the Python
# floats and the array at once, about 3.3x the file at its peak.


def _listed(obj):
    """The `default` of `dump_json`: an ndarray as its `.tolist()`."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable"
    )


def dump_json(doc, fh) -> None:
    """Write `doc` and a newline to the text file `fh` as `json.dump(doc,
    fh, indent=1)` does with every ndarray leaf listed. The encoder streams
    its chunks to `fh`, so no string of the whole document is built."""
    json.dump(doc, fh, indent=1, default=_listed)
    fh.write("\n")


def _read_json(path) -> dict:
    """The JSON object in the file at `path`, as `json.load` gives it, a
    syntax error raised as `InvalidInputError` naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"{path} is not {exc.encoding} text: {exc.reason} at byte "
            f"{exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    except RecursionError:
        raise InvalidInputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path} does not hold a JSON object")
    return doc


def complex_array(obj, field: str) -> np.ndarray:
    """Complex array from nested [re, im] pairs of JSON numbers (ints,
    floats, bools), bitwise equal to `complex(re, im)` per pair; a float64
    array of pairs is viewed without a copy.

    Strings, nulls, ragged rows and pairs that are not exactly two numbers
    raise `InvalidInputError` naming `field`.
    """
    try:
        a = np.asarray(obj)
    except ValueError:
        raise InvalidInputError(f"{field} has rows of unequal length") from None
    numbers = a.dtype.kind in "biuf" or (
        a.dtype.kind == "O"
        and all(isinstance(x, (int, float)) for x in a.flat)
    )
    if not numbers:
        raise InvalidInputError(f"{field} must hold numbers only")
    if a.shape[-1:] != (2,):
        raise InvalidInputError(
            f"{field} entries must be [re, im] pairs, got shape {a.shape}"
        )
    try:
        a = np.ascontiguousarray(a, dtype=np.float64)
    except OverflowError:
        raise InvalidInputError(
            f"{field} holds a number too large for a float"
        ) from None
    return a.view(np.complex128).reshape(a.shape[:-1])


def complex_pairs(z: np.ndarray) -> np.ndarray:
    """The complex array `z` as float64 [re, im] pairs, shape z.shape + (2,)."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return z.view(np.float64).reshape(z.shape + (2,))


def _label_to_json(lab):
    if isinstance(lab, tuple):
        return [_label_to_json(x) for x in lab]
    return lab


def _label_from_json(lab, depth: int = 0):
    if isinstance(lab, list):
        if depth == LABEL_DEPTH:
            raise InvalidInputError(f"label nested deeper than {LABEL_DEPTH} lists")
        return tuple([_label_from_json(x, depth + 1) for x in lab])
    if isinstance(lab, dict):
        raise InvalidInputError(
            f"label {lab!r} is an object; a label is a string, number, "
            f"boolean, null or a list of labels"
        )
    return lab


def _rational(text, field: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidInputError(
            f"{field} {text!r} has a zero denominator") from None
    except (OverflowError, ValueError):  # inf, NaN, a string of no number
        raise InvalidInputError(
            f"{field} {text!r} is not a finite rational") from None


def _npy_image(a: np.ndarray):
    """(chunks, sha256): the bytes `np.save` writes for the C-order array
    `a`, as its header and a view of its buffer, and their sha256 hex
    digest."""
    a = np.ascontiguousarray(a)
    fp = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fp, np.lib.format.header_data_from_array_1_0(a))
    chunks = (fp.getvalue(), a.reshape(-1).view(np.uint8))
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return chunks, digest.hexdigest()


def _write_chunks(path, chunks) -> None:
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def save_npy(path, a: np.ndarray) -> str:
    """Write `a` to `path` as `np.save` does, in C order, and return the
    sha256 hex digest of the bytes written."""
    chunks, digest = _npy_image(a)
    _write_chunks(path, chunks)
    return digest


def load_npy(path, sha256, shape) -> np.ndarray:
    """The C-order complex128 array of `shape` in the .npy file at `path`,
    whose bytes must hash to `sha256`. The header is checked before the data
    is read, no pickle is read, and the array is a view of the bytes read
    and hashed. A file that cannot be opened raises OSError; a hash
    mismatch, an unreadable file, a file of another length or another
    dtype, shape or order raise `InvalidInputError` naming the file."""
    dtype = np.dtype(np.complex128)
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                           (2, 0): np.lib.format.read_array_header_2_0}[version]
            header = read_header(fh)
        except (ValueError, KeyError) as exc:
            raise InvalidInputError(
                f"{path} is not a readable .npy file: {exc}") from None
        if header != (tuple(shape), False, dtype):
            got_shape, fortran, got_dtype = header
            raise InvalidInputError(
                f"{path} holds a {'Fortran' if fortran else 'C'}-order "
                f"{got_dtype} array of shape {got_shape}, not a C-order "
                f"complex128 array of shape {tuple(shape)}")
        offset = fh.tell()
        data = bytearray(offset + math.prod(shape) * dtype.itemsize)
        fh.seek(0)
        whole = fh.readinto(data) == len(data) and not fh.read(1)
    if not whole:
        raise InvalidInputError(
            f"{path} is not a readable .npy file: its data is not "
            f"{len(data) - offset} bytes long")
    if hashlib.sha256(data).hexdigest() != sha256:
        raise InvalidInputError(
            f"{path} does not match its sha256: the file was truncated or "
            f"edited")
    return np.frombuffer(data, dtype, offset=offset).reshape(shape)


def _file_matrix(ref, directory, n: int, files: dict, field="s_matrix",
                 noun="S"):
    """(M, path, sha256) for a matrix `field` of the form {"file": name,
    "sha256": hex}, an "s_matrix" or a bundle's "matrix": M is the n x n
    complex128 array in the .npy file `path`, the bare `name` in
    `directory`, the document's directory, whose bytes hash to `sha256`.
    Anything else raises `InvalidInputError` naming the file. `files` keeps
    what was read by (path, sha256, n), so a file that several parts name
    is read and hashed once, into one array."""
    if set(ref) != {"file", "sha256"} or not all(
            isinstance(v, str) for v in ref.values()):
        raise InvalidInputError(
            f'an {field} object must be {{"file": name, "sha256": hex}}')
    name = ref["file"]
    if directory is None:
        raise InvalidInputError(
            f"{field} names the file {name!r}, but the document was not "
            f"read from a file")
    if (name in ("", ".", "..") or "\0" in name
            or os.path.basename(name) != name):
        raise InvalidInputError(
            f"{field} file {name!r} is not a bare file name in the "
            f"document's directory")
    path = os.path.join(directory, name)
    key = (path, ref["sha256"], n)
    if key not in files:
        dense_budget(n * n, f"the {noun} in {path}")
        try:
            files[key] = load_npy(path, ref["sha256"], (n, n)), *key[:2]
        except OSError as exc:
            raise InvalidInputError(
                f"{field} file {path}: {exc.strerror}") from None
    return files[key]


def _beside(path, suffix: str):
    """(name, path) of the file `<stem><suffix>` beside the document at
    `path`, stem being the name of `path` less a trailing ".json"."""
    name = os.path.basename(path).removesuffix(".json") + suffix
    return name, os.path.join(os.path.dirname(path), name)


def save_beside(path, name: str, a: np.ndarray):
    """Write `a` as `save_npy` does to the file `name` in the directory of
    the document at `path`. Returns the reference that the document holds,
    {"file": name, "sha256": hex}, and {.npy path: sha256}."""
    npy = os.path.join(os.path.dirname(path), name)
    digest = save_npy(npy, a)
    return {"file": name, "sha256": digest}, {npy: digest}


def array_document(md: ModularData) -> dict:
    """The "modular-data v1" document of `md` with its S as an array leaf
    (see `complex_pairs`); `save` writes it."""
    # keep the factor structure, it drives bundle construction downstream
    if md.is_product:
        return {
            "format": "modular-data v1",
            "name": md.name,
            "product": [array_document(f) for f in md.factors],
        }
    return {
        "format": "modular-data v1",
        "name": md.name,
        "central_charge": str(md.c),
        "fields": [
            {"label": _label_to_json(lab), "h": str(q)}
            for lab, q in zip(md.labels, md.h)
        ],
        "s_matrix": complex_pairs(md.s),
    }


def from_document(doc: dict, directory=None) -> ModularData:
    """The ModularData of a "modular-data v1" document. An "s_matrix" that
    names an .npy file (`_file_matrix`) is read from `directory`; the parts
    of a product that name one file with the same fields, central charge
    and name are one ModularData, as the factors of `tensor(md, md)` are."""
    return _from_document(doc, directory, {})


def _from_document(doc: dict, directory, files: dict) -> ModularData:
    if doc.get("format") != "modular-data v1":
        raise InvalidInputError(
            f"unsupported document format {doc.get('format')!r}"
        )
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InvalidInputError(f"name must be a string, not {name!r}")
    if "product" in doc:
        parts = doc["product"]
        if not (isinstance(parts, list)
                and all(isinstance(d, dict) for d in parts)):
            raise InvalidInputError(
                "product must be a list of modular-data documents")
        return tensor(*(_from_document(d, directory, files) for d in parts),
                      name=name)
    s_file = s_sha256 = None
    try:
        labels = tuple(_label_from_json(f["label"]) for f in doc["fields"])
        h = tuple(_rational(f["h"], "h") for f in doc["fields"])
        c = _rational(doc["central_charge"], "central_charge")
        if isinstance(doc["s_matrix"], dict):
            s, s_file, s_sha256 = _file_matrix(doc["s_matrix"], directory,
                                               len(labels), files)
        else:
            s = complex_array(doc["s_matrix"], "s_matrix")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed modular data document: {exc}") from exc
    # a part equal to one already built from the same file is that one;
    # repr tells the labels 1, 1.0 and true apart, which compare equal
    part = (s_file, s_sha256, repr(labels), h, c, name)
    if s_file is not None and part in files:
        return files[part]
    md = ModularData(labels, h, c, s, name=name, s_file=s_file,
                     s_sha256=s_sha256)
    with np.errstate(all="ignore"):  # cached on md; an inf or NaN fails below
        unitary, symmetric = md.unitarity(), md.symmetry()
    if not (unitary <= S_TOL and symmetric <= S_TOL):  # NaN fails too
        raise InvalidInputError(
            f"s_matrix of {md.name or 'modular data'} is not unitary and "
            f"symmetric (deviations {unitary:.2e}, {symmetric:.2e})"
        )
    s00 = complex(s[0, 0]) if md.size else 1.0
    if not (s00.real > 0 and abs(s00.imag) <= S_TOL):  # NaN fails too
        raise InvalidInputError(
            f"s_matrix of {md.name or 'modular data'}: the vacuum entry "
            f"S_00 = {s00:.6g} is not real and positive"
        )
    if s_file is not None:
        files[part] = md
    return md


def save(md: ModularData, path) -> dict:
    """Write the "modular-data v1" document of `md` to `path`, with the S
    of each atomic part in an .npy file beside it, as `save_npy` writes it,
    that the part's "s_matrix" names together with the sha256 of its
    bytes. An atomic `md` writes `<stem>.s.npy` (`_beside`), and a product
    one `<stem>.s<i>.npy` per distinct S, i being the first part that holds
    it. Returns {.npy path: sha256} of the files written."""
    doc = array_document(md)
    refs, written = {}, {}
    # the document is opened first, so an unwritable path fails as itself
    with open(path, "w") as fh:
        for i, (part, f) in enumerate(zip(doc.get("product", [doc]),
                                          md.atomic_factors())):
            chunks, digest = _npy_image(
                np.asarray(f.s, dtype=np.complex128))
            if digest not in refs:
                name, npy = _beside(path, f".s{i if md.is_product else ''}.npy")
                _write_chunks(npy, chunks)
                written[npy] = digest
                refs[digest] = {"file": name, "sha256": digest}
            part["s_matrix"] = refs[digest]
        dump_json(doc, fh)
    return written


def load(path) -> ModularData:
    return from_document(_read_json(path), os.path.dirname(path))
