"""Full coefficient tensors of functions on [0,1) split into b^d cells.

A function living in the span of dilated local-space polynomials is stored
as a tensor of shape (b,)*d + (m+1,): d digit modes followed by the
local-coefficient mode.  Entry [j_1, ..., j_d, k] is the k-th basis
coefficient of the piece f(b^-d (j + .)) with j = sum_k j_k b^(d-k).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .badic import extract_digits
from .localspace import PolySpace, basis_sup, legendre_values, real_roots

DEFAULT_BUDGET = 2**26
_MAGIC_FULL = b"QTTF"


class BudgetError(MemoryError):
    """Raised when a full tensor would exceed the element budget."""


@dataclass(frozen=True)
class RankProfile:
    """Numerical prefix ranks r_1..r_d at a relative singular-value tol."""

    level: int
    ranks: tuple[int, ...]
    tol: float


# Points or cells per block: bounds the (n, rank) temporaries of evaluation
# (a cell-wise CP has rank b^d), the per-cell arrays of the norms and the
# (n, Q) quadrature arrays of the projection.
_BLOCK = 1024


def _evaluate(space: PolySpace, level: int, x, coeffs_at):
    """Values at x (a float for scalar x) of a piecewise polynomial given
    by `coeffs_at`, which maps the (level, n) digits of n points to the
    (n, m+1) local coefficients of their cells, _BLOCK points at a time."""
    pts = np.asarray(x, dtype=float)
    digits, y = extract_digits(pts.ravel(), space.base, level)
    basis = legendre_values(space.degree, y).T
    out = np.empty(y.size)
    for s in range(0, y.size, _BLOCK):
        blk = slice(s, s + _BLOCK)
        out[blk] = np.sum(coeffs_at(digits[:, blk]) * basis[blk], axis=-1)
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


def _cell_norm(space: PolySpace, level: int, flat, k: int, p: float) -> float:
    """Broken W^{k,p} seminorm (L^p norm for k = 0) of the cell rows `flat`
    (n, m+1): (sum_j b^{d(kp-1)} ||p_j^(k)||_p^p)^{1/p}, and b^{dk} max_j
    ||p_j^(k)||_inf for p = inf.  The rows are scaled to max |c| = 1 before
    the derivative and b^{d(k-1/p)} is applied in log space, so the result
    is inf only when it leaves the float range."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    scale = float(np.max(np.abs(flat), initial=0.0))
    unit = flat / scale if scale > 0.0 else flat
    if k:
        unit = space.differentiate(unit, k)
    if np.isinf(p):
        value = _sup_abs(space, unit)
    elif p == 2:
        value = np.sqrt(np.sum(unit * unit))
    else:
        value = np.sum(_abs_power_cell_integrals(space, unit, p)) ** (1.0 / p)
    if value == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.exp(level * (k - 1.0 / p) * np.log(space.base)
                            + np.log(scale) + np.log(value)))


def _sup_abs(space: PolySpace, flat) -> float:
    """max_j sup |p_j| on [0,1].  Only cells whose bound sum_k |c_k|
    sqrt(2k+1) (as |L_k| <= sqrt(2k+1)) exceeds the best endpoint value
    can hold a larger interior maximum, so only they reach `max_abs`."""
    ends = flat @ legendre_values(space.degree, np.array([0.0, 1.0]))
    best = float(np.max(np.abs(ends)))
    rest = flat[np.abs(flat) @ basis_sup(space.degree) > best]
    for s in range(0, rest.shape[0], _BLOCK):
        best = max(best, float(np.max(space.max_abs(rest[s:s + _BLOCK]))))
    return best


def _abs_power_cell_integrals(space: PolySpace, flat, p: float) -> np.ndarray:
    """Per-cell integrals of |p_j|^p over the reference interval.

    A cell with |c_0| >= sum_{k>=1} |c_k| sqrt(2k+1) keeps one sign and
    gets a single Gauss rule, exact for integer p.  Every other cell is
    cut at the roots from `real_roots` into pieces of one sign, each with
    the same rule, so integer p stays exact there too.
    """
    m = space.degree
    nq = max((m * int(np.ceil(p)) + 2) // 2 + 1, m + 2)
    t, w = np.polynomial.legendre.leggauss(nq)
    yq, wq = 0.5 * (t + 1.0), 0.5 * w
    out = np.abs(flat @ legendre_values(m, yq)) ** p @ wq
    bound = np.abs(flat[:, 1:]) @ basis_sup(m)[1:]
    mixed = np.nonzero(np.abs(flat[:, 0]) < bound)[0]
    for s in range(0, mixed.size, _BLOCK):
        cells = mixed[s:s + _BLOCK]
        c = flat[cells]
        edges = np.pad(np.sort(real_roots(c), axis=1), ((0, 0), (1, 1)),
                       constant_values=(0.0, 1.0))
        width = np.diff(edges, axis=1)  # (n, m+1) pieces
        ys = edges[:, :-1, None] + width[..., None] * yq
        vals = np.einsum("nk,knsq->nsq", c, legendre_values(m, ys))
        out[cells] = np.sum(width * (np.abs(vals) ** p @ wq), axis=1)
    return out


def _truncation_rank(s: np.ndarray, delta: float, cap: int | None,
                     rel_floor: float = 1e-12) -> int:
    """Smallest kept rank for a singular spectrum: keeps the Frobenius
    tail below delta, drops relative noise below rel_floor, honors an
    optional cap, and never returns less than 1."""
    if s.size == 0 or s[0] == 0.0:
        return 1
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||s[r:]||
    r_delta = int(np.searchsorted(-tail, -delta, side="left")) if delta > 0 \
        else s.size
    r = min(r_delta, int(np.count_nonzero(s > rel_floor * s[0])))
    return max(r if cap is None else min(r, cap), 1)


def _svd_step(mat: np.ndarray, delta: float, cap, rel_floor: float = 1e-12):
    """One truncated SVD step of TT-SVD and of rounding: the kept left
    factor u[:, :r], the carry s[:r] vt[:r] into the next core, and the
    full singular spectrum s of `mat`."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    r = _truncation_rank(s, delta, cap, rel_floor)
    return u[:, :r], s[:r, None] * vt[:r], s


def _svd_sweep(coeffs: np.ndarray, delta: float, caps,
               rel_floor: float = 1e-12):
    """Left-to-right TT-SVD of a (b,)*d + (m+1,) tensor with one cap per
    digit mode: the d+1 cores and each step's spectrum.  The cores left of
    step nu are orthonormal, so without truncation step nu sees the singular
    values of the prefix unfolding nu (digits 1..nu vs the rest)."""
    cores, spectra = [], []
    carry = coeffs.reshape(1, -1)
    for nu, cap in enumerate(caps):
        r_prev, n = carry.shape[0], coeffs.shape[nu]
        u, carry, s = _svd_step(carry.reshape(r_prev * n, -1), delta, cap,
                                rel_floor)
        cores.append(u.reshape(r_prev, n, -1))
        spectra.append(s)
    cores.append(carry.reshape(-1, coeffs.shape[-1], 1))
    return cores, spectra


def _unpack(raw: bytes, pos: int, fmt: str) -> tuple[tuple, int]:
    """Values of struct fmt at raw[pos:] and the offset after them."""
    end = pos + struct.calcsize(fmt)
    if len(raw) < end:
        raise ValueError("file header is truncated")
    return struct.unpack_from(fmt, raw, pos), end


def _payload(raw: bytes, pos: int, count: int) -> np.ndarray:
    """raw[pos:] as exactly `count` little-endian f64 values."""
    if len(raw) - pos != 8 * count:
        raise ValueError(f"payload has {len(raw) - pos} bytes, the header "
                         f"implies {8 * count}")
    return np.frombuffer(raw, dtype="<f8", offset=pos)


class TensorizedFunction:
    """Immutable full representation of a function on the level-d grid."""

    def __init__(self, space: PolySpace, level: int, coeffs):
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        coeffs = np.ascontiguousarray(coeffs, dtype=float)
        expected = (space.base,) * level + (space.dim,)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient shape {coeffs.shape} != {expected}")
        coeffs.setflags(write=False)
        self.space = space
        self.level = level
        self.coeffs = coeffs

    # -- construction -----------------------------------------------------

    @classmethod
    def tensorize(cls, f, space: PolySpace, level: int,
                  budget: int = DEFAULT_BUDGET) -> "TensorizedFunction":
        """Cell-wise L2 projection of f on the level-d space, _BLOCK cells
        per call of f: memory beyond the output is O(_BLOCK Q)."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        b, dim = space.base, space.dim
        ncell = b**level
        if ncell * dim > budget:
            raise BudgetError(f"{ncell * dim} elements exceed budget {budget}")
        h = float(b) ** (-level)
        flat = np.empty((ncell, dim))
        for s in range(0, ncell, _BLOCK):
            cells = np.arange(s, min(s + _BLOCK, ncell), dtype=float)
            flat[s:s + _BLOCK] = space.project_pieces(
                f, (cells[:, None] + space.nodes) * h)
        return cls(space, level, flat.reshape((b,) * level + (dim,)))

    @property
    def base(self) -> int:
        return self.space.base

    @property
    def cell_coeffs(self) -> np.ndarray:
        """View of the coefficients as (b^d, m+1)."""
        return self.coeffs.reshape(-1, self.space.dim)

    # -- evaluation and norms ---------------------------------------------

    def __call__(self, x):
        return _evaluate(self.space, self.level, x,
                         lambda digits: self.coeffs[tuple(digits)])

    def lp_norm(self, p: float) -> float:
        """L^p norm on [0,1); exact for p = 2 by orthonormality, for
        p = inf, and up to roundoff for integer p."""
        return _cell_norm(self.space, self.level, self.cell_coeffs, 0, p)

    def sobolev_seminorm(self, k: int, p: float) -> float:
        """Broken W^{k,p} seminorm: cell derivative norms with b^{d(kp-1)}."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return _cell_norm(self.space, self.level, self.cell_coeffs, k, p)

    # -- ranks and slicing ------------------------------------------------

    def rank_profile(self, tol: float = 1e-10) -> RankProfile:
        """Numerical ranks of the prefix unfoldings (digits 1..nu vs rest):
        s > tol * s[0] on each spectrum of one TT-SVD sweep.  The sweep drops
        only s <= 1e-3 * tol * s[0], which by Weyl's inequality moves the
        later spectra by far less than tol * s[0]."""
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tol must be in (0,1), got {tol}")
        _, spectra = _svd_sweep(self.coeffs, 0.0, [None] * self.level,
                                rel_floor=1e-3 * tol)
        return RankProfile(self.level, tuple(
            0 if s[0] == 0.0 else int(np.count_nonzero(s > tol * s[0]))
            for s in spectra), tol)

    def partial_eval(self, digits) -> "TensorizedFunction":
        """Fix the first digits: the rescaled restriction to one cell."""
        digits = tuple(int(j) for j in digits)
        if len(digits) > self.level:
            raise ValueError("more digits than the representation level")
        for j in digits:
            if not 0 <= j < self.base:
                raise ValueError(f"digit {j} out of range for base {self.base}")
        return TensorizedFunction(self.space, self.level - len(digits),
                                  self.coeffs[digits])

    # -- level changes ----------------------------------------------------

    def relevel_up(self, new_level: int,
                   budget: int = DEFAULT_BUDGET) -> "TensorizedFunction":
        """Pointwise-identical representation on the finer level-d̄ grid."""
        if new_level < self.level:
            raise ValueError("relevel_up cannot decrease the level")
        if self.base ** new_level * self.space.dim > budget:
            raise BudgetError(
                f"level {new_level} full tensor exceeds budget {budget}")
        c = self.coeffs
        dil = self.space.dilation_matrices
        for _ in range(new_level - self.level):
            c = np.stack([c @ dil[i].T for i in range(self.base)], axis=-2)
        return TensorizedFunction(self.space, new_level, c)

    def coarsen(self, tol: float = 1e-9) -> "TensorizedFunction":
        """Greedy coarsening to the minimal level holding the same function.

        A level is peeled off when every group of b sibling cells is the
        dilation family of one common coarse polynomial, up to a relative
        least-squares residual of tol.
        """
        space = self.space
        b, dim = self.base, space.dim
        stacked = space.dilation_matrices.reshape(b * dim, dim)
        cur = self
        while cur.level > 0:
            rhs = cur.coeffs.reshape(-1, b * dim)
            sol, *_ = np.linalg.lstsq(stacked, rhs.T, rcond=None)
            resid = np.linalg.norm(stacked @ sol - rhs.T, axis=0)
            norms = np.linalg.norm(rhs, axis=1)
            if np.any(resid > tol * np.maximum(norms, 1e-300)):
                break
            cur = TensorizedFunction(
                space, cur.level - 1,
                sol.T.reshape((b,) * (cur.level - 1) + (dim,)))
        return cur

    def minimal_level(self, tol: float = 1e-9) -> int:
        return self.coarsen(tol).level

    # -- arithmetic helpers ------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, TensorizedFunction):
            return NotImplemented
        if other.space is not self.space and (
                other.base != self.base or other.space.degree != self.space.degree):
            raise ValueError("incompatible local spaces")
        if other.level != self.level:
            raise ValueError("level mismatch; relevel first")
        return TensorizedFunction(self.space, self.level,
                                  op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return TensorizedFunction(self.space, self.level, self.coeffs * float(scalar))

    __rmul__ = __mul__

    # -- I/O ---------------------------------------------------------------

    def save(self, path) -> None:
        """Binary dump: magic 'QTTF', u32 b, u32 d, u32 m, u8 basis id,
        then b^d (m+1) little-endian f64 in digit-major layout."""
        header = struct.pack("<4sIIIB", _MAGIC_FULL, self.base, self.level,
                             self.space.degree, 0)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.coeffs.astype("<f8").tobytes())

    @classmethod
    def load(cls, path, space: PolySpace | None = None) -> "TensorizedFunction":
        """Read a QTTF file; a malformed file raises ValueError."""
        with open(path, "rb") as fh:
            raw = fh.read()
        (magic, b, d, m, basis_id), pos = _unpack(raw, 0, "<4sIIIB")
        if magic != _MAGIC_FULL:
            raise ValueError(f"bad magic {magic!r}")
        if basis_id != 0:
            raise ValueError(f"unknown basis id {basis_id}")
        if d > 64:  # b^d >= 2^d elements could never be stored
            raise ValueError(f"level {d} is too deep for a full tensor")
        data = _payload(raw, pos, b**d * (m + 1))
        if space is None:
            space = PolySpace(m, b)
        elif space.base != b or space.degree != m:
            raise ValueError("file parameters do not match the given space")
        return cls(space, d, data.reshape((b,) * d + (m + 1,)))

    def to_csv(self, path) -> None:
        """Rows (j, k, value) with j the cell index and k the basis index."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "k", "value"])
            writer.writerows([j, k, v]
                             for j, row in enumerate(self.cell_coeffs.tolist())
                             for k, v in enumerate(row))
