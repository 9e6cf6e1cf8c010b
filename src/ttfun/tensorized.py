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
from .localspace import PolySpace, legendre_values

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


_EVAL_BLOCK = 1024


def _evaluate(space: PolySpace, level: int, x, coeffs_at):
    """Values at x (a float for scalar x) of a piecewise polynomial given
    by `coeffs_at`, which maps the (level, n) digits of n points to the
    (n, m+1) local coefficients of their cells.  Blocks of _EVAL_BLOCK
    points bound the (n, rank) temporaries; a cell-wise CP has rank b^d."""
    pts = np.asarray(x, dtype=float)
    digits, y = extract_digits(pts.ravel(), space.base, level)
    basis = legendre_values(space.degree, y).T
    out = np.empty(y.size)
    for s in range(0, y.size, _EVAL_BLOCK):
        blk = slice(s, s + _EVAL_BLOCK)
        out[blk] = np.sum(coeffs_at(digits[:, blk]) * basis[blk], axis=-1)
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


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
        """Cell-wise L2 projection of f onto the level-d piecewise space."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        b = space.base
        ncell = b**level
        if ncell * space.dim > budget:
            raise BudgetError(
                f"{ncell * space.dim} elements exceed budget {budget}")
        h = float(b) ** (-level)
        x = (np.arange(ncell, dtype=float)[:, None] + space.nodes[None, :]) * h
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            vals = np.vectorize(f, otypes=[float])(x)
        bad = ~np.isfinite(vals)
        if bad.any():
            node = x[bad].ravel()[0]
            raise ArithmeticError(f"non-finite value at quadrature node x={node}")
        flat = vals @ space._proj.T  # (ncell, m+1)
        return cls(space, level, flat.reshape((b,) * level + (space.dim,)))

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
        """L^p norm on [0,1); exact for p = 2 by orthonormality."""
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        b, d = self.base, self.level
        flat = self.cell_coeffs
        if p == 2:
            return float(np.sqrt(float(b) ** (-d) * np.sum(flat * flat)))
        if np.isinf(p):
            return self._max_abs()
        cellint = self._abs_power_cell_integrals(p)
        return float((float(b) ** (-d) * cellint.sum()) ** (1.0 / p))

    def _abs_power_cell_integrals(self, p: float) -> np.ndarray:
        """Per-cell integrals of |g|^p over the reference interval.

        Cells where the local polynomial keeps one sign use a single Gauss
        rule, which is exact for integer p.  Sign-changing cells are split
        at the real roots of the polynomial so the absolute value never
        spoils the quadrature degree.
        """
        space = self.space
        m = space.degree
        flat = self.cell_coeffs
        nq = max((m * int(np.ceil(p)) + 2) // 2 + 1, m + 2)
        t, w = np.polynomial.legendre.leggauss(nq)
        yq = 0.5 * (t + 1.0)
        wq = 0.5 * w
        vq = legendre_values(m, yq)  # (m+1, nq)
        cellint = np.abs(flat @ vq) ** p @ wq
        if m == 0:
            return cellint
        # flag cells whose values change sign on a dense uniform grid
        grid = np.linspace(0.0, 1.0, 4 * space.dim + 1)
        gv = flat @ legendre_values(m, grid)
        flagged = np.nonzero((gv.min(axis=1) < 0.0) & (gv.max(axis=1) > 0.0))[0]
        scale = np.sqrt(2 * np.arange(m + 1) + 1.0)
        for j in flagged:
            poly = np.polynomial.legendre.Legendre(flat[j] * scale,
                                                   domain=[0.0, 1.0])
            roots = poly.roots()
            cuts = np.real(roots[(np.abs(np.imag(roots)) < 1e-12)
                                 & (np.real(roots) > 0.0)
                                 & (np.real(roots) < 1.0)])
            edges = np.concatenate(([0.0], np.sort(cuts), [1.0]))
            total = 0.0
            for a, c in zip(edges[:-1], edges[1:]):
                if c <= a:
                    continue
                ys = a + (c - a) * yq
                seg = flat[j] @ legendre_values(m, ys)
                total += (c - a) * float(np.abs(seg) ** p @ wq)
            cellint[j] = total
        return cellint

    def _max_abs(self, tol: float = 1e-9) -> float:
        """Sup-norm via a vectorized grid prefilter plus exact cell maxima."""
        space = self.space
        flat = self.cell_coeffs
        m = space.degree
        if m == 0:
            return float(np.max(np.abs(flat)))
        ngrid = 8 * space.dim + 1
        grid = np.linspace(0.0, 1.0, ngrid)
        gv = legendre_values(m, grid)  # (m+1, ngrid)
        cellmax = np.max(np.abs(flat @ gv), axis=1)
        best = cellmax.max()
        if best == 0.0:
            return 0.0
        # Markov-type safety margin for the grid underestimate.
        margin = 1.0 - m * m / (ngrid - 1.0)
        margin = max(margin, 0.5)
        out = 0.0
        for j in np.nonzero(cellmax >= margin * best)[0]:
            out = max(out, space.max_abs(flat[j], tol=tol))
        return float(out)

    def sobolev_seminorm(self, k: int, p: float) -> float:
        """Broken W^{k,p} seminorm: cell derivative norms with b^{d(kp-1)}."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        if k == 0:
            return self.lp_norm(p)
        space = self.space
        b, d = self.base, self.level
        dk = np.linalg.matrix_power(space.diff_matrix, k) if k <= space.degree \
            else np.zeros((space.dim, space.dim))
        der = self.cell_coeffs @ dk.T
        if np.isinf(p):
            piece = TensorizedFunction(space, d, der.reshape(self.coeffs.shape))
            return float(b) ** (d * k) * piece._max_abs()
        if p == 2:
            total = np.sum(der * der)
        else:
            piece = TensorizedFunction(space, d, der.reshape(self.coeffs.shape))
            total = float(piece._abs_power_cell_integrals(p).sum())
        return float((float(b) ** (d * (k * p - 1)) * total) ** (1.0 / p))

    # -- ranks and slicing ------------------------------------------------

    def rank_profile(self, tol: float = 1e-10) -> RankProfile:
        """Numerical ranks of the prefix unfoldings (digits 1..nu vs rest)."""
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tol must be in (0,1), got {tol}")
        b, d = self.base, self.level
        ranks = []
        for nu in range(1, d + 1):
            mat = self.coeffs.reshape(b**nu, -1)
            s = np.linalg.svd(mat, compute_uv=False)
            if s.size == 0 or s[0] == 0.0:
                ranks.append(0)
            else:
                ranks.append(int(np.count_nonzero(s > tol * s[0])))
        return RankProfile(d, tuple(ranks), tol)

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
        flat = self.cell_coeffs
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "k", "value"])
            for j in range(flat.shape[0]):
                for k in range(flat.shape[1]):
                    writer.writerow([j, k, repr(flat[j, k])])
