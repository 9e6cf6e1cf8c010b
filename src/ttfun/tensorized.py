"""Full coefficient tensors of functions on [0,1) split into b^d cells.

A function living in the span of dilated local-space polynomials is stored
as a tensor of shape (b,)*d + (m+1,): d digit modes followed by the
local-coefficient mode.  Entry [j_1, ..., j_d, k] is the k-th basis
coefficient of the piece f(b^-d (j + .)) with j = sum_k j_k b^(d-k).
"""

from __future__ import annotations

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


# A sweep step is wide when its matrix has at least _WIDE times more
# columns than rows; TSQR then reads it _CHUNK elements at a time.
_WIDE = 32
_CHUNK = 2**15


def _qr_t(mat: np.ndarray, mode: str):
    """QR of the transpose of `mat` (rows, cols)."""
    return np.linalg.qr(mat.T, mode=mode)


def _tsqr_r(mat: np.ndarray) -> np.ndarray:
    """R of mat.T = QR for a wide `mat` (rows, cols), by flat-tree TSQR
    (Demmel, Grigori, Hoemmen, Langou 2012): one QR per chunk of _CHUNK
    elements, taken of R.T found so far next to the chunk's columns.
    numpy's qr copies its input, so only one chunk is ever copied."""
    rows, cols = mat.shape
    width = _CHUNK // rows
    r = np.empty((0, rows))
    for s in range(0, cols, width):
        r = _qr_t(np.concatenate([r.T, mat[:, s:s + width]], axis=1), "r")
    return r


def _svd_step(mat: np.ndarray, norm, delta: float, rel_floor: float):
    """One truncated SVD step of `_sweep`, in a function of its own so that
    the SVD factors die on return.  s is the spectrum of `mat` over the
    tensor's norm: the first step (norm None) reads the norm off its own
    spectrum as s[0] ||s / s[0]||, free of overflow (0 for a zero tensor),
    and divides by it; later steps get a carry divided already.  The kept
    rank r keeps the Frobenius tail ||s[r:]|| within delta, drops s <=
    rel_floor * s[0] and is at least 1.  Returns u[:, :r], the carry
    u[:, :r].T @ mat (over the norm), s and the norm.

    A wide step (cols >= _WIDE * rows: the first steps of a full tensor,
    and in a train only a bond far wider than the one before it) takes u
    and s from the SVD of the small R.T of mat.T = QR (Chan 1982), found
    by `_tsqr_r`, so no vt as large as the matrix is formed.  Unlike the
    Gram matrix mat @ mat.T, R resolves s far below 1e-8 s[0]."""
    wide = mat.shape[1] >= _WIDE * mat.shape[0]
    u, s, _ = np.linalg.svd(_tsqr_r(mat).T if wide else mat,
                            full_matrices=False)
    first = norm is None
    if first:
        norm = float(s[0] * np.linalg.norm(s / s[0])) if s[0] > 0.0 else 0.0
        s = s / (norm or 1.0)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||s[r:]||
    r = max(min(int(np.searchsorted(-tail, -delta)) if delta > 0 else s.size,
                int(np.count_nonzero(s > rel_floor * s[0]))), 1)
    carry = u[:, :r].T @ mat
    if first:
        carry /= norm or 1.0
    return u[:, :r], carry, s, norm


def _sweep(chain, modes, tol: float, rel_floor: float = 1e-12):
    """The one canonical sweep (Oseledets 2011, section 3) of a tensor with
    mode sizes `modes`, held by a chain of cores: a full tensor is the
    chain [coeffs], a train its cores, one per mode.  A right-to-left QR
    pass leaves chain[1:] right-orthonormal.  Then one SVD step per digit
    mode runs left to right, truncated at tol/sqrt(d) times the tensor's
    norm so that the d steps together stay within tol, and contracts its
    carry into the next chain core when there is one: without truncation
    step nu sees the spectrum of prefix unfolding nu.  Returns the
    len(modes) cores of a train and each step's spectrum over the norm.

    On the chain [coeffs] the first steps factor (r b, N) matrices with a
    few rows and N up to b^d (m+1).  `_svd_step` takes those wide steps by
    TSQR, which copies one chunk at a time, and one SVD of an (r b, r b)
    matrix.  So a step holds its input and its carry, both as large as the
    tensor while the ranks grow by a factor b, and little more.

    Scale is handled here only: the QR factors are divided by their
    max-abs and the first step divides by the norm.  The product of these
    scales is kept as a mantissa and a base-2 exponent (its log), so nothing
    overflows at any depth or magnitude.  It goes back exactly: the exponent
    is spread evenly over the cores and the mantissa multiplies the first
    (an exp of the summed logs would cost |log scale| ulps, 1e-13 relative
    at 1e300).  A zero tensor gets all-zero cores."""
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    delta = tol / np.sqrt(max(len(modes) - 1, 1))
    # rest holds the right-orthonormal chain[1:] in pop order, so that
    # each is freed once contracted
    core, rest = chain[-1], []
    mant, expo = 1.0, 0  # the product of the scales, mant * 2**expo
    for left in chain[-2::-1]:
        q, rr = _qr_t(core.reshape(core.shape[0], -1), "reduced")
        peak = np.max(np.abs(rr))
        if peak > 0.0:
            rr = rr / peak
            mant, e = np.frexp(mant * peak)
            expo += int(e)
        rest.append(q.T)
        core = left @ rr.T
    cores, spectra, norm = [], [], None
    carry = core.reshape(1, -1)
    for n in modes[:-1]:
        u, carry, s, norm = _svd_step(carry.reshape(carry.shape[0] * n, -1),
                                      norm, delta, rel_floor)
        cores.append(u.reshape(-1, n, u.shape[1]))
        spectra.append(s)
        if rest:
            carry = carry @ rest.pop()
    cores.append(carry.reshape(-1, modes[-1], 1))
    if norm == 0.0:
        return [g * 0.0 for g in cores], spectra
    mant, e = np.frexp(mant * (norm or 1.0))
    share, rem = divmod(expo + int(e), len(cores))
    cores[0] = cores[0] * mant
    return ([np.ldexp(g, share + (k < rem)) for k, g in enumerate(cores)],
            spectra)


def _rank_profile(chain, modes, tol: float) -> RankProfile:
    """Prefix ranks s > tol * s[0] of the spectra of one untruncated
    `_sweep` of the chain.  The sweep drops only s <= floor * s[0] with
    floor = 1e-3 * tol, which by Weyl's inequality moves the later spectra
    by far less than tol * s[0]."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0,1), got {tol}")
    _, spectra = _sweep(chain, modes, 0.0, 1e-3 * tol)
    return RankProfile(len(spectra), tuple(
        int(np.count_nonzero(s > tol * s[0])) for s in spectra), tol)


def _coarser(space: PolySpace, rows: np.ndarray):
    """One digit less: the coarse rows c (n, m+1) whose dilation families
    D_0 c, ..., D_(b-1) c are the sibling rows (n, b(m+1)), or None when the
    Frobenius norm of the whole least-squares residual exceeds 1e-9 times
    that of the rows.  Rows in any left-orthonormal basis give the same
    answer, so a train's last two cores decide as its full tensor does.
    The rows are solved at max |c| = 1, so no norm leaves the float range,
    and the coarse rows are scaled back on return."""
    peak = float(np.max(np.abs(rows), initial=0.0))
    unit = rows / peak if peak > 0.0 else rows
    stacked = space.dilation_matrices.reshape(-1, space.dim)
    sol, *_ = np.linalg.lstsq(stacked, unit.T, rcond=None)
    if np.linalg.norm(stacked @ sol - unit.T) > 1e-9 * np.linalg.norm(unit):
        return None
    return sol.T * peak


def _check_budget(space: PolySpace, level: int, budget: int) -> None:
    """Raise BudgetError when a level-d full tensor, b^d (m+1) elements,
    exceeds the budget."""
    size = space.base**level * space.dim
    if size > budget:
        raise BudgetError(f"level {level} full tensor has {size} elements, "
                          f"over budget {budget}")


def _next_digit(space: PolySpace, c: np.ndarray) -> np.ndarray:
    """One more digit: rows c (..., m+1) to (..., b, m+1) with D_i c at i."""
    return np.tensordot(c, space.dilation_matrices, axes=(-1, 2))


def _unpack(raw: bytes, pos: int, fmt: str) -> tuple[tuple, int]:
    """Values of struct fmt at raw[pos:] and the offset after them."""
    end = pos + struct.calcsize(fmt)
    if len(raw) < end:
        raise ValueError("file header is truncated")
    return struct.unpack_from(fmt, raw, pos), end


def _payload(raw: bytes, pos: int, count: int) -> np.ndarray:
    """raw[pos:] as exactly `count` finite little-endian f64 values."""
    if len(raw) - pos != 8 * count:
        raise ValueError(f"payload has {len(raw) - pos} bytes, the header "
                         f"implies {8 * count}")
    data = np.frombuffer(raw, dtype="<f8", offset=pos)
    if not np.all(np.isfinite(data)):
        raise ValueError("payload holds a non-finite value")
    return data


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
        _check_budget(space, level, budget)
        b, dim = space.base, space.dim
        ncell = b**level
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
        """Numerical ranks of the prefix unfoldings (digits 1..nu vs rest),
        read off the spectra of one untruncated `_sweep`."""
        return _rank_profile([self.coeffs], self.coeffs.shape, tol)

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
        _check_budget(self.space, new_level, budget)
        c = self.coeffs
        for _ in range(new_level - self.level):
            c = _next_digit(self.space, c)
        return TensorizedFunction(self.space, new_level, c)

    def minimal_level(self) -> int:
        """Smallest level holding the same function: a digit is peeled off
        while `_coarser` finds every group of b sibling cells to be the
        dilation family of one coarse polynomial."""
        level, rows = self.level, self.cell_coeffs
        while level > 0:
            rows = _coarser(self.space,
                            rows.reshape(-1, self.base * self.space.dim))
            if rows is None:
                break
            level -= 1
        return level

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
    def load(cls, path) -> "TensorizedFunction":
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
        return cls(PolySpace(m, b), d, data.reshape((b,) * d + (m + 1,)))
