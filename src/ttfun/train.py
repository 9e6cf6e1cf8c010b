"""Tensor trains over the tensorized function space.

Cores are held internally as 3-way arrays G_nu of shape
(r_{nu-1}, n_nu, r_nu) with n_nu = b for the digit modes, n_{d+1} = m+1
for the local-coefficient mode, and r_0 = r_{d+1} = 1.  The on-disk and
documented layout keeps the digit index first; conversion happens at the
serialization boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .localspace import PolySpace
from .tensorized import (DEFAULT_BUDGET, BudgetError, TensorizedFunction,
                         _evaluate, _payload, _unpack)

_MAGIC_TT = b"QTTT"


def _truncation_rank(s: np.ndarray, delta: float, cap: int | None,
                     rel_floor: float = 1e-12) -> int:
    """Smallest kept rank for a singular spectrum.

    Keeps the Frobenius tail below delta, drops relative noise below
    rel_floor, honors an optional cap, and never returns less than 1.
    """
    if s.size == 0 or s[0] == 0.0:
        return 1
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||s[r:]||
    r_delta = int(np.searchsorted(-tail, -delta, side="left")) if delta > 0 \
        else s.size
    r_floor = int(np.count_nonzero(s > rel_floor * s[0]))
    r = min(r_delta, r_floor)
    if cap is not None:
        r = min(r, cap)
    return max(r, 1)


class TensorTrain:
    """Immutable train of d digit cores plus a local-coefficient core."""

    def __init__(self, space: PolySpace, cores):
        cores = [np.ascontiguousarray(g, dtype=float) for g in cores]
        if len(cores) < 2:
            raise ValueError("a train needs at least one digit core")
        level = len(cores) - 1
        r_prev = 1
        for nu, g in enumerate(cores):
            n = space.base if nu < level else space.dim
            if g.ndim != 3 or g.shape[0] != r_prev or g.shape[1] != n:
                raise ValueError(
                    f"core {nu} has shape {g.shape}, expected "
                    f"({r_prev}, {n}, *)")
            r_prev = g.shape[2]
        if r_prev != 1:
            raise ValueError("last core must close the chain with rank 1")
        for g in cores:
            g.setflags(write=False)
        self.space = space
        self.level = level
        self.cores = cores

    @property
    def base(self) -> int:
        return self.space.base

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(g.shape[2] for g in self.cores[:-1])

    @classmethod
    def zero(cls, space: PolySpace, level: int) -> "TensorTrain":
        """The zero function as an all-zero train with unit ranks."""
        cores = [np.zeros((1, space.base, 1)) for _ in range(level)]
        cores.append(np.zeros((1, space.dim, 1)))
        return cls(space, cores)

    def is_zero(self) -> bool:
        return all(not g.any() for g in self.cores)

    # -- conversion --------------------------------------------------------

    def to_full(self, budget: int = DEFAULT_BUDGET) -> TensorizedFunction:
        """Contract all cores into the full coefficient tensor."""
        if self.base**self.level * self.space.dim > budget:
            raise BudgetError(
                f"level {self.level} full tensor exceeds budget {budget}")
        out = self.cores[0][0]  # (b, r1)
        for g in self.cores[1:]:
            out = np.tensordot(out, g, axes=(-1, 0))
        return TensorizedFunction(self.space, self.level, out[..., 0])

    def __call__(self, x):
        """Evaluate by contracting one digit slice per core; never builds
        the full tensor."""
        def coeffs_at(digits):
            v = self.cores[0][0, digits[0], :]  # (points, r_1)
            for g, i in zip(self.cores[1:-1], digits[1:]):
                v = np.einsum("pi,ipj->pj", v, g[:, i, :])
            return v @ self.cores[-1][:, :, 0]
        return _evaluate(self.space, self.level, x, coeffs_at)

    # -- structured arithmetic --------------------------------------------

    def __add__(self, other: "TensorTrain") -> "TensorTrain":
        """Block-structured sum: first cores concatenated along the rank
        axis, middle cores block-diagonal, last cores stacked.  Ranks add
        exactly; no recompression is applied."""
        if not isinstance(other, TensorTrain):
            return NotImplemented
        if other.base != self.base or other.space.degree != self.space.degree:
            raise ValueError("incompatible base or local space")
        a, b = self, other
        if a.level != b.level:
            if a.level < b.level:
                a = a.extend_level(b.level)
            else:
                b = b.extend_level(a.level)
        cores = [np.concatenate([a.cores[0], b.cores[0]], axis=2)]
        for ga, gb in zip(a.cores[1:-1], b.cores[1:-1]):
            blk = np.zeros((ga.shape[0] + gb.shape[0], ga.shape[1],
                            ga.shape[2] + gb.shape[2]))
            blk[:ga.shape[0], :, :ga.shape[2]] = ga
            blk[ga.shape[0]:, :, ga.shape[2]:] = gb
            cores.append(blk)
        cores.append(np.concatenate([a.cores[-1], b.cores[-1]], axis=0))
        return TensorTrain(self.space, cores)

    def __mul__(self, scalar):
        cores = list(self.cores)
        cores[-1] = cores[-1] * float(scalar)
        return TensorTrain(self.space, cores)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def round(self, tol: float, rank_caps=None,
              split_tolerance: bool = True) -> "TensorTrain":
        """Recompress: right-orthogonalize, then truncate left to right.

        The L2 error is at most tol * ||self||_2; output ranks never exceed
        input ranks.  The per-step budget is tol/sqrt(d) so the accumulated
        Frobenius error stays below tol (split_tolerance=False drops the
        split and exists as a fault-injection hook for verification).
        """
        if tol < 0:
            raise ValueError(f"tol must be >= 0, got {tol}")
        if self.is_zero():
            return TensorTrain.zero(self.space, self.level)
        d = self.level
        cores = [g.copy() for g in self.cores]
        # Right-to-left orthogonalization (LQ), absorbing factors leftwards.
        # The triangular factors are renormalized and their scale tracked in
        # log space: at deep levels the raw Frobenius norm is b^(d/2) times
        # the L2 norm and would overflow otherwise.
        logscale = 0.0
        for nu in range(d, 0, -1):
            g = cores[nu]
            r_prev, n, r = g.shape
            q, rr = np.linalg.qr(g.reshape(r_prev, n * r).T)
            k = q.shape[1]
            cores[nu] = np.ascontiguousarray(q.T.reshape(k, n, r))
            nrm = np.linalg.norm(rr)
            if nrm > 0.0:
                rr = rr / nrm
                logscale += np.log(nrm)
            cores[nu - 1] = np.tensordot(cores[nu - 1], rr.T, axes=(2, 0))
        norm = np.linalg.norm(cores[0])
        if norm > 0.0:
            cores[0] = cores[0] / norm
            logscale += np.log(norm)
            norm = 1.0
        steps = max(d, 1)
        delta = tol * norm / (np.sqrt(steps) if split_tolerance else 1.0)
        caps = list(rank_caps) if rank_caps is not None else [None] * d
        if len(caps) != d:
            raise ValueError(f"need {d} rank caps, got {len(caps)}")
        for nu in range(d):
            g = cores[nu]
            r_prev, n, r = g.shape
            u, s, vt = np.linalg.svd(g.reshape(r_prev * n, r),
                                     full_matrices=False)
            k = _truncation_rank(s, delta, caps[nu])
            cores[nu] = u[:, :k].reshape(r_prev, n, k)
            carry = s[:k, None] * vt[:k]
            cores[nu + 1] = np.tensordot(carry, cores[nu + 1], axes=(1, 0))
        factor = np.exp(logscale / (d + 1))
        cores = [g * factor for g in cores]
        return TensorTrain(self.space, cores)

    def extend_level(self, new_level: int) -> "TensorTrain":
        """Re-express the same function at a deeper level.

        The original digit cores are kept; the old coefficient core is
        expanded against the dilation matrices so that each inserted digit
        applies the corresponding dilation.  Pre-rounding ranks at the new
        positions are at most b*(m+1) at the junction and m+1 beyond; one
        rounding pass brings them all to at most m+1.
        """
        if new_level < self.level:
            raise ValueError("extend_level cannot decrease the level")
        extra = new_level - self.level
        if extra == 0:
            return self
        space = self.space
        b, dim = self.base, space.dim
        dil = space.dilation_matrices  # (b, dim, dim)
        last = self.cores[-1][:, :, 0]  # (r_d, dim)
        r_d = last.shape[0]
        # junction core: bond (q, j) = coefficient q with pending digit j
        junction = np.zeros((r_d, b, dim * b))
        for i in range(b):
            junction[:, i, i::b] = last
        cores = list(self.cores[:-1]) + [junction]
        if extra == 1:
            # close the chain: coefficients of L_q((. + j)/b)
            closing = np.transpose(dil, (2, 0, 1)).reshape(dim * b, dim)
            cores.append(closing[:, :, None])
        else:
            # consume the pending digit and switch to a plain coefficient bond
            pair = np.einsum("ipa,jaq->qjip", dil, dil)  # [(q,j), i, p]
            cores.append(pair.reshape(dim * b, b, dim))
            plain = np.transpose(dil, (2, 0, 1))  # [a, i, p] = D_i[p, a]
            for _ in range(extra - 2):
                cores.append(plain.copy())
            cores.append(np.eye(dim)[:, :, None])
        return TensorTrain(space, cores)

    # -- I/O ---------------------------------------------------------------

    def save(self, path) -> None:
        """Binary dump: magic 'QTTT', u32 b, u32 d, u32 m, u32 ranks[d],
        then cores as little-endian f64, each row-major with the digit
        index first (digit, in-rank, out-rank)."""
        ranks = self.ranks
        header = struct.pack("<4sIII", _MAGIC_TT, self.base, self.level,
                             self.space.degree)
        header += struct.pack(f"<{len(ranks)}I", *ranks)
        with open(path, "wb") as fh:
            fh.write(header)
            for g in self.cores[:-1]:
                fh.write(np.transpose(g, (1, 0, 2)).astype("<f8").tobytes())
            fh.write(self.cores[-1][:, :, 0].astype("<f8").tobytes())

    @classmethod
    def load(cls, path, space: PolySpace | None = None) -> "TensorTrain":
        """Read a QTTT file; a malformed file raises ValueError."""
        with open(path, "rb") as fh:
            raw = fh.read()
        (magic, b, d, m), pos = _unpack(raw, 0, "<4sIII")
        if magic != _MAGIC_TT:
            raise ValueError(f"bad magic {magic!r}")
        ranks, pos = _unpack(raw, pos, f"<{d}I")
        ranks = (1,) + ranks
        if min(ranks) < 1:
            raise ValueError("ranks must be >= 1")
        sizes = [b * r_prev * r for r_prev, r in zip(ranks, ranks[1:])]
        data = _payload(raw, pos, sum(sizes) + ranks[-1] * (m + 1))
        if space is None:
            space = PolySpace(m, b)
        elif space.base != b or space.degree != m:
            raise ValueError("file parameters do not match the given space")
        chunks = np.split(data, np.cumsum(sizes))
        cores = [np.transpose(g.reshape(b, r_prev, r), (1, 0, 2))
                 for g, r_prev, r in zip(chunks, ranks, ranks[1:])]
        cores.append(chunks[-1].reshape(ranks[-1], m + 1, 1))
        return cls(space, cores)

    def ranks_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("nu,r_nu\n")
            for nu, r in enumerate(self.ranks, start=1):
                fh.write(f"{nu},{r}\n")


def tt_svd(tf: TensorizedFunction, tol: float = 0.0,
           rank_caps=None) -> TensorTrain:
    """Left-to-right SVD sweep over the full coefficient tensor.

    The represented tensor differs from tf by at most tol * ||tf||_2 in
    the (scaled-Frobenius = L2) norm; tol=0 with no caps is exact up to
    roundoff and yields the numerical prefix ranks.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    d = tf.level
    if d < 1:
        raise ValueError("tensor trains need level >= 1")
    space = tf.space
    b, dim = space.base, space.dim
    norm = np.linalg.norm(tf.coeffs)
    if norm == 0.0:
        return TensorTrain.zero(space, d)
    delta = tol * norm / np.sqrt(d)
    caps = list(rank_caps) if rank_caps is not None else [None] * d
    if len(caps) != d:
        raise ValueError(f"need {d} rank caps, got {len(caps)}")
    cores = []
    mat = tf.coeffs.reshape(b, -1)
    r_prev = 1
    for nu in range(d):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        r = _truncation_rank(s, delta, caps[nu])
        cores.append(u[:, :r].reshape(r_prev, b, r))
        rest = s[:r, None] * vt[:r]
        r_prev = r
        if nu < d - 1:
            mat = rest.reshape(r * b, -1)
        else:
            cores.append(rest.reshape(r, dim, 1))
    return TensorTrain(space, cores)


# ---------------------------------------------------------------------------
# canonical (CP) representations


class CPRep:
    """Sum-of-rank-one representation with factors per digit mode."""

    def __init__(self, space: PolySpace, factors):
        factors = [np.ascontiguousarray(w, dtype=float) for w in factors]
        if len(factors) < 2:
            raise ValueError("a CP representation needs at least two factors")
        rank = factors[0].shape[1]
        if rank < 1:
            raise ValueError("CP rank must be >= 1")
        level = len(factors) - 1
        for w in factors[:-1]:
            if w.shape != (space.base, rank):
                raise ValueError(f"digit factor shape {w.shape} != "
                                 f"({space.base}, {rank})")
        if factors[-1].shape != (space.dim, rank):
            raise ValueError(f"coefficient factor shape {factors[-1].shape} "
                             f"!= ({space.dim}, {rank})")
        self.space = space
        self.level = level
        self.rank = rank
        self.factors = factors

    @property
    def base(self) -> int:
        return self.space.base

    def __call__(self, x):
        """Evaluate as the rank-wise product of one factor row per digit,
        contracted with the coefficient factor."""
        def coeffs_at(digits):
            prod = self.factors[0][digits[0]]  # (points, rank)
            for w, i in zip(self.factors[1:-1], digits[1:]):
                prod *= w[i]
            return prod @ self.factors[-1].T
        return _evaluate(self.space, self.level, x, coeffs_at)


def cp_to_tt(cp: CPRep) -> TensorTrain:
    """Embed a CP representation as a train with diagonal middle cores."""
    r = cp.rank
    cores = [cp.factors[0][None, :, :]]
    for w in cp.factors[1:-1]:
        g = np.zeros((r, w.shape[0], r))
        g[np.arange(r), :, np.arange(r)] = w.T
        cores.append(g)
    cores.append(cp.factors[-1].T[:, :, None])
    return TensorTrain(cp.space, cores)


def cp_from_tensorized(tf: TensorizedFunction) -> CPRep:
    """Cell-wise CP form: one rank-one term per nonzero cell, so the
    canonical rank is bounded by the number of nonzero cells (<= b^d)."""
    flat = tf.cell_coeffs
    cells = np.nonzero(np.any(flat != 0.0, axis=1))[0]
    if cells.size == 0:
        cells = np.array([0])
    b, d = tf.base, tf.level
    factors = []
    for digit in np.unravel_index(cells, (b,) * d):
        w = np.zeros((b, cells.size))
        w[digit, np.arange(cells.size)] = 1.0
        factors.append(w)
    factors.append(flat[cells].T)
    return CPRep(tf.space, factors)


# ---------------------------------------------------------------------------
# complexity measures


@dataclass(frozen=True)
class ComplexityReport:
    """The four train complexity measures (plus the CP one when given)."""

    max_rank: int
    rmax: int       # b*d*r_max^2 + r_max*(m+1)
    sum_ranks: int  # sum of ranks
    dense: int      # b*r_1 + b*sum r_{nu-1} r_nu + r_d*(m+1)
    sparse: int     # number of nonzero core entries
    level: int
    cp: int | None = None
    level_is_minimal: bool | None = field(default=None)


def cost_rmax(ranks, b: int, d: int, dim: int) -> int:
    rmax = max(ranks)
    return b * d * rmax * rmax + rmax * dim


def cost_sum_ranks(ranks) -> int:
    return int(sum(ranks))


def cost_dense(ranks, b: int, dim: int) -> int:
    total = b * ranks[0]
    for prev, cur in zip(ranks[:-1], ranks[1:]):
        total += b * prev * cur
    return total + ranks[-1] * dim


def cost_sparse(cores, eta: float = 0.0) -> int:
    """Nonzero core entries; eta > 0 counts |v| > eta * max|core|."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    total = 0
    for g in cores:
        if eta == 0.0:
            total += int(np.count_nonzero(g))
        else:
            peak = np.max(np.abs(g))
            total += int(np.count_nonzero(np.abs(g) > eta * peak))
    return total


def cost_cp(cp: CPRep) -> int:
    return cp.base * cp.level * cp.rank + cp.rank * cp.space.dim


def complexity(rep, eta: float = 0.0, minimize_level: bool = False,
               budget: int = DEFAULT_BUDGET,
               level_tol: float = 1e-9) -> ComplexityReport:
    """Complexity report for a train or CP representation.

    With minimize_level=True the train is re-canonicalized at the minimal
    representation level before measuring (when the full tensor fits the
    budget); otherwise measures refer to the representation as given and
    level_is_minimal is left unverified (None).  A CP is measured as the
    train cp_to_tt(cp), read off its factors unless the level is minimized.
    """
    cp = cost_cp(rep) if isinstance(rep, CPRep) else None
    tt = cp_to_tt(rep) if cp is not None and minimize_level else rep
    verified: bool | None = None
    if minimize_level:
        try:
            full = tt.to_full(budget=budget)
        except BudgetError:
            pass
        else:
            coarse = full.coarsen(tol=level_tol)
            if coarse.level == 0:  # global polynomial; trains need level >= 1
                coarse = coarse.relevel_up(1)
            tt = tt_svd(coarse, 0.0)
            verified = True
    if isinstance(tt, CPRep):
        # cp_to_tt(tt) has ranks (rank,)*level, and its diagonal cores hold
        # exactly the nonzero entries and the peak of each factor
        ranks, cores = (tt.rank,) * tt.level, tt.factors
    else:
        ranks, cores = tt.ranks, tt.cores
    b, dim = tt.base, tt.space.dim
    return ComplexityReport(
        max_rank=max(ranks),
        rmax=cost_rmax(ranks, b, tt.level, dim),
        sum_ranks=cost_sum_ranks(ranks),
        dense=cost_dense(ranks, b, dim),
        sparse=cost_sparse(cores, eta=eta),
        level=tt.level,
        cp=cp,
        level_is_minimal=verified,
    )


# ---------------------------------------------------------------------------
# the max-rank closure failure construction


def _full_rank_profile(b: int, d: int, dim: int) -> list[int]:
    return [min(b**nu, b**(d - nu) * dim) for nu in range(1, d + 1)]


def maxrank_pair(space: PolySpace, n: int, rng) -> tuple[TensorTrain, TensorTrain]:
    """A full-rank train at a shallow level and a rank-one train at a deep
    level, both with max-rank cost at most n.

    Their sum must live at the deep level, where the max-rank cost is
    multiplied by the large level, which is what breaks closure under
    addition for that measure.
    """
    b, dim = space.base, space.dim
    d_deep = (n - dim) // b
    d_shallow = None
    for d in range(2, d_deep + 1):
        ranks = _full_rank_profile(b, d, dim)
        if cost_rmax(ranks, b, d, dim) <= n:
            d_shallow = d
        else:
            break
    if d_shallow is None or d_deep < d_shallow:
        raise ValueError(f"budget n={n} too small for the construction")
    shape = (b,) * d_shallow + (dim,)
    dense = TensorizedFunction(space, d_shallow, rng.standard_normal(shape))
    full_rank = tt_svd(dense, 0.0)
    # scale each digit core to Frobenius norm sqrt(b) so the function's L2
    # norm stays O(1) over thousands of cores
    cores = []
    for _ in range(d_deep):
        g = rng.standard_normal((1, b, 1))
        cores.append(g * (np.sqrt(b) / np.linalg.norm(g)))
    g = rng.standard_normal((1, dim, 1))
    cores.append(g / np.linalg.norm(g))
    rank_one = TensorTrain(space, cores)
    return full_rank, rank_one


def maxrank_growth(space: PolySpace, n_values, rng,
                   round_tol: float = 1e-12) -> list[dict]:
    """Growth of cost_rmax(sum)/n along a geometric budget sweep."""
    rows = []
    for n in n_values:
        a, b_ = maxrank_pair(space, int(n), rng)
        ca = complexity(a)
        cb = complexity(b_)
        n_meas = max(ca.rmax, cb.rmax)
        summed = (a + b_).round(round_tol)
        cs = complexity(summed)
        rows.append({
            "n": n_meas,
            "cost_sum": cs.rmax,
            "ratio": cs.rmax / n_meas,
            "level_shallow": a.level,
            "level_deep": b_.level,
            "max_rank_sum": cs.max_rank,
        })
    return rows
