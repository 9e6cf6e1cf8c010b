"""Tensor trains over the tensorized function space.

Cores are held internally as 3-way arrays G_nu of shape
(r_{nu-1}, n_nu, r_nu) with n_nu = b for the digit modes, n_{d+1} = m+1
for the local-coefficient mode, and r_0 = r_{d+1} = 1.  The on-disk and
documented layout keeps the digit index first; conversion happens at the
serialization boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .localspace import PolySpace
from .tensorized import (DEFAULT_BUDGET, BudgetError, RankProfile,
                         TensorizedFunction, _check_budget, _coarser,
                         _evaluate, _next_digit, _payload, _rank_profile,
                         _sweep, _unpack)

_MAGIC_TT = b"QTTT"


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

    def is_zero(self) -> bool:
        return all(not g.any() for g in self.cores)

    # -- conversion --------------------------------------------------------

    def to_full(self, budget: int = DEFAULT_BUDGET) -> TensorizedFunction:
        """Contract all cores into the full coefficient tensor."""
        _check_budget(self.space, self.level, budget)
        out = self.cores[0][0]  # (b, r1)
        for g in self.cores[1:]:
            out = np.tensordot(out, g, axes=(-1, 0))
        return TensorizedFunction(self.space, self.level, out[..., 0])

    def __call__(self, x):
        """Evaluate with one matmul per core, v @ G (r, b s), and a row
        select of each point's digit slice; never builds the full tensor."""
        def coeffs_at(digits):
            pts = np.arange(digits.shape[1])
            v = self.cores[0][0, digits[0], :]  # (points, r_1)
            for g, i in zip(self.cores[1:-1], digits[1:]):
                r, b, s = g.shape
                v = (v @ g.reshape(r, b * s)).reshape(-1, b, s)[pts, i]
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
        level = max(self.level, other.level)
        a, b = self.extend_level(level), other.extend_level(level)
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

    def round(self, tol: float) -> "TensorTrain":
        """Recompress by one canonical `_sweep` of the cores.

        The L2 error is at most sqrt(tol^2 + 1e-24 sum_nu r_nu) ||self||_2,
        up to roundoff, with r_nu the input ranks: the d truncations share
        tol, and each also drops the singular values at or below its floor
        1e-12 s_1, at most r_nu of them.  Output ranks never exceed input
        ranks.
        """
        cores, _ = _sweep(self.cores, [g.shape[1] for g in self.cores], tol)
        return TensorTrain(self.space, cores)

    def rank_profile(self, tol: float = 1e-10) -> RankProfile:
        """Numerical ranks of the prefix unfoldings, read off the spectra of
        one untruncated `_sweep`; never builds the full tensor."""
        return _rank_profile(self.cores, [g.shape[1] for g in self.cores], tol)

    def coarsen(self) -> "TensorTrain":
        """The same function at its minimal level (at least 1): on the
        left-orthonormal cores of round(0.0), the last digit core is merged
        into the coefficient core while `_coarser` passes on their rows,
        which it judges as it judges the full tensor's.  A last round(0.0)
        trims the merged bond."""
        cores = self.round(0.0).cores
        while len(cores) > 2:
            coarse = _coarser(self.space, cores[-2] @ cores[-1][:, :, 0])
            if coarse is None:
                break
            cores = cores[:-2] + [coarse[:, :, None]]
        return TensorTrain(self.space, cores).round(0.0)

    def extend_level(self, new_level: int) -> "TensorTrain":
        """Re-express the same function at a deeper level: the digit cores
        are kept, each new digit applies the dilations D_i to the m+1 wide
        coefficient bond, and an identity core closes the chain."""
        if new_level < self.level:
            raise ValueError("extend_level cannot decrease the level")
        if new_level == self.level:
            return self
        eye = np.eye(self.space.dim)
        cores = list(self.cores[:-1])
        cores.append(_next_digit(self.space, self.cores[-1][:, :, 0]))
        cores += [_next_digit(self.space, eye)] * (new_level - self.level - 1)
        cores.append(eye[:, :, None])
        return TensorTrain(self.space, cores)

    # -- I/O ---------------------------------------------------------------

    def save(self, path) -> None:
        """Binary dump: magic 'QTTT', u32 b, u32 d, u32 m, u32 ranks[d],
        then cores as little-endian f64, each row-major with the digit
        index first (digit, in-rank, out-rank)."""
        with open(path, "wb") as fh:
            fh.write(struct.pack(f"<4sIII{self.level}I", _MAGIC_TT, self.base,
                                 self.level, self.space.degree, *self.ranks))
            for g in self.cores[:-1]:
                fh.write(np.ascontiguousarray(g.transpose(1, 0, 2), "<f8"))
            fh.write(np.ascontiguousarray(self.cores[-1][:, :, 0], "<f8"))

    @classmethod
    def load(cls, path) -> "TensorTrain":
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
        chunks = np.split(data, np.cumsum(sizes))
        cores = [np.transpose(g.reshape(b, r_prev, r), (1, 0, 2))
                 for g, r_prev, r in zip(chunks, ranks, ranks[1:])]
        cores.append(chunks[-1].reshape(ranks[-1], m + 1, 1))
        return cls(PolySpace(m, b), cores)


def tt_svd(tf: TensorizedFunction, tol: float = 0.0) -> TensorTrain:
    """Left-to-right SVD steps over the full coefficient tensor: the
    `_sweep` of the one-core chain [tf.coeffs].

    The represented tensor differs from tf in the (scaled-Frobenius = L2)
    norm by at most sqrt(tol^2 + 1e-24 sum_nu r_nu) ||tf||_2, up to
    roundoff, as in `TensorTrain.round`, with r_nu = min(b^nu,
    b^(d-nu) (m+1)) the sizes of the prefix unfoldings; tol=0 yields the
    numerical prefix ranks.
    """
    if tf.level < 1:
        raise ValueError("tensor trains need level >= 1")
    cores, _ = _sweep([tf.coeffs], tf.coeffs.shape, tol)
    return TensorTrain(tf.space, cores)


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
    """Embed a CP representation as a train with diagonal middle cores,
    which are dense: more than DEFAULT_BUDGET core elements in all raise
    BudgetError before any is allocated."""
    r = cp.rank
    size = r * (cp.base + cp.space.dim) + (cp.level - 1) * r * cp.base * r
    if size > DEFAULT_BUDGET:
        raise BudgetError(f"{size} train elements exceed budget "
                          f"{DEFAULT_BUDGET}")
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
    """The four train complexity measures, at the train's own level."""

    max_rank: int
    rmax: int       # b*d*r_max^2 + r_max*(m+1)
    sum_ranks: int  # sum of ranks
    dense: int      # b*r_1 + b*sum r_{nu-1} r_nu + r_d*(m+1)
    sparse: int     # number of nonzero core entries
    level: int


def cost_rmax(ranks, b: int, d: int, dim: int) -> int:
    rmax = max(ranks)
    return b * d * rmax * rmax + rmax * dim


def cost_sum_ranks(ranks) -> int:
    return int(sum(ranks))


def cost_dense(ranks, b: int, dim: int) -> int:
    inner = sum(prev * cur for prev, cur in zip(ranks[:-1], ranks[1:]))
    return b * ranks[0] + b * inner + ranks[-1] * dim


def cost_sparse(cores) -> int:
    """Nonzero core entries."""
    return sum(int(np.count_nonzero(g)) for g in cores)


def cost_cp(cp: CPRep) -> int:
    return cp.base * cp.level * cp.rank + cp.rank * cp.space.dim


def complexity(tt: TensorTrain) -> ComplexityReport:
    """Complexity report of a train as given: the measures of
    `tt.coarsen()` are those at the minimal level, and a CP is measured by
    `cost_cp` or as `cp_to_tt`."""
    ranks, b, dim = tt.ranks, tt.base, tt.space.dim
    return ComplexityReport(
        max_rank=max(ranks),
        rmax=cost_rmax(ranks, b, tt.level, dim),
        sum_ranks=cost_sum_ranks(ranks),
        dense=cost_dense(ranks, b, dim),
        sparse=cost_sparse(tt.cores),
        level=tt.level,
    )


# ---------------------------------------------------------------------------
# the max-rank closure failure construction


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
        ranks = [min(b**nu, b**(d - nu) * dim) for nu in range(1, d + 1)]
        if cost_rmax(ranks, b, d, dim) <= n:
            d_shallow = d
        else:
            break
    if d_shallow is None or d_deep < d_shallow:
        raise ValueError(f"budget n={n} too small for the construction")
    shape = (b,) * d_shallow + (dim,)
    dense = TensorizedFunction(space, d_shallow, rng.standard_normal(shape))
    full_rank = tt_svd(dense, 0.0)
    # one draw of all digit cores, each scaled to Frobenius norm sqrt(b) (a
    # dot, as np.linalg.norm takes it) so the L2 norm stays O(1) at depth
    g = rng.standard_normal((d_deep, 1, b))
    g *= np.sqrt(b) / np.sqrt(g @ g.transpose(0, 2, 1))
    cores = list(g.reshape(d_deep, 1, b, 1))
    g = rng.standard_normal((1, dim, 1))
    cores.append(g / np.linalg.norm(g))
    rank_one = TensorTrain(space, cores)
    return full_rank, rank_one


def maxrank_growth(space: PolySpace, n_values, rng) -> list[dict]:
    """Growth of cost_rmax(sum)/n along a geometric budget sweep."""
    rows = []
    for n in n_values:
        a, b_ = maxrank_pair(space, int(n), rng)
        n_meas = max(complexity(a).rmax, complexity(b_).rmax)
        cs = complexity((a + b_).round(1e-12))
        rows.append({
            "n": n_meas,
            "cost_sum": cs.rmax,
            "ratio": cs.rmax / n_meas,
            "level_shallow": a.level,
            "level_deep": b_.level,
            "max_rank_sum": cs.max_rank,
        })
    return rows
