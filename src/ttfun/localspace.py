"""Local polynomial space on [0,1) in an orthonormal shifted-Legendre basis.

The space P_m of polynomials of degree <= m carries the basis
L_k(y) = sqrt(2k+1) P_k(2y-1), orthonormal for the L2 inner product on
[0,1).  The space is closed under the maps y -> (y+i)/b, and the
corresponding dilation matrices are built per (base, degree) on first use,
along with a differentiation matrix.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np


def basis_sup(degree: int) -> np.ndarray:
    """sqrt(2k+1), k = 0..degree: the scale of the orthonormal basis, and
    the sup of |L_k| on [0,1], reached at y = 1."""
    return np.sqrt(2.0 * np.arange(degree + 1) + 1.0)


def legendre_values(degree: int, y) -> np.ndarray:
    """Orthonormal shifted-Legendre values, shape (degree+1,) + y.shape."""
    y = np.asarray(y, dtype=float)
    t = 2.0 * y - 1.0
    out = np.empty((degree + 1,) + t.shape)
    out[0] = 1.0
    if degree >= 1:
        out[1] = t
    for k in range(1, degree):
        out[k + 1] = ((2 * k + 1) * t * out[k] - k * out[k - 1]) / (k + 1)
    return out * basis_sup(degree).reshape((-1,) + (1,) * t.ndim)


def real_roots(coeffs) -> np.ndarray:
    """Real parts of the roots of each row of `coeffs` (n, m+1), clipped
    to [0, 1]: shape (n, m), a row of degree q < m padded with 0.0.

    Every entry is a point of [0, 1] and every real root in [0, 1] is an
    entry, so the max of |p| over entries and endpoints is its sup, and
    cuts at the entries leave pieces of one sign, with no tolerance.  The
    roots are the eigenvalues of the colleague matrix (Good, Q. J. Math.
    1961): by y L_k = b_{k+1} L_{k+1} + L_k/2 + b_k L_{k-1}, with
    b_k = k / (2 sqrt(4k^2 - 1)), the q x q Jacobi matrix with
    b_q c[:q]/c_q subtracted from its last row; one stacked eigvals call
    serves all rows of one degree.
    """
    c = np.asarray(coeffs, dtype=float)
    n, m = c.shape[0], c.shape[1] - 1
    out = np.zeros((n, m))
    # A trailing coefficient within the rounding error of evaluating its row,
    # eps * sum_k |c_k| sqrt(2k+1), does not count towards the degree:
    # dividing by it would fill the matrix with entries of order 1/eps.
    size = np.abs(c) @ basis_sup(m)
    big = np.abs(c) > np.finfo(float).eps * size[:, None]
    deg = np.where(big.any(axis=1), m - np.argmax(big[:, ::-1], axis=1), 0)
    k = np.arange(1.0, m + 1.0)
    beta = k / (2.0 * np.sqrt(4.0 * k * k - 1.0))  # beta[k-1] = b_k
    jacobi = (np.diag(np.full(m, 0.5)) + np.diag(beta[:-1], 1)
              + np.diag(beta[:-1], -1))
    for q in range(1, m + 1):
        rows = np.nonzero(deg == q)[0]
        mats = np.repeat(jacobi[None, :q, :q], rows.size, axis=0)
        mats[:, -1, :] -= beta[q - 1] * c[rows, :q] / c[rows, q:q + 1]
        out[rows, :q] = np.clip(np.linalg.eigvals(mats).real, 0.0, 1.0)
    return out


class PolySpace:
    """P_m with an orthonormal basis, b-adic dilation and differentiation.

    Immutable after construction; all operations are pure.
    """

    quad_order = 32  # the Gauss order of every projection

    def __init__(self, degree: int, base: int):
        if not 0 <= degree < self.quad_order:
            raise ValueError(f"degree must be in [0, {self.quad_order}), "
                             f"the Gauss order, got {degree}")
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        self.degree = degree
        self.base = base
        self.nodes, self.weights = self.gauss_rule(self.quad_order)
        self.basis_at_nodes = legendre_values(degree, self.nodes)  # (m+1, Q)
        self._proj = self.basis_at_nodes * self.weights  # rows integrate vs L_j

        # L_k' = 2 sum_{j<k, k-j odd} sqrt((2j+1)(2k+1)) L_j, so the
        # matrix is strictly upper triangular: a derivative row ends in an
        # exact zero, and its powers past the degree vanish exactly.
        j, k = np.indices((self.dim, self.dim))
        diff = np.where((j < k) & ((k - j) % 2 == 1),
                        2.0 * np.sqrt((2.0 * j + 1.0) * (2.0 * k + 1.0)), 0.0)
        diff.setflags(write=False)
        self.diff_matrix = diff

    @staticmethod
    @cache
    def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only nodes and weights of the order-point Gauss-Legendre
        rule on [0,1], built once per order and shared by every caller."""
        t, w = np.polynomial.legendre.leggauss(order)
        rule = 0.5 * (t + 1.0), 0.5 * w
        for a in rule:
            a.setflags(write=False)
        return rule

    @property
    def dim(self) -> int:
        return self.degree + 1

    @cached_property
    def dilation_matrices(self) -> np.ndarray:
        """D_i[j, k] = <L_k((. + i)/b), L_j>, so D_i c holds the coefficients
        of y -> g((y + i)/b) when c holds those of g.  Built on first use,
        so a space of any base is cheap until a digit is applied."""
        dil = np.empty((self.base, self.dim, self.dim))
        for i in range(self.base):
            shifted = legendre_values(self.degree, (self.nodes + i) / self.base)
            dil[i] = self._proj @ shifted.T
        dil.setflags(write=False)
        return dil

    def project_pieces(self, f, x) -> np.ndarray:
        """L2 projections (..., m+1) of f on pieces from their quadrature
        points x (..., Q): row i projects y -> f(a + h y) if x[i] = a + h
        nodes, by the Gauss rule of order `quad_order`.  f is called once on
        x, and point by point only when it does not return x's shape; a
        non-finite value raises ArithmeticError, as the only report: f runs
        with numpy's floating-point warnings off."""
        with np.errstate(all="ignore"):
            vals = np.asarray(f(x), dtype=float)
            if vals.shape != x.shape:
                vals = np.vectorize(f, otypes=[float])(x)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ArithmeticError(
                f"non-finite value at quadrature node x={x[bad][0]}")
        return vals @ self._proj.T

    def project(self, g) -> np.ndarray:
        """L2-orthogonal projection of a callable on [0,1) onto the space."""
        return self.project_pieces(g, self.nodes)

    def differentiate(self, coeffs, order: int = 1) -> np.ndarray:
        """Coefficients of the order-th derivative of rows (..., m+1): the
        strictly upper triangular D makes D^order exactly 0 past the degree."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return (np.asarray(coeffs, dtype=float)
                @ np.linalg.matrix_power(self.diff_matrix, order).T)

    def max_abs(self, coeffs):
        """Max of |p| on [0, 1] over the endpoints and the critical points:
        a float for one row (m+1,), shape (n,) for rows (n, m+1)."""
        c = np.asarray(coeffs, dtype=float)
        rows = c.reshape(-1, self.dim)
        # A derivative entry k within the rounding error of forming it from
        # its row, 4 eps max_j |c_j| sum_j |D_kj|, is zeroed, so that
        # `real_roots` does not count the noise towards the degree.
        deriv = self.differentiate(rows)
        noise = (np.abs(rows).max(axis=1, keepdims=True)
                 * np.abs(self.diff_matrix).sum(axis=1))
        deriv[np.abs(deriv) <= 4.0 * np.finfo(float).eps * noise] = 0.0
        crit = real_roots(deriv)
        cand = np.pad(crit, ((0, 0), (1, 1)), constant_values=(0.0, 1.0))
        vals = np.einsum("nk,knj->nj", rows, legendre_values(self.degree, cand))
        out = np.max(np.abs(vals), axis=1)
        return float(out[0]) if c.ndim == 1 else out
