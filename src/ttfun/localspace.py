"""Local polynomial space on [0,1) in an orthonormal shifted-Legendre basis.

The space P_m of polynomials of degree <= m carries the basis
L_k(y) = sqrt(2k+1) P_k(2y-1), orthonormal for the L2 inner product on
[0,1).  The space is closed under the maps y -> (y+i)/b, and the
corresponding dilation matrices are precomputed per (base, degree), along
with a differentiation matrix.
"""

from __future__ import annotations

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

    def __init__(self, degree: int, base: int, quad_order: int = 32):
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if quad_order <= degree:
            raise ValueError("quadrature order must exceed the degree")
        self.degree = degree
        self.base = base
        self.quad_order = quad_order
        nodes, weights = np.polynomial.legendre.leggauss(quad_order)
        self.nodes = 0.5 * (nodes + 1.0)
        self.weights = 0.5 * weights
        self.basis_at_nodes = legendre_values(degree, self.nodes)  # (m+1, Q)
        self._proj = self.basis_at_nodes * self.weights  # rows integrate vs L_j

        # D_i[j, k] = <L_k((. + i)/b), L_j>, so D_i c holds the coefficients
        # of y -> g((y + i)/b) when c holds those of g.
        dil = np.empty((base, degree + 1, degree + 1))
        for i in range(base):
            shifted = legendre_values(degree, (self.nodes + i) / base)
            dil[i] = self._proj @ shifted.T
        dil.setflags(write=False)
        self.dilation_matrices = dil

        # L_k' = 2 sum_{j<k, k-j odd} sqrt((2j+1)(2k+1)) L_j, so the
        # matrix is strictly upper triangular: a derivative row ends in an
        # exact zero, and its powers past the degree vanish exactly.
        j, k = np.indices((self.dim, self.dim))
        diff = np.where((j < k) & ((k - j) % 2 == 1),
                        2.0 * np.sqrt((2.0 * j + 1.0) * (2.0 * k + 1.0)), 0.0)
        diff.setflags(write=False)
        self.diff_matrix = diff

    @property
    def dim(self) -> int:
        return self.degree + 1

    def project_pieces(self, f, x) -> np.ndarray:
        """L2 projections (..., m+1) of f on pieces from their quadrature
        points x (..., Q): row i projects y -> f(a + h y) if x[i] = a + h
        nodes, by the Gauss rule of order `quad_order`.  f is called once on
        x, and point by point only when it does not return x's shape; a
        non-finite value raises ArithmeticError."""
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

    def eval(self, coeffs, y):
        """Evaluate sum_k c_k L_k at y in [0,1) (scalar or array)."""
        arr = np.asarray(y, dtype=float)
        if not np.all((arr >= 0.0) & (arr < 1.0)):
            raise ValueError("evaluation point outside [0, 1)")
        vals = legendre_values(self.degree, arr)
        return np.tensordot(np.asarray(coeffs, dtype=float), vals, axes=(0, 0))

    def dilate(self, coeffs, digit: int) -> np.ndarray:
        """Coefficients of y -> g((y + digit)/base)."""
        if not 0 <= digit < self.base:
            raise ValueError(f"digit {digit} out of range for base {self.base}")
        return self.dilation_matrices[digit] @ np.asarray(coeffs, dtype=float)

    def differentiate(self, coeffs, order: int = 1) -> np.ndarray:
        """Coefficients of the order-th derivative of rows (..., m+1): the
        strictly upper triangular D makes D^order exactly 0 past the degree."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return (np.asarray(coeffs, dtype=float)
                @ np.linalg.matrix_power(self.diff_matrix, order).T)

    def gram_matrix(self) -> np.ndarray:
        """Quadrature Gram matrix of the basis (identity up to roundoff)."""
        return self._proj @ self.basis_at_nodes.T

    def monomial_coeffs(self) -> np.ndarray:
        """Columns express y^k in the orthonormal basis, k = 0..degree."""
        return np.column_stack([self.project(lambda y, q=q: y**q)
                                for q in range(self.dim)])

    def max_abs(self, coeffs):
        """Max of |p| on [0, 1] over the endpoints and the critical points:
        a float for one row (m+1,), shape (n,) for rows (n, m+1)."""
        c = np.asarray(coeffs, dtype=float)
        rows = c.reshape(-1, self.dim)
        crit = real_roots(self.differentiate(rows))
        cand = np.pad(crit, ((0, 0), (1, 1)), constant_values=(0.0, 1.0))
        vals = np.einsum("nk,knj->nj", rows, legendre_values(self.degree, cand))
        out = np.max(np.abs(vals), axis=1)
        return float(out[0]) if c.ndim == 1 else out
