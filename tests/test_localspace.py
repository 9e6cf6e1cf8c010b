"""Local polynomial space: basis, projection, dilation, differentiation."""

import numpy as np
import pytest

from ttfun import PolySpace, legendre_values
from ttfun.localspace import real_roots


def hi_res_inner(f, g, n=200):
    """Independent high-order quadrature oracle for <f, g> on [0,1)."""
    t, w = np.polynomial.legendre.leggauss(n)
    y = 0.5 * (t + 1.0)
    return 0.5 * float(np.sum(w * f(y) * g(y)))


def test_gram_identity(space):
    gram = space.gram_matrix()
    assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-12


def test_basis_orthonormal_against_oracle(space):
    for j in range(space.dim):
        for k in range(space.dim):
            val = hi_res_inner(lambda y: legendre_values(space.degree, y)[j],
                               lambda y: legendre_values(space.degree, y)[k])
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-13


def test_project_basis_member(space):
    c = space.project(lambda y: legendre_values(space.degree, y)[2])
    want = np.zeros(space.dim)
    want[2] = 1.0
    assert np.max(np.abs(c - want)) < 1e-12


def test_project_zero(space):
    assert np.all(space.project(lambda y: np.zeros_like(y)) == 0.0)


def test_project_quadratic_m1():
    # oracle: integral y^2 dy = 1/3 and integral y^2 sqrt(3)(2y-1) dy
    space = PolySpace(1, 2)
    c = space.project(lambda y: y**2)
    c0 = hi_res_inner(lambda y: y**2, lambda y: np.ones_like(y))
    c1 = hi_res_inner(lambda y: y**2, lambda y: np.sqrt(3.0) * (2 * y - 1))
    assert abs(c[0] - 1.0 / 3.0) < 1e-14
    assert abs(c[1] - 1.0 / (2.0 * np.sqrt(3.0))) < 1e-14
    assert np.max(np.abs(c - [c0, c1])) < 1e-14


def test_project_nonfinite_raises(space):
    with pytest.raises(ArithmeticError):
        space.project(lambda y: np.full_like(y, np.nan))


def test_project_scalar_callable(space):
    """A callable that returns a scalar for array input is called point by
    point, at every node."""
    calls = []

    def g(y):
        calls.append(y)
        return 2.5

    c = space.project(g)
    assert len(calls) == 1 + space.quad_order
    assert abs(c[0] - 2.5) < 1e-14
    assert np.max(np.abs(c[1:])) < 1e-14


def test_project_pieces_rows(space):
    """Row i of project_pieces projects f on the piece [a_i, a_i + h)."""
    a, h = np.array([0.0, 0.25, 0.6]), 0.125
    got = space.project_pieces(np.exp, a[:, None] + h * space.nodes)
    for row, ai in zip(got, a):
        want = space.project(lambda y, ai=ai: np.exp(ai + h * y))
        assert np.max(np.abs(row - want)) < 1e-14


def test_eval_constant(space):
    c = np.zeros(space.dim)
    c[0] = 1.0
    for y in (0.0, 0.3, 0.999):
        assert space.eval(c, y) == pytest.approx(1.0, abs=1e-14)


def test_eval_monomial_reproduction(space):
    m = space.degree
    c = space.project(lambda y: y**m)
    assert abs(space.eval(c, 0.5) - 0.5**m) < 1e-12


def test_eval_zero(space):
    assert space.eval(np.zeros(space.dim), 0.7) == 0.0


def test_eval_domain_error(space):
    for bad in (1.0, np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError):
            space.eval(np.zeros(space.dim), bad)


def test_dilate_constant_fixed(space):
    c = np.zeros(space.dim)
    c[0] = 1.0
    for i in range(space.base):
        assert np.max(np.abs(space.dilate(c, i) - c)) < 1e-13


def test_dilate_linear():
    # c of y, base 2, digit 1 -> c of (y+1)/2
    space = PolySpace(1, 2)
    c = space.project(lambda y: y)
    got = space.dilate(c, 1)
    want = space.project(lambda y: (y + 1) / 2.0)
    assert np.max(np.abs(got - want)) < 1e-14
    assert abs(got[0] - 0.75) < 1e-14
    assert abs(got[1] - 1.0 / (4.0 * np.sqrt(3.0))) < 1e-14


def test_dilate_pointwise_identity(space, rng):
    grid = np.linspace(0.0, 1.0 - 1e-12, 64)
    for _ in range(100):
        c = rng.standard_normal(space.dim)
        for i in range(space.base):
            got = space.eval(space.dilate(c, i), grid)
            want = space.eval(c, (grid + i) / space.base)
            assert np.max(np.abs(got - want)) < 1e-12


def test_iterated_dilation(space, rng):
    """Dilating along a digit path reproduces the rescaled restriction."""
    b = space.base
    c = rng.standard_normal(space.dim)
    path = (1, 0, 1)
    d = len(path)
    cc = c.copy()
    for i in reversed(path):
        cc = space.dilate(cc, i)
    j = sum(i * b ** (d - 1 - k) for k, i in enumerate(path))
    grid = np.linspace(0.0, 1.0 - 1e-12, 64)
    got = space.eval(cc, grid)
    want = space.eval(c, b ** (-d) * (j + grid))
    assert np.max(np.abs(got - want)) < 1e-12


def test_dilate_digit_range(space):
    with pytest.raises(ValueError):
        space.dilate(np.zeros(space.dim), space.base)


def test_differentiate_past_degree(space, rng):
    c = rng.standard_normal(space.dim)
    assert np.all(space.differentiate(c, space.degree + 1) == 0.0)


@pytest.mark.parametrize("degree", [3, 6])
def test_differentiate_rows(degree, rng):
    """Rows (..., m+1) against one matvec per order and row, to the rounding
    bound of both products: (order + 1) (m+1) eps (|D|^order |c|)."""
    space = PolySpace(degree, 2)
    eps = np.finfo(float).eps
    c = rng.standard_normal((2, 5, space.dim))
    for order in range(space.degree + 2):
        got = space.differentiate(c, order)
        assert got.shape == c.shape
        size = np.linalg.matrix_power(np.abs(space.diff_matrix), order)
        for row, out in zip(c.reshape(-1, space.dim),
                            got.reshape(-1, space.dim)):
            want = row
            for _ in range(order):
                want = space.diff_matrix @ want
            bound = (order + 1) * space.dim * eps * (size @ np.abs(row))
            assert np.all(np.abs(out - want) <= bound)


def test_differentiate_quadratic(space):
    c = space.project(lambda y: y**2)
    got = space.differentiate(c, 1)
    want = space.project(lambda y: 2.0 * y)
    assert np.max(np.abs(got - want)) < 1e-12


def test_differentiate_constant(space):
    c = np.zeros(space.dim)
    c[0] = 1.0
    assert np.max(np.abs(space.differentiate(c, 1))) < 1e-12


def test_diff_matrix_monomials(space):
    for q in range(1, space.degree + 1):
        c = space.project(lambda y, q=q: y**q)
        got = space.diff_matrix @ c
        want = space.project(lambda y, q=q: q * y ** (q - 1))
        assert np.max(np.abs(got - want)) < 1e-11


def test_refinement_identity(space, rng):
    """(1/b) sum_i <D_i c, D_i c'> equals <c, c'>."""
    b = space.base
    for _ in range(50):
        c = rng.standard_normal(space.dim)
        cp = rng.standard_normal(space.dim)
        total = sum(space.dilate(c, i) @ space.dilate(cp, i) for i in range(b))
        assert abs(total / b - c @ cp) < 1e-12


def test_projection_idempotence(space, rng):
    for _ in range(20):
        c = rng.standard_normal(space.dim)
        back = space.project(lambda y: space.eval(c, y))
        assert np.max(np.abs(back - c)) < 1e-12


def test_monomial_coeffs(space):
    cols = space.monomial_coeffs()
    grid = np.linspace(0.0, 1.0 - 1e-12, 33)
    for q in range(space.dim):
        got = space.eval(cols[:, q], grid)
        assert np.max(np.abs(got - grid**q)) < 1e-12


def test_max_abs(space):
    c = space.project(lambda y: (y - 0.5) ** 2)
    assert abs(space.max_abs(c) - 0.25) < 1e-9
    c = space.project(lambda y: np.full_like(y, -2.0))
    assert abs(space.max_abs(c) - 2.0) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
def test_max_abs_grid_bracket(m, rng):
    """Dense-grid oracle: grid max <= sup <= grid max + h/2 max|p'|, with
    max|p'| bounded through numpy's own Legendre derivative (|P_j| <= 1)."""
    sp = PolySpace(m, 2)
    rows = rng.standard_normal((200, sp.dim))
    grid = np.linspace(0.0, 1.0, 4001)
    gridmax = np.max(np.abs(rows @ legendre_values(m, grid)), axis=1)
    scale = np.sqrt(2.0 * np.arange(m + 1) + 1.0)
    slope = np.array([2.0 * np.sum(np.abs(np.polynomial.legendre.legder(c)))
                      for c in rows * scale])
    got = sp.max_abs(rows)
    assert got.shape == (200,)
    assert np.all(got >= gridmax * (1.0 - 1e-14))
    assert np.all(got <= gridmax + 0.5 * grid[1] * slope)


def test_max_abs_batch_matches_rows(rng):
    for m in (0, 1, 3, 5):
        sp = PolySpace(m, 3)
        rows = rng.standard_normal((50, sp.dim))
        rows[7] = 0.0
        rows[11, 2:] = 0.0
        each = np.array([sp.max_abs(c) for c in rows])
        assert isinstance(sp.max_abs(rows[0]), float)
        assert np.allclose(sp.max_abs(rows), each, rtol=1e-14, atol=0.0)


def _linear(a, b):
    """Exact orthonormal coefficients of a + b y at m = 3: no roundoff in
    the zero slots, so the degree drops exactly."""
    return np.array([a + 0.5 * b, b / (2.0 * np.sqrt(3.0)), 0.0, 0.0])


def test_real_roots_edge_cases(space):
    rows = np.array([np.zeros(space.dim),
                     _linear(-0.25, 1.0),
                     space.project(lambda y: (y - 0.3) ** 2),
                     space.project(lambda y: y * (y - 1.0))])
    roots = real_roots(rows)
    assert roots.shape == (4, space.degree)
    assert np.all((roots >= 0.0) & (roots <= 1.0))
    assert np.all(roots[0] == 0.0)
    assert abs(roots[1, 0] - 0.25) < 1e-15 and np.all(roots[1, 1:] == 0.0)
    assert np.sum(np.abs(roots[2] - 0.3) < 1e-7) == 2
    assert np.min(roots[3]) < 1e-14 and np.max(roots[3]) > 1.0 - 1e-14


def test_max_abs_edge_cases(space):
    assert space.max_abs(np.zeros(space.dim)) == 0.0
    assert abs(space.max_abs(_linear(-0.25, 1.0)) - 0.75) < 1e-15
    # double root at 0.3; the derivative of (y - 0.3)^3 has one too
    assert abs(space.max_abs(space.project(lambda y: (y - 0.3) ** 2))
               - 0.49) < 1e-14
    assert abs(space.max_abs(space.project(lambda y: (y - 0.3) ** 3))
               - 0.343) < 1e-14
    # roots at both endpoints, interior maximum 1/4 at y = 1/2
    assert abs(space.max_abs(space.project(lambda y: y * (y - 1.0)))
               - 0.25) < 1e-14


def test_constructor_validation():
    with pytest.raises(ValueError):
        PolySpace(-1, 2)
    with pytest.raises(ValueError):
        PolySpace(2, 1)
    with pytest.raises(ValueError):
        PolySpace(5, 2, quad_order=4)
