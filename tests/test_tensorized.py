"""Full coefficient tensors: construction, norms, ranks, level changes."""

import math
import re
import warnings

import numpy as np
import pytest

from ttfun import (BudgetError, PolySpace, TensorizedFunction, TensorTrain,
                   corpus_functions, cp_from_tensorized, tt_svd)
from ttfun.cli import parse_function_spec
from ttfun.tensorized import (_CHUNK, _WIDE, _check_p, _coarser, _next_digit,
                              _restrict, _sweep, _tsqr_r, _unit)


def quad_lp(f, p, ncell=64, order=64):
    """Composite Gauss quadrature oracle for the L^p norm on [0,1)."""
    t, w = np.polynomial.legendre.leggauss(order)
    y = 0.5 * (t + 1.0)
    total = 0.0
    for j in range(ncell):
        x = (j + y) / ncell
        total += float(np.sum(0.5 * w * np.abs(f(x)) ** p)) / ncell
    return total ** (1.0 / p)


def test_tensorize_constant(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 3)
    flat = tf.cell_coeffs
    assert np.max(np.abs(flat[:, 0] - 1.0)) < 1e-13
    assert np.max(np.abs(flat[:, 1:])) < 1e-13


def test_tensorize_linear_cells(space):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 1)
    want0 = space.project(lambda y: y / 2.0)
    want1 = space.project(lambda y: (y + 1.0) / 2.0)
    assert np.max(np.abs(tf.coeffs[0] - want0)) < 1e-13
    assert np.max(np.abs(tf.coeffs[1] - want1)) < 1e-13


def test_tensorize_aligned_indicator(space):
    tf = TensorizedFunction.tensorize(
        lambda x: (np.asarray(x) < 0.5).astype(float), space, 1)
    assert abs(tf.coeffs[0, 0] - 1.0) < 1e-13
    assert np.max(np.abs(tf.coeffs[0, 1:])) < 1e-13
    assert np.max(np.abs(tf.coeffs[1])) < 1e-13


def test_tensorize_budget_guard(space):
    with pytest.raises(BudgetError):
        TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 10,
                                     budget=100)


def test_tensorize_nonfinite(space):
    with pytest.raises(ArithmeticError):
        TensorizedFunction.tensorize(
            lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0), space, 2)
    # 3^7 = 2187 cells: the NaN sits only in the short third block
    with pytest.raises(ArithmeticError, match="x=0.99"):
        TensorizedFunction.tensorize(
            lambda x: np.where(np.asarray(x) > 0.99, np.nan, 1.0),
            PolySpace(2, 3), 7)


def _unblocked_projection(f, space, level):
    """Reference: every cell's quadrature points in one (b^d, Q) array."""
    cells = np.arange(space.base**level, dtype=float)
    x = (cells[:, None] + space.nodes) * float(space.base) ** -level
    return np.asarray(f(x), dtype=float) @ space._proj.T


@pytest.mark.parametrize("b,level,m", [(2, 12, 3), (3, 7, 2), (5, 5, 3)])
def test_tensorize_blocked_matches_unblocked(b, level, m):
    """Exact when b^d is a multiple of the block (2^12 = 4 blocks); a short
    last block may round differently in BLAS, by a few ulps."""
    space = PolySpace(m, b)
    for name in ("sqrt", "sin:3", "abs_power:0.5,0.6"):
        f, _ = parse_function_spec(name)
        got = TensorizedFunction.tensorize(f, space, level).cell_coeffs
        want = _unblocked_projection(f, space, level)
        if b**level % 1024 == 0:
            assert np.array_equal(got, want)
        else:
            eps = np.finfo(float).eps
            assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))


def test_tensorize_scalar_callable(space):
    """A callable that ignores array input is called point by point."""
    tf = TensorizedFunction.tensorize(lambda x: 2.5, space, 3)
    assert np.max(np.abs(tf.cell_coeffs[:, 0] - 2.5)) < 1e-13
    assert np.max(np.abs(tf.cell_coeffs[:, 1:])) < 1e-13


@pytest.mark.parametrize("name", ["sqrt", "sin:3", "abs_power:0.5,0.6"])
def test_tensorize_memory_bounded(space, name):
    """Cells are projected a block at a time, so the peak stays near the
    2 MB output at d=16; (b^d, Q) arrays of points and values would take
    18-24x."""
    import tracemalloc
    f, _ = parse_function_spec(name)
    tracemalloc.start()
    try:
        tf = TensorizedFunction.tensorize(f, space, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * tf.coeffs.nbytes


def test_eval_constant(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 4)
    for x in (0.0, 0.37, 0.999):
        assert tf(x) == pytest.approx(1.0, abs=1e-13)


def test_eval_polynomial_reproduction(space, rng):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 5)
    assert abs(tf(0.7) - 0.7) < 1e-12
    xs = rng.uniform(0.0, 1.0, size=200)
    assert np.max(np.abs(tf(xs) - xs)) < 1e-12


def test_eval_half_open_cells(space):
    tf = TensorizedFunction.tensorize(
        lambda x: (np.asarray(x) < 0.5).astype(float), space, 1)
    assert tf(0.5) == pytest.approx(0.0, abs=1e-13)
    assert tf(0.4999999) == pytest.approx(1.0, abs=1e-12)


def test_eval_domain_error(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 2)
    for bad in (1.0, np.nan, np.array([0.5, np.nan]), np.array([[np.inf]])):
        with pytest.raises(ValueError):
            tf(bad)


def test_negative_level_rejected(space):
    with pytest.raises(ValueError):
        TensorizedFunction.tensorize(lambda x: np.asarray(x), space, -1)
    with pytest.raises(ValueError):
        TensorizedFunction(space, -1, np.zeros(space.dim))
    with pytest.raises(ValueError, match="coefficient shape"):
        TensorizedFunction(space, 1, np.zeros((3, space.dim)))


def test_lp_norm_constant(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 3)
    for p in (1.0, 2.0, 3.5, np.inf):
        assert abs(tf.lp_norm(p) - 1.0) < 1e-12


def test_lp_norm_indicator(space):
    tf = TensorizedFunction.tensorize(
        lambda x: (np.asarray(x) < 0.5).astype(float), space, 2)
    assert abs(tf.lp_norm(2) - np.sqrt(0.5)) < 1e-13
    assert abs(tf.lp_norm(1) - 0.5) < 1e-13


def test_lp_norm_against_quadrature(space):
    f = lambda x: np.sin(2 * np.pi * np.asarray(x))
    tf = TensorizedFunction.tensorize(f, space, 6)
    for p in (1.0, 2.0):
        assert abs(tf.lp_norm(p) - quad_lp(f, p)) < 1e-6
    assert abs(tf.lp_norm(np.inf) - 1.0) < 1e-6


def test_lp_norm_level_invariance(space):
    for f in (lambda x: np.cos(4 * np.pi * np.asarray(x)),
              lambda x: (np.asarray(x) < 1.0 / 3.0).astype(float)):
        tf = TensorizedFunction.tensorize(f, space, 3)
        up = tf.relevel_up(6)
        for p in (1.0, 2.0, np.inf):
            assert abs(tf.lp_norm(p) - up.lp_norm(p)) < 1e-10


def _abs_quadratic_integral(a, b):
    """Closed form of the integral of |(y - a)(y - b)| over [0, 1], a <= b."""
    anti = lambda y: y**3 / 3.0 - (a + b) * y**2 / 2.0 + a * b * y
    return 2.0 * anti(a) - 2.0 * anti(b) + anti(1.0)


def test_lp_norm_exact_on_root_edge_cases(space):
    """L^1 against closed forms: two roots 0.04 apart in one cell (missed
    by a grid sign test), a double root, roots at both endpoints and an
    exact degree drop (a linear piece at m = 3)."""
    linear = np.array([0.25, 1.0 / (2.0 * np.sqrt(3.0)), 0.0, 0.0])
    cases = [(lambda y: (y - 0.51) * (y - 0.55), (0.51, 0.55)),
             (lambda y: (y - 0.3) ** 2, (0.3, 0.3)),
             (lambda y: y * (y - 1.0), (0.0, 1.0))]
    pairs = [(space.project(g), _abs_quadratic_integral(*ab))
             for g, ab in cases] + [(linear, 0.3125)]
    for c, exact in pairs:
        tf = TensorizedFunction(space, 0, c)
        for rep in (tf, tf.relevel_up(3)):
            assert abs(rep.lp_norm(1) - exact) <= 1e-13 * exact


def test_lp_norm_small_p_against_closed_form(space):
    """Small p: the sum of p-th powers over b^d cells is about b^d, whose
    1/p-th power overflows (0.01 at d=12 gave inf); the norm of x + 1/2,
    exact in the space, matches its closed form (int (x+1/2)^p)^(1/p).
    Large p: the node values go through `_unit`, so |x|^2000 does not
    overflow (it gave inf) and ||x||_2000 is (1/2001)^(1/2000)."""
    tf3 = TensorizedFunction.tensorize(lambda x: x + 0.5, space, 3)
    for tf in (tf3, tf3.relevel_up(12)):
        for p in (1e-3, 0.01, 0.5):
            exact = ((1.5 ** (p + 1) - 0.5 ** (p + 1)) / (p + 1)) ** (1 / p)
            assert abs(tf.lp_norm(p) - exact) <= 1e-11 * exact, (tf.level, p)
    # the limit p -> 0 of ||sqrt||_p is exp(int log sqrt) = e^(-1/2)
    sqrt6 = TensorizedFunction.tensorize(np.sqrt, space, 6)
    assert abs(sqrt6.lp_norm(1e-3) - np.exp(-0.5)) < 1e-3
    line = TensorizedFunction(PolySpace(1, 2), 0, [0.5, 0.5 / np.sqrt(3.0)])
    exact = (1.0 / 2001.0) ** (1.0 / 2000.0)
    assert abs(line.lp_norm(2000) - exact) <= 1e-14 * exact


def test_lp_norm_gauss_order_limit():
    """The Gauss order grows with p, so p past the limit of its degree is
    a ValueError that names p and the limit, before any rule is built; at
    m = 0 a two-point rule serves every p.  (A rule of about 1024 points
    takes a second to build, so the limit itself is only checked.)"""
    for m, top in ((1, 2045), (3, 681), (31, 65)):
        _check_p(m, top)
        tf = TensorizedFunction.tensorize(lambda x: x + 0.5,
                                          PolySpace(m, 2), 2)
        for p in (np.nextafter(top, np.inf), 1e300):
            with pytest.raises(ValueError,
                               match=rf"p = {re.escape(str(p))} .* p <= {top}$"):
                tf.lp_norm(p)
    const = TensorizedFunction.tensorize(lambda x: x + 0.5, PolySpace(0, 2), 2)
    assert const.lp_norm(1e300) == const.lp_norm(np.inf) == 1.375


def test_lp_norm_memory_bounded(space):
    """A projection error changes sign in most cells (71% at d=14); their
    root and quadrature arrays are built a block of cells at a time
    (all at once, L^1 peaked at 20 MB under tracemalloc)."""
    import tracemalloc
    f = np.sqrt
    err = (TensorizedFunction.tensorize(f, space, 10).relevel_up(14)
           - TensorizedFunction.tensorize(f, space, 14))
    tracemalloc.start()
    try:
        err.lp_norm(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_l2_norm_memory_bounded(space):
    """lp_norm(2) at d=16 sums the squares per cell without a temporary as
    large as the tensor: its traced peak is the per-cell sums, 1 / (m+1)
    of the tensor, within 0.3x (1.00x when it formed unit * unit)."""
    import tracemalloc
    tf = TensorizedFunction.tensorize(np.sqrt, space, 16)
    tracemalloc.start()
    try:
        norm = tf.lp_norm(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(norm - math.sqrt(0.5)) <= 1e-12
    assert peak <= 0.3 * tf.coeffs.nbytes


def test_l2_norm_uncopied_matches_unit_path():
    """The L^2 norm scales its rows through `_safe`, which copies nothing
    inside 2^+-480: over the corpus tensors and their scalings by 1e+-300
    it equals the norm of the rows scaled by `_unit` within 1e-15
    relative, and scaling by 1e+-140, inside 2^+-480, moves it by at most
    the 1e-13 that an exp of a log near 320 costs."""
    def unit_path(tf):
        unit, top = _unit(tf.cell_coeffs)
        total = float(np.sum(unit * unit))
        return total and math.exp(math.log(top) + (
            math.log(total) - tf.level * math.log(tf.base)) / 2)
    for b, m, d in ((2, 3, 10), (3, 1, 6), (2, 0, 8)):
        for _, f in corpus_functions():
            tf = TensorizedFunction.tensorize(f, PolySpace(m, b), d)
            norm = tf.lp_norm(2)
            for c in (1.0, 1e-300, 1e300):
                want = unit_path(c * tf)
                assert abs((c * tf).lp_norm(2) - want) <= 1e-15 * want
            for c in (1e-140, 1e140):
                assert abs((c * tf).lp_norm(2) - c * norm) <= 1e-13 * c * norm


def test_sobolev_past_degree_vanishes(space, rng):
    for sp, k in ((space, 4), (space, 6), (PolySpace(0, 2), 1)):
        tf = TensorizedFunction(sp, 2, rng.standard_normal((2, 2, sp.dim)))
        for p in (1.0, 2.0, 3.0, np.inf):
            assert tf.sobolev_seminorm(k, p) == 0.0


def test_sobolev_zero_at_large_order(space):
    """k*p past the float exponent range: the seminorm is exactly 0."""
    tf = TensorizedFunction.tensorize(lambda x: np.sqrt(x), space, 10)
    assert tf.sobolev_seminorm(60, 2) == 0.0
    assert tf.sobolev_seminorm(110, np.inf) == 0.0


def test_sobolev_scale_far_from_float_range():
    """Large b^{d(k-1/p)} factors scale exactly and stay finite, also at
    1e140, inside 2^480, where the 20th derivative grows the rows past the
    range whose squares stay finite."""
    tf = TensorizedFunction.tensorize(lambda x: np.exp(3.0 * x),
                                      PolySpace(20, 2), 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, p in ((20, 2.0), (20, 4.0), (20, np.inf)):
            big = tf.sobolev_seminorm(k, p)
            small = (1e-60 * tf).sobolev_seminorm(k, p)
            assert np.isfinite(big)
            assert abs(big - 1e60 * small) <= 1e-12 * big
            huge = (1e140 * tf).sobolev_seminorm(k, p)
            assert abs(huge - 1e140 * big) <= 1e-12 * huge
        assert (1e300 * tf).sobolev_seminorm(20, 4.0) == np.inf


def test_lp_norm_domain_error(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 2)
    with pytest.raises(ValueError):
        tf.lp_norm(0.0)
    for bad in (tf.lp_norm, lambda p: tf.sobolev_seminorm(1, p)):
        with pytest.raises(ValueError, match="p must be positive"):
            bad(np.nan)
    with pytest.raises(ValueError, match="k must be >= 0"):
        tf.sobolev_seminorm(-1, 2)


def test_sobolev_constant_vanishes(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 4)
    for p in (1.0, 2.0, np.inf):
        assert tf.sobolev_seminorm(1, p) < 1e-12


def test_sobolev_linear_is_one(space, space_b3):
    for sp in (space, space_b3):
        for d in (1, 3, 6):
            tf = TensorizedFunction.tensorize(lambda x: np.asarray(x), sp, d)
            assert abs(tf.sobolev_seminorm(1, 2) - 1.0) < 1e-10


def test_sobolev_level_invariance(space):
    f = lambda x: np.exp(np.asarray(x, dtype=float))
    tf = TensorizedFunction.tensorize(f, space, 5)
    up = tf.relevel_up(7)
    for k in (1, 2):
        for p in (1.0, 2.0, np.inf):
            a, b = tf.sobolev_seminorm(k, p), up.sobolev_seminorm(k, p)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_rank_profile_constant(space):
    tf = TensorizedFunction.tensorize(lambda x: np.full_like(x, 2.5), space, 5)
    assert tf.rank_profile().ranks == (1,) * 5


def test_rank_profile_monomials(space):
    for q in (1, 2, 3):
        tf = TensorizedFunction.tensorize(
            lambda x, q=q: np.asarray(x) ** q, space, 6)
        want = tuple(min(2**nu, q + 1) for nu in range(1, 7))
        assert tf.rank_profile().ranks == want


def test_rank_profile_single_cell_bump(space):
    """A function supported on one fine cell is an elementary tensor."""
    coeffs = np.zeros((2,) * 4 + (space.dim,))
    coeffs[(1, 0, 1, 1)] = [0.3, -1.0, 0.2, 0.7]
    tf = TensorizedFunction(space, 4, coeffs)
    assert tf.rank_profile().ranks == (1, 1, 1, 1)


def test_rank_profile_zero(space):
    tf = TensorizedFunction(space, 3, np.zeros((2, 2, 2, space.dim)))
    assert tf.rank_profile().ranks == (0, 0, 0)


def test_rank_profile_tol_validation(space):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 2)
    with pytest.raises(ValueError):
        tf.rank_profile(tol=1.5)


def unfolding_ranks(tf, tol):
    """Reference: one SVD per prefix unfolding (digits 1..nu vs rest)."""
    ranks = []
    for nu in range(1, tf.level + 1):
        s = np.linalg.svd(tf.coeffs.reshape(tf.base**nu, -1), compute_uv=False)
        ranks.append(0 if s[0] == 0.0
                     else int(np.count_nonzero(s > tol * s[0])))
    return tuple(ranks)


@pytest.mark.parametrize("b", [2, 3])
def test_rank_profile_matches_unfolding_svds(b):
    """The full tensor's profile and the profile of its train, built with
    a sweep floor of 1e-3 * tol, against one SVD per unfolding; scaling
    the tensor far outside sqrt(float range), or to max |c| = 1e307, where
    b^(d/2) ||f||_2 passes 1.8e308, leaves them unchanged."""
    for m in (0, 1, 3):
        space = PolySpace(m, b)
        cases = [TensorizedFunction(space, 0, np.arange(1.0, m + 2.0)),
                 TensorizedFunction(space, 4, np.zeros((b,) * 4 + (m + 1,)))]
        for _, f in corpus_functions():
            cases += [TensorizedFunction.tensorize(f, space, d)
                      for d in (2, 4, 6, 8)]
        for tf in cases:
            for tol in (1e-10, 1e-6, 1e-13):
                want = unfolding_ranks(tf, tol)
                top = np.max(np.abs(tf.coeffs))
                scaled = ((1e-200 * tf, 1e300 * tf,
                           1e307 * (tf * (1.0 / top)))
                          if tol == 1e-6 and top else ())
                for g in (tf,) + scaled:
                    assert g.rank_profile(tol).ranks == want
                    if g.level:
                        cores, _ = _sweep([g.coeffs], g.coeffs.shape, 0.0,
                                          1e-3 * tol)
                        tt = TensorTrain(space, cores)
                        assert tt.rank_profile(tol).ranks == want
        zero = TensorTrain(space, [np.zeros((1, b, 1))] * 4
                           + [np.zeros((1, m + 1, 1))])
        assert zero.rank_profile().ranks == (0,) * 4


def test_rank_profile_matches_unfolding_svds_deep(space):
    """At d=18, where the first sweep steps are wide, also for the tensor
    scaled by 1e-300 and 1e300: the profile and the ranks of tt_svd(0.0)
    stay those of the unscaled tensor, and tt_svd(0.0) rebuilds it within
    the sweep floor's bound sqrt(1e-24 sum_nu r_nu) ||f||_2 (sqrt lies
    1.4e-12 ||f||_2 away, past 1e-12 alone).  For sin:3 a second block of
    several modes opens after the leading one."""
    for name in ("sqrt", "sin:3", "abs_power:0.5,0.6"):
        f, _ = parse_function_spec(name)
        tf = TensorizedFunction.tensorize(f, space, 18)
        want = tf.rank_profile().ranks
        assert want == unfolding_ranks(tf, 1e-10)
        tt = tt_svd(tf, 0.0)
        assert ((tt.to_full() - tf).lp_norm(2)
                <= 1e-12 * math.sqrt(sum(tt.ranks)) * tf.lp_norm(2))
        exact = tt.ranks
        for c in (1e-300, 1e300):
            assert (c * tf).rank_profile().ranks == want
            assert tt_svd(c * tf, 0.0).ranks == exact


@pytest.mark.parametrize("k", [2, 8, 16])
def test_svd_step_wide_planted_spectrum(k):
    """A wide step (2^16 columns) opens a one-mode block of `_sweep`, which
    goes through TSQR: on the chain [mat.reshape(k, 2^15, 2)] a planted
    spectrum logspace(0, -14, k) comes back as the first spectrum within
    1e-14 s[0], and the cores rebuild the matrix within 1e-14 of its
    norm."""
    n = 2**16
    assert n >= _WIDE * k
    rng = np.random.default_rng(k)
    u0, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v0, _ = np.linalg.qr(rng.standard_normal((n, k)))
    want = np.logspace(0, -14, k)
    mat = (u0 * want) @ v0.T
    cores, spectra = _sweep([mat.reshape(k, n // 2, 2)], (k, n // 2, 2),
                            0.0, 0.0)
    s = spectra[0] * np.linalg.norm(want)
    assert s.shape == (k,) and cores[0].shape == (1, k, k)
    assert np.max(np.abs(s - want)) <= 1e-14 * want[0]
    full = cores[0].reshape(k, -1)
    for g in cores[1:]:
        full = full.reshape(-1, g.shape[0]) @ g.reshape(g.shape[0], -1)
    assert (np.linalg.norm(full.reshape(k, n) - mat)
            <= 1e-14 * np.linalg.norm(mat))


@pytest.mark.parametrize("rows", [2, 8, 64, 256])
def test_tsqr_r_matches_qr(rows):
    """The flat TSQR loop gives the R of one unblocked qr(mat.T), up to the
    signs of its rows, for fewer columns than one chunk, exactly k chunks
    and k chunks plus a remainder; at 256 rows a chunk (128 columns) is
    narrower than the row count."""
    width = _CHUNK // rows
    rng = np.random.default_rng(rows)
    for cols in (width // 2 + 1, 3 * width, 3 * width + width // 3 + 1):
        mat = rng.standard_normal((rows, cols))
        got = _tsqr_r(mat)
        want = np.linalg.qr(mat.T, mode="r")
        assert got.shape == want.shape
        got = got * np.sign(np.diag(got))[:, None]
        want = want * np.sign(np.diag(want))[:, None]
        assert (np.max(np.abs(got - want))
                <= 1e-13 * np.linalg.norm(mat))


def test_tsqr_r_memory_bounded():
    """_tsqr_r copies one chunk at a time: on a (2, 2^20) matrix its
    traced peak stays within 0.1x the matrix (a qr of the whole mat.T
    copies all of it)."""
    import tracemalloc
    mat = np.random.default_rng(0).standard_normal((2, 2**20))
    tracemalloc.start()
    try:
        _tsqr_r(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * mat.nbytes


def test_sweep_memory_bounded(space):
    """rank_profile and tt_svd(0.0) at d=16 peak at most 1.0x the tensor
    (0.53x is measured; 2.0x when each wide step read the tensor itself).
    Each wide run of digit modes is one block with one TSQR, which copies
    one chunk at a time, so the peak is the carry after the leading block,
    r_k / b^k of the tensor, plus a TSQR chunk and its qr copy (1/8 of the
    tensor each at d=16) in the next block; each step drops its factors on
    return.  tracemalloc does not see LAPACK's own work buffers, so this
    bounds numpy's arrays only; the RSS of deep runs is measured outside
    the test suite."""
    import tracemalloc
    tf = TensorizedFunction.tensorize(np.sqrt, space, 16)
    for run in (tf.rank_profile, lambda: tt_svd(tf, 0.0)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * tf.coeffs.nbytes


def test_partial_eval_levels(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 3)
    sub = tf.partial_eval((1, 0))
    assert sub.level == 1
    assert abs(sub(0.3) - 1.0) < 1e-13
    assert tf.partial_eval((0, 1, 1)).level == 0


def test_partial_eval_matches_composition(space, rng):
    tf = TensorizedFunction.tensorize(
        lambda x: np.sin(2 * np.pi * np.asarray(x)), space, 5)
    sub = tf.partial_eval((1, 0))
    for y in rng.uniform(0.0, 1.0, size=20):
        x = (2 + y) / 4.0  # digits (1, 0) then remainder y
        assert abs(sub(float(y)) - tf(x)) < 1e-12


def test_partial_eval_span_equals_rank(space, rng):
    """The span of all nu-digit restrictions has dimension r_nu."""
    tf = TensorizedFunction.tensorize(
        lambda x: np.asarray(x) ** 3, space, 5)
    ranks = tf.rank_profile().ranks
    for nu in (1, 2, 3):
        rows = tf.coeffs.reshape(2**nu, -1)
        gram = rows @ rows.T
        s = np.linalg.eigvalsh(gram)
        span_dim = int(np.count_nonzero(s > 1e-13 * max(s.max(), 1e-300)))
        assert span_dim == ranks[nu - 1]


def test_partial_eval_errors(space):
    tf = TensorizedFunction.tensorize(lambda x: np.ones_like(x), space, 2)
    with pytest.raises(ValueError):
        tf.partial_eval((0, 0, 0))
    with pytest.raises(ValueError):
        tf.partial_eval((2,))


def test_relevel_identity(space):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 3)
    same = tf.relevel_up(3)
    assert np.max(np.abs(same.coeffs - tf.coeffs)) == 0.0


def test_relevel_pointwise(space, rng):
    f = lambda x: np.exp(np.asarray(x, dtype=float))
    tf = TensorizedFunction.tensorize(f, space, 3)
    up = tf.relevel_up(6)
    xs = rng.uniform(0.0, 1.0, size=300)
    assert np.max(np.abs(up(xs) - tf(xs))) < 1e-11


def test_relevel_new_ranks_capped(space):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x) ** 2, space, 3)
    up = tf.relevel_up(5)
    ranks = up.rank_profile().ranks
    assert ranks[:3] == tf.rank_profile().ranks
    assert ranks[3] <= 3 and ranks[4] <= 3


def test_relevel_up_memory_bounded(space):
    """Each added digit is one contraction of the previous level, so the
    peak is the output plus the level before it (1.5x), not b slices and
    their stack on top (2.5x)."""
    import tracemalloc
    tf = TensorizedFunction.tensorize(np.sqrt, space, 12)
    tracemalloc.start()
    try:
        up = tf.relevel_up(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * up.coeffs.nbytes


def test_relevel_budget(space):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 2)
    with pytest.raises(BudgetError):
        tf.relevel_up(20, budget=1000)
    with pytest.raises(BudgetError):
        tt_svd(tf).extend_level(20).to_full(budget=1000)
    with pytest.raises(ValueError):
        tf.relevel_up(1)


def test_projection_rank_monotonicity(rng):
    """Truncating to a smaller degree never increases prefix ranks."""
    big = PolySpace(3, 2)
    small = PolySpace(2, 2)
    f = lambda x: np.exp(np.asarray(x, dtype=float))
    tf = TensorizedFunction.tensorize(f, big, 4)
    # orthonormal basis: degree reduction is coefficient truncation
    reduced = TensorizedFunction(small, 4, tf.coeffs[..., :small.dim])
    r_big = tf.rank_profile().ranks
    r_small = reduced.rank_profile().ranks
    assert all(rs <= rb for rs, rb in zip(r_small, r_big))


def test_canonical_rank_ceiling(space):
    """The cell-wise sum-of-rank-one form has one term per nonzero cell."""
    tf = TensorizedFunction.tensorize(
        lambda x: (np.asarray(x) < 0.25).astype(float), space, 3)
    cp = cp_from_tensorized(tf)
    nonzero_cells = int(np.count_nonzero(
        np.any(tf.cell_coeffs != 0.0, axis=1)))
    assert cp.rank == nonzero_cells <= 2**3
    xs = np.linspace(0.0, 1.0 - 1e-12, 64)
    assert np.max(np.abs(cp(xs) - tf(xs))) < 1e-12


def both_levels(tf):
    """The minimal level of the full tensor and the level of its coarsened
    train, which is at least 1."""
    return tf.minimal_level(), tt_svd(tf, 0.0).coarsen().level


def test_minimal_level_polynomial(space):
    tf = TensorizedFunction.tensorize(lambda x: np.asarray(x) ** 2, space, 4)
    assert tf.minimal_level() == 0
    zero = TensorizedFunction(space, 4, np.zeros((2,) * 4 + (space.dim,)))
    assert both_levels(zero) == (0, 1)


def test_minimal_level_step(space):
    tf = TensorizedFunction.tensorize(
        lambda x: (np.asarray(x) < 0.5).astype(float), space, 3)
    assert tf.minimal_level() == 1
    # x^2 on [1/2, 1) next to a part 1e-11 below it: one relative rule
    # for both paths, so the tiny part does not count on its own
    g = TensorizedFunction.tensorize(
        lambda x: np.where(x < 0.5, 1e-11 * np.sqrt(x), x**2), space, 6)
    assert both_levels(g) == (1, 1)


def test_minimal_level_generic(space, rng):
    tf = TensorizedFunction(space, 3,
                            rng.standard_normal((2, 2, 2, space.dim)))
    assert tf.minimal_level() == 3
    # cos(4 pi x) is no polynomial on any b = 3 cell, at any scale
    cos4 = TensorizedFunction.tensorize(lambda x: np.cos(4 * np.pi * x),
                                        PolySpace(3, 3), 6)
    for c in (1e-300, 1e-200, 1.0, 1e200, 1e300):
        assert both_levels(c * cos4) == (6, 6)


@pytest.mark.parametrize("b, m", [(2, 0), (2, 3), (3, 1), (10, 5)])
def test_restrict_is_adjoint_of_next_digit(b, m, rng):
    """The stacked dilation matrices S have S^T S = b I, so `_restrict`
    undoes `_next_digit` and is its adjoint over b."""
    sp = PolySpace(m, b)
    stacked = sp.dilation_matrices.reshape(-1, sp.dim)
    assert np.max(np.abs(stacked.T @ stacked - b * np.eye(sp.dim))) <= 1e-14 * b
    c = rng.standard_normal((2, 3, sp.dim))
    assert (np.max(np.abs(_restrict(sp, _next_digit(sp, c)) - c))
            <= 1e-14 * np.max(np.abs(c)))
    fine = rng.standard_normal((2, 3, b, sp.dim))
    assert np.isclose(np.sum(_next_digit(sp, c) * fine),
                      b * np.sum(c * _restrict(sp, fine)), rtol=1e-13)
    # at the top of the float range the sums of the contraction stay finite
    big = 1e308 / np.max(np.abs(fine))
    assert (np.max(np.abs(_restrict(sp, big * fine) / big
                          - _restrict(sp, fine)))
            <= 1e-14 * np.max(np.abs(fine)))


def lstsq_coarser(space, siblings):
    """The least-squares coarsening that `_restrict` replaced, as a
    reference: the solve on rows scaled to max |c| = 1, or None past the
    residual 1e-9 ||rows||."""
    peak = float(np.max(np.abs(siblings), initial=0.0))
    unit = (siblings / peak if peak > 0.0 else siblings).reshape(
        siblings.shape[0], -1).T
    stacked = space.dilation_matrices.reshape(-1, space.dim)
    sol, *_ = np.linalg.lstsq(stacked, unit, rcond=None)
    if np.linalg.norm(stacked @ sol - unit) > 1e-9 * np.linalg.norm(unit):
        return None
    return sol.T * peak


@pytest.mark.parametrize("b, m", [(2, 0), (2, 3), (3, 1), (10, 5)])
def test_coarser_matches_lstsq_reference(b, m, rng):
    """On dilation families, families off by 1e-12 or 1e-6, random and zero
    sibling rows, at scales 1 and 1e+-300: the same verdict as the
    least-squares reference, and the same coarse rows to 1e-13."""
    sp = PolySpace(m, b)
    family = _next_digit(sp, rng.standard_normal((5, sp.dim)))
    noise = rng.standard_normal(family.shape)
    cases = [family, family + 1e-12 * noise, family + 1e-6 * noise, noise,
             0.0 * noise]
    verdicts = []
    for rows in cases:
        for c in (1.0, 1e300, 1e-300):
            got, want = _coarser(sp, c * rows), lstsq_coarser(sp, c * rows)
            assert (got is None) == (want is None), (b, m, c)
            verdicts.append(got is not None)
            if want is not None:
                assert (np.max(np.abs(got - want))
                        <= 1e-13 * np.max(np.abs(want)))
    assert verdicts == [True] * 6 + [False] * 6 + [True] * 3


def test_arithmetic(space):
    a = TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 3)
    b = TensorizedFunction.tensorize(lambda x: np.asarray(x) ** 2, space, 3)
    s = a + b
    assert abs(s(0.3) - (0.3 + 0.09)) < 1e-12
    diff = s - b
    assert abs(diff(0.3) - 0.3) < 1e-12
    assert abs((2.0 * a)(0.25) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        a + TensorizedFunction.tensorize(lambda x: np.asarray(x), space, 4)
    with pytest.raises(ValueError, match="incompatible local spaces"):
        a + TensorizedFunction.tensorize(lambda x: np.asarray(x),
                                         PolySpace(3, 3), 3)
    with pytest.raises(TypeError):
        a + 1


def test_save_load_roundtrip(space, tmp_path):
    tf = TensorizedFunction.tensorize(
        lambda x: np.sin(2 * np.pi * np.asarray(x)), space, 4)
    path = tmp_path / "f.qttf"
    tf.save(path)
    back = TensorizedFunction.load(path)
    assert back.level == 4 and back.base == 2
    assert np.max(np.abs(back.coeffs - tf.coeffs)) == 0.0


def test_load_bad_magic(space, tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        TensorizedFunction.load(path)
