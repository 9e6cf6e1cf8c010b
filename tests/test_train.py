"""Tensor trains: compression, rounding, addition, extension, complexity."""

import math
import struct

import numpy as np
import pytest

from ttfun import (BudgetError, CPRep, PolySpace, TensorTrain,
                   TensorizedFunction, complexity, corpus_functions, cost_cp,
                   cost_dense, cost_rmax, cost_sparse, cost_sum_ranks,
                   cp_from_tensorized, cp_to_tt, maxrank_growth, maxrank_pair,
                   tt_svd)
from ttfun.approx import random_cp, random_train
from ttfun.tensorized import _evaluate, _sweep


def tensorize(f, space, d):
    return TensorizedFunction.tensorize(f, space, d)


# -- tt_svd ----------------------------------------------------------------


def test_tt_svd_cubic_ranks(space):
    tf = tensorize(lambda x: np.asarray(x) ** 3, space, 8)
    tt = tt_svd(tf, 0.0)
    assert tt.ranks == (2, 4, 4, 4, 4, 4, 4, 4)


def test_tt_svd_zero(space):
    tf = TensorizedFunction(space, 3, np.zeros((2, 2, 2, space.dim)))
    tt = tt_svd(tf, 0.0)
    assert tt.is_zero()
    assert tt.ranks == (1, 1, 1)
    with pytest.raises(ValueError, match="level >= 1"):
        tt_svd(TensorizedFunction(space, 0, np.zeros(space.dim)), 0.0)


def test_tt_svd_lossy(space, rng):
    tf = TensorizedFunction(space, 5, rng.standard_normal((2,) * 5
                                                          + (space.dim,)))
    exact = tt_svd(tf, 0.0)
    lossy = tt_svd(tf, 0.5)
    err = (lossy.to_full() - tf).lp_norm(2)
    assert err <= 0.5 * tf.lp_norm(2)
    assert all(rl <= re for rl, re in zip(lossy.ranks, exact.ranks))


def test_tt_svd_rank_caps(space, rng):
    """Exact ranks of a generic tensor reach the unfolding caps."""
    d, b = 4, space.base
    tf = TensorizedFunction(space, d, rng.standard_normal((b,) * d
                                                          + (space.dim,)))
    caps = tuple(min(b ** nu, b ** (d - nu) * space.dim)
                 for nu in range(1, d + 1))
    assert tt_svd(tf, 0.0).ranks == caps == (2, 4, 8, 4)
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError):
            tt_svd(tf, bad)


# -- to_full / eval --------------------------------------------------------


def test_roundtrip_exact(space, rng):
    tf = TensorizedFunction(space, 6, rng.standard_normal((2,) * 6
                                                          + (space.dim,)))
    back = tt_svd(tf, 0.0).to_full()
    assert np.max(np.abs(back.coeffs - tf.coeffs)) < 1e-11


def test_elementary_train_is_outer_product(space, rng):
    vecs = [rng.standard_normal((1, 2, 1)) for _ in range(3)]
    vecs.append(rng.standard_normal((1, space.dim, 1)))
    tt = TensorTrain(space, vecs)
    full = tt.to_full().coeffs
    want = np.einsum("i,j,k,m->ijkm", vecs[0][0, :, 0], vecs[1][0, :, 0],
                     vecs[2][0, :, 0], vecs[3][0, :, 0])
    assert np.max(np.abs(full - want)) < 1e-13


def test_eval_matches_full(space, rng):
    tf = tensorize(lambda x: np.exp(np.asarray(x, dtype=float)), space, 6)
    tt = tt_svd(tf, 0.0)
    xs = rng.uniform(0.0, 1.0, size=1000)
    assert np.max(np.abs(tt(xs) - tf(xs))) < 1e-11


@pytest.mark.parametrize("b,d,m", [(2, 1, 0), (2, 7, 3), (3, 4, 2),
                                   (5, 3, 1), (10, 2, 3)])
def test_batched_eval_matches_full(b, d, m, rng):
    """TT and CP evaluation agree with the full tensor on 2-D point arrays
    and on scalars, which give floats."""
    space = PolySpace(m, b)
    tt = random_train(space, d, rng)
    cp = random_cp(space, d, 3, rng)
    xs = rng.uniform(0.0, 1.0, size=(7, 9))
    for rep, full in ((tt, tt.to_full()), (cp, cp_to_tt(cp).to_full())):
        want = full(xs)
        got = rep(xs)
        assert got.shape == xs.shape
        scale = max(1.0, np.abs(want).max())
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        value = rep(0.4375)
        assert type(value) is float
        assert abs(value - full(0.4375)) <= 1e-12 * max(1.0, abs(value))


def test_tt_eval_matches_slice_contraction(space, rng):
    """One matmul per core and a row select give the values of contracting
    each point's digit slices one by one, to 1e-14 relative."""
    tt = tt_svd(tensorize(np.sqrt, space, 16), 1e-12)

    def sliced(digits):
        v = tt.cores[0][0, digits[0], :]
        for g, i in zip(tt.cores[1:-1], digits[1:]):
            v = np.einsum("pi,ipj->pj", v, g[:, i, :])
        return v @ tt.cores[-1][:, :, 0]
    xs = rng.uniform(0.0, 1.0, 1000)
    want = _evaluate(space, tt.level, xs, sliced)
    assert np.max(np.abs(tt(xs) - want)) <= 1e-14 * np.max(np.abs(want))


def test_cellwise_cp_eval_memory_bounded(rng):
    """A cell-wise CP has rank b^d; evaluating 10000 points at d=10 (rank
    1024) matches the full tensor and keeps its (points, rank) temporaries
    to one block of points (unblocked, they peak near 165 MB)."""
    import tracemalloc
    tf = tensorize(np.sqrt, PolySpace(3, 2), 10)
    cp = cp_from_tensorized(tf)
    assert cp.rank == 1024
    xs = rng.uniform(0.0, 1.0, 10000)
    tracemalloc.start()
    try:
        got = cp(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert np.max(np.abs(got - tf(xs))) <= 1e-12


def test_eval_rejects_points_outside(space, rng):
    tt = random_train(space, 3, rng)
    cp = random_cp(space, 3, 2, rng)
    for rep in (tt, cp):
        for bad in (np.nan, 1.0, -0.25, np.array([0.5, np.nan]),
                    np.array([[0.1], [np.inf]])):
            with pytest.raises(ValueError):
                rep(bad)


def test_deep_extension_evaluates_past_int64(rng):
    """A b=10 train extended to level 20, where 10^20 cells overflow int64,
    still evaluates to the level-2 function."""
    space = PolySpace(3, 10)
    tf = tensorize(lambda x: np.sin(2 * np.pi * np.asarray(x)), space, 2)
    ext = tt_svd(tf, 0.0).extend_level(20)
    xs = np.concatenate([rng.uniform(0.0, 1.0, size=500),
                         [0.0, 0.5, np.nextafter(1.0, 0.0)]])
    assert np.max(np.abs(ext(xs) - tf(xs))) < 1e-11


def test_eval_constant_and_linear(space):
    tt = tt_svd(tensorize(lambda x: np.full_like(x, 2.0), space, 4), 0.0)
    assert abs(tt(0.9) - 2.0) < 1e-12
    tt = tt_svd(tensorize(lambda x: np.asarray(x), space, 4), 0.0)
    assert abs(tt(0.3) - 0.3) < 1e-12


def test_shape_validation(space):
    with pytest.raises(ValueError):
        TensorTrain(space, [np.zeros((1, 2, 2)), np.zeros((3, space.dim, 1))])
    with pytest.raises(ValueError):
        TensorTrain(space, [np.zeros((1, 2, 2)), np.zeros((2, space.dim, 2))])


# -- addition --------------------------------------------------------------


def test_add_ranks_sum_exactly(space, rng):
    a = random_train(space, 4, rng)
    b = random_train(space, 4, rng)
    s = a + b
    assert s.ranks == tuple(x + y for x, y in zip(a.ranks, b.ranks))


def zero_train(space, level):
    """The zero function as an all-zero train with unit ranks."""
    return TensorTrain(space, [np.zeros((1, space.base, 1))] * level
                       + [np.zeros((1, space.dim, 1))])


def test_add_zero_then_round(space, rng):
    a = random_train(space, 4, rng)
    z = zero_train(space, 4)
    s = (a + z).round(1e-12)
    assert s.ranks == a.ranks
    xs = rng.uniform(0.0, 1.0, size=100)
    assert np.max(np.abs(s(xs) - a(xs))) < 1e-10


def test_add_cancellation(space, rng):
    a = random_train(space, 4, rng)
    s = (a + (-a)).round(1e-10)
    norm = a.to_full().lp_norm(2)
    assert s.to_full().lp_norm(2) <= 1e-10 * norm


def test_add_commutes_with_eval(space, rng):
    a = random_train(space, 4, rng)
    b = random_train(space, 4, rng)
    xs = rng.uniform(0.0, 1.0, size=200)
    assert np.max(np.abs((a + b)(xs) - (a(xs) + b(xs)))) < 1e-10


def test_add_full_linearity(space, rng):
    a = random_train(space, 3, rng)
    b = random_train(space, 3, rng)
    lhs = (a + b).to_full().coeffs
    rhs = a.to_full().coeffs + b.to_full().coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_add_mixed_levels(space, rng):
    shallow = tt_svd(tensorize(lambda x: np.asarray(x), space, 2), 0.0)
    deep = random_train(space, 5, rng)
    s = shallow + deep
    assert s.level == 5
    xs = rng.uniform(0.0, 1.0, size=100)
    assert np.max(np.abs(s(xs) - (shallow(xs) + deep(xs)))) < 1e-10


def test_add_incompatible(space, space_b3):
    a = zero_train(space, 2)
    b = zero_train(space_b3, 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 1


# -- rounding --------------------------------------------------------------


def test_round_keeps_minimal_ranks(space):
    tt = tt_svd(tensorize(lambda x: np.asarray(x) ** 3, space, 6), 0.0)
    assert tt.round(0.0).ranks == tt.ranks


def test_round_scaled_sum(space, rng):
    """A rounded sum, and TT-SVD and rounding of inputs scaled far outside
    sqrt(float range): the unscaled ranks and the scaled values."""
    a = random_train(space, 4, rng)
    doubled = (a + a).round(1e-12)
    assert doubled.ranks == a.ranks
    xs = rng.uniform(0.0, 1.0, size=50)
    assert np.max(np.abs(doubled(xs) - 2.0 * a(xs))) < 1e-9
    tf = tensorize(np.sqrt, space, 10)
    for tol in (0.0, 1e-3, 1e-6):
        runs = (lambda c: tt_svd(c * tf, tol),
                lambda c: (c * tt_svd(tf, 0.0)).round(tol))
        for run in runs:
            ref = run(1.0)
            want = ref(xs)
            for c in (1e-200, 1e200, 1e300):
                tt = run(c)
                assert tt.ranks == ref.ranks
                assert np.max(np.abs(tt(xs) - c * want)) \
                    <= 1e-12 * c * np.max(np.abs(want))


def reference_sweep(chain, modes, tol, rel_floor=1e-12):
    """The reference for `_sweep`: the canonical sweep with one reduced QR
    per core in its right-to-left pass, the rank rule on numpy arrays
    (cumsum and searchsorted), the same scale bookkeeping, and a plain SVD
    in every left-to-right step."""
    delta = tol / np.sqrt(max(len(modes) - 1, 1))
    core, rest, mant, expo = chain[-1], [], 1.0, 0
    for left in chain[-2::-1]:
        q, rr = np.linalg.qr(core.reshape(core.shape[0], -1).T)
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
        mat = carry.reshape(carry.shape[0] * n, -1)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        first = norm is None
        if first:
            norm = float(s[0] * np.linalg.norm(s / s[0])) if s[0] > 0 else 0.0
            s = s / (norm or 1.0)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        r = max(min(int(np.searchsorted(-tail, -delta)) if delta > 0
                    else s.size,
                    int(np.count_nonzero(s > rel_floor * s[0]))), 1)
        cores.append(u[:, :r].reshape(-1, n, r))
        spectra.append(s)
        carry = u[:, :r].T @ mat
        if first:
            carry /= norm or 1.0
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


def log2_norm(tt):
    """log2 of the Frobenius norm of a train's coefficient tensor, from
    left-to-right R factors rescaled by powers of 2: free of overflow at
    any depth, and backward stable on the block sum of two close trains,
    whose norm a Gram contraction would lose to cancellation."""
    r, expo = np.ones((1, 1)), 0
    for g in tt.cores:
        r = np.linalg.qr((r @ g.reshape(g.shape[0], -1))
                         .reshape(-1, g.shape[2]), mode="r")
        peak = np.max(np.abs(r))
        if peak == 0.0:
            return -math.inf
        e = math.frexp(peak)[1]
        r, expo = np.ldexp(r, -e), expo + e
    return expo + math.log2(np.linalg.norm(r))


def test_sweep_matches_qr_reference(space, rng):
    """round and rank_profile against `reference_sweep` on raw random
    trains, their sum, extend_level(40) trains and a 500-level maxrank_pair
    sum, each scaled by 1, 1e-300 and 1e300: the ranks are equal, the
    rounded train is within (tol + 1e-13) ||f|| of the reference's (4e-14
    ||f|| is the largest gap seen), within (tol + 2e-12) ||f|| of f (the
    1e-12 floor of `round` drops up to 1.2e-12 ||f|| here) and within the
    bound its docstring states, sqrt(tol^2 + 1e-24 sum_nu r_nu) ||f||."""
    def raw_train(level):
        ranks = [1] + [int(k) for k in rng.integers(1, 5, size=level)] + [1]
        return TensorTrain(space, [
            rng.standard_normal((r, space.base if nu < level else space.dim,
                                 s))
            for nu, (r, s) in enumerate(zip(ranks, ranks[1:]))])
    a, b = raw_train(6), raw_train(6)
    shallow, deep = maxrank_pair(space, space.base * 500 + space.dim, rng)
    assert deep.level == 500
    sqrt6 = tt_svd(tensorize(np.sqrt, space, 6), 0.0)
    trains = [a, a + b, sqrt6.extend_level(40), (a + b).extend_level(40),
              shallow + deep]
    for t in trains:
        modes = [g.shape[1] for g in t.cores]
        for c in (1.0, 1e-300, 1e300):
            f = c * t
            log_f = log2_norm(f)
            for tol in (0.0, 1e-12, 0.2, 0.5):
                got = f.round(tol)
                want = TensorTrain(space, reference_sweep(f.cores, modes,
                                                          tol)[0])
                assert got.ranks == want.ranks
                assert (log2_norm(got + -want) - log_f
                        <= math.log2(tol + 1e-13))
                gap = log2_norm(got + -f) - log_f
                assert gap <= math.log2(tol + 2e-12)
                assert gap <= 0.5 * math.log2(tol**2 + 1e-24 * sum(f.ranks))
                if tol > 0.0:
                    spectra = reference_sweep(f.cores, modes, 0.0,
                                              1e-3 * tol)[1]
                    assert f.rank_profile(tol).ranks == tuple(
                        int(np.count_nonzero(s > tol * s[0]))
                        for s in spectra)


@pytest.mark.parametrize("b,m,levels", [(2, 0, (8, 10, 12, 14)),
                                        (2, 3, (8, 10, 12, 14)),
                                        (3, 1, (6, 8)), (4, 1, (6,))])
def test_sweep_block_matches_reference(b, m, levels):
    """The full-tensor sweep, in which each wide run of digit modes shares
    one TSQR (a leading block of one mode for b=2, m=0 at d=8 and b=3 at
    d=6, up to five for b=2, m=3 at d=14, and later blocks of one or more
    modes after it), against `reference_sweep` and one SVD per unfolding:
    on corpus functions, an exact cubic (a singular R), a random full-rank
    tensor and the zero tensor, the last three also scaled by 1e-300 and
    1e300, the spectra agree within 1e-13 s[0], the ranks of rank_profile
    and of each truncated sweep are equal, and the cores rebuild the tensor
    within sqrt(tol^2 + 1e-24 sum_nu r_nu) ||f||."""
    from test_tensorized import unfolding_ranks

    def cubic(x):
        return 1.0 - 3.0 * x + 2.0 * np.asarray(x) ** 3
    tols = (0.0, 1e-8, 1e-3)
    space = PolySpace(m, b)
    rng = np.random.default_rng(100 * b + m)
    for d in levels:
        shape = (b,) * d + (m + 1,)
        tensors = [tensorize(f, space, d).coeffs
                   for _, f in corpus_functions()]
        scaled = [tensorize(cubic, space, d).coeffs,
                  rng.standard_normal(shape), np.zeros(shape)]
        for x, scales in ([(x, (1.0,)) for x in tensors]
                          + [(x, (1.0, 1e-300, 1e300)) for x in scaled]):
            tf = TensorizedFunction(space, d, x)
            profile = unfolding_ranks(tf, 1e-10)
            refs = [reference_sweep([x], shape, tol) for tol in tols]
            for c in scales:
                assert (c * tf).rank_profile(1e-10).ranks == profile
                for tol, (want, spectra) in zip(tols, refs):
                    cores, got = _sweep([c * x], shape, tol)
                    for s, t in zip(got, spectra, strict=True):
                        assert s.shape == t.shape
                        assert np.max(np.abs(s - t)) <= 1e-13 * t[0]
                    ranks = [g.shape[2] for g in cores[:-1]]
                    assert ranks == [g.shape[2] for g in want[:-1]]
                    full = TensorTrain(space, cores).to_full().coeffs / c
                    assert (np.linalg.norm(full - x)
                            <= math.sqrt(tol**2 + 1e-24 * sum(ranks))
                            * np.linalg.norm(x))


def test_round_never_increases_ranks(space, rng):
    a = random_train(space, 5, rng, max_rank=4)
    b = random_train(space, 5, rng, max_rank=4)
    s = a + b
    for tol in (0.0, 1e-12, 0.1, 0.5):
        r = s.round(tol)
        assert all(x <= y for x, y in zip(r.ranks, s.ranks))


def test_round_error_bound(space, rng):
    for _ in range(5):
        t = random_train(space, 5, rng, max_rank=4)
        full = t.to_full()
        norm = full.lp_norm(2)
        if norm == 0.0:
            continue
        for tol in (0.5, 0.1, 1e-3):
            err = (t.round(tol).to_full() - full).lp_norm(2)
            assert err <= tol * norm + 1e-12


def test_round_idempotent(space, rng):
    t = (random_train(space, 4, rng) + random_train(space, 4, rng))
    once = t.round(0.2)
    twice = once.round(0.2)
    assert twice.ranks == once.ranks
    assert np.max(np.abs(twice.to_full().coeffs
                         - once.to_full().coeffs)) < 1e-10


def test_round_negative_tol(space, rng):
    for bad in (-1.0, -0.1, np.nan):
        with pytest.raises(ValueError):
            random_train(space, 3, rng).round(bad)


def test_error_bound_deep(space):
    """tt_svd and round keep ||error||_2 <= tol ||f||_2 at d = 18."""
    tf = tensorize(lambda x: np.sqrt(x), space, 18)
    norm = tf.lp_norm(2)
    exact = tt_svd(tf, 0.0)
    for tol in (1e-6, 1e-3):
        for tt in (tt_svd(tf, tol), exact.round(tol)):
            assert (tt.to_full() - tf).lp_norm(2) <= tol * norm


# -- level extension -------------------------------------------------------


def test_extend_identity(space, rng):
    t = random_train(space, 3, rng)
    assert t.extend_level(3) is t
    with pytest.raises(ValueError):
        t.extend_level(2)


def test_extend_linear_ranks():
    space = PolySpace(1, 2)
    tt = tt_svd(TensorizedFunction.tensorize(
        lambda x: np.asarray(x), space, 2), 0.0)
    ext = tt.extend_level(6).round(1e-12)
    assert all(r == 2 for r in ext.ranks[2:])


def test_extend_constant_rank_one(space):
    tt = tt_svd(tensorize(lambda x: np.ones_like(x), space, 2), 0.0)
    ext = tt.extend_level(6).round(1e-12)
    assert ext.ranks == (1,) * 6


def test_extend_eval_agreement(space, rng):
    tf = tensorize(lambda x: np.sin(2 * np.pi * np.asarray(x)), space, 3)
    tt = tt_svd(tf, 0.0)
    ext = tt.extend_level(7)
    xs = rng.uniform(0.0, 1.0, size=1000)
    assert np.max(np.abs(ext(xs) - tt(xs))) < 1e-11


def test_extend_rank_bound_after_round(space, rng):
    for f in (lambda x: np.exp(np.asarray(x, dtype=float)),
              lambda x: np.cos(4 * np.pi * np.asarray(x))):
        tt = tt_svd(tensorize(f, space, 3), 0.0)
        ext = tt.extend_level(7).round(1e-12)
        assert all(r <= space.dim for r in ext.ranks[3:])


def test_extend_ranks_before_rounding(rng):
    """Every digit past the old level applies one dilation to an (m+1)
    coefficient bond, so no rounding is needed for the m+1 bound."""
    for b in (2, 3, 10):
        for m in (0, 1, 3):
            t = random_train(PolySpace(m, b), 3, rng, max_rank=4)
            for extra in (1, 2, 5):
                ext = t.extend_level(3 + extra)
                assert ext.ranks[:3] == t.ranks
                assert all(r <= m + 1 for r in ext.ranks[3:])


def test_rank_statements_deep():
    """The rank statements at d=40, from the train alone: extension keeps
    the prefix ranks and adds ranks <= m+1 (criterion 05), neighbouring
    ranks differ by at most a factor b (criterion 04), every rank is at most
    min(b^nu, b^(d-nu) (m+1)), and coarsening undoes the extension."""
    for b, m in ((2, 3), (3, 1), (2, 0)):
        space = PolySpace(m, b)
        for _, f in corpus_functions():
            tf = tensorize(f, space, 5)
            deep = tt_svd(tf, 0.0).extend_level(40)
            r = deep.rank_profile().ranks
            assert r[:5] == tf.rank_profile().ranks
            assert all(rank <= m + 1 for rank in r[5:])
            for prev, cur in zip(r, r[1:]):
                assert cur <= b * prev and prev <= b * cur
            for nu, rank in enumerate(r, start=1):
                assert rank <= min(b**nu, b**(40 - nu) * (m + 1))
            assert deep.coarsen().level == max(tf.minimal_level(), 1)


def test_extend_sparse_cost_ledger(space, rng):
    """The constructed extension costs at most b*nnz + extra*b^2*(m+1)^3."""
    b, dim = space.base, space.dim
    for _ in range(10):
        t = random_train(space, 3, rng)
        for extra in (1, 2, 4):
            ext = t.extend_level(3 + extra)
            bound = b * cost_sparse(t.cores) + extra * b * b * dim**3
            assert cost_sparse(ext.cores) <= bound


# -- serialization ---------------------------------------------------------


def test_tt_save_load(space, rng, tmp_path):
    t = random_train(space, 4, rng)
    path = tmp_path / "t.qttt"
    t.save(path)
    back = TensorTrain.load(path)
    assert back.ranks == t.ranks
    for ga, gb in zip(back.cores, t.cores):
        assert np.max(np.abs(ga - gb)) == 0.0


def test_save_bytes_match_reference_encoding(space, rng, tmp_path):
    """Both formats write the array buffers themselves: the files equal,
    byte for byte, the header plus astype("<f8").tobytes() of each
    payload array."""
    tf = tensorize(np.sqrt, space, 8)
    tt = random_train(space, 5, rng, max_rank=4)
    want_tf = struct.pack("<4sIIIB", b"QTTF", 2, 8, 3, 0) \
        + tf.coeffs.astype("<f8").tobytes()
    want_tt = struct.pack("<4sIII", b"QTTT", 2, 5, 3) \
        + struct.pack(f"<{tt.level}I", *tt.ranks) \
        + b"".join(np.transpose(g, (1, 0, 2)).astype("<f8").tobytes()
                   for g in tt.cores[:-1]) \
        + tt.cores[-1][:, :, 0].astype("<f8").tobytes()
    for obj, want in ((tf, want_tf), (tt, want_tt)):
        path = tmp_path / "out.bin"
        obj.save(path)
        assert path.read_bytes() == want


def test_tt_load_bad_magic(tmp_path):
    path = tmp_path / "bad.qttt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        TensorTrain.load(path)


@pytest.mark.parametrize("kind", ["qttf", "qttt"])
def test_load_rejects_corrupt_files(kind, space, tmp_path):
    """Seeded corruption of a valid file: every truncation, padding,
    change of a header field and non-finite payload value raises
    ValueError.  A level-0 header with a large base loads (QTTF) or is
    rejected (QTTT) in little memory."""
    import tracemalloc
    rng = np.random.default_rng(20)
    path = tmp_path / f"f.{kind}"
    if kind == "qttf":
        cls = TensorizedFunction
        cls.tensorize(lambda x: np.asarray(x) ** 2, space, 3).save(path)
        fields = [4, 8, 12]  # b, d, m
    else:
        cls = TensorTrain
        random_train(space, 3, rng).save(path)
        fields = [4, 8, 12, 16, 20, 24]  # b, d, m, ranks
    good = path.read_bytes()
    cls.load(path)
    bad = [good[:n] for n in range(len(good))]
    bad += [good + rng.bytes(int(n)) for n in rng.integers(1, 40, size=8)]
    for pos in fields:
        for value in (0, 1, 7, 2**31, 2**32 - 1):
            old = int.from_bytes(good[pos:pos + 4], "little")
            if value != old:
                bad.append(good[:pos] + value.to_bytes(4, "little")
                           + good[pos + 4:])
    if kind == "qttf":
        bad.append(good[:16] + b"\x01" + good[17:])  # basis id
    for value in (np.nan, np.inf):  # a non-finite last payload value
        bad.append(good[:-8] + np.array(value, dtype="<f8").tobytes())
    for data in bad:
        path.write_bytes(data)
        with pytest.raises(ValueError):
            cls.load(path)
    # a level-0 header bounds no base by its payload: a load builds none of
    # the b dilation matrices (8 MB at b = 2^16), so it stays small
    header = struct.pack("<III", 2**16, 0, space.degree)
    if kind == "qttf":
        header += b"\x00"  # basis id
    path.write_bytes(good[:4] + header + np.ones(space.dim).tobytes())
    tracemalloc.start()
    try:
        if kind == "qttf":
            assert cls.load(path).base == 2**16
        else:
            with pytest.raises(ValueError):  # a train needs a digit core
                cls.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# -- CP representations ----------------------------------------------------


def test_cp_rank_one_embedding(space, rng):
    cp = random_cp(space, 4, 1, rng)
    tt = cp_to_tt(cp)
    assert tt.ranks == (1, 1, 1, 1)
    xs = rng.uniform(0.0, 1.0, size=100)
    assert np.max(np.abs(tt(xs) - cp(xs))) < 1e-11


def test_cp_diagonal_core_sparsity(space, rng):
    cp = random_cp(space, 5, 3, rng)
    tt = cp_to_tt(cp)
    for g in tt.cores[1:-1]:
        assert int(np.count_nonzero(g)) == space.base * 3


def test_cp_cost_inequality(space, rng):
    for _ in range(100):
        cp = random_cp(space, int(rng.integers(2, 6)),
                       int(rng.integers(1, 5)), rng)
        tt = cp_to_tt(cp)
        assert cost_sparse(tt.cores) <= cost_cp(cp)
        xs = rng.uniform(0.0, 1.0, size=16)
        assert np.max(np.abs(tt(xs) - cp(xs))) < 1e-11


def test_cp_to_tt_budget(space, rng):
    """The dense diagonal cores of cp_to_tt raise BudgetError past
    DEFAULT_BUDGET elements before any is allocated: a rank-4096 CP (two
    middle cores of 33.6M elements each), and a cell-wise CP at d=11
    (rank 2048, 84M elements)."""
    import tracemalloc
    cp = random_cp(space, 3, 4096, rng)
    cellwise = cp_from_tensorized(tensorize(np.sqrt, space, 11))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            cp_to_tt(cp)
        with pytest.raises(BudgetError):
            cp_to_tt(cellwise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_cp_validation(space):
    with pytest.raises(ValueError):
        CPRep(space, [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        CPRep(space, [np.zeros((3, 2)), np.zeros((space.dim, 2))])
    with pytest.raises(ValueError, match="CP rank must be >= 1"):
        CPRep(space, [np.zeros((2, 0)), np.zeros((space.dim, 0))])
    with pytest.raises(ValueError, match="coefficient factor shape"):
        CPRep(space, [np.zeros((2, 2)), np.zeros((space.dim + 1, 2))])


def test_cp_from_tensorized_roundtrip(space, rng):
    tf = tensorize(lambda x: np.asarray(x) ** 2, space, 3)
    cp = cp_from_tensorized(tf)
    assert cp.rank <= 2**3
    xs = rng.uniform(0.0, 1.0, size=100)
    assert np.max(np.abs(cp(xs) - tf(xs))) < 1e-11
    # the zero tensor keeps one (zero) term, as a CP needs rank >= 1
    zero = cp_from_tensorized(0.0 * tf)
    assert zero.rank == 1 and np.all(zero(xs) == 0.0)


# -- complexity ------------------------------------------------------------


def test_complexity_rank_one_formulas(space):
    d = 5
    tt = tt_svd(tensorize(lambda x: np.ones_like(x), space, d), 0.0)
    rep = complexity(tt)
    b, dim = space.base, space.dim
    assert rep.sum_ranks == d
    assert rep.dense == b + b * (d - 1) + dim
    assert rep.rmax == b * d + dim


def test_complexity_inclusions(space, rng):
    for _ in range(50):
        t = random_train(space, int(rng.integers(2, 7)), rng)
        if t.is_zero():
            continue
        rep = complexity(t)
        assert rep.sum_ranks <= rep.sparse <= rep.dense
        assert rep.dense <= space.base * rep.sum_ranks**2 \
            + space.base * space.dim


def test_complexity_minimize_level(space):
    """The measures at the minimal level are those of `coarsen()`."""
    # a global polynomial re-canonicalizes at level 1
    tt = tt_svd(tensorize(lambda x: np.asarray(x) ** 2, space, 5), 0.0)
    rep = complexity(tt.coarsen())
    assert rep.level == 1
    # a grid-aligned step coarsens to its alignment level
    tt = tt_svd(tensorize(
        lambda x: (np.asarray(x) < 0.5).astype(float), space, 5), 0.0)
    rep = complexity(tt.coarsen())
    assert rep.level == 1
    # the merged bond is cut back to the coarse coefficient core's rank
    space3 = PolySpace(3, 3)
    for _, f in corpus_functions():
        coarse = tt_svd(tensorize(f, space3, 6), 0.0).coarsen()
        level = coarse.level
        assert all(r <= min(3**nu, 3**(level - nu) * space3.dim)
                   for nu, r in enumerate(coarse.ranks, start=1))
    # far past any full-tensor budget: level 60 back to level 16
    tt = tt_svd(tensorize(np.sqrt, space, 16), 0.0)
    rep = complexity(tt.extend_level(60).coarsen())
    assert rep.level == 16


def test_complexity_cp_report(space, rng):
    cp = random_cp(space, 4, 2, rng)
    assert cost_cp(cp) == space.base * 4 * 2 + 2 * space.dim


def test_cost_helpers(space):
    ranks = (2, 4, 3)
    b, dim = 2, 4
    assert cost_sum_ranks(ranks) == 9
    assert cost_dense(ranks, b, dim) == 2 * 2 + 2 * (2 * 4 + 4 * 3) + 3 * 4
    assert cost_rmax(ranks, b, 3, dim) == 2 * 3 * 16 + 4 * 4


# -- max-rank closure failure ----------------------------------------------


def test_maxrank_pair_shapes(space, rng):
    a, b = maxrank_pair(space, 200, rng)
    n = 200
    assert complexity(a).rmax <= n
    assert complexity(b).rmax <= n
    assert max(b.ranks) == 1
    assert b.level > a.level


def test_maxrank_pair_budget_too_small(space, rng):
    with pytest.raises(ValueError):
        maxrank_pair(space, 10, rng)


def test_maxrank_pair_one_draw_matches_per_core_loop(space):
    """maxrank_pair draws its deep cores in one call.  A loop of one draw
    and one normalization per core, fed the same stream, gives cores within
    1 ulp, and along criterion 07's budget sweep the same ranks of the
    rounded sums and the same ratios."""
    b, dim = space.base, space.dim
    budgets = [112 * 2**k for k in range(6)]
    rows = maxrank_growth(space, budgets, np.random.default_rng(7))
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    for n, row in zip(budgets, rows):
        shallow, deep = maxrank_pair(space, n, rng)
        ref.standard_normal((b,) * shallow.level + (dim,))
        want = []
        for _ in range(deep.level):
            g = ref.standard_normal((1, b, 1))
            want.append(g * (np.sqrt(b) / np.linalg.norm(g)))
        g = ref.standard_normal((1, dim, 1))
        want.append(g / np.linalg.norm(g))
        for got, w in zip(deep.cores, want):
            assert np.all(np.abs(got - w) <= np.spacing(np.abs(w)))
        loop = TensorTrain(space, want)
        summed = (shallow + loop).round(1e-12)
        assert summed.ranks == (shallow + deep).round(1e-12).ranks
        n_meas = max(complexity(shallow).rmax, complexity(loop).rmax)
        assert complexity(summed).rmax / n_meas == row["ratio"]


def test_maxrank_ratio_grows(space, rng):
    rows = maxrank_growth(space, [112 * 2**k for k in range(4)], rng)
    ratios = [r["ratio"] for r in rows]
    assert all(u < v for u, v in zip(ratios, ratios[1:]))
