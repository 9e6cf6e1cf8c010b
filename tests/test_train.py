"""Tensor trains: compression, rounding, addition, extension, complexity."""

import dataclasses

import numpy as np
import pytest

from ttfun import (CPRep, PolySpace, TensorTrain, TensorizedFunction,
                   complexity, cost_cp, cost_dense, cost_rmax, cost_sparse,
                   cost_sum_ranks, cp_from_tensorized, cp_to_tt,
                   maxrank_growth, maxrank_pair, tt_svd)
from ttfun.approx import random_cp, random_train


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


def test_tt_svd_lossy(space, rng):
    tf = TensorizedFunction(space, 5, rng.standard_normal((2,) * 5
                                                          + (space.dim,)))
    exact = tt_svd(tf, 0.0)
    lossy = tt_svd(tf, 0.5)
    err = (lossy.to_full() - tf).lp_norm(2)
    assert err <= 0.5 * tf.lp_norm(2)
    assert all(rl <= re for rl, re in zip(lossy.ranks, exact.ranks))


def test_tt_svd_rank_caps(space, rng):
    tf = TensorizedFunction(space, 4, rng.standard_normal((2,) * 4
                                                          + (space.dim,)))
    tt = tt_svd(tf, 0.0, rank_caps=[1, 2, 2, 1])
    assert all(r <= c for r, c in zip(tt.ranks, (1, 2, 2, 1)))
    with pytest.raises(ValueError):
        tt_svd(tf, 0.0, rank_caps=[1, 2])
    with pytest.raises(ValueError):
        tt_svd(tf, -0.1)


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


def test_add_zero_then_round(space, rng):
    a = random_train(space, 4, rng)
    z = TensorTrain.zero(space, 4)
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
    a = TensorTrain.zero(space, 2)
    b = TensorTrain.zero(space_b3, 2)
    with pytest.raises(ValueError):
        a + b


# -- rounding --------------------------------------------------------------


def test_round_keeps_minimal_ranks(space):
    tt = tt_svd(tensorize(lambda x: np.asarray(x) ** 3, space, 6), 0.0)
    assert tt.round(0.0).ranks == tt.ranks


def test_round_scaled_sum(space, rng):
    a = random_train(space, 4, rng)
    doubled = (a + a).round(1e-12)
    assert doubled.ranks == a.ranks
    xs = rng.uniform(0.0, 1.0, size=50)
    assert np.max(np.abs(doubled(xs) - 2.0 * a(xs))) < 1e-9


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


def test_round_rank_one_cap_quasi_optimal(space, rng):
    """Capped rounding is within 10% of the best rank-one L2 error."""
    tf = TensorizedFunction(space, 3, rng.standard_normal((2, 2, 2,
                                                           space.dim)))
    tt = tt_svd(tf, 0.0)
    capped = tt.round(0.0, rank_caps=[1, 1, 1])
    err = (capped.to_full() - tf).lp_norm(2)
    # dense oracle: best rank-one tensor by alternating SVD power iteration
    t = tf.coeffs
    vecs = [np.ones(n) / np.sqrt(n) for n in t.shape]
    for _ in range(200):
        for axis in range(t.ndim):
            cur = t
            for other in range(t.ndim - 1, -1, -1):
                if other != axis:
                    cur = np.tensordot(cur, vecs[other], axes=(other, 0))
            nrm = np.linalg.norm(cur)
            vecs[axis] = cur / nrm
    best = np.einsum("i,j,k,m->ijkm", *vecs) * nrm
    err_oracle = np.sqrt(2.0 ** -3 * np.sum((t - best) ** 2))
    assert err <= 1.1 * err_oracle


def test_round_negative_tol(space, rng):
    with pytest.raises(ValueError):
        random_train(space, 3, rng).round(-1.0)


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


def test_tt_load_bad_magic(tmp_path):
    path = tmp_path / "bad.qttt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        TensorTrain.load(path)


@pytest.mark.parametrize("kind", ["qttf", "qttt"])
def test_load_rejects_corrupt_files(kind, space, tmp_path):
    """Seeded corruption of a valid file: every truncation, padding and
    change of a header field raises ValueError."""
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
    for data in bad:
        path.write_bytes(data)
        with pytest.raises(ValueError):
            cls.load(path)


def test_ranks_to_csv(space, rng, tmp_path):
    t = random_train(space, 3, rng)
    path = tmp_path / "ranks.csv"
    t.ranks_to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "nu,r_nu"
    assert len(lines) == 4


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


def test_cp_validation(space):
    with pytest.raises(ValueError):
        CPRep(space, [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        CPRep(space, [np.zeros((3, 2)), np.zeros((space.dim, 2))])


def test_cp_from_tensorized_roundtrip(space, rng):
    tf = tensorize(lambda x: np.asarray(x) ** 2, space, 3)
    cp = cp_from_tensorized(tf)
    assert cp.rank <= 2**3
    xs = rng.uniform(0.0, 1.0, size=100)
    assert np.max(np.abs(cp(xs) - tf(xs))) < 1e-11


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


def test_complexity_eta_threshold(space, rng):
    t = random_train(space, 3, rng)
    strict = complexity(t, eta=0.0).sparse
    loose = complexity(t, eta=0.5).sparse
    assert loose <= strict


def test_complexity_minimize_level(space):
    # a global polynomial re-canonicalizes at level 1
    tt = tt_svd(tensorize(lambda x: np.asarray(x) ** 2, space, 5), 0.0)
    rep = complexity(tt, minimize_level=True)
    assert rep.level == 1
    assert rep.level_is_minimal is True
    # a grid-aligned step coarsens to its alignment level
    tt = tt_svd(tensorize(
        lambda x: (np.asarray(x) < 0.5).astype(float), space, 5), 0.0)
    rep = complexity(tt, minimize_level=True)
    assert rep.level == 1


def test_complexity_cp_report(space, rng):
    cp = random_cp(space, 4, 2, rng)
    rep = complexity(cp)
    assert rep.cp == cost_cp(cp)
    assert rep.cp == space.base * 4 * 2 + 2 * space.dim
    cellwise = cp_from_tensorized(tensorize(np.sqrt, space, 4))
    cellwise.factors[1][0, 3] = 1e-3  # a small entry that eta = 0.5 drops
    for c in (cp, cellwise):
        for eta in (0.0, 0.5):
            got = complexity(c, eta=eta)
            want = complexity(cp_to_tt(c), eta=eta)
            assert dataclasses.replace(got, cp=None) == want


def test_complexity_cp_memory_bounded():
    """The report of a cell-wise CP (rank b^d) comes from its factors; the
    diagonal cores of cp_to_tt would take 8 MB each at d=10."""
    import tracemalloc
    cp = cp_from_tensorized(tensorize(np.sqrt, PolySpace(3, 2), 10))
    assert cp.rank == 1024
    tracemalloc.start()
    try:
        rep = complexity(cp, eta=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert rep.max_rank == 1024 and rep.level == 10


def test_cost_helpers(space):
    ranks = (2, 4, 3)
    b, dim = 2, 4
    assert cost_sum_ranks(ranks) == 9
    assert cost_dense(ranks, b, dim) == 2 * 2 + 2 * (2 * 4 + 4 * 3) + 3 * 4
    assert cost_rmax(ranks, b, 3, dim) == 2 * 3 * 16 + 4 * 4
    with pytest.raises(ValueError):
        cost_sparse([np.ones((1, 2, 1))], eta=-1.0)


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


def test_maxrank_ratio_grows(space, rng):
    rows = maxrank_growth(space, [112 * 2**k for k in range(4)], rng)
    ratios = [r["ratio"] for r in rows]
    assert all(u < v for u, v in zip(ratios, ratios[1:]))
