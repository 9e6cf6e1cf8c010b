"""Experiment drivers: error-versus-complexity curves, density decay,
approximation-class seminorms, and the lemma-verification corpus."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localspace import PolySpace
from .tensorized import (DEFAULT_BUDGET, TensorizedFunction, _check_p,
                         _restrict, _unit)
from .train import (CPRep, TensorTrain, complexity, cost_cp, cost_sparse,
                    cp_to_tt, maxrank_growth, maxrank_pair, tt_svd)

_MEASURE_FIELDS = {"N": "sum_ranks", "C": "dense", "S": "sparse",
                   "rmax": "rmax"}
MEASURES = tuple(_MEASURE_FIELDS)


@dataclass(frozen=True)
class ErrorCurvePoint:
    n: int
    measure: str
    error: float
    level: int
    ranks: tuple[int, ...]
    p: float


@dataclass(frozen=True)
class ClassSeminormEstimate:
    alpha: float
    q: float
    value: float
    n_max: int


def error_curve(f, space: PolySpace, p: float, measure: str, d_grid, tol_grid,
                budget: int = DEFAULT_BUDGET) -> list[ErrorCurvePoint]:
    """Candidate sweep over (level, tolerance) pairs.

    f is projected once, on the reference level d_ref two levels finer
    than the deepest candidate.  Each candidate is the `_restrict`ion of
    that projection to level d (the L2 projection by the composite Gauss
    rule on its children), compressed at the given tolerance; errors are
    L^p distances to the reference.  The emitted curve is the lower
    envelope over the complexity budget n, so it is nonincreasing.  Errors
    at or below the roundoff floor 32 eps d_ref ||ref||_p tie, so the
    envelope ends at the smallest n that reaches the floor.
    """
    _check_p(space.degree, p)
    if measure not in _MEASURE_FIELDS:
        raise ValueError(f"unknown measure {measure!r}; "
                         f"choose from {MEASURES}")
    d_grid = sorted(set(int(d) for d in d_grid))
    tol_grid = sorted(set(float(t) for t in tol_grid), reverse=True)
    if not d_grid or not tol_grid:
        raise ValueError("d_grid and tol_grid must be nonempty")
    if d_grid[0] < 1:
        raise ValueError(f"grid levels must be >= 1, got {d_grid[0]}")
    d_ref = max(d_grid) + 2
    ref = TensorizedFunction.tensorize(f, space, d_ref, budget=budget)
    floor = 32 * np.finfo(float).eps * d_ref * ref.lp_norm(p)
    raw, coeffs = [], ref.coeffs
    for d in range(d_ref - 1, d_grid[0] - 1, -1):
        coeffs = _restrict(space, coeffs)
        if d not in d_grid:
            continue
        tf = TensorizedFunction(space, d, coeffs)
        for tol in tol_grid:
            tt = tt_svd(tf, tol)
            full = tt.to_full(budget=budget).relevel_up(d_ref, budget=budget)
            err = (full - ref).lp_norm(p)
            report = complexity(tt)
            n = int(getattr(report, _MEASURE_FIELDS[measure]))
            raw.append((n, err, d, tt.ranks))
    raw.sort(key=lambda t: t[:3])  # (n, error), then the coarser d first
    points = []
    best = math.inf
    for n, err, d, ranks in raw:
        if best > floor and err < best:
            best = err
            points.append(ErrorCurvePoint(n, measure, err, d, ranks, p))
    return points


def class_seminorm(curve, alpha: float, q: float, n_max: int
                   ) -> ClassSeminormEstimate:
    """Truncated approximation-class seminorm of an error curve.

    The curve is read as a right-continuous step function E(n); the
    estimate is sup over n <= n_max of n^alpha E(n-1) for q = inf, and the
    lq-weighted sum otherwise.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not q > 0:
        raise ValueError(f"q must be > 0, got {q}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    pts = sorted(curve, key=lambda pt: pt.n)
    if not pts:
        raise ValueError("curve must be nonempty")
    ns = np.array([pt.n for pt in pts])
    errs = np.minimum.accumulate([pt.error for pt in pts])
    n = np.arange(1, n_max + 1)
    idx = np.maximum(np.searchsorted(ns, n - 1, side="right") - 1, 0)
    terms = n.astype(float) ** alpha * errs[idx]
    if np.isinf(q):
        value = float(terms.max())
    else:
        weights = 1.0 / n
        value = float(np.sum(terms**q * weights) ** (1.0 / q))
    return ClassSeminormEstimate(alpha, q, value, n_max)


def staircase_steps(breakpoints, values) -> tuple[list, list]:
    """The breakpoints x_0 = 0 < ... < x_n = 1 and values a_0..a_{n-1} of
    the simple function sum_i a_i on [x_i, x_{i+1}), as finite floats;
    anything else raises ValueError."""
    x = [float(v) for v in breakpoints]
    a = [float(v) for v in values]
    if len(x) != len(a) + 1:
        raise ValueError("need one more breakpoint than values")
    if x[0] != 0.0 or x[-1] != 1.0 or not all(np.diff(x) > 0):
        raise ValueError("breakpoints must increase from 0 to 1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"values must be finite, got {a}")
    return x, a


def density_sweep(breakpoints, values, b: int, p: float, d_max: int
                  ) -> list[dict]:
    """Decay of the grid-snapping error for a simple (staircase) function.

    The function is sum_i a_i on [x_i, x_{i+1}); snapping each breakpoint
    down to the level-d grid gives the closest aligned staircase, whose
    L^p error has the closed form sum |a_i - a_{i+1}|^p (x_{i+1} - x_{i+1}^d)
    and sits below the 2^p b^-d envelope.  Levels where b^-d underflows to
    0.0 report error 0.  The sums run on `_unit` values and jumps, and an
    error_p or bound_p past the float range raises ValueError.
    """
    x, a = staircase_steps(breakpoints, values)
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if not 0 < p < math.inf:  # the closed form needs a finite p
        raise ValueError(f"p must be positive and finite, got {p}")
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    unit, top = _unit(np.array(a))
    jumps, jtop = _unit(np.abs(np.diff(unit)))
    mass = float(np.sum(np.abs(unit) ** p))
    # error_p = (top jtop)^p err and bound_p = (2 top)^p mass b^-d
    log_jump, log_two = (math.log(top) + math.log(jtop),
                         math.log(top) + math.log(2.0))

    def scaled(log_scale, value, root=1.0):  # exp(log_scale) value^(1/root)
        log_value = log_scale + math.log(value) / root if value else -math.inf
        if log_value > math.log(np.finfo(float).max):
            raise ValueError(f"density at p = {p} leaves the float range")
        return math.exp(log_value)

    rows = []
    for d in range(1, d_max + 1):
        h = float(b) ** -d
        # x - x^d, exact when h is a power of two
        err = float(jumps ** p @ np.fmod(x[1:-1], h)) if h > 0.0 else 0.0
        rows.append({
            "d": d,
            "error_p": scaled(p * log_jump, err),
            "error": scaled(log_jump, err, p),
            "bound_p": scaled(p * log_two - d * math.log(b), mass),
            "within_bound": (jtop / 2) ** p * err <= mass * h * (1 + 1e-12),
        })
    logs = [(r["d"], math.log(r["error"])) for r in rows if r["error"] > 0]
    slope = None
    if len(logs) >= 2:
        ds, ys = zip(*logs)
        slope = float(np.polyfit(ds, ys, 1)[0])
    for r in rows:
        r["slope"] = slope
    return rows


# ---------------------------------------------------------------------------
# verification corpus


def corpus_functions():
    """Named test functions spanning smooth, singular and piecewise cases."""
    return [
        ("const", lambda x: np.ones_like(np.asarray(x, dtype=float))),
        ("linear", lambda x: np.asarray(x, dtype=float)),
        ("quadratic", lambda x: np.asarray(x) ** 2),
        ("cubic", lambda x: np.asarray(x) ** 3),
        ("sin2pi", lambda x: np.sin(2 * np.pi * np.asarray(x))),
        ("cos4pi", lambda x: np.cos(4 * np.pi * np.asarray(x))),
        ("exp", lambda x: np.exp(np.asarray(x, dtype=float))),
        ("gauss", lambda x: np.exp(-12.0 * (np.asarray(x) - 0.5) ** 2)),
        ("abs_power", lambda x: np.abs(np.asarray(x) - 0.5) ** 0.6),
        ("sqrt", lambda x: np.sqrt(np.asarray(x, dtype=float))),
        ("step_half", lambda x: (np.asarray(x) < 0.5).astype(float)),
        ("step_third", lambda x: (np.asarray(x) < 1.0 / 3.0).astype(float)),
        ("staircase", lambda x: np.floor(4 * np.asarray(x)) / 4.0),
    ]


def random_train(space: PolySpace, level: int, rng, max_rank: int = 3
                 ) -> TensorTrain:
    """Canonicalized random train with modest ranks."""
    b, dim = space.base, space.dim
    r_prev = 1
    cores = []
    for nu in range(level):
        r = int(rng.integers(1, max_rank + 1))
        cores.append(rng.standard_normal((r_prev, b, r)))
        r_prev = r
    cores.append(rng.standard_normal((r_prev, dim, 1)))
    return TensorTrain(space, cores).round(1e-13)


def random_cp(space: PolySpace, level: int, rank: int, rng) -> CPRep:
    factors = [rng.standard_normal((space.base, rank)) for _ in range(level)]
    factors.append(rng.standard_normal((space.dim, rank)))
    return CPRep(space, factors)


def _entry(lemma, measured, limit, ok, worst=None):
    return {"lemma": lemma, "status": "pass" if ok else "fail",
            "constant_paper": limit, "constant_measured": measured,
            "worst_case_inputs": worst}


def lemma_corpus(b: int = 2, degrees=(0, 1, 3), d_max: int = 6,
                 seed: int = 0, n_pairs: int = 40) -> list[dict]:
    """Run every property suite on the canonical corpus.

    Returns one report entry per checked statement; measured constants sit
    next to their theoretical limits.
    """
    if d_max < 2:  # the pair and train suites draw levels from 2..d_max
        raise ValueError(f"d_max must be >= 2, got {d_max}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    report = []
    if not degrees:
        return report
    for m in degrees:
        space = PolySpace(m, b)
        dim = space.dim
        tag = f"b={b},m={m}"

        # tensorized corpus at a spread of levels
        tfs = []
        for name, f in corpus_functions():
            for d in (2, min(4, d_max), d_max):
                tfs.append((f"{name}@d{d}", TensorizedFunction.tensorize(
                    f, space, d)))

        # rank admissibility and bounds
        worst_adm, worst_bound = 1.0, 1.0
        bad = None
        profiles = [tf.rank_profile().ranks for _, tf in tfs]
        for (name, tf), ranks in zip(tfs, profiles):
            d = tf.level
            for nu in range(d - 1):
                if ranks[nu] and ranks[nu + 1]:
                    worst_adm = max(worst_adm, ranks[nu + 1] / ranks[nu],
                                    ranks[nu] / ranks[nu + 1])
            for nu, r in enumerate(ranks, start=1):
                cap = min(b**nu, b ** (d - nu) * dim)
                if r > cap:
                    worst_bound = max(worst_bound, r / cap)
                    bad = name
        report.append(_entry(f"rank-admissibility[{tag}]", worst_adm, b,
                             worst_adm <= b))
        report.append(_entry(f"rank-bound[{tag}]", worst_bound, 1.0,
                             worst_bound <= 1.0, bad))

        # level invariance of prefix ranks under releveling
        invariant = True
        bad = None
        for (name, tf), ranks in zip(tfs, profiles):
            if tf.level > 4:
                continue
            up = tf.relevel_up(tf.level + 2)
            if up.rank_profile().ranks[:tf.level] != ranks:
                invariant = False
                bad = name
        report.append(_entry(f"level-invariance[{tag}]", invariant, True,
                             invariant, bad))

        # L^p isometry of the tensorized norm across levels
        worst = 0.0
        for name, tf in tfs:
            if tf.level > 4:
                continue
            up = tf.relevel_up(tf.level + 3)
            for p in (1.0, 2.0, np.inf):
                worst = max(worst, abs(tf.lp_norm(p) - up.lp_norm(p)))
        report.append(_entry(f"lp-isometry-levels[{tag}]", worst, 1e-10,
                             worst <= 1e-10))

        # closure-under-addition constants for the three good measures
        c_n_lim = 2 + dim
        c_c_lim = dim * dim + 3 * dim + 2 * b + 2
        c_s_lim = b + 1 + b * b * dim**3
        worst_n = worst_c = worst_s = 0.0
        exact_rank_sums = True
        for _ in range(n_pairs):
            da = int(rng.integers(2, d_max + 1))
            db = int(rng.integers(2, d_max + 1))
            a = random_train(space, da, rng)
            c = random_train(space, db, rng)
            if a.is_zero() or c.is_zero():
                continue
            summed = a + c
            if da == db:
                want = tuple(x + y for x, y in zip(a.ranks, c.ranks))
                exact_rank_sums &= summed.ranks == want
            ca, cc = complexity(a), complexity(c)
            rounded = summed.round(1e-12)
            cs = complexity(rounded)
            worst_n = max(worst_n, cs.sum_ranks / max(ca.sum_ranks,
                                                      cc.sum_ranks))
            worst_c = max(worst_c, cs.dense / max(ca.dense, cc.dense))
            worst_s = max(worst_s, cost_sparse(summed.cores)
                          / max(ca.sparse, cc.sparse))
        report.append(_entry(f"sum-rank-additivity[{tag}]", exact_rank_sums,
                             True, exact_rank_sums))
        report.append(_entry(f"p4-sum-ranks[{tag}]", worst_n, c_n_lim,
                             worst_n <= c_n_lim))
        report.append(_entry(f"p4-dense[{tag}]", worst_c, c_c_lim,
                             worst_c <= c_c_lim))
        report.append(_entry(f"p4-sparse[{tag}]", worst_s, c_s_lim,
                             worst_s <= c_s_lim))

        # complexity comparisons on canonicalized trains
        ok_chain = ok_quad = True
        for _ in range(n_pairs):
            t = random_train(space, int(rng.integers(2, d_max + 1)), rng)
            if t.is_zero():
                continue
            rep = complexity(t)
            ok_chain &= rep.sum_ranks <= rep.sparse <= rep.dense
            ok_quad &= rep.dense <= b * rep.sum_ranks**2 + b * dim
        report.append(_entry(f"complexity-inclusions[{tag}]", ok_chain, True,
                             ok_chain))
        report.append(_entry(f"dense-vs-sum-ranks[{tag}]", ok_quad, True,
                             ok_quad))

        # CP embedding
        ok_cp = True
        worst_cp = 0.0
        xs = rng.uniform(0.0, 1.0, size=32)
        for _ in range(20):
            cp = random_cp(space, int(rng.integers(2, d_max + 1)),
                           int(rng.integers(1, 4)), rng)
            tt = cp_to_tt(cp)
            ok_cp &= cost_sparse(tt.cores) <= cost_cp(cp)
            worst_cp = max(worst_cp, float(np.max(np.abs(tt(xs) - cp(xs)))))
        report.append(_entry(f"cp-embedding[{tag}]", ok_cp and worst_cp <= 1e-11,
                             True, ok_cp and worst_cp <= 1e-11, worst_cp))

        # extension rank bound after one rounding pass
        ok_ext = True
        for name, tf in tfs[:12]:
            if tf.level > 4:
                continue
            tt = tt_svd(tf, 0.0)
            ext = tt.extend_level(tf.level + 3).round(1e-12)
            ok_ext &= all(r <= dim for r in ext.ranks[tf.level:])
        report.append(_entry(f"extension-rank-bound[{tag}]", ok_ext, True,
                             ok_ext))

        # rounding accuracy
        worst_round = 0.0
        for _ in range(10):
            t = random_train(space, d_max, rng, max_rank=4)
            full = t.to_full()
            norm = full.lp_norm(2)
            if norm == 0.0:
                continue
            for tol in (0.5, 0.2):
                err = (t.round(tol).to_full() - full).lp_norm(2)
                worst_round = max(worst_round, err / (tol * norm))
        report.append(_entry(f"rounding-accuracy[{tag}]", worst_round, 1.0,
                             worst_round <= 1.0 + 1e-9))

    # max-rank measure fails closure: ratio grows along a doubling sweep
    space = PolySpace(max(degrees), b)
    n0 = 1
    while True:
        try:
            maxrank_pair(space, n0, np.random.default_rng(seed))
            break
        except ValueError:
            n0 *= 2
    rows = maxrank_growth(space, [n0 * 2**k for k in range(6)],
                          np.random.default_rng(seed))
    ratios = [r["ratio"] for r in rows]
    growing = all(u < v for u, v in zip(ratios, ratios[1:]))
    report.append(_entry("maxrank-p4-failure", ratios, "strictly increasing",
                         growing))
    return report
