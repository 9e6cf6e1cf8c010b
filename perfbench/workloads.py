"""The three benchmark workloads and the oracles that check every op.

Each workload builds its inputs from the seed in `__init__` (set-up), runs
one op through the public ttfun entry points in `execute` (timed) and
checks the op's outputs in `check` (untimed).  Oracles are computed by code
in this file, independently of the library code they check: dense-grid
evaluation with numpy's own Legendre series, bisection for sign changes,
exact derivative norms, and the paper's rank bounds.

All workloads use b = 2 and m = 3 and rotate over FUNCS in a seeded order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
from numpy.polynomial import legendre as npleg

import ttfun.cli as cli
from ttfun import (PolySpace, TensorizedFunction, TensorTrain, cp_to_tt,
                   random_cp, tt_svd)

B, M = 2, 3
FUNCS = ("sqrt", "sin:3", "abs_power:0.5,0.6")
# verify seeds known to pass at the commit that defined this benchmark
VERIFY_SEEDS = 48


def run_cli(argv):
    """Run `ttfun.cli.main(argv)` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _ranks(text):
    for line in text.splitlines():
        if line.startswith("ranks="):
            return [int(r) for r in line[len("ranks="):].split(",")]
    return None


# -- oracles: numpy's Legendre series, independent of ttfun.localspace ------

def _legendre(y):
    """Orthonormal shifted-Legendre values, shape (len(y), M+1)."""
    y = np.asarray(y, dtype=float)
    scale = np.sqrt(2 * np.arange(M + 1) + 1.0)
    return npleg.legvander(2.0 * y - 1.0, M) * scale


def _series(cells):
    """Per-cell coefficients in the standard Legendre basis on t = 2y - 1."""
    return cells * np.sqrt(2 * np.arange(M + 1) + 1.0)


def eval_cells(tf, x):
    """Value at x of the piecewise polynomial held by a full tensor."""
    scale = float(B) ** tf.level
    cell = np.minimum((x * scale).astype(np.int64), B**tf.level - 1)
    y = x * scale - cell
    return np.einsum("pk,pk->p", tf.cell_coeffs[cell], _legendre(y))


def l2_norm(tf):
    return float(np.sqrt(np.sum(tf.coeffs**2) * float(B) ** (-tf.level)))


def train_tolerance(ref, tol, level):
    """Pointwise error allowed to a level-`level` train of ref's function.

    A train within tol * ||f||_2 in L^2 has coefficient error at most
    tol * b^(level/2) * ||f||_2 in Frobenius norm, and the local basis has
    sum_k L_k(y)^2 <= (m+1)^2, so no point is off by more than (m+1) times
    that.  Where this is below 1e-10 * max|f|, the latter is used.
    """
    return max(1e-10 * grid_max(ref),
               (M + 1) * tol * float(B) ** (level / 2.0) * l2_norm(ref))


def grid_max(tf, points=9):
    """Largest |value| over a uniform grid in every cell."""
    return float(np.max(np.abs(tf.cell_coeffs @ _legendre(
        np.linspace(0.0, 1.0, points)).T)))


def sup_bracket(tf, points=65):
    """(lower, upper) bracket of the sup norm from a dense grid.

    Between grid points spaced h apart a polynomial exceeds its grid values
    by at most h/2 * max|p'|, and |p'| <= 2 * sum |a'_k| for the Legendre
    series a' of the derivative in t, since |P_k| <= 1.
    """
    vals = np.abs(tf.cell_coeffs @ _legendre(np.linspace(0.0, 1.0, points)).T)
    deriv = 2.0 * np.abs(npleg.legder(_series(tf.cell_coeffs), axis=1)).sum(1)
    slack = 0.5 / (points - 1) * deriv
    cellmax = vals.max(axis=1)
    return float(cellmax.max()), float((cellmax + slack).max())


def l1_quadrature(tf, points=65, iters=60):
    """L^1 norm by Gauss rules on a fine grid, split at bisected roots.

    Every grid interval where the local polynomial changes sign is split at
    its root, so each piece integrates a polynomial of one sign, which a
    4-point Gauss rule does exactly for degree 3.
    """
    coeffs = tf.cell_coeffs
    edges = np.linspace(0.0, 1.0, points)
    lo, hi = edges[:-1], edges[1:]
    gv = coeffs @ _legendre(edges).T
    t, w = npleg.leggauss(4)
    tq, wq = 0.5 * (t + 1.0), 0.5 * w

    def integral(cells, a, c):
        # integral of |p_cell| over [a, c], broadcast over the leading shape
        ys = a[..., None] + (c - a)[..., None] * tq
        vals = np.einsum("...k,...qk->...q", cells, _legendre(ys))
        return (c - a) * (np.abs(vals) @ wq)

    per = integral(coeffs[:, None, :], np.broadcast_to(lo, gv[:, 1:].shape),
                   np.broadcast_to(hi, gv[:, 1:].shape))
    cell, k = np.nonzero(gv[:, :-1] * gv[:, 1:] < 0.0)
    a, c = lo[k].copy(), hi[k].copy()
    sa = np.sign(gv[cell, k])
    for _ in range(iters):
        mid = 0.5 * (a + c)
        fm = np.einsum("pk,pk->p", coeffs[cell], _legendre(mid))
        left = np.sign(fm) == sa
        a = np.where(left, mid, a)
        c = np.where(left, c, mid)
    root = 0.5 * (a + c)
    per[cell, k] = (integral(coeffs[cell], lo[k], root)
                    + integral(coeffs[cell], root, hi[k]))
    return float(per.sum() * float(B) ** (-tf.level))


def h1_seminorm(tf):
    """Broken W^{1,2} seminorm from the exact Legendre derivative series.

    With p'(y) = 2 sum a'_k P_k(2y - 1) and int_0^1 P_k^2 = 1/(2k+1), each
    cell contributes 4 sum a'_k^2 / (2k+1); cells scale by b^d.
    """
    der = npleg.legder(_series(tf.cell_coeffs), axis=1)
    weights = 1.0 / (2 * np.arange(der.shape[1]) + 1.0)
    total = 4.0 * float(((der * der) @ weights).sum())
    return float(np.sqrt(float(B) ** tf.level * total))


# -- workloads ---------------------------------------------------------------

class Workload:
    """Seeded inputs plus prebuilt references; one op per `execute` call."""

    def __init__(self, seed, tiny, perturb, tmpdir):
        self.seed = seed
        self.perturb = perturb  # > 0 scales every oracle: the smoke check
        self.tmpdir = tmpdir
        self.order = [FUNCS[j] for j in _rng(seed, 0).permutation(len(FUNCS))]
        self.space = PolySpace(M, B)

    def func(self, i):
        return self.order[i % len(self.order)]

    def execute(self, i):
        raise NotImplementedError

    def check(self, i, out):
        """Failure messages for op i; empty when every check holds."""
        raise NotImplementedError


class DeepBuild(Workload):
    """tensorize at d, extend from d_ext to d_new, load both files."""

    def __init__(self, seed, tiny, perturb, tmpdir):
        super().__init__(seed, tiny, perturb, tmpdir)
        self.d, self.d_ext, self.d_new = (8, 6, 12) if tiny else (18, 16, 28)
        self.ref, self.ref_ext, self.ext_tol = {}, {}, {}
        for name in FUNCS:
            f, _ = cli.parse_function_spec(name)
            full = TensorizedFunction.tensorize(f, self.space, self.d)
            ext = TensorizedFunction.tensorize(f, self.space, self.d_ext)
            scale = 1.0 + perturb
            self.ref[name] = full.coeffs * scale
            self.ref_ext[name] = ext * scale
            # extend rounds with tol 1e-12 at level d_new
            self.ext_tol[name] = train_tolerance(ext, 1e-12, self.d_new)
        self.qttf = os.path.join(tmpdir, "deep.qttf")
        self.qttt = os.path.join(tmpdir, "deep.qttt")

    def execute(self, i):
        name = self.func(i)
        code1, text1 = run_cli(["tensorize", "--func", name, "--d", self.d,
                                "--out", self.qttf])
        code2, text2 = run_cli(["extend", "--func", name, "--d", self.d_ext,
                                "--d-new", self.d_new, "--out", self.qttt])
        full = TensorizedFunction.load(self.qttf)
        train = TensorTrain.load(self.qttt)
        return code1, text1, code2, text2, full, train

    def check(self, i, out):
        code1, text1, code2, text2, full, train = out
        name = self.func(i)
        bad = []
        if code1 != 0 or code2 != 0:
            bad.append(f"exit codes {code1}, {code2}")
        for d, text in ((self.d, text1), (self.d_new, text2)):
            ranks = _ranks(text)
            if ranks is None or len(ranks) != d:
                bad.append(f"no level-{d} rank profile printed")
                continue
            caps = [min(B**nu, B ** (d - nu) * (M + 1))
                    for nu in range(1, d + 1)]
            if any(r > cap for r, cap in zip(ranks, caps)):
                bad.append(f"level-{d} rank above min(b^nu, b^(d-nu)(m+1))")
            if d == self.d_new and max(ranks[self.d_ext:]) > M + 1:
                bad.append("extension rank above m+1")
        if not np.array_equal(full.coeffs, self.ref[name]):
            bad.append("loaded QTTF differs from the in-memory projection")
        x = _rng(self.seed, 1, i).uniform(0.0, 1.0, 64)
        want = eval_cells(self.ref_ext[name], x)
        err = np.max(np.abs(train(x) - want))
        if not err <= self.ext_tol[name]:
            bad.append(f"QTTT off the level-{self.d_ext} projection "
                       f"by {err:.3g}")
        return bad


class Query(Workload):
    """Point evaluation through full / TT / CP, then three norms."""

    def __init__(self, seed, tiny, perturb, tmpdir):
        super().__init__(seed, tiny, perturb, tmpdir)
        d_eval, d_norm = (8, 6) if tiny else (16, 12)
        self.npts = 50 if tiny else 1000
        scale = 1.0 + perturb
        self.full, self.train, self.small, self.oracle = {}, {}, {}, {}
        for name in FUNCS:
            f, _ = cli.parse_function_spec(name)
            full = TensorizedFunction.tensorize(f, self.space, d_eval)
            small = TensorizedFunction.tensorize(f, self.space, d_norm)
            self.full[name] = full
            self.train[name] = tt_svd(full, tol=1e-12)
            self.small[name] = small
            lo, hi = sup_bracket(small)
            self.oracle[name] = {
                "tt_tol": train_tolerance(full, 1e-12, d_eval),
                "sup": (lo * scale, hi * scale),
                "l1": l1_quadrature(small) * scale,
                "h1": h1_seminorm(small) * scale}
        self.cp = random_cp(self.space, d_eval, 4, _rng(seed, 2))
        self.cp_ref = cp_to_tt(self.cp).to_full()
        self.cp_max = grid_max(self.cp_ref)

    def execute(self, i):
        name = self.func(i)
        x = _rng(self.seed, 3, i).uniform(0.0, 1.0, self.npts)
        small = self.small[name]
        return (x, self.full[name](x), self.train[name](x), self.cp(x),
                small.lp_norm(1), small.lp_norm(np.inf),
                small.sobolev_seminorm(1, 2))

    def check(self, i, out):
        x, v_full, v_tt, v_cp, l1, sup, h1 = out
        o = self.oracle[self.func(i)]
        bad = []
        if not np.max(np.abs(v_tt - v_full)) <= o["tt_tol"]:
            bad.append("TT and full tensor disagree")
        if not np.max(np.abs(v_cp - eval_cells(self.cp_ref, x))) \
                <= 1e-10 * self.cp_max:
            bad.append("CP and its dense reference disagree")
        lo, hi = o["sup"]
        if not lo * (1.0 - 1e-12) <= sup <= hi:
            bad.append(f"L^inf {sup!r} outside grid bracket [{lo!r}, {hi!r}]")
        if not abs(l1 - o["l1"]) <= 1e-8 * o["l1"]:
            bad.append(f"L^1 {l1!r} != quadrature {o['l1']!r}")
        if not abs(h1 - o["h1"]) <= 1e-10 * o["h1"]:
            bad.append(f"W^(1,2) seminorm {h1!r} != {o['h1']!r}")
        return bad


def _holds(measured, limit, perturb):
    """Re-judge one verify entry from its reported constants."""
    if limit is True:
        return measured is True or measured in ("True", "np.True_")
    if limit == "strictly increasing":
        return (isinstance(measured, list) and len(measured) > 1
                and all(u < v for u, v in zip(measured, measured[1:])))
    if isinstance(limit, (int, float)) and isinstance(measured, (int, float)):
        # rounding accuracy is allowed 1e-9 relative slack over its bound
        return measured * (1.0 + perturb) <= limit * (1.0 + 1e-9)
    return False


class Corpus(Workload):
    """verify with defaults, then a small error-versus-complexity sweep."""

    def __init__(self, seed, tiny, perturb, tmpdir):
        super().__init__(seed, tiny, perturb, tmpdir)
        self.verify_seeds = _rng(seed, 4).permutation(VERIFY_SEEDS)
        self.verify_args = ["--d-max", 3, "--pairs", 4] if tiny else []
        self.d_grid = "2,4" if tiny else "2,4,6,8,10"

    def execute(self, i):
        k = self.verify_seeds[i % len(self.verify_seeds)]
        verify = run_cli(["verify", "--seed", k] + self.verify_args)
        sweep = run_cli(["sweep", "--func", self.func(i), "--d-grid",
                         self.d_grid, "--tol-grid", "0,1e-6,1e-3,1e-1"])
        return verify, sweep

    def check(self, i, out):
        (code_v, text_v), (code_s, text_s) = out
        bad = []
        if code_v != 0:
            bad.append(f"verify exit code {code_v}")
        try:
            report = json.loads(text_v)
        except ValueError:
            report = []
            bad.append("verify printed no JSON report")
        for e in report:
            if e["status"] != "pass" or not _holds(
                    e["constant_measured"], e["constant_paper"], self.perturb):
                bad.append(f"lemma {e['lemma']} fails")
        if code_s != 0:
            bad.append(f"sweep exit code {code_s}")
        rows = [line.split(",") for line in text_s.splitlines()[1:]]
        curve = sorted((int(r[1]), float(r[4])) for r in rows)
        if not curve:
            bad.append("sweep printed no rows")
        if any(e2 > e1 for (_, e1), (_, e2) in zip(curve, curve[1:])):
            bad.append("sweep error increases with n")
        return bad


WORKLOADS = {"deep_build": DeepBuild, "query": Query, "corpus": Corpus}
