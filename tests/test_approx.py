"""Experiment drivers: error curves, seminorms, density decay, corpus."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ttfun import (ClassSeminormEstimate, ErrorCurvePoint, PolySpace,
                   class_seminorm, corpus_functions, density_sweep,
                   error_curve, lemma_corpus)


def test_error_curve_exact_function(space):
    """An exactly representable function reaches (near) zero error."""
    f = lambda x: np.asarray(x) ** 2
    curve = error_curve(f, space, 2.0, "N", [2, 3, 4], [0.0, 1e-4])
    errs = [pt.error for pt in curve]
    assert errs == sorted(errs, reverse=True)
    assert min(errs) <= 1e-10


def test_error_curve_monotone_envelope(space):
    f = lambda x: np.sin(2 * np.pi * np.asarray(x))
    curve = error_curve(f, space, 2.0, "C", [2, 3, 4, 5], [0.0, 1e-2, 1e-1])
    ns = [pt.n for pt in curve]
    errs = [pt.error for pt in curve]
    assert ns == sorted(ns)
    assert errs == sorted(errs, reverse=True)


def test_error_curve_indicator_level_error(space):
    """The misaligned indicator error is governed by the unresolved cell."""
    f = lambda x: (np.asarray(x) < 1.0 / 3.0).astype(float)
    curve = error_curve(f, space, 2.0, "N", [3, 5], [0.0], ref_margin=6)
    by_level = {pt.level: pt.error for pt in curve}
    for d in (3, 5):
        theta = 1.0 / 3.0 - math.floor(2**d / 3) / 2**d
        if d in by_level:
            # the projection error cannot exceed the snapping error
            assert by_level[d] ** 2 <= theta * (1 + 1e-9)


def test_error_curve_measure_validation(space):
    with pytest.raises(ValueError):
        error_curve(lambda x: np.asarray(x), space, 2.0, "bogus", [2], [0.0])
    with pytest.raises(ValueError):  # trains carry no CP measure
        error_curve(lambda x: np.asarray(x), space, 2.0, "R", [2], [0.0])
    with pytest.raises(ValueError):
        error_curve(lambda x: np.asarray(x), space, 2.0, "N", [], [0.0])


def test_class_seminorm_zero_curve():
    curve = [ErrorCurvePoint(1, "N", 0.0, 1, (1,), 2.0)]
    est = class_seminorm(curve, 1.0, np.inf, 100)
    assert est.value == 0.0


def test_class_seminorm_synthetic_rate():
    """E_n = n^-a has unit seminorm at alpha = a and diverges above it."""
    a = 1.5
    # point n carries error (n+1)^-a so the step function E(n-1) = n^-a
    curve = [ErrorCurvePoint(n, "N", float(n + 1) ** -a, 1, (1,), 2.0)
             for n in range(1, 2001)]
    est = class_seminorm(curve, a, np.inf, 2000)
    assert est.value == pytest.approx(1.0, rel=0.01)
    vals = [class_seminorm(curve, a + 0.5, np.inf, n).value
            for n in (10, 100, 1000)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] / vals[0] > 8.0


def test_class_seminorm_validation():
    curve = [ErrorCurvePoint(1, "N", 1.0, 1, (1,), 2.0)]
    with pytest.raises(ValueError):
        class_seminorm(curve, -1.0, 2.0, 10)
    with pytest.raises(ValueError):
        class_seminorm(curve, 1.0, 0.0, 10)
    with pytest.raises(ValueError, match="alpha"):
        class_seminorm(curve, math.nan, 2.0, 10)
    with pytest.raises(ValueError, match="q must"):
        class_seminorm(curve, 1.0, math.nan, 10)
    with pytest.raises(ValueError):
        class_seminorm([], 1.0, 2.0, 10)


def test_density_aligned_breakpoints_exact():
    rows = density_sweep([0.0, 0.5, 1.0], [1.0, 0.0], 2, 1.0, 8)
    assert all(r["error"] == 0.0 for r in rows)


def test_density_one_third_exact_rational():
    for p in (1.0, 2.0):
        rows = density_sweep([0.0, 1.0 / 3.0, 1.0], [1.0, 0.0], 2, p, 20)
        for r in rows:
            d = r["d"]
            exact = Fraction(1, 3) - Fraction(2**d // 3, 2**d)
            assert abs(r["error_p"] - float(exact)) < 1e-12
            assert r["within_bound"]


def test_density_staircase_slope():
    rows = density_sweep([0.0, 0.3, 0.7, 1.0], [1.0, 2.0, 0.5], 2, 1.0, 14)
    slope = rows[0]["slope"]
    assert abs(slope - (-math.log(2.0))) <= 0.1 * math.log(2.0)


def test_density_validation():
    with pytest.raises(ValueError):
        density_sweep([0.0, 0.5], [1.0, 2.0], 2, 1.0, 4)
    with pytest.raises(ValueError):
        density_sweep([0.1, 1.0], [1.0], 2, 1.0, 4)
    with pytest.raises(ValueError):
        density_sweep([0.0, 0.5, 1.0], [1.0, 0.0], 2, 0.0, 4)
    with pytest.raises(ValueError):
        density_sweep([0.0, 0.5, 1.0], [1.0, 0.0], 2, 1.0, 0)
    # the closed form needs a finite p: at p = inf a zero error reads 0**0 = 1
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError):
            density_sweep([0.0, 0.5, 1.0], [1.0, 0.0], 2, p, 4)


def test_corpus_functions_cover_cases():
    names = [name for name, _ in corpus_functions()]
    assert len(names) == len(set(names)) >= 12
    for _, f in corpus_functions():
        vals = np.asarray(f(np.linspace(0.0, 1.0 - 1e-9, 17)))
        assert vals.shape == (17,)
        assert np.all(np.isfinite(vals))


def test_lemma_corpus_passes_small():
    report = lemma_corpus(b=2, degrees=(1,), d_max=4, n_pairs=10)
    assert all(e["status"] == "pass" for e in report)
    keys = {"lemma", "status", "constant_paper", "constant_measured",
            "worst_case_inputs"}
    assert all(keys <= set(e) for e in report)


def test_lemma_corpus_deterministic():
    a = lemma_corpus(b=2, degrees=(1,), d_max=4, seed=7, n_pairs=8)
    b = lemma_corpus(b=2, degrees=(1,), d_max=4, seed=7, n_pairs=8)
    assert [(e["lemma"], e["constant_measured"]) for e in a] \
        == [(e["lemma"], e["constant_measured"]) for e in b]


def test_lemma_corpus_empty_degrees_vacuous():
    report = lemma_corpus(b=2, degrees=(), d_max=4, n_pairs=4)
    assert all(e["status"] == "pass" for e in report)


def test_lemma_corpus_rejects_shallow_d_max():
    for d_max in (1, 0, -3):
        with pytest.raises(ValueError, match="d_max must be >= 2"):
            lemma_corpus(b=2, degrees=(1,), d_max=d_max, n_pairs=2)


def test_lemma_corpus_fault_injection():
    report = lemma_corpus(b=2, degrees=(3,), d_max=6, n_pairs=6,
                          fault="rounding-split")
    failing = [e["lemma"] for e in report if e["status"] != "pass"]
    assert failing == ["rounding-accuracy[b=2,m=3]"]
