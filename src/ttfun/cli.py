"""Command-line front end: function registry, experiment orchestration,
and file output.

Subcommands: tensorize, ranks, sweep, verify, density, extend.
Exit codes: 0 ok, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .approx import MEASURES, density_sweep, error_curve, lemma_corpus
from .localspace import PolySpace
from .tensorized import DEFAULT_BUDGET, BudgetError, TensorizedFunction
from .train import tt_svd


class UsageError(Exception):
    pass


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t != ""]


def _fraction(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def parse_function_spec(spec: str):
    """Parse a registry entry of the form kind[:group[:group]].

    Kinds: poly:c0,c1,..., sin:freq, abs_power:center,exponent, sqrt,
    indicator:x0,x1,...,xn:a0,...,a(n-1), samples:path.csv.
    Returns (callable, simple_spec_or_None).
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind == "poly":
        if len(parts) != 2:
            raise UsageError("poly needs coefficients, e.g. poly:0,0,1")
        coeffs = _floats(parts[1])
        return (lambda x: np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), coeffs)), None
    if kind == "sin":
        if len(parts) != 2:
            raise UsageError("sin needs a frequency, e.g. sin:1")
        freq = float(parts[1])
        return (lambda x: np.sin(2 * np.pi * freq * np.asarray(x))), None
    if kind == "abs_power":
        if len(parts) != 2 or len(_floats(parts[1])) != 2:
            raise UsageError("abs_power needs center,exponent")
        center, expo = _floats(parts[1])
        return (lambda x: np.abs(np.asarray(x) - center) ** expo), None
    if kind == "sqrt":
        return (lambda x: np.sqrt(np.asarray(x, dtype=float))), None
    if kind == "indicator":
        if len(parts) != 3:
            raise UsageError("indicator needs breakpoints and values, e.g. "
                             "indicator:0,1/3,1:1,0")
        bps = [_fraction(t) for t in parts[1].split(",")]
        vals = [_fraction(t) for t in parts[2].split(",")]
        if len(bps) != len(vals) + 1:
            raise UsageError("indicator needs one more breakpoint than values")
        bp_arr = np.asarray(bps)
        val_arr = np.asarray(vals)

        def staircase(x):
            x = np.asarray(x, dtype=float)
            idx = np.clip(np.searchsorted(bp_arr, x, side="right") - 1,
                          0, len(vals) - 1)
            return val_arr[idx]

        return staircase, (bps, vals)
    if kind == "samples":
        if len(parts) != 2:
            raise UsageError("samples needs a CSV path")
        path = parts[1]
        try:
            with open(path, newline="") as fh:
                rows = [(float(a), float(b)) for a, b in csv.reader(fh)
                        if a.strip() and not a.lstrip().startswith("x")]
        except OSError as exc:
            raise UsageError(f"cannot read samples file {path}: {exc}")
        if len(rows) < 2:
            raise UsageError(f"samples file {path} needs at least two rows")
        xs, ys = map(np.asarray, zip(*sorted(rows)))
        # piecewise-linear interpolation layer ahead of the projection
        return (lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)), None
    raise UsageError(f"unknown function kind {kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttfun")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_d=True, projects=True):
        p.add_argument("--func", required=True)
        p.add_argument("--b", type=int, default=2)
        p.add_argument("--out", default=None)
        if projects:
            p.add_argument("--m", type=int, default=3)
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if need_d:
            p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("tensorize", help="project and write a QTTF file")
    common(p)

    p = sub.add_parser("ranks", help="rank profile of a projected function")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("sweep", help="error-versus-complexity CSV")
    common(p, need_d=False)
    p.add_argument("--d-grid", required=True)
    p.add_argument("--tol-grid", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--measure", choices=MEASURES, default="C")

    p = sub.add_parser("verify", help="run the lemma-verification corpus")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--m", default="0,1,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--inject-fault", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("density", help="grid-snapping decay table")
    common(p, need_d=False, projects=False)
    p.add_argument("--d-max", type=int, default=12)
    p.add_argument("--p", type=float, default=1.0)

    p = sub.add_parser("extend", help="extend to a deeper level, write QTTT")
    common(p)
    p.add_argument("--d-new", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    return parser


def _emit(text: str, out) -> None:
    """Write text to the --out file, or to stdout when none is given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validate(args) -> None:
    if getattr(args, "b", 2) < 2:
        raise UsageError("--b must be >= 2")
    if getattr(args, "d", 0) < 0:
        raise UsageError("--d must be >= 0")
    m = getattr(args, "m", 0)
    if isinstance(m, int) and m < 0:
        raise UsageError("--m must be >= 0")
    if not getattr(args, "p", 1.0) > 0:
        raise UsageError("--p must be positive")
    if getattr(args, "pairs", 1) < 1:
        raise UsageError("--pairs must be >= 1")


def _cmd_tensorize(args) -> int:
    f, _ = parse_function_spec(args.func)
    space = PolySpace(args.m, args.b)
    tf = TensorizedFunction.tensorize(f, space, args.d, budget=args.budget)
    if args.out:
        tf.save(args.out)
    profile = tf.rank_profile() if args.d >= 1 else None
    print(f"norm_l2={tf.lp_norm(2):.12g}")
    if profile is not None:
        print("ranks=" + ",".join(str(r) for r in profile.ranks))
    return 0


def _cmd_ranks(args) -> int:
    f, _ = parse_function_spec(args.func)
    space = PolySpace(args.m, args.b)
    tf = TensorizedFunction.tensorize(f, space, args.d, budget=args.budget)
    profile = tf.rank_profile(tol=args.tol)
    lines = ["nu,r_nu"] + [f"{nu},{r}" for nu, r in
                           enumerate(profile.ranks, start=1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    f, _ = parse_function_spec(args.func)
    space = PolySpace(args.m, args.b)
    d_grid = [int(v) for v in _floats(args.d_grid)]
    tol_grid = _floats(args.tol_grid)
    points = error_curve(f, space, args.p, args.measure, d_grid, tol_grid,
                         budget=args.budget)
    lines = ["measure,n,d,p,error,ranks"]
    for pt in points:
        ranks = "|".join(str(r) for r in pt.ranks)
        lines.append(f"{pt.measure},{pt.n},{pt.level},{pt.p:g},"
                     f"{pt.error:.17g},{ranks}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    degrees = tuple(int(v) for v in _floats(str(args.m)))
    if not degrees:
        raise UsageError("--m needs at least one degree")
    report = lemma_corpus(b=args.b, degrees=degrees, d_max=args.d_max,
                          seed=args.seed, n_pairs=args.pairs,
                          fault=args.inject_fault)
    _emit(json.dumps(report, indent=2, default=repr) + "\n", args.out)
    failures = [e["lemma"] for e in report if e["status"] != "pass"]
    if failures:
        print("FAILED: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_density(args) -> int:
    _, simple = parse_function_spec(args.func)
    if simple is None:
        raise UsageError("density needs an indicator:... function spec")
    bps, vals = simple
    rows = density_sweep(bps, vals, args.b, args.p, args.d_max)
    lines = ["d,error,error_p,bound_p,within_bound,slope"]
    for r in rows:
        lines.append(f"{r['d']},{r['error']:.17g},{r['error_p']:.17g},"
                     f"{r['bound_p']:.17g},{int(r['within_bound'])},"
                     f"{'' if r['slope'] is None else format(r['slope'], '.12g')}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r["within_bound"] for r in rows) else 1


def _cmd_extend(args) -> int:
    if args.d_new < args.d:
        raise UsageError("--d-new must be >= --d")
    f, _ = parse_function_spec(args.func)
    space = PolySpace(args.m, args.b)
    tf = TensorizedFunction.tensorize(f, space, args.d, budget=args.budget)
    tt = tt_svd(tf, 0.0).extend_level(args.d_new).round(args.tol)
    if args.out:
        tt.save(args.out)
    print("ranks=" + ",".join(str(r) for r in tt.ranks))
    return 0


_COMMANDS = {
    "tensorize": _cmd_tensorize,
    "ranks": _cmd_ranks,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "density": _cmd_density,
    "extend": _cmd_extend,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _validate(args)
        return _COMMANDS[args.command](args)
    except (UsageError, BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
