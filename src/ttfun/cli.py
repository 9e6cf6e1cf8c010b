"""Command-line front end: function registry, experiment orchestration,
and file output.

Subcommands: tensorize, ranks, sweep, verify, density, extend.
Exit codes: 0 ok, 1 verification failure, 2 bad input (usage, values,
files); bad input never ends in a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

import numpy as np

from .approx import (MEASURES, density_sweep, error_curve, lemma_corpus,
                     staircase_steps)
from .localspace import PolySpace
from .tensorized import DEFAULT_BUDGET, BudgetError, TensorizedFunction
from .train import tt_svd


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage text
        raise UsageError(f"{self.prog}: {message}")


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _fraction(text: str) -> float:
    num, slash, den = text.partition("/")
    if not slash:
        return float(text)
    if float(den) == 0.0:
        raise UsageError(f"zero denominator in {text!r}")
    return float(num) / float(den)


# One form per spec kind: it fixes the ':' field count and is the error hint.
SPEC_FORMS = {
    "poly": "poly:c0,c1,...",
    "sin": "sin:freq",
    "abs_power": "abs_power:center,exponent",
    "sqrt": "sqrt",
    "indicator": "indicator:x0,...,xn:a0,...,a(n-1)",
    "samples": "samples:path.csv",
}


def parse_function_spec(spec: str):
    """Parse a registry entry of one of the forms in SPEC_FORMS.

    Returns (callable, simple_spec_or_None).  Every error names the spec
    and its form.
    """
    kind = spec.split(":", 1)[0]
    if kind not in SPEC_FORMS:
        raise UsageError(f"unknown function kind {kind!r}; the forms are "
                         + ", ".join(SPEC_FORMS.values()))
    # a samples path may itself hold ':'
    parts = spec.split(":", 1 if kind == "samples" else -1)
    if len(parts) != SPEC_FORMS[kind].count(":") + 1:
        raise UsageError(f"{spec!r} does not match {SPEC_FORMS[kind]}")
    try:
        return _spec_function(kind, parts[1:])
    except ValueError as exc:
        raise UsageError(f"bad spec {spec!r} (form {SPEC_FORMS[kind]}): "
                         f"{exc}") from None


def _spec_function(kind: str, fields: list[str]):
    """(callable, simple_spec_or_None) of the ':' fields of one spec kind."""
    if kind == "poly":
        coeffs = _floats(fields[0])
        return (lambda x: np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), coeffs)), None
    if kind == "sin":
        freq = float(fields[0])
        return (lambda x: np.sin(2 * np.pi * freq * np.asarray(x))), None
    if kind == "abs_power":
        center, expo = _floats(fields[0])
        return (lambda x: np.abs(np.asarray(x) - center) ** expo), None
    if kind == "sqrt":
        return (lambda x: np.sqrt(np.asarray(x, dtype=float))), None
    if kind == "indicator":
        bps, vals = staircase_steps(map(_fraction, fields[0].split(",")),
                                    map(_fraction, fields[1].split(",")))
        bp_arr = np.asarray(bps)
        val_arr = np.asarray(vals)

        def staircase(x):
            x = np.asarray(x, dtype=float)
            idx = np.clip(np.searchsorted(bp_arr, x, side="right") - 1,
                          0, len(vals) - 1)
            return val_arr[idx]

        return staircase, (bps, vals)
    path = fields[0]  # kind == "samples"
    try:
        with open(path, newline="") as fh:
            rows = [(float(a), float(b)) for a, b in csv.reader(fh)
                    if a.strip() and not a.lstrip().startswith("x")]
    except OSError as exc:
        raise UsageError(f"cannot read samples file {path}: {exc}")
    if len(rows) < 2:
        raise UsageError(f"samples file {path} needs at least two rows")
    if not np.all(np.isfinite(rows)):
        raise UsageError(f"samples file {path} has a non-finite value")
    xs, ys = map(np.asarray, zip(*sorted(rows)))
    # piecewise-linear interpolation layer ahead of the projection
    return (lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)), None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttfun")
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
    p.add_argument("--d-grid", type=int_list, required=True)
    p.add_argument("--tol-grid", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--measure", choices=MEASURES, default="C")

    p = sub.add_parser("verify", help="run the lemma-verification corpus")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--m", type=int_list, default="0,1,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--pairs", type=int, default=40)
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


def _project(args) -> TensorizedFunction:
    """The level --d projection of --func on P_m in base b."""
    f, _ = parse_function_spec(args.func)
    return TensorizedFunction.tensorize(f, PolySpace(args.m, args.b), args.d,
                                        budget=args.budget)


def _cmd_tensorize(args) -> int:
    tf = _project(args)
    if args.out:
        tf.save(args.out)
    print(f"norm_l2={tf.lp_norm(2):.12g}")
    if args.d >= 1:
        print("ranks=" + ",".join(str(r) for r in tf.rank_profile().ranks))
    return 0


def _cmd_ranks(args) -> int:
    profile = _project(args).rank_profile(tol=args.tol)
    lines = ["nu,r_nu"] + [f"{nu},{r}" for nu, r in
                           enumerate(profile.ranks, start=1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    f, _ = parse_function_spec(args.func)
    space = PolySpace(args.m, args.b)
    points = error_curve(f, space, args.p, args.measure, args.d_grid,
                         _floats(args.tol_grid), budget=args.budget)
    lines = ["measure,n,d,p,error,ranks"]
    for pt in points:
        ranks = "|".join(str(r) for r in pt.ranks)
        lines.append(f"{pt.measure},{pt.n},{pt.level},{pt.p:g},"
                     f"{pt.error:.17g},{ranks}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    report = lemma_corpus(b=args.b, degrees=args.m, d_max=args.d_max,
                          seed=args.seed, n_pairs=args.pairs)
    _emit(json.dumps(report, indent=2, default=repr) + "\n", args.out)
    failures = [e["lemma"] for e in report if e["status"] != "pass"]
    if failures:
        print("FAILED: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_density(args) -> int:
    _, simple = parse_function_spec(args.func)
    if simple is None:
        raise UsageError(f"density needs {SPEC_FORMS['indicator']}")
    rows = density_sweep(*simple, args.b, args.p, args.d_max)
    lines = ["d,error,error_p,bound_p,within_bound,slope"]
    for r in rows:
        lines.append(f"{r['d']},{r['error']:.17g},{r['error_p']:.17g},"
                     f"{r['bound_p']:.17g},{int(r['within_bound'])},"
                     f"{'' if r['slope'] is None else format(r['slope'], '.12g')}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r["within_bound"] for r in rows) else 1


def _cmd_extend(args) -> int:
    tt = tt_svd(_project(args), 0.0).extend_level(args.d_new).round(args.tol)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -1e-3 or -1,2 for an option; every
    # option here takes a value, so `--p -1e-3` is read as `--p=-1e-3`
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1].startswith("--") and "=" not in argv[i - 1]
                and re.match(r"-[\d.]", argv[i])):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit:  # --help
        return 0
    except (BudgetError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
