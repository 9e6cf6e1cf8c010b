"""Command-line interface: subcommands, exit codes, file outputs."""

import re
import sys
import warnings

import numpy as np
import pytest

from ttfun import TensorTrain, TensorizedFunction
from ttfun.cli import SPEC_FORMS, entry, main, parse_function_spec


def run(*argv):
    return main(list(argv))


def test_parse_poly():
    f, simple = parse_function_spec("poly:0,0,1")
    assert simple is None
    assert abs(f(0.5) - 0.25) < 1e-14


def test_parse_sin():
    f, _ = parse_function_spec("sin:1")
    assert abs(f(0.25) - 1.0) < 1e-14


def test_parse_indicator():
    f, simple = parse_function_spec("indicator:0,1/3,1:1,0")
    bps, vals = simple
    assert bps == [0.0, pytest.approx(1.0 / 3.0), 1.0]
    assert vals == [1.0, 0.0]
    assert f(0.2) == 1.0 and f(0.5) == 0.0


def test_parse_samples(tmp_path):
    path = tmp_path / "samples.csv"
    xs = np.linspace(0.0, 1.0, 50)
    path.write_text("\n".join(f"{x},{x*x}" for x in xs))
    f, _ = parse_function_spec(f"samples:{path}")
    assert abs(f(0.5) - 0.25) < 1e-3
    # the path is everything after the first ':'
    colon = tmp_path / "a:b.csv"
    colon.write_text(path.read_text())
    f, _ = parse_function_spec(f"samples:{colon}")
    assert abs(f(0.5) - 0.25) < 1e-3


def test_parse_errors():
    from ttfun.cli import UsageError
    for spec in ("nope", "poly", "sin", "abs_power:1",
                 "indicator:0,1:1,2", "samples:/does/not/exist.csv",
                 "poly:1,,2", "sin:x", "abs_power:a,1",
                 "indicator:0,1/2/3,1:1,0"):
        with pytest.raises(UsageError, match="form|does not match"):
            parse_function_spec(spec)


def test_tensorize_writes_qttf(tmp_path, capsys):
    out = tmp_path / "sq.qttf"
    code = run("tensorize", "--func", "poly:0,0,1", "--b", "2", "--d", "4",
               "--m", "2", "--out", str(out))
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "ranks=2,3,3,3"
    tf = TensorizedFunction.load(out)
    assert tf.rank_profile().ranks == (2, 3, 3, 3)


def test_tensorize_level_zero(tmp_path, capsys):
    out = tmp_path / "cell.qttf"
    code = run("tensorize", "--func", "poly:1", "--d", "0", "--out", str(out))
    assert code == 0
    tf = TensorizedFunction.load(out)
    assert tf.level == 0


def test_missing_samples_file_exits_2(capsys):
    code = run("tensorize", "--func", "samples:/no/such/file.csv", "--d", "2")
    assert code == 2
    assert "/no/such/file.csv" in capsys.readouterr().err


def test_usage_errors_exit_2():
    assert run("tensorize", "--func", "poly:1", "--d", "2", "--b", "1") == 2
    assert run("nonsense") == 2
    assert run("sweep", "--func", "poly:1", "--d-grid", "2", "--tol-grid",
               "0", "--p", "-1") == 2
    assert run("sweep", "--func", "poly:1", "--d-grid", "2", "--tol-grid",
               "0", "--measure", "R") == 2
    assert run("tensorize", "--func", "poly:1", "--d", "-1") == 2
    assert run("density", "--func", "indicator:0,1/3,1:1,0",
               "--d-max", "0") == 2
    assert run("verify", "--d-max", "1") == 2
    assert run("extend", "--func", "poly:0,1", "--d", "2", "--d-new", "4",
               "--tol", "nan") == 2
    assert run("sweep", "--func", "poly:1", "--d-grid", "2", "--tol-grid",
               "nan") == 2
    for p in ("nan", "inf"):
        assert run("density", "--func", "indicator:0,1/3,1:1,0",
                   "--p", p) == 2
    assert run("sweep", "--func", "poly:1", "--d-grid", "2", "--tol-grid",
               "0", "--p", "nan") == 2
    assert run("verify", "--m", "") == 2
    assert run("verify", "--pairs", "0") == 2
    # options that nothing read are gone
    for argv in (("tensorize", "--d", "2"), ("ranks", "--d", "2"),
                 ("extend", "--d", "2", "--d-new", "3"),
                 ("sweep", "--d-grid", "2", "--tol-grid", "0")):
        assert run(*argv, "--func", "poly:1") == 0
        assert run(*argv, "--func", "poly:1", "--seed", "1") == 2
    assert run("verify", "--m", "0", "--d-max", "2", "--pairs", "1",
               "--inject-fault", "rounding-split") == 2
    assert run("verify", "--m", "0", "--d-max", "2", "--pairs", "1",
               "--seed", "3") == 0
    for opt in ("--seed", "--m", "--budget"):
        assert run("density", "--func", "indicator:0,1/3,1:1,0",
                   opt, "1") == 2


def test_negative_values_reach_the_library_check(capsys):
    """A negative value in exponent form, or a list that starts with a
    negative number, reaches the library's range check (exit 2 with its
    message), not argparse's `expected one argument`."""
    cases = {("sweep", "--func", "sqrt", "--d-grid", "2", "--tol-grid", "0",
              "--p", "-1e-3"): "p must be positive",
             ("extend", "--func", "sqrt", "--d", "2", "--d-new", "3",
              "--tol", "-1e-3"): "tol must be >= 0",
             ("sweep", "--func", "sqrt", "--d-grid", "2",
              "--tol-grid", "-1e-3,0"): "tol must be >= 0",
             ("sweep", "--func", "sqrt", "--d-grid", "-1,2",
              "--tol-grid", "0"): "grid levels must be >= 1"}
    for argv, message in cases.items():
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert message in err and "expected one argument" not in err, argv


def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys):
    """Non-finite values, non-integer lists, staircases
    that are not one, malformed specs and values the library rejects: exit 2
    and one `error:` line, never a traceback or a numpy warning."""
    nan_rows = tmp_path / "nan.csv"
    nan_rows.write_text("0,1\n0.5,nan\n1,2\n")
    one_row = tmp_path / "one.csv"
    one_row.write_text("x,y\n0.5,1\n")
    cases = [
        ("tensorize", "--func", "sin:nan", "--d", "2"),
        ("tensorize", "--func", f"samples:{nan_rows}", "--d", "2"),
        ("tensorize", "--func", "indicator:0,1/0,1:1,0", "--d", "2"),
        ("tensorize", "--func", "indicator:0,0.7,0.3,1:1,2,3", "--d", "2"),
        ("ranks", "--func", "indicator:0.2,0.5,1:1,0", "--d", "2"),
        ("verify", "--m", "1.5", "--d-max", "2", "--pairs", "1"),
        ("sweep", "--func", "sqrt", "--d-grid", "2.7", "--tol-grid", "0"),
        ("tensorize", "--func", "poly:", "--d", "2"),
        ("tensorize", "--func", "poly:1,,2", "--d", "2"),
        ("tensorize", "--func", "sqrt:5", "--d", "2"),
        ("tensorize", "--func", "sin:inf", "--d", "2"),
        ("tensorize", "--func", "poly:1e308,1e308,1e308", "--d", "2"),
        ("tensorize", "--func", "indicator:0,nan,1:1,0", "--d", "2"),
        ("density", "--func", "indicator:0,1/3,1:inf,0"),
        ("density", "--func", "indicator:0,1/3,1:1,0", "--b", "1"),
        ("extend", "--func", "poly:0,1", "--d", "4", "--d-new", "2"),
        ("sweep", "--func", "sqrt", "--d-grid", "2,3", "--tol-grid", "0",
         "--p", "1e300"),
        ("tensorize", "--func", f"samples:{one_row}", "--d", "2"),
        ("density", "--func", "indicator:0,1/3,1:10,0", "--p", "400"),
        ("density", "--func", "indicator:0,1/3,1:1e308,-1e308",
         "--d-max", "2", "--p", "1"),
        ("tensorize", "--func", "poly:1", "--d", "2", "--b", "1e308"),
        ("nonsense",),
    ]
    bad_fields = ("poly:1,,2", "sin:x", "abs_power:a,1",
                  "indicator:0,1/2/3,1:1,0")
    cases += [("tensorize", "--func", spec, "--d", "2")
              for spec in bad_fields[1:]]  # poly:1,,2 is listed above
    errs = {}
    for argv in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv) == 2, argv
        assert not caught, (argv, str(caught[0].message))
        err = errs[argv] = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1, argv
    assert all(len(errs[argv].splitlines()) == 1 for argv in cases)
    density = [err for argv, err in errs.items() if argv[0] == "density"]
    assert "p = 400" in density[-2] and "p = 1.0" in density[-1]
    # the message names the field at fault, the spec and its form
    assert "1/0" in errs[cases[2]]
    for spec in bad_fields:
        err = errs[("tensorize", "--func", spec, "--d", "2")]
        assert repr(spec) in err and SPEC_FORMS[spec.split(":")[0]] in err


def test_density_deep_rows_finite(capsys):
    """b^d overflows past d = 1023 and b^-d underflows past 1074: every row
    stays finite and within its bound, and the deepest report error 0."""
    for b in ("2", "3"):
        assert run("density", "--func", "indicator:0,1/3,1:1,0", "--b", b,
                   "--d-max", "1100") == 0
        rows = [r.split(",") for r in
                capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(rows) == 1100
        assert all(np.isfinite(float(v)) for r in rows for v in r[1:4])
        assert all(r[4] == "1" for r in rows)
        assert float(rows[-1][1]) == 0.0


def test_values_at_the_top_of_the_float_range(capsys):
    """b^(d/2) ||f||_2 past 1.8e308: the sweep and the restriction work at
    max |c| = 1, so the ranks are those of a constant and the sweep's
    errors sit at the roundoff floor, with no warning."""
    cases = [(("ranks", "--func", "poly:1e306", "--d", "16"),
              ["nu,r_nu"] + [f"{nu},1" for nu in range(1, 17)]),
             (("tensorize", "--func", "indicator:0,1:1e308", "--b", "10",
               "--m", "31", "--d", "1"), ["norm_l2=1e+308", "ranks=1"]),
             (("tensorize", "--func", "poly:1e308", "--b", "4", "--d", "2"),
              ["norm_l2=1e+308", "ranks=1,1"])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, want in cases:
            assert run(*argv) == 0, argv
            out = capsys.readouterr()
            assert out.out.splitlines() == want and not out.err, argv
        assert run("sweep", "--func", "poly:1e308", "--d-grid", "2,3",
                   "--tol-grid", "0,1e-3") == 0
    out = capsys.readouterr()
    rows = out.out.strip().splitlines()[1:]
    assert rows and not out.err
    assert all(0.0 < float(r.split(",")[4]) < 1e295 for r in rows)


# Edge values of every numeric option and spec field.
_FUZZ_EDGES = ("0", "1e308", "-1e308", "1e-320", "nan", "inf")


def _fuzz_vectors(rng, samples, count):
    """`count` argument vectors, each option a typical value, or with
    probability 0.3 a value of _FUZZ_EDGES too.  Levels stay <= 8, verify
    <= 3 levels and 2 pairs, and a valid --p <= 50, so every run is cheap."""
    def pick(*typical):
        pool = typical + _FUZZ_EDGES if rng.random() < 0.3 else typical
        return pool[rng.integers(len(pool))]

    def num():
        return pick("1", "-2", "0.5", "3")

    def spec():
        return (lambda: "poly:" + ",".join(num() for _ in
                                           range(rng.integers(1, 4))),
                lambda: f"sin:{num()}",
                lambda: f"abs_power:{num()},{num()}",
                lambda: "sqrt",
                lambda: f"indicator:0,{pick('1/3', '0.5')},1:{num()},{num()}",
                lambda: f"samples:{samples}")[rng.integers(6)]()

    def space():
        return ["--b", pick("2", "3"), "--m", pick("0", "1", "3"),
                "--budget", pick("1000000")]

    commands = (
        lambda: ["tensorize", "--func", spec(),
                 "--d", pick("0", "1", "2", "5")] + space(),
        lambda: ["ranks", "--func", spec(), "--d", pick("1", "3", "6"),
                 "--tol", pick("1e-10", "1e-3", "0.5")] + space(),
        lambda: ["sweep", "--func", spec(), "--d-grid", pick("1", "2,3", "4"),
                 "--tol-grid", pick("0", "0,1e-3", "0.5"),
                 "--p", pick("1", "2", "inf", "0.5", "3", "50"),
                 "--measure", pick("N", "C", "S", "rmax")] + space(),
        lambda: ["verify", "--b", pick("2", "3"), "--m", pick("0", "1"),
                 "--d-max", pick("2", "3"), "--pairs", pick("1", "2"),
                 "--seed", pick("0", "1")],
        lambda: ["density", "--func",
                 f"indicator:0,{pick('1/3', '0.5', '0.7')},1:{num()},{num()}",
                 "--b", pick("2", "3"), "--d-max", pick("1", "4", "8"),
                 "--p", pick("1", "2", "0.5", "3", "50")],
        lambda: ["extend", "--func", spec(), "--d", pick("1", "2", "3"),
                 "--d-new", pick("4", "8"),
                 "--tol", pick("0", "1e-12", "1e-3")] + space())
    return [commands[rng.integers(len(commands))]() for _ in range(count)]


def test_cli_fuzz(tmp_path, capsys):
    """A fixed-seed fuzz of every subcommand: each vector exits 0, 1 or 2
    with no warning; an exit 2 prints exactly one line, and an exit 0 or 1
    prints no nan or inf, apart from the p column of an L^inf sweep."""
    samples = tmp_path / "big.csv"
    samples.write_text("0,1\n0.5,1e308\n1,-1e308\n")
    for argv in _fuzz_vectors(np.random.default_rng(2), samples, 240):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv)
        assert not caught, (argv, str(caught[0].message))
        assert code in (0, 1, 2), argv
        out = capsys.readouterr()
        if code == 2:
            assert len(out.err.splitlines()) == 1, (argv, out.err)
            continue
        text = out.out
        if argv[0] == "sweep":  # drop the p column
            text = "\n".join(re.sub(r"^([^,]*,[^,]*,[^,]*),[^,]*", r"\1", row)
                             for row in text.splitlines())
        for token in re.findall(r"[^\s,|:\"\[\]{}]+", text):
            try:
                assert np.isfinite(float(token)), (argv, token)
            except ValueError:
                pass


def test_ranks_command(tmp_path):
    out = tmp_path / "ranks.csv"
    code = run("ranks", "--func", "poly:0,0,0,1", "--d", "6", "--m", "3",
               "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "nu,r_nu"
    ranks = tuple(int(line.split(",")[1]) for line in lines[1:])
    assert ranks == (2, 4, 4, 4, 4, 4)


def test_sweep_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--func", "poly:0,1", "--d-grid", "2,3", "--tol-grid",
            "0,0.01", "--measure", "N")
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "measure,n,d,p,error,ranks"
    # exactly representable: the envelope ends at (near) zero error
    last_err = float(lines[-1].split(",")[4])
    assert last_err <= 1e-10


def test_sweep_small_p_rows(capsys):
    """At p = 1e-5 the reference norm overflowed to inf, so the envelope
    was empty and the sweep printed only its header."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("sweep", "--func", "sqrt", "--d-grid", "2,3",
                   "--tol-grid", "0,1e-3", "--p", "1e-5") == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows
    errors = [float(row.split(",")[4]) for row in rows]
    assert all(0.0 < e < 1e-3 for e in errors)
    assert errors == sorted(errors, reverse=True)


def test_verify_pass_and_json(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--m", "1", "--d-max", "4", "--pairs", "6",
               "--out", str(out))
    assert code == 0
    import json
    report = json.loads(out.read_text())
    assert all(e["status"] == "pass" for e in report)


def test_verify_fault_injection_fails(rounding_split, capsys):
    code = run("verify", "--m", "1", "--d-max", "4", "--pairs", "4")
    assert code == 1
    assert "rounding-accuracy" in capsys.readouterr().err


def test_density_command(tmp_path):
    out = tmp_path / "density.csv"
    code = run("density", "--func", "indicator:0,1/3,1:1,0", "--d-max", "10",
               "--p", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d,error")
    assert len(lines) == 11


def test_density_needs_indicator(monkeypatch):
    assert run("density", "--func", "poly:1") == 2
    # the console script exits with main's code
    monkeypatch.setattr(sys, "argv", ["ttfun", "density", "--func", "poly:1"])
    with pytest.raises(SystemExit, match="2"):
        entry()


def test_extend_command(tmp_path, capsys):
    out = tmp_path / "ext.qttt"
    code = run("extend", "--func", "poly:0,1", "--d", "2", "--d-new", "6",
               "--m", "1", "--out", str(out))
    assert code == 0
    tt = TensorTrain.load(out)
    assert tt.level == 6
    assert all(r <= 2 for r in tt.ranks[2:])
    assert run("extend", "--func", "poly:0,1", "--d", "4", "--d-new", "2",
               "--m", "1") == 2
    # values near 1e200 keep the unscaled ranks and a loadable file
    capsys.readouterr()
    assert run("extend", "--func", "poly:0,1e200,1e200", "--d", "4",
               "--d-new", "6", "--out", str(out)) == 0
    assert "ranks=2,3,3,3,3,3" in capsys.readouterr().out.splitlines()
    assert TensorTrain.load(out).ranks == (2, 3, 3, 3, 3, 3)
