"""Command-line interface: subcommands, exit codes, file outputs."""

import numpy as np
import pytest

from ttfun import TensorTrain, TensorizedFunction
from ttfun.cli import main, parse_function_spec


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


def test_parse_errors():
    from ttfun.cli import UsageError
    for spec in ("nope", "poly", "sin", "abs_power:1",
                 "indicator:0,1:1,2", "samples:/does/not/exist.csv"):
        with pytest.raises(UsageError):
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
               "--seed", "3") == 0
    for opt in ("--seed", "--m", "--budget"):
        assert run("density", "--func", "indicator:0,1/3,1:1,0",
                   opt, "1") == 2


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


def test_verify_pass_and_json(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--m", "1", "--d-max", "4", "--pairs", "6",
               "--out", str(out))
    assert code == 0
    import json
    report = json.loads(out.read_text())
    assert all(e["status"] == "pass" for e in report)


def test_verify_fault_injection_fails(capsys):
    code = run("verify", "--m", "1", "--d-max", "4", "--pairs", "4",
               "--inject-fault", "rounding-split")
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


def test_density_needs_indicator():
    assert run("density", "--func", "poly:1") == 2


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
