import csv
import json
import math
import re

import numpy as np
import pytest

from fracwell import NumericalFailure, cli, deltawell, hfox, quadrature
from fracwell import gammafn as gf

SCI = re.compile(r"-?\d\.\d{11}e[+-]\d{2}$")


def run(tmp_path, *args, out="out"):
    path = tmp_path / out
    code = cli.main(list(args) + ["--output", str(path)])
    return code, path


def read_csv(path):
    comments = []
    with open(path) as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    return comments, list(csv.DictReader(rows))


# ----------------------------------------------------------------- energy

def test_energy_json_classical(tmp_path):
    code, path = run(tmp_path, "--mode", "energy", "--alpha", "2.0",
                     "--lambda", "1.0", "--format", "json", out="e.json")
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["meta"]["mode"] == "energy"
    assert doc["meta"]["alpha"] == 2.0
    row = doc["rows"][0]
    assert row["E_closed_form"] == -0.25
    assert row["kappa"] == 0.5
    assert row["rel_deviation"] <= 1e-6


def test_energy_csv_formatting(tmp_path):
    code, path = run(tmp_path, "--mode", "energy", "--alpha", "1.5",
                     "--lambda", "0.5", "--format", "csv", out="e.csv")
    assert code == 0
    _, rows = read_csv(path)
    assert len(rows) == 1
    # every numeric cell in fixed 12-significant-digit scientific form
    for cell in rows[0].values():
        assert SCI.match(cell), cell
    assert float(rows[0]["E_closed_form"]) == pytest.approx(-0.5964329867355498,
                                                            rel=1e-11)


def test_energy_rejects_bad_alpha(tmp_path, capsys):
    code = cli.main(["--mode", "energy", "--alpha", "3.0"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_energy_out_of_double_range_exits_3(capsys):
    # |E| ~ 10^2505 and |E| ~ e^-1479: valid inputs whose energy cannot be
    # represented are numerical failures, never printed and never bad input
    for extra in (["--alpha", "1.001"], ["--alpha", "1.005", "--gamma", "1e-5"]):
        code = cli.main(["--mode", "energy", "--lambda", "1"] + extra)
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "OverflowError" in err


@pytest.mark.parametrize("extra", [
    ["--alpha", "2", "--gamma", "2e-200", "--hbar", "1e-200"],
    ["--alpha", "1.5", "--lambda", "0.8", "--gamma", "3", "--d-alpha", "0.2",
     "--hbar", "1e-100"],
], ids=["hbar_squared_underflows", "hbar_power_overflows"])
def test_energy_kappa_beyond_powers_of_hbar(tmp_path, extra):
    # |E| and kappa are representable although hbar^alpha is not
    code, path = run(tmp_path, "--mode", "energy", *extra, "--format", "json",
                     out="e.json")
    assert code == 0
    doc = json.loads(path.read_text())
    meta, row = doc["meta"], doc["rows"][0]
    # kappa^alpha * D * hbar^alpha = |E|, checked in logs
    a = meta["alpha"]
    lhs = (a * math.log(row["kappa"]) + math.log(meta["d_alpha"])
           + a * math.log(meta["hbar"]))
    assert lhs == pytest.approx(math.log(-row["E_closed_form"]), abs=1e-9)
    if a == 2.0:   # classical point: |E| = gamma^2 / (4 D hbar^2) = 1
        assert row["E_closed_form"] == pytest.approx(-1.0, rel=1e-12)
        assert row["kappa"] == pytest.approx(1e200, rel=1e-12)


def test_energy_kappa_out_of_double_range_exits_3(capsys):
    # kappa ~ e^920 and ~ e^-1152: numerical failures, never a traceback
    for extra in (["--gamma", "1e-300", "--d-alpha", "1e-300", "--hbar", "1e-200"],
                  ["--gamma", "1e200", "--d-alpha", "1e300", "--hbar", "1e200"]):
        code = cli.main(["--mode", "energy", "--alpha", "2", "--lambda", "1"]
                        + extra)
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "OverflowError" in err and "kappa" in err


@pytest.mark.parametrize("cls", [
    quadrature.QuadFailure, quadrature.NonIntegrable, quadrature.NonDecaying,
    quadrature.NoBracket, deltawell.BracketFailure, hfox.NoSeparatingContour,
], ids=lambda cls: cls.__name__)
def test_convergence_failures_share_one_base(cls):
    # the CLI maps NumericalFailure to exit code 3
    assert issubclass(cls, NumericalFailure)


# ------------------------------------------------------------ wavefunction

def test_wavefunction_csv_classical(tmp_path):
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "2.0",
                     "--lambda", "1.0", "--x-min", "0", "--x-max", "2",
                     "--x-steps", "5", "--format", "csv", out="w.csv")
    assert code == 0
    comments, rows = read_csv(path)
    meta = dict(c.lstrip("# ").split(" = ") for c in comments)
    assert float(meta["E"]) == pytest.approx(-0.25, rel=1e-11)
    assert float(meta["kappa"]) == pytest.approx(0.5, rel=1e-11)
    assert meta["hfox_verified"] == "true"
    assert len(rows) == 5
    # normalized profile: phi(0) = sqrt(kappa)
    assert float(rows[0]["phi_quadrature"]) == pytest.approx(
        math.sqrt(0.5), rel=1e-6)
    for r in rows:
        assert float(r["rel_dev"]) < 1e-6


def test_wavefunction_json_fractional_verified(tmp_path):
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "1.5",
                     "--lambda", "0.8", "--x-min", "0.5", "--x-max", "3",
                     "--x-steps", "4", "--format", "json", out="w.json")
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["meta"]["hfox_verified"] is True
    for row in doc["rows"]:
        assert row["rel_dev"] <= 1e-6
        assert row["phi_quadrature"] > 0


def test_wavefunction_large_kappa_rows(tmp_path):
    # alpha=2, lam=1, gamma=100: phi(x) = sqrt(50) e^(-50 x) with
    # amplitude 2 pi sqrt(50); rows past x = 0.5 sit below the rule's
    # absolute floor and are not judged
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "2",
                     "--lambda", "1", "--gamma", "100", "--x-min", "0",
                     "--x-max", "1", "--x-steps", "11", "--format", "csv",
                     out="w.csv")
    assert code == 0
    comments, rows = read_csv(path)
    meta = dict(c.lstrip("# ").split(" = ") for c in comments)
    root = math.sqrt(50.0)
    assert float(meta["normalization"]) == pytest.approx(2.0 * math.pi * root,
                                                         rel=1e-10)
    assert float(rows[0]["phi_quadrature"]) == pytest.approx(root, rel=1e-10)
    for r in rows:
        x, phi = float(r["x"]), float(r["phi_quadrature"])
        if x <= 0.3:
            assert phi == pytest.approx(root * math.exp(-50.0 * x), rel=1e-6)
    mid = float(rows[5]["phi_quadrature"])
    assert float(rows[5]["x"]) == 0.5
    assert mid > 0 and mid == pytest.approx(root * math.exp(-25.0), rel=1e-3)


def test_wavefunction_byte_deterministic(tmp_path):
    args = ["--mode", "wavefunction", "--alpha", "1.8", "--lambda", "0.5",
            "--x-min", "0", "--x-max", "4", "--x-steps", "6",
            "--format", "csv"]
    _, p1 = run(tmp_path, *args, out="w1.csv")
    _, p2 = run(tmp_path, *args, out="w2.csv")
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------------ sweep

def test_sweep_grid_and_determinism(tmp_path):
    args = ["--mode", "sweep", "--sweep-alpha", "1.5,2.0",
            "--sweep-lambda", "0.5,1.0", "--format", "csv"]
    code, p1 = run(tmp_path, *args, out="s1.csv")
    assert code == 0
    _, p2 = run(tmp_path, *args, out="s2.csv")
    assert p1.read_bytes() == p2.read_bytes()
    _, rows = read_csv(p1)
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["rel_dev"]) <= 1e-6 for r in rows)


def test_sweep_partial_domain_failure(tmp_path):
    code, path = run(tmp_path, "--mode", "sweep", "--sweep-alpha", "1.2",
                     "--sweep-lambda", "0.5,1.5", "--format", "csv",
                     out="s.csv")
    assert code == 0       # some rows succeeded
    _, rows = read_csv(path)
    status = {r["lambda"]: r["status"] for r in rows}
    assert status["5.00000000000e-01"] == "ok"
    assert status["1.50000000000e+00"] == "domain_error"
    bad = [r for r in rows if r["status"] == "domain_error"][0]
    assert bad["E_closed"] == "" and bad["E_oracle"] == ""


def test_sweep_all_rows_failed(tmp_path):
    code, _ = run(tmp_path, "--mode", "sweep", "--sweep-alpha", "1.2",
                  "--sweep-lambda", "1.5", "--format", "csv", out="s.csv")
    assert code == 3


def test_sweep_requires_a_grid(tmp_path, capsys):
    code = cli.main(["--mode", "sweep"])
    assert code == 2


def test_sweep_colon_grid_syntax(tmp_path):
    code, path = run(tmp_path, "--mode", "sweep", "--sweep-gamma", "0.5:2.0:4",
                     "--alpha", "2.0", "--lambda", "1.0", "--format", "json",
                     out="s.json")
    assert code == 0
    doc = json.loads(path.read_text())
    gammas = [r["gamma"] for r in doc["rows"]]
    assert gammas == pytest.approx(list(np.linspace(0.5, 2.0, 4)))


# --------------------------------------------------------------- validate

def test_validate_all_green(tmp_path):
    code, path = run(tmp_path, "--mode", "validate", "--format", "csv",
                     out="v.csv")
    assert code == 0
    _, rows = read_csv(path)
    assert len(rows) == 20
    assert all(r["passed"] == "true" for r in rows)
    names = {r["name"] for r in rows}
    assert {"delta_unit_mass", "hfox_mellin_exp", "energy_classical_limit",
            "wavefunction_classical_profile"} <= names


def test_validate_catches_corrupted_gamma(tmp_path, monkeypatch, capsys):
    """Negative control: a 1e-4 perturbation of the Lanczos coefficients
    must keep failing these 12 checks and flip the exit code."""
    monkeypatch.setattr(gf, "LANCZOS_COEFFS", gf.LANCZOS_COEFFS * (1.0 + 1e-4))
    code, path = run(tmp_path, "--mode", "validate", "--format", "csv",
                     out="v.csv")
    assert code == 1
    _, rows = read_csv(path)
    failed = {r["name"] for r in rows if r["passed"] == "false"}
    assert {"delta_unit_mass", "energy_classical_limit", "energy_fixed_point",
            "energy_oracle_agreement", "gamma_reflection",
            "hfox_cancellation_chain", "hfox_cosine_transform",
            "hfox_mellin_exp", "hfox_mellin_rational",
            "hfox_rational_pointwise", "hfox_shape_classical",
            "wavefunction_classical_profile"} <= failed
    err = capsys.readouterr().err
    assert "hfox_mellin_exp" in err


# -------------------------------------------------------------- hfox-eval

def test_hfox_eval_exponential(tmp_path):
    code, path = run(tmp_path, "--mode", "hfox-eval", "--hfox", "1,0,0,1;;0:1",
                     "--z", "0.5,1.0,2.0", "--format", "csv", out="h.csv")
    assert code == 0
    _, rows = read_csv(path)
    got = [float(r["value"]) for r in rows]
    assert got == pytest.approx([math.exp(-0.5), math.exp(-1.0), math.exp(-2.0)],
                                rel=1e-10)
    assert all(r["method"] in ("series", "contour") for r in rows)


@pytest.mark.parametrize("z", [15.0, 20.0])
def test_hfox_eval_exponential_far_tail(tmp_path, z):
    # the alternating series of exp(-z) cancels to a few digits here
    code, path = run(tmp_path, "--mode", "hfox-eval", "--hfox", "1,0,0,1;;0:1",
                     "--z", str(z), "--format", "csv", out="h.csv")
    assert code == 0
    _, rows = read_csv(path)
    assert float(rows[0]["value"]) == pytest.approx(math.exp(-z), rel=1e-7)
    assert float(rows[0]["err_est"]) <= 1e-7 * math.exp(-z)


def test_hfox_eval_exponential_relative_far_tail(tmp_path):
    # exp(-200) = 1.3839e-87 keeps its relative accuracy on the saddle line
    code, path = run(tmp_path, "--mode", "hfox-eval", "--hfox", "1,0,0,1;;0:1",
                     "--z", "200", "--format", "csv", out="h.csv")
    assert code == 0
    _, rows = read_csv(path)
    assert float(rows[0]["value"]) == pytest.approx(math.exp(-200.0), rel=1e-10)


def test_hfox_eval_rational(tmp_path):
    code, path = run(tmp_path, "--mode", "hfox-eval", "--hfox",
                     "1,1,1,1;0:1;0:1", "--z", "3.0", "--format", "json",
                     out="h.json")
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["rows"][0]["value"] == pytest.approx(0.25, rel=1e-10)


def test_hfox_eval_rejects_invalid_params(capsys):
    code = cli.main(["--mode", "hfox-eval", "--hfox", "0,0,0,1;;0:1"])
    assert code == 2
    assert "invalid H-function parameters" in capsys.readouterr().err


def test_hfox_eval_rejects_nonpositive_z(capsys):
    code = cli.main(["--mode", "hfox-eval", "--hfox", "1,0,0,1;;0:1",
                     "--z", "-1.0"])
    assert code == 2


@pytest.mark.parametrize("spec, z, message", [
    ("1,0,0,1;;0:inf", "1", "lower[0] must be finite"),
    ("1,0,0,1;;nan:1", "1", "lower[0] must be finite"),
    ("1,0,0,1;;0:1", "inf", "finite and positive"),
    ("1,1,1,1;0:1;0:1", "inf", "finite and positive"),
    ("1,1,1,1;0:1;0:1", "nan", "finite and positive"),
])
def test_hfox_eval_rejects_non_finite_input(capsys, spec, z, message):
    code = cli.main(["--mode", "hfox-eval", "--hfox", spec, "--z", z])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("flag, value", [("--x-min", "nan"), ("--x-max", "inf")])
def test_wavefunction_rejects_non_finite_bounds(capsys, flag, value):
    code = cli.main(["--mode", "wavefunction", flag, value])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{flag[2:]} must be finite" in err


def test_hfox_eval_coinciding_poles_exits_2(capsys):
    # left poles of Gamma(1 + s) meet right poles of Gamma(1 - 3 - s)
    code = cli.main(["--mode", "hfox-eval", "--hfox", "1,1,1,1;3:1;1:1",
                     "--z", "1"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "left pole -1.0 coincides with right pole -1.0" in err


def test_hfox_eval_without_contour_gap_exits_3(capsys):
    # the pole families sit 5e-4 apart, inside the contour's 2e-3 margin
    code = cli.main(["--mode", "hfox-eval", "--hfox", "1,1,1,1;0.9995:1;0:1",
                     "--z", "1"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "NoSeparatingContour" in err


# ----------------------------------------------------------- config files

def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("mode = energy\n"
                       "alpha = 1.5\n"
                       "lambda = 0.5\n"
                       "gamma = 2.0   # overridden below\n")
    code, path = run(tmp_path, "--config", str(cfgfile), "--gamma", "1.0",
                     "--format", "json", out="c.json")
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["meta"]["gamma"] == 1.0     # flag beats file
    assert doc["meta"]["alpha"] == 1.5
    assert doc["rows"][0]["E_closed_form"] == pytest.approx(
        -0.5964329867355498, rel=1e-10)


def test_config_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("alpha = 1.5\nbogus_key = 3\n")
    code = cli.main(["--mode", "energy", "--config", str(cfgfile)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "2" in err    # key and line number


def test_mode_required(capsys):
    assert cli.main([]) == 2
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("mode = energy\nalpha 1.5\n", ":2: expected 'key = value'"),
    ("mode = energy\nalpha = abc\n",
     "config value for 'alpha' is not a valid float: 'abc'"),
    ("mode = bogus\n", "unknown mode 'bogus'"),
    ("mode = energy\nformat = xml\n", "unknown format 'xml'"),
], ids=["no-equals", "bad-float", "bad-mode", "bad-format"])
def test_config_file_errors_exit_2(tmp_path, capsys, text, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert cli.main(["--config", str(cfgfile)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


# a config value and a different flag value for every option
_SAMPLES = {"mode": ("sweep", "validate"), "format": ("json", "csv")}


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_every_option_from_config_and_flag(tmp_path, key):
    dest, conv = cli._OPTIONS[key][:2]
    in_file, on_flag = _SAMPLES.get(key, {float: ("0.75", "0.25"),
                                          int: ("17", "23"),
                                          str: ("a", "b")}[conv])
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text(("" if key == "mode" else "mode = energy\n")
                       + f"{key} = {in_file}\n")
    parser = cli._build_parser()
    rc = cli._resolve(parser.parse_args(["--config", str(cfgfile)]))
    assert rc[dest] == conv(in_file)
    rc = cli._resolve(parser.parse_args(["--config", str(cfgfile),
                                         "--" + key, on_flag]))
    assert rc[dest] == conv(on_flag)


def test_parser_built_once_serves_every_call(tmp_path, capsys, monkeypatch):
    # main reuses the parser built at import; a --config call, a plain call
    # and an invalid flag, in that order, each give what a fresh parser gives
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("mode = energy\nalpha = 1.5\nlambda = 0.8\n")
    calls = (["--config", str(cfgfile), "--format", "json"],
             ["--mode", "energy", "--alpha", "2.0"],
             ["--mode", "energy", "--no-such-flag", "1"])
    shared = []
    for argv in calls:
        code = cli.main(argv)
        shared.append((code, capsys.readouterr()))
    for argv, want in zip(calls, shared):
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        code = cli.main(argv)
        assert (code, capsys.readouterr()) == want
    assert [code for code, _ in shared] == [0, 0, 2]
