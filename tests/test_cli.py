import contextlib
import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracwell import cli, deltawell, quadrature
from fracwell import gammafn as gf
from fracwell.quadrature import NumericalFailure

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


@pytest.mark.parametrize("lam", ["1e-13", "1e-17", "1e-100", "1e-300"])
def test_energy_at_tiny_lambda(tmp_path, capsys, lam):
    # lam/alpha and lam/2 lie below the gamma kernel's pole tolerance; as
    # lam -> 0 the bracket tends to 1, so E -> -1 at unit gamma and D
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, path = run(tmp_path, "--mode", "energy", "--alpha", "1.5",
                         "--lambda", lam, "--format", "json", out="e.json")
    assert code == 0
    assert capsys.readouterr().err == ""
    row = json.loads(path.read_text())["rows"][0]
    assert row["rel_deviation"] <= 1e-9
    assert row["E_closed_form"] == pytest.approx(-1.0, rel=1e-9)


@pytest.mark.parametrize("lam", ["1e-17", "1e-300"])
def test_wavefunction_below_the_quadrature_route_names_lambda(capsys, lam):
    # the quadrature route takes these lam (its endpoint power is read from
    # lam itself), but the H route's strip 0 < Re s < lam closes inside the
    # engine's pole tolerance: the failure names lam and the H route
    code = cli.main(["--mode", "wavefunction", "--alpha", "1.5", "--lambda", lam])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"NumericalFailure: lam = {float(lam)!r} too small for the H route" in err


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


@pytest.mark.parametrize("flag, name", [("--gamma", "gamma_strength"),
                                        ("--d-alpha", "d_alpha"), ("--hbar", "hbar")])
def test_infinite_coupling_is_bad_input(tmp_path, capsys, flag, name):
    # an infinite coupling is invalid input (exit 2), as nan is, not a
    # level beyond the double range (exit 3)
    code = cli.main(["--mode", "energy", flag, "inf"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{name} must be finite and positive, got inf" in err
    code, path = run(tmp_path, "--mode", "sweep", "--sweep-alpha", "1.5", flag, "inf",
                     "--format", "csv", out="s.csv")
    _, rows = read_csv(path)
    assert [r["status"] for r in rows] == ["domain_error"]


@pytest.mark.parametrize("cls", [
    quadrature.QuadFailure, quadrature.NonIntegrable, quadrature.NonDecaying,
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


def test_wavefunction_verified_reads_the_printed_rows(tmp_path, monkeypatch):
    # a stand-in engine defect: the H route 1e-3 high past z = 2.5, i.e.
    # kappa x = 5, which the rows out to x = 12 reach
    evaluate = deltawell.eval_auto

    def skewed(params, z, quad):
        v, e, series = evaluate(params, z, quad)
        return np.where(np.asarray(z) > 2.5, v * (1.0 + 1e-3), v), e, series

    monkeypatch.setattr(deltawell, "eval_auto", skewed)
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "1.5",
                     "--lambda", "0.8", "--x-min", "0", "--x-max", "12",
                     "--x-steps", "7", out="w.csv")
    assert code == 0
    comments, rows = read_csv(path)
    assert "# hfox_verified = false" in comments
    assert max(float(r["rel_dev"]) for r in rows) > 5e-4


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


@pytest.mark.parametrize("extra", [
    ["--d-alpha", "1e300", "--x-steps", "3"],
], ids=["knee_underflows"])
def test_wavefunction_knee_out_of_double_range_exits_3(capsys, extra):
    # kappa = 5e-301: the rows at x = +-5 put the quadrature route's
    # nodes q = u/(kappa|x|) past the double range above the profile's
    # knee q = 1, where the rule cannot read the envelope
    code = cli.main(["--mode", "wavefunction", "--alpha", "2", "--lambda", "1"]
                    + extra)
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "OverflowError" in err and "knee" in err
    assert "Traceback" not in err


def test_wavefunction_knee_overflow_prints_the_classical_rows(tmp_path):
    # |E|/D = 2.5e399 is beyond the double range, but nothing forms it:
    # kappa = 5e199 and the rows are sqrt(kappa) e^(-kappa|x|), printed to
    # 12 digits
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "2",
                     "--lambda", "1", "--d-alpha", "1e-200", "--x-min=-2e-200",
                     "--x-max=2e-200", "--x-steps", "5", out="w.csv")
    assert code == 0
    comments, rows = read_csv(path)
    assert "# hfox_verified = true" in comments
    kappa = 5e199
    for r in rows:
        want = math.sqrt(kappa) * math.exp(-kappa * abs(float(r["x"])))
        assert float(r["phi_quadrature"]) == pytest.approx(want, rel=1e-11)
        assert float(r["phi_hfox"]) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("alpha, lam, want", [
    ("1.5", "0.05", 0.7706457778459685), ("1.5", "1e-3", 0.7083074106339453),
    ("1.2", "1e-8", 0.7071067931790682)])
def test_wavefunction_at_small_lambda(tmp_path, capsys, alpha, lam, want):
    # below lam ~ 0.077 the profile's y^(-lam) tail passes the double range
    # in position space; the norm is read off its Mellin transform instead
    # (want: 30-digit mpmath values at gamma = D = hbar = 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", alpha,
                         "--lambda", lam, "--x-min", "0", "--x-max", "6",
                         "--x-steps", "7", out="w.csv")
    assert code == 0
    assert capsys.readouterr().err == ""
    comments, rows = read_csv(path)
    meta = dict(c.lstrip("# ").split(" = ") for c in comments)
    assert float(meta["normalization"]) == pytest.approx(want, rel=1e-10)
    assert len(rows) == 7


@pytest.mark.parametrize("lam", ["1e-13", "1e-15"])
def test_wavefunction_h_strip_below_pole_tolerance_exits_3(capsys, lam):
    # the H block's strip 0 < Re s < lam is narrower than the engine's pole
    # tolerance; the block comes from valid input, so this is a typed
    # numerical failure that names lam, not bad input (exit 2)
    code = cli.main(["--mode", "wavefunction", "--alpha", "1.5", "--lambda", lam,
                     "--x-steps", "3"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"NumericalFailure: lam = {float(lam)!r}" in err


_TYPED = {c.__name__ for c in (NumericalFailure, OverflowError,
                               *NumericalFailure.__subclasses__())}


@pytest.mark.parametrize("mode", ["energy", "wavefunction"])
@pytest.mark.parametrize("lam", ["1e-300", "1e-310", "1e-320", "5e-324"])
def test_subnormal_lambda_prints_or_fails_typed(capsys, lam, mode):
    # lam/2 loses digits below 2.2e-308 and is 0 at 5e-324: each request
    # is valid, so it prints (exit 0) or fails typed (exit 3), unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--mode", mode, "--alpha", "1.5", "--lambda", lam,
                         "--x-steps", "3"])
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and out != ""
    else:
        assert code == 3 and out == ""
        failure = re.fullmatch(r"fracwell: convergence failure: (\w+): .*\n", err)
        assert failure and failure[1] in _TYPED, err


@pytest.mark.parametrize("x_min, x_max", [("0", "1e-310"), ("-1e-320", "1e-320"),
                                          ("0", "5e-324")])
def test_subnormal_x_fails_typed_unwarned(capsys, x_min, x_max):
    # u/y overflows the oscillatory nodes at a subnormal y = kappa |x|: the
    # envelope's own check reports the infinite nodes, and the division
    # that forms them leaks no RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--mode", "wavefunction", "--alpha", "1.5", "--lambda", "0.8",
                         f"--x-min={x_min}", f"--x-max={x_max}", "--x-steps=2"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("fracwell: convergence failure: OverflowError: oscillatory nodes "
                   "q = u/y past the double range about the knee q = 1 of the profile\n")


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
    # Gamma(1 + s) and Gamma(-2 - s) share the poles s = -1 and -2
    code = cli.main(["--mode", "hfox-eval", "--hfox", "1,1,1,1;3:1;1:1",
                     "--z", "1"])
    assert code == 2
    assert ("left pole -1.0 coincides with right pole -1.0"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("scale", ["1e-8", "1e-300", "5e-324"])
def test_hfox_eval_contour_line_past_the_node_bound_exits_3(capsys, monkeypatch, scale):
    # t_max grows as 1/delta: a line of 4.8e9 nodes (delta = 1e-8) once
    # failed to allocate 36 GiB (exit 1), and one of 4.8e301 raised numpy's
    # size error (exit 2); the node bound refuses both before allocating.
    # At delta = 5e-324 a gamma argument of the line is the subnormal
    # itself, a pole, where the reflection's pi/|sin(pi r)| overflows: the
    # suite's RuntimeWarning filter fails the run if that leaks a warning
    arange = np.arange

    def guarded(*args, **kwargs):
        assert all(abs(a) < 1e7 for a in args if isinstance(a, (int, float)))
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    code = cli.main(["--mode", "hfox-eval", "--hfox", f"1,0,0,1;;0:{scale}", "--z", "2"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and "past the bound of 1048576" in err


def test_hfox_eval_near_pole_collision_exits_0(capsys):
    # the pole families sit 5e-4 apart: the line passes the right pole at
    # 5e-4 and adds its residue back, Gamma(5e-4) 2^-5e-4 at z = 1
    code = cli.main(["--mode", "hfox-eval", "--hfox", "1,1,1,1;0.9995:1;0:1",
                     "--z", "1"])
    assert code == 0
    out, err = capsys.readouterr()
    assert err == ""
    row = list(csv.DictReader(out.splitlines()))[0]
    assert float(row["value"]) == pytest.approx(
        math.gamma(5e-4) * 2.0 ** -5e-4, rel=1e-9)   # 1998.73045140


def test_hfox_eval_near_pole_collision_profile_block(capsys):
    # the wavefunction block at alpha = 1.5, lam = 1e-5: left pole 0 and
    # right pole 1e-5; it printed -3.16e16 by a kept series value
    spec = ("2,1,1,3;0.9999933333333333:0.6666666666666666;0:0.5,"
            "0.9999933333333333:0.6666666666666666,0.5:0.5")
    assert cli.main(["--mode", "hfox-eval", "--hfox", spec, "--z", "25"]) == 0
    row = list(csv.DictReader(capsys.readouterr().out.splitlines()))[0]
    value, err = float(row["value"]), float(row["err_est"])
    assert value == pytest.approx(1.69249e5, rel=1e-5)
    assert err < 1e-8 * value


def test_hfox_eval_block_without_left_poles(capsys):
    # H^{0,1}_{1,0}[z | (0, 1)] = e^(-1/z) / z, exponentially small here:
    # the contour takes it as its swapped block at 1/z
    z = (0.005, 0.01, 0.02)
    assert cli.main(["--mode", "hfox-eval", "--hfox", "0,1,1,0;0:1;",
                     "--z", ",".join(map(str, z))]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    for x, row in zip(z, rows):
        assert float(row["value"]) == pytest.approx(math.exp(-1.0 / x) / x, rel=1e-10, abs=0.0)


def test_wavefunction_hfox_route_far_tail_classical(tmp_path):
    # gamma = 100: phi = sqrt(50) e^(-50 x), down to 1.4e-21 at x = 1,
    # where the H route printed 7.8e-17
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "2",
                     "--lambda", "1", "--gamma", "100", "--x-min", "0",
                     "--x-max", "1", "--x-steps", "11", out="w.csv")
    assert code == 0
    _, rows = read_csv(path)
    assert len(rows) == 11
    for row in rows:
        x = float(row["x"])
        assert float(row["phi_hfox"]) == pytest.approx(
            math.sqrt(50.0) * math.exp(-50.0 * x), rel=1e-8, abs=0.0), x


def test_wavefunction_hfox_route_positive_at_lam_one(tmp_path):
    # (1.05, 1): kappa is 1.3e16, so x = 0.02 sits far in the algebraic
    # tail, where the H route printed -9.95e-17
    code, path = run(tmp_path, "--mode", "wavefunction", "--alpha", "1.05",
                     "--lambda", "1", "--x-min", "0", "--x-max", "2", out="w.csv")
    assert code == 0
    _, rows = read_csv(path)
    assert all(float(row["phi_hfox"]) > 0.0 for row in rows)
    row = next(row for row in rows if float(row["x"]) == 0.02)
    assert float(row["phi_hfox"]) == pytest.approx(1.913e-22, rel=1e-3, abs=0.0)


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
     "argument --alpha: invalid float value: 'abc'"),
    ("mode = bogus\n", "argument --mode: invalid choice: 'bogus'"),
    ("mode = energy\nformat = xml\n",
     "argument --format: invalid choice: 'xml'"),
], ids=["no-equals", "bad-float", "bad-mode", "bad-format"])
def test_config_file_errors_exit_2(tmp_path, capsys, text, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert cli.main(["--config", str(cfgfile)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


# every option with a type or a fixed set of values
_CHECKED = [key for key, (_, conv, _, _) in cli._OPTIONS.items()
            if conv is not str or key in cli._CHOICES]


@pytest.mark.parametrize("key", _CHECKED)
def test_bad_value_same_error_from_file_and_flag(tmp_path, capsys, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(("" if key == "mode" else "mode = energy\n")
                       + f"{key} = abc\n")
    assert cli.main(["--config", str(cfgfile)]) == 2
    from_file = capsys.readouterr()
    mode = [] if key == "mode" else ["--mode", "energy"]
    assert cli.main(mode + ["--" + key, "abc"]) == 2
    from_flag = capsys.readouterr()
    assert from_file == from_flag
    assert from_file.out == ""
    assert f"argument --{key}: invalid " in from_file.err


@pytest.mark.parametrize("value", ["0", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--quad-abs-tol", "--quad-rel-tol"])
def test_quad_tolerance_must_be_positive_and_finite(capsys, flag, value):
    # an infinite tolerance would stop every refinement at its first level
    assert cli.main(["--mode", "energy", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tolerances must be positive and finite" in err


@pytest.mark.parametrize("argv, message", [
    (["--mode", "sweep", "--sweep-alpha", ","], "bad --sweep-alpha grid ',': no values"),
    (["--mode", "sweep", "--sweep-alpha", ""], "bad --sweep-alpha grid '': no values"),
    (["--mode", "hfox-eval", "--hfox", "1,0,0,1;;0:1", "--z", ""],
     "could not convert string to float: ''"),
    (["--mode", "hfox-eval", "--hfox", "1,0,0,1;;0:1", "--z", "1,,2"],
     "bad --z list '1,,2': could not convert string to float: ''"),
], ids=["sweep-comma", "sweep-empty", "z-empty", "z-gap"])
def test_empty_list_exits_2(capsys, argv, message):
    # only a missing list takes its default; an empty one is a usage error
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


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
    rc = cli._parse(["--config", str(cfgfile)])
    assert rc[dest] == conv(in_file)
    rc = cli._parse(["--config", str(cfgfile), "--" + key, on_flag])
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


# ------------------------------------------------------------ JSON writer

# strings with quotes, backslashes, control, non-ASCII and astral characters
_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                             '\x80\xe9\u2028\ufeff\U0001f600'),
                             st.characters()), max_size=8)
_CELLS = st.one_of(st.floats(),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                    5e-324, 2.2e-308, 1e308]),
                   st.integers(), st.booleans(), st.none(), _STRINGS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(meta=st.dictionaries(_STRINGS, st.one_of(_CELLS, st.lists(_STRINGS, max_size=4)),
                            max_size=5),
       header=st.lists(_STRINGS, max_size=4),
       rows=st.lists(st.lists(_CELLS, max_size=4), max_size=3))
@example(meta={}, header=["a", "b"], rows=[])
@example(meta={"swept": ["sweep_alpha", "sweep_lambda"], "empty": []},
         header=["x"], rows=[[math.nan], [-math.inf], [-0.0], [5e-324], [1e308]])
def test_json_writer_is_json_dumps(meta, header, rows):
    # _emit's text is json.dumps(obj, indent=2) and a newline, on the
    # object of _json_cell values that json.dumps was handed before
    obj = {"meta": {k: cli._json_cell(v) for k, v in meta.items()},
           "rows": [{h: cli._json_cell(v) for h, v in zip(header, row)}
                    for row in rows]}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit({"format": "json", "output": None}, meta, header, rows)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["--mode", "energy", "--alpha", "1.5", "--lambda", "0.8"],
    ["--mode", "sweep", "--sweep-alpha", "1.2,2.0", "--sweep-lambda", "0.5,1"],
])
def test_json_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    argv = argv + ["--format", "json"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "out.json"
    assert cli.main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode("utf-8")
