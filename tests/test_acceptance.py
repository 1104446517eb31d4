"""End-to-end acceptance checks, one test per criterion.

Each test prints its measured numbers, so a failure report carries the
actual deviations, and `pytest -v` gives one pass/fail line per
criterion.  Tolerances are the contract values, not what the code
happens to achieve on this machine.
"""

import math

import numpy as np
import pytest

from fracwell import cli
from fracwell import deltawell as dw
from fracwell import hfox as hf
from fracwell import measure as ms
from fracwell.deltawell import DomainError, PotentialConfig
from fracwell.hfox import HFoxParams
from fracwell.measure import DeltaFamily, MeasureDim
from fracwell.quadrature import QuadSpec

ALPHAS = (1.2, 1.5, 1.8, 2.0)
LAMBDAS = (0.3, 0.5, 0.8, 1.0)


def test_criterion_1_classical_limit():
    # E(alpha=2, lam=1) = -m gamma^2 / (2 hbar^2), m = 1/(2D)
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for d in (0.5, 1.0):
            cfg = PotentialConfig(alpha=2.0, d_alpha=d, gamma_strength=gamma,
                                  hbar=1.0, lam=1.0)
            e = dw.energy_closed_form(cfg).energy
            want = -gamma * gamma / (4.0 * d)
            worst = max(worst, abs(e - want) / abs(want))
    print(f"criterion 1: worst rel err {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_2_oracle_agreement():
    # closed form vs independent root-search oracle across the whole
    # alpha x lambda grid; every point satisfies lam < alpha
    worst = 0.0
    for alpha in ALPHAS:
        for lam in LAMBDAS:
            cfg = PotentialConfig(alpha=alpha, lam=lam)
            ec = dw.energy_closed_form(cfg).energy
            eo = dw.energy_oracle(cfg).energy
            rel = abs(ec - eo) / abs(eo)
            worst = max(worst, rel)
            assert rel <= 1e-6, (alpha, lam, rel)
    print(f"criterion 2: worst rel deviation {worst:.3e} over "
          f"{len(ALPHAS) * len(LAMBDAS)} grid points (tol 1e-6)")


def test_criterion_3_scaling_law():
    a, lam = 1.5, 0.8
    e1c = dw.energy_closed_form(PotentialConfig(alpha=a, lam=lam)).energy
    e1o = dw.energy_oracle(PotentialConfig(alpha=a, lam=lam)).energy
    worst_c = worst_o = 0.0
    for c in (0.5, 2.0, 10.0):
        cfg = PotentialConfig(alpha=a, lam=lam, gamma_strength=c)
        want = c ** (a / (a - lam))
        rc = dw.energy_closed_form(cfg).energy / e1c
        ro = dw.energy_oracle(cfg).energy / e1o
        worst_c = max(worst_c, abs(rc - want) / want)
        worst_o = max(worst_o, abs(ro - want) / want)
    print(f"criterion 3: closed-form {worst_c:.3e} (tol 1e-10), "
          f"oracle {worst_o:.3e} (tol 1e-6)")
    assert worst_c <= 1e-10
    assert worst_o <= 1e-6


def test_criterion_4_existence_window(monkeypatch):
    # lam >= alpha must be rejected before any numerics start
    def trip(*a, **k):
        raise AssertionError("quadrature invoked during domain rejection")

    monkeypatch.setattr(dw, "integrate_sinh", trip)
    monkeypatch.setattr(dw, "integrate_oscillatory", trip)
    with pytest.raises(DomainError, match="0 < lam < alpha"):
        PotentialConfig(alpha=1.2, lam=1.5)
    print("criterion 4: (alpha=1.2, lam=1.5) rejected, no quadrature ran")


def test_criterion_5_fractional_delta_suite():
    # unit mass
    worst_mass = 0.0
    for lam in (0.4, 0.7, 1.0):
        dim = MeasureDim(lam=lam)
        for eps in (1.0, 4.0, 16.0):
            fam = DeltaFamily(dim=dim, epsilon=eps)
            v, _ = ms.integrate(dim, lambda x: ms.delta_value(fam, x))
            worst_mass = max(worst_mass, abs(v - 1.0))
    assert worst_mass <= 1e-8

    # scaling identity; algebraically exact, float evaluation amplifies
    # argument roundoff through the Gaussian exponent
    worst_scale = 0.0
    dim = MeasureDim(lam=0.7)
    for c in (0.5, 2.0, 3.0):
        for x in (0.1, 0.3, 0.9):
            lhs = ms.delta_value(DeltaFamily(dim, 1.0), c * x)
            rhs = c ** -0.7 * ms.delta_value(DeltaFamily(dim, c), x)
            worst_scale = max(worst_scale, abs(lhs - rhs) / abs(rhs))
    assert worst_scale <= 1e-12

    # sifting error monotone under eps doubling
    devs = []
    d8 = MeasureDim(lam=0.8)
    for eps in (4.0, 8.0, 16.0):
        v, _ = ms.sift(d8, lambda x: np.cos(x), eps)
        devs.append(abs(v - 1.0))
    assert devs[0] > devs[1] > devs[2]
    print(f"criterion 5: mass dev {worst_mass:.3e} (tol 1e-8), scaling dev "
          f"{worst_scale:.3e}, sift devs {devs[0]:.2e} > {devs[1]:.2e} > "
          f"{devs[2]:.2e}")


def test_criterion_6_hfox_identity_suite():
    EXP = HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0),))
    RAT = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),))

    worst_exp = max(abs(hf.eval_auto(EXP, z)[0] - math.exp(-z))
                    / math.exp(-z) for z in (0.3, 1.0, 3.0))
    assert worst_exp <= 1e-10

    worst_rat = max(abs(hf.eval_auto(RAT, z)[0] - 1.0 / (1.0 + z))
                    * (1.0 + z) for z in (0.3, 1.26, 3.0))
    assert worst_rat <= 1e-10

    worst_mel = max(chk.rel_err
                    for params, svals in ((EXP, (0.3, 0.5, 1.0, 2.5, 5.0)),
                                          (RAT, (0.1, 0.3, 0.5, 0.7, 0.9)))
                    for chk in hf.mellin_numeric_check(params, svals))
    assert worst_mel <= 1e-6

    # rescale consistency on the classical momentum-kernel instance
    kern = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),),
                      arg_scale=4.0)
    new, mult = hf.rescale_power(kern, 2.0)
    worst_resc = 0.0
    for z in (0.7, 1.3):
        lhs = hf.eval_auto(kern, z ** 2)[0]
        rhs = mult * hf.eval_auto(new, z)[0]
        worst_resc = max(worst_resc, abs(lhs - rhs) / abs(lhs))
    assert worst_resc <= 1e-8

    # cancellation consistency on the reduced spectral block
    ct = hf.cosine_transform(kern, k=1.0, s=1.0, mu=2.0)
    resc, _ = hf.rescale_power(ct.params, 2.0)
    shifted = hf._shift(resc, -1.0)
    full = hf.eval_contour(shifted, 0.7)[0]
    red, _, from_series = hf.eval_auto(hf.reduce_fully(shifted), [0.7], QuadSpec())
    assert from_series[0]
    cancel_dev = abs(full - red[0])
    assert cancel_dev <= 1e-8

    print(f"criterion 6: exp {worst_exp:.2e}, rational {worst_rat:.2e} "
          f"(tol 1e-10); mellin {worst_mel:.2e} (tol 1e-6); rescale "
          f"{worst_resc:.2e}, cancellation {cancel_dev:.2e} (tol 1e-8)")


def test_criterion_7_wavefunction_ground_truth():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    kap = st.kappa
    assert abs(kap - math.sqrt(-st.energy / cfg.d_alpha) / cfg.hbar) < 1e-14

    xs = np.linspace(0.1, 5.0, 25)
    phi = np.array([dw.position_wavefunction_quadrature(st, cfg, x)[0]
                    for x in xs])
    model = phi[0] * np.exp(-kap * (xs - xs[0]))
    worst = float(np.max(np.abs(phi - model) / model))
    assert worst <= 1e-6

    stn = dw.normalize(st, cfg)
    worst_n = 0.0
    for x in (0.0, 0.5, 2.0, 4.0):
        got, _ = dw.position_wavefunction_quadrature(stn, cfg, x)
        want = math.sqrt(kap) * math.exp(-kap * abs(x))
        worst_n = max(worst_n, abs(got - want) / want)
    assert worst_n <= 1e-6
    print(f"criterion 7: profile dev {worst:.3e}, normalized dev "
          f"{worst_n:.3e} (tol 1e-6)")


def test_criterion_8_verification_report():
    # the H-form route is emitted and measured, not assumed: the exact
    # block must match the quadrature route, and the x=0 identity hold;
    # the printed reduction's deviation is reported alongside
    for alpha in (1.5, 1.8):
        for lam in (0.5, 0.8):
            cfg = PotentialConfig(alpha=alpha, lam=lam)
            state = dw.energy_closed_form(cfg)
            val, want = dw._x0_identity(cfg, state, QuadSpec())
            x0_rel_err = abs(val - want) / abs(want)
            xs = np.linspace(0.25, 4.0, 16) / state.kappa
            hq, _ = dw.position_wavefunction_quadrature(state, cfg, xs)
            hh, _ = dw.position_wavefunction_hfox(state, cfg, xs)
            shape_dev = np.max(np.abs(hh - hq) / np.abs(hq))
            printed = hq[0] * np.exp(-state.kappa * (xs - xs[0])) / hq
            printed_dev = np.max(np.abs(printed - 1.0))
            assert x0_rel_err <= 1e-8, (alpha, lam, x0_rel_err)
            assert shape_dev <= dw.SHAPE_TOL, (alpha, lam, shape_dev)
            assert np.isfinite(printed_dev), (alpha, lam)
            print(f"criterion 8: a={alpha} lam={lam} x0 rel "
                  f"{x0_rel_err:.2e} shape dev "
                  f"{shape_dev:.3g} printed reduction dev "
                  f"{printed_dev:.3g}")


def test_criterion_9_cli_determinism(tmp_path):
    args = ["--mode", "sweep",
            "--sweep-alpha", ",".join(str(a) for a in ALPHAS),
            "--sweep-lambda", ",".join(str(l) for l in LAMBDAS),
            "--format", "csv"]
    p1 = tmp_path / "sweep1.csv"
    p2 = tmp_path / "sweep2.csv"
    assert cli.main(args + ["--output", str(p1)]) == 0
    assert cli.main(args + ["--output", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    print(f"criterion 9: two sweep runs byte-identical ({len(b1)} bytes)")
