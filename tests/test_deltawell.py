import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fracwell import deltawell as dw
from fracwell import hfox as hf
from fracwell.deltawell import BoundState, DomainError, PotentialConfig
from fracwell.quadrature import QuadSpec


# ------------------------------------------------------------ closed form

@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [0.5, 1.0])
def test_energy_classical_limit(gamma, d):
    # alpha=2, lam=1 must land on -m gamma^2 / (2 hbar^2) with m = 1/(2D)
    cfg = PotentialConfig(alpha=2.0, d_alpha=d, gamma_strength=gamma, lam=1.0)
    st = dw.energy_closed_form(cfg)
    want = -gamma * gamma / (4.0 * d)
    assert_allclose(st.energy, want, rtol=1e-10)


def test_energy_fractional_anchor():
    # frozen from the quadrature oracle (agrees to 2e-13) and an
    # independent 50-digit evaluation of the gamma-product bracket
    cfg = PotentialConfig(alpha=1.5, lam=0.5)
    assert_allclose(dw.energy_closed_form(cfg).energy,
                    -0.5964329867355498, rtol=1e-12)


def test_kappa_closed_form_invariant():
    # kappa^alpha * D * hbar^alpha = |E| by construction
    cfg = PotentialConfig(alpha=1.7, d_alpha=0.8, gamma_strength=1.3,
                          hbar=1.1, lam=0.6)
    st = dw.energy_closed_form(cfg)
    assert_allclose(st.kappa ** 1.7 * 0.8 * 1.1 ** 1.7, -st.energy, rtol=1e-12)


def test_energy_scaling_in_gamma():
    # E(c gamma) = c^{alpha/(alpha-lam)} E(gamma)
    a, lam = 1.5, 0.8
    e1 = dw.energy_closed_form(PotentialConfig(alpha=a, lam=lam)).energy
    for c in (0.5, 2.0, 10.0):
        ec = dw.energy_closed_form(
            PotentialConfig(alpha=a, lam=lam, gamma_strength=c)).energy
        assert_allclose(ec / e1, c ** (a / (a - lam)), rtol=1e-10)


# ----------------------------------------------------------------- oracle

@pytest.mark.parametrize("alpha, lam", [(2.0, 1.0), (1.5, 0.8), (1.2, 0.3)])
def test_energy_oracle_agrees(alpha, lam):
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    ec = dw.energy_closed_form(cfg).energy
    eo = dw.energy_oracle(cfg).energy
    assert abs(ec - eo) / abs(eo) <= 1e-6
    assert dw.energy_oracle(cfg).provenance == "oracle"


def test_energy_oracle_continuity_in_lam():
    # the lam -> 1 limit is not special for the root finder
    ea = dw.energy_oracle(PotentialConfig(alpha=2.0, lam=0.999)).energy
    eb = dw.energy_oracle(PotentialConfig(alpha=2.0, lam=1.0)).energy
    assert abs(ea - eb) / abs(eb) < 0.01


def test_energy_oracle_bracket_adapts_to_tiny_coupling():
    # |E| = gamma^2/4 = 2.5e-13 sits 13 decades under the unit seed
    st = dw.energy_oracle(PotentialConfig(alpha=2.0, lam=1.0,
                                          gamma_strength=1e-6))
    assert_allclose(st.energy, -2.5e-13, rtol=1e-5)


def test_energy_oracle_work_is_pinned(monkeypatch):
    # a few bracket steps in log|E| plus the ITP steps: about a dozen
    # spectral integrals per energy
    calls = [0]
    radial = dw._radial_integral

    def counted(*args, **kwargs):
        calls[0] += 1
        return radial(*args, **kwargs)

    monkeypatch.setattr(dw, "_radial_integral", counted)
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)   # the validate suite's
    for alpha, lam in ((1.2, 0.5), (1.5, 0.8), (1.8, 0.3), (2.0, 1.0)):
        calls[0] = 0
        dw.energy_oracle(PotentialConfig(alpha=alpha, lam=lam), spec)
        assert calls[0] <= 16, (alpha, lam, calls[0])


# (alpha, lam, gamma, D) -> most spectral integrals (h evaluations) and
# integrand calls one oracle call may take at the CLI's default QuadSpec
_ORACLE_WORK = {
    (2.0, 1.0, 1.0, 1.0): (8, 16),
    (1.5, 0.8, 1.0, 1.0): (7, 14),
    (1.05, 1.0, 1.0, 1.0): (12, 48),
    (1.2, 0.3, 1.0, 1.0): (8, 24),
    (1.9, 1.0, 1.0, 1.0): (9, 18),
    (1.8, 0.3, 1.0, 1.0): (8, 32),
    (1.3, 0.6, 5.0, 0.2): (9, 18),
    (1.6, 0.05, 0.2, 8.0): (8, 24),
}


def test_energy_oracle_work_counters(monkeypatch):
    # deterministic work counts: h evaluations (bracket search plus ITP)
    # and integrand calls, one per panel set of each adaptive call
    calls = {"h": 0, "f": 0}
    radial, adaptive = dw._radial_integral, dw.integrate_adaptive

    def counted_radial(*args, **kwargs):
        calls["h"] += 1
        return radial(*args, **kwargs)

    def counted_adaptive(f, *args, **kwargs):
        def g(x):
            calls["f"] += 1
            return f(x)
        return adaptive(g, *args, **kwargs)

    monkeypatch.setattr(dw, "_radial_integral", counted_radial)
    monkeypatch.setattr(dw, "integrate_adaptive", counted_adaptive)
    for (alpha, lam, gamma, d), (h_max, f_max) in _ORACLE_WORK.items():
        calls.update(h=0, f=0)
        dw.energy_oracle(PotentialConfig(alpha=alpha, lam=lam,
                                         gamma_strength=gamma, d_alpha=d))
        assert calls["h"] <= h_max and calls["f"] <= f_max, (alpha, lam, calls)


def test_validate_contour_work_counter(monkeypatch):
    # the series answers every argument it can sum on its own terms, so
    # one run of the validation suite sends at most 700 arguments to the
    # contour (1884 when one stopping rule served a whole grid)
    from fracwell import checks
    sent = []
    contour = hf._contour

    def counted(params, w, quad):
        sent.append(len(w))
        return contour(params, w, quad)

    monkeypatch.setattr(hf, "_contour", counted)
    assert all(r.passed for r in checks.run_all())
    assert sum(sent) <= 700


def test_energy_oracle_beyond_two_to_the_200():
    # |E| ~ 8.02e102 > 2^200 ~ 1.6e60
    cfg = PotentialConfig(alpha=1.03, lam=1.0, gamma_strength=10.0,
                          d_alpha=0.1)
    ec = dw.energy_closed_form(cfg).energy
    eo = dw.energy_oracle(cfg).energy
    assert 8.0e102 < -ec < 8.05e102
    assert abs(ec - eo) / abs(eo) <= 1e-6


def test_energy_oracle_root_beyond_double_range():
    with pytest.raises(dw.BracketFailure):
        dw.energy_oracle(PotentialConfig(alpha=1.001, lam=1.0))


# ----------------------------------------------------------------- domain

def test_existence_window_rejected():
    with pytest.raises(DomainError, match="0 < lam < alpha"):
        PotentialConfig(alpha=1.2, lam=1.5)


@pytest.mark.parametrize("bad", [
    dict(alpha=2.5),
    dict(alpha=1.0),
    dict(alpha=2.0, lam=0.0),
    dict(alpha=2.0, lam=-0.3),
    dict(alpha=2.0, lam=1.5),
    dict(alpha=2.0, d_alpha=0.0),
    dict(alpha=2.0, gamma_strength=-1.0),
    dict(alpha=2.0, hbar=0.0),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(DomainError):
        PotentialConfig(**bad)


def test_bound_state_validation():
    with pytest.raises(DomainError):
        BoundState(energy=0.5, kappa=1.0)
    with pytest.raises(DomainError):
        BoundState(energy=-1.0, kappa=0.0)
    with pytest.raises(DomainError):
        BoundState(energy=-1.0, kappa=1.0, provenance="guess")


def test_bound_state_rejects_non_finite():
    with pytest.raises(OverflowError):
        BoundState(energy=-math.inf, kappa=math.inf)
    with pytest.raises(OverflowError):
        BoundState(energy=-1.0, kappa=math.inf)


def test_energy_closed_form_outside_double_range():
    # |E| ~ e^-1479 and |E| ~ 10^2505: log|E| is formed term by term, so
    # both ends are reported as OverflowError, never as E = -0.0 or -inf
    for cfg in (PotentialConfig(alpha=1.005, lam=1.0, gamma_strength=1e-5),
                PotentialConfig(alpha=1.001, lam=1.0)):
        with pytest.raises(OverflowError, match="log"):
            dw.energy_closed_form(cfg)


# --------------------------------------------------------------- momentum

def test_momentum_wavefunction_at_origin():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    # value gamma/((2 pi hbar)^lam |E|) at p=0
    want = 1.0 / (2.0 * math.pi * 0.25)
    assert_allclose(dw.momentum_wavefunction(st, cfg, 0.0), want, rtol=1e-14)


def test_momentum_wavefunction_even_and_decaying():
    cfg = PotentialConfig(alpha=1.5, lam=0.8)
    st = dw.energy_closed_form(cfg)
    rng = np.random.default_rng(42)
    ps = rng.uniform(0.1, 5.0, 8)
    assert np.array_equal(dw.momentum_wavefunction(st, cfg, ps),
                          dw.momentum_wavefunction(st, cfg, -ps))
    vals = dw.momentum_wavefunction(st, cfg, np.array([0.0, 1.0, 3.0, 10.0]))
    assert np.all(np.diff(vals) < 0)


def test_bound_state_condition_via_profile_integral():
    """gamma/(2 pi hbar)^lam * N * J(0) = 1 at the bound energy; this is
    the defining spectral condition, checked through public calls only."""
    for alpha, lam in ((2.0, 1.0), (1.5, 0.8), (1.8, 0.3)):
        cfg = PotentialConfig(alpha=alpha, lam=lam)
        st = dw.energy_closed_form(cfg)
        j0, _ = dw.cosine_profile_integral(st, cfg, 0.0)
        fp = (cfg.gamma_strength / (2.0 * math.pi * cfg.hbar) ** lam) \
            * cfg.measure_norm * j0
        assert abs(fp - 1.0) <= 1e-8


# ----------------------------------------------------- position, quadrature

def test_classical_profile_integral_at_origin():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    j0, _ = dw.cosine_profile_integral(st, cfg, 0.0)
    assert_allclose(j0, math.pi, rtol=1e-9)     # pi e^{-kappa 0} with kappa=1/2


def test_classical_position_profile_is_exponential():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    assert_allclose(st.kappa, 0.5, rtol=1e-14)
    xs = np.linspace(0.1, 5.0, 13)
    phi = np.array([dw.position_wavefunction_quadrature(st, cfg, x) for x in xs])
    model = phi[0] * np.exp(-st.kappa * (xs - xs[0]))
    assert np.max(np.abs(phi - model) / model) <= 1e-6


def test_position_wavefunction_even():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    a = dw.position_wavefunction_quadrature(st, cfg, 1.3)
    b = dw.position_wavefunction_quadrature(st, cfg, -1.3)
    assert a == b


def test_position_wavefunction_quadrature_on_arrays(monkeypatch):
    cfg = PotentialConfig(alpha=1.5, lam=0.8)
    st = dw.energy_closed_form(cfg)
    xs = np.array([[-1.0, 0.0], [0.5, 1.0]])
    want = [[dw.position_wavefunction_quadrature(st, cfg, x) for x in row]
            for row in xs]
    assert all(isinstance(v, float) for row in want for v in row)
    calls = []
    integral = dw.cosine_profile_integral
    monkeypatch.setattr(dw, "cosine_profile_integral",
                        lambda *a: calls.append(a[2]) or integral(*a))
    got = dw.position_wavefunction_quadrature(st, cfg, xs)
    assert got.shape == xs.shape and np.array_equal(got, want)
    # one call on the distinct |x|, each integrated once
    assert len(calls) == 1 and np.array_equal(calls[0], [0.0, 0.5, 1.0])


def test_cosine_profile_integral_error_estimate_at_large_kappa():
    # alpha=2, lam=1, gamma=100: kappa = 50 and the integral is
    # (pi/(2 D kappa)) e^(-kappa x), down to 6e-24 at x = 1
    cfg = PotentialConfig(alpha=2.0, lam=1.0, gamma_strength=100.0)
    st = dw.energy_closed_form(cfg)
    xs = np.arange(1, 11) / 10.0
    v, e = dw.cosine_profile_integral(st, cfg, xs)
    exact = math.pi / (2.0 * cfg.d_alpha * st.kappa) * np.exp(-st.kappa * xs)
    assert np.all(np.abs(v - exact) <= e)


@pytest.mark.parametrize("alpha,lam", [(1.5, 0.02), (1.2, 0.01)])
def test_quadrature_route_at_small_lam(alpha, lam):
    # the q^(lam-1) mass at 0 is taken out in closed form, so small lam
    # costs no accuracy
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    state = dw.energy_closed_form(cfg)
    xs = np.linspace(0.25, 4.0, 16) / state.kappa
    want, _ = dw.position_wavefunction_hfox(state, cfg, xs)
    got = dw.position_wavefunction_quadrature(state, cfg, xs)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8


def test_normalize_classical_matches_textbook():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.normalize(dw.energy_closed_form(cfg), cfg)
    kap = st.kappa
    for x in (0.0, 0.5, 2.0, 4.0):
        got = dw.position_wavefunction_quadrature(st, cfg, x)
        assert_allclose(got, math.sqrt(kap) * math.exp(-kap * abs(x)),
                        rtol=1e-7)


@pytest.mark.parametrize("alpha,lam", [(2.0, 1.0), (1.5, 0.8), (1.2, 0.3),
                                       (1.05, 1.0)])
def test_normalize_matches_mellin_parseval(alpha, lam):
    # int_0^inf I(y)^2 y^(lam-1) dy = (1/pi) int_0^inf |M(lam/2 + it)|^2 dt,
    # M(s) = Gamma(s) cos(pi s/2) (pi/alpha) / sin(pi (lam - s)/alpha) the
    # Mellin transform of I; at (1.05, 1) kappa = 1.3e16
    def mellin_sq(t):
        s = lam / 2 + 1j * t
        return abs(sp.gamma(s) * np.cos(np.pi * s / 2) * (np.pi / alpha)
                   / np.sin(np.pi * (lam - s) / alpha)) ** 2

    cfg = PotentialConfig(alpha=alpha, lam=lam)
    st = dw.energy_closed_form(cfg)
    j = si.quad(mellin_sq, 0.0, 40.0, limit=400, epsabs=0.0,
                epsrel=1e-12)[0] / np.pi
    pref = (dw._position_prefactor(st, cfg)
            * (st.kappa * cfg.hbar) ** lam / -st.energy)
    nrm2 = 2.0 * cfg.dim.weight_norm * pref ** 2 * st.kappa ** -lam * j
    assert_allclose(dw.normalize(st, cfg).amplitude, 1.0 / math.sqrt(nrm2),
                    rtol=1e-6)


def test_normalize_idempotent():
    cfg = PotentialConfig(alpha=1.5, lam=0.8)
    st1 = dw.normalize(dw.energy_closed_form(cfg), cfg)
    st2 = dw.normalize(st1, cfg)
    assert_allclose(st2.amplitude, st1.amplitude, rtol=1e-9)


def test_normalized_amplitude_classical_value():
    # closed form: quadrature profile is (amp/(pi sqrt(2))) sqrt(k) e^{-k|x|},
    # so unit norm needs amp = pi sqrt(2)
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.normalize(dw.energy_closed_form(cfg), cfg)
    assert_allclose(st.amplitude, math.pi * math.sqrt(2.0), rtol=1e-7)


# ------------------------------------------------------------- hfox route

def test_hfox_route_classical_verified():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    val, ok = dw.position_wavefunction_hfox(st, cfg, 1.0)
    assert ok
    assert np.isfinite(val) and val > 0


def test_hfox_route_classical_ratio_constant():
    # both routes share one prefactor and one amplitude, so the
    # pointwise ratio is 1, not merely x-independent
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    ratios = []
    for x in np.linspace(0.5, 6.0, 7):
        v, _ = dw.position_wavefunction_hfox(st, cfg, x)
        ratios.append(v / dw.position_wavefunction_quadrature(st, cfg, x))
    ratios = np.array(ratios)
    assert np.ptp(ratios) / np.mean(ratios) < 1e-6
    assert_allclose(np.mean(ratios), 1.0, rtol=1e-6)


def test_hfox_shape_check_classical_passes():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    chk = dw.hfox_shape_check(st, cfg)
    assert chk.passed
    assert chk.max_rel_dev < 1e-4


def test_hfox_shape_check_fractional_passes():
    # the exact block reproduces the quadrature values off the classical
    # point too, where the printed reduction misses by up to 0.96
    for alpha, lam in ((1.5, 0.8), (1.2, 0.3), (1.9, 1.0), (1.05, 1.0)):
        cfg = PotentialConfig(alpha=alpha, lam=lam)
        chk = dw.hfox_shape_check(dw.energy_closed_form(cfg), cfg)
        assert chk.passed and chk.max_rel_dev <= 1e-6, (alpha, lam)


@pytest.mark.parametrize("alpha,lam", [(1.5, 0.8), (1.2, 0.3), (1.9, 1.0)])
def test_profile_block_mellin_transform(alpha, lam):
    # sqrt(pi)/(2 alpha) H[y/2] has the Mellin transform of
    # I(y) = int_0^inf cos(qy) q^(lam-1) / (1 + q^alpha) dq
    block = dw._profile_block(PotentialConfig(alpha=alpha, lam=lam))
    for s in (lam / 4, lam / 2, 0.9 * lam):
        got = (math.sqrt(math.pi) / (2.0 * alpha) * 2.0 ** s
               * hf.mellin(block, s))
        want = (math.gamma(s) * math.cos(math.pi * s / 2) * (math.pi / alpha)
                / math.sin(math.pi * (lam - s) / alpha))
        assert abs(got - want) <= 1e-13 * abs(want), s


@pytest.mark.parametrize("alpha,lam,gamma,d,hbar", [
    (1.5, 0.8, 1.0, 1.0, 1.0), (1.2, 0.3, 2.0, 0.5, 1.0),
    (1.9, 1.0, 0.7, 1.0, 1.3), (2.0, 1.0, 1.0, 2.0, 0.8)])
def test_profile_closed_value_at_origin(alpha, lam, gamma, d, hbar):
    # (kappa hbar)^lam / |E| * I(0), with I(0) = pi / (alpha sin(pi lam/alpha)),
    # is the cosine integral at x = 0
    cfg = PotentialConfig(alpha=alpha, lam=lam, gamma_strength=gamma,
                          d_alpha=d, hbar=hbar)
    st = dw.energy_closed_form(cfg)
    i0 = math.pi / (alpha * math.sin(math.pi * lam / alpha))
    got = (st.kappa * hbar) ** lam / -st.energy * i0
    want, _ = dw.cosine_profile_integral(st, cfg, 0.0)
    assert_allclose(got, want, rtol=1e-8)
    hv, _ = dw.position_wavefunction_hfox(st, cfg, 0.0)
    assert_allclose(hv, dw.position_wavefunction_quadrature(st, cfg, 0.0),
                    rtol=1e-8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1.01, 2.0), lam=st.floats(0.01, 1.0),
       ks=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=6))
def test_hfox_route_matches_quadrature(alpha, lam, ks):
    # kappa x in [0.25, 4]: both routes must give the same values
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    state = dw.energy_closed_form(cfg)
    xs = np.array(ks) / state.kappa
    got, verified = dw.position_wavefunction_hfox(state, cfg, xs)
    want = dw.position_wavefunction_quadrature(state, cfg, xs)
    assert verified
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6


def _x0_rel_err(cfg, state):
    # relative error of the identity at x = 0: the radial integral at the
    # bound energy against its closed value
    val, want = dw._x0_identity(cfg, state, QuadSpec())
    return abs(val - want) / abs(want)


def test_printed_reduction_exact_only_classically():
    # the printed exp(-kappa|x|) form holds at alpha=2, lam=1 (and
    # test_comparison_report_fields shows it fails at (1.5, 0.8))
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    assert dw.hfox_shape_check(dw.energy_closed_form(cfg), cfg).printed_dev < 1e-6


def test_comparison_report_fields():
    cfg = PotentialConfig(alpha=1.5, lam=0.8)
    state = dw.energy_closed_form(cfg)
    assert state.energy < 0 and state.kappa > 0
    assert _x0_rel_err(cfg, state) <= 1e-8
    shape = dw.hfox_shape_check(state, cfg)
    assert shape.passed and shape.max_rel_dev <= 1e-6
    assert shape.printed_dev > 0.5     # the printed reduction's defect


def test_x0_identity_all_report_points():
    # |E|^{(alpha+1-lam)/alpha}-weighted value at x=0 reduces to a pure
    # gamma expression; holds on the whole report grid
    for alpha in (1.5, 1.8):
        for lam in (0.5, 0.8):
            cfg = PotentialConfig(alpha=alpha, lam=lam)
            assert _x0_rel_err(cfg, dw.energy_closed_form(cfg)) <= 1e-8, (alpha, lam)
