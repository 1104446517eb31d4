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
from fracwell.measure import MeasureDim
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
    # the lam -> 1 limit is not special for the oracle
    ea = dw.energy_oracle(PotentialConfig(alpha=2.0, lam=0.999)).energy
    eb = dw.energy_oracle(PotentialConfig(alpha=2.0, lam=1.0)).energy
    assert abs(ea - eb) / abs(eb) < 0.01


def test_energy_oracle_bracket_adapts_to_tiny_coupling():
    # |E| = gamma^2/4 = 2.5e-13, 13 decades under the unit energy
    st = dw.energy_oracle(PotentialConfig(alpha=2.0, lam=1.0,
                                          gamma_strength=1e-6))
    assert_allclose(st.energy, -2.5e-13, rtol=1e-5)


def _count_h(mp, calls):
    """Count the oracle's h evaluations in calls[0]."""
    condition = dw._energy_condition

    def counted_condition(cfg, spec):
        h = condition(cfg, spec)

        def counted(t):
            calls[0] += 1
            return h(t)
        return counted

    mp.setattr(dw, "_energy_condition", counted_condition)


def test_energy_oracle_work_is_pinned(monkeypatch):
    # one radial integral J, and h is a line whose root is read off from
    # one evaluation: no search, no refinement
    calls, integrals = [0], [0]
    _count_h(monkeypatch, calls)
    radial = dw._radial_integral

    def counted(*args, **kwargs):
        integrals[0] += 1
        return radial(*args, **kwargs)

    monkeypatch.setattr(dw, "_radial_integral", counted)
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)   # the validate suite's
    for alpha, lam in ((1.2, 0.5), (1.5, 0.8), (1.8, 0.3), (2.0, 1.0)):
        calls[0] = integrals[0] = 0
        dw.energy_oracle(PotentialConfig(alpha=alpha, lam=lam), spec)
        assert calls[0] == 1 and integrals[0] == 1, (alpha, lam, calls[0])


# (alpha, lam, gamma, D) spread over the domain, |E| ~ 8e102 included
_ORACLE_WORK = [
    (2.0, 1.0, 1.0, 1.0),
    (1.5, 0.8, 1.0, 1.0),
    (1.05, 1.0, 1.0, 1.0),
    (1.2, 0.3, 1.0, 1.0),
    (1.9, 1.0, 1.0, 1.0),
    (1.8, 0.3, 1.0, 1.0),
    (1.3, 0.6, 5.0, 0.2),
    (1.6, 0.05, 0.2, 8.0),
    (1.03, 1.0, 10.0, 0.1),
    (1.01, 1.0, 1.0, 1.0),
    (1.5, 1e-5, 1.0, 1.0),
]


def test_energy_oracle_work_counters(monkeypatch):
    # deterministic work counts: one evaluation of h, and one integrand
    # call of the one integrate_sinh call that takes J (its first grid
    # meets rel_tol)
    calls, integrand = [0], [0]
    _count_h(monkeypatch, calls)
    sinh = dw.integrate_sinh

    def counted_sinh(g, *args, **kwargs):
        def counted(t):
            integrand[0] += 1
            return g(t)
        return sinh(counted, *args, **kwargs)

    monkeypatch.setattr(dw, "integrate_sinh", counted_sinh)
    for alpha, lam, gamma, d in _ORACLE_WORK:
        calls[0] = integrand[0] = 0
        dw.energy_oracle(PotentialConfig(alpha=alpha, lam=lam,
                                         gamma_strength=gamma, d_alpha=d))
        assert calls[0] == 1 and integrand[0] == 1, (alpha, lam, calls, integrand)


def _oracle_or_both_raise(cfg):
    """The oracle's energy against the closed form's: their relative gap,
    or None when both find |E| beyond the double range."""
    try:
        ec = dw.energy_closed_form(cfg).energy
    except OverflowError:
        with pytest.raises(OverflowError):
            dw.energy_oracle(cfg)
        return None
    return abs(dw.energy_oracle(cfg).energy - ec) / abs(ec)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(alpha_gap=st.floats(-3.0, 0.0), lam=st.floats(-3.0, 0.0),
       gamma=st.floats(-1.0, 1.0), d=st.floats(-1.0, 1.0))
def test_energy_oracle_agrees_in_few_integrals(alpha_gap, lam, gamma, d):
    # alpha - 1 and lam in [1e-3, 1], gamma and D in [0.1, 10] (decimal
    # exponents drawn): the oracle meets the closed form to 1e-9 with one
    # evaluation of h, or both find |E| beyond the double range
    cfg = PotentialConfig(alpha=1.0 + 10.0 ** alpha_gap, lam=10.0 ** lam,
                          gamma_strength=10.0 ** gamma, d_alpha=10.0 ** d)
    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        _count_h(mp, calls)
        gap = _oracle_or_both_raise(cfg)
    assert gap is None or gap <= 1e-9
    assert calls[0] <= 1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(-8.0, 0.0), alpha_gap=st.floats(-3.0, 0.0),
       gamma=st.floats(-30.0, 30.0), d=st.floats(-30.0, 30.0))
def test_energy_oracle_matches_closed_form_across_the_domain(lam, alpha_gap,
                                                            gamma, d):
    # lam in [1e-8, 1], alpha - 1 in [1e-3, 1], gamma and D in [1e-30,
    # 1e30], all log-uniform: the two routes agree to 1e-9 or both raise
    cfg = PotentialConfig(alpha=1.0 + 10.0 ** alpha_gap, lam=10.0 ** lam,
                          gamma_strength=10.0 ** gamma, d_alpha=10.0 ** d)
    gap = _oracle_or_both_raise(cfg)
    assert gap is None or gap <= 1e-9


def test_validate_contour_work_counter(monkeypatch):
    # the series answers every argument it can sum on its own terms, so
    # one run of the validation suite sends at most 700 arguments to the
    # contour (1884 when one stopping rule served a whole grid).  Each
    # check hands the engine a whole argument set: at most 10 dispatcher
    # calls from the checks and the engine (19 at one call per argument;
    # the shape check's one call goes through deltawell) and at most 6
    # contour calls (10)
    from fracwell import checks
    sent, evaluated = [], []
    contour, evaluate = hf._contour, hf.eval_auto

    def counted(params, w, quad):
        sent.append(len(w))
        return contour(params, w, quad)

    def dispatched(params, z, quad):
        evaluated.append(np.size(z))
        return evaluate(params, z, quad)

    monkeypatch.setattr(hf, "_contour", counted)
    monkeypatch.setattr(hf, "eval_auto", dispatched)
    monkeypatch.setattr(checks, "eval_auto", dispatched)
    assert all(r.passed for r in checks.run_all())
    assert sum(sent) <= 700
    assert len(sent) <= 6
    assert len(evaluated) <= 10


def test_validate_gamma_kernel_work_is_pinned(monkeypatch):
    # deterministic work of one validation run: 130 gamma-kernel calls
    # over 12567 arguments, 9973 of them complex, and 38 _log_h calls on
    # 4816 nodes, each node of a contour line taken once and each node
    # taking one gamma pass over every factor row (10447 and 7853 when a
    # repeated (c, d) row of the classical chain's blocks shared the pass
    # of its first copy; 119, 12183, 9589 and 27 on 6044 nodes when one
    # call took the probes with levels 0 and 1 and a line reaching past
    # its first probe took those levels again); normalize's Mellin-Parseval
    # integrand takes two of the calls, on 65 + 64 complex nodes; the
    # Mellin grids end where the first omitted residue is 1e-17 of the
    # leading one, 43 + 45 nodes (351 + 629 when the cut read the pole gap
    # alone)
    from fracwell import checks, gammafn
    kernel, log_h, grids = [], [], []
    core, _log_h, evaluate = gammafn._core_loggamma, hf._log_h, hf.eval_auto

    def counted_core(z):
        kernel.append((np.size(z), np.iscomplexobj(z)))
        return core(z)

    def counted_log_h(params, s):
        log_h.append(np.size(s))
        return _log_h(params, s)

    monkeypatch.setattr(gammafn, "_core_loggamma", counted_core)
    monkeypatch.setattr(hf, "_log_h", counted_log_h)
    assert all(r.passed for r in checks.run_all())
    assert len(kernel) == 130 and len(log_h) == 38 and sum(log_h) == 4816
    assert sum(n for n, _ in kernel) == 12567
    assert sum(n for n, complex_ in kernel if complex_) == 9973

    def grid(params, z, quad):
        grids.append(np.size(z))
        return evaluate(params, z, quad)

    monkeypatch.setattr(hf, "eval_auto", grid)
    assert checks.check_hfox_mellin_exp().passed and checks.check_hfox_mellin_rational().passed
    assert grids == [43, 45]


def test_config_builds_its_measure_once():
    cfg = PotentialConfig(alpha=1.5, lam=0.5)
    other = PotentialConfig(alpha=1.5, lam=0.5)
    assert cfg.measure_norm is cfg.measure_norm
    assert cfg.measure_norm == other.measure_norm
    assert cfg == other and hash(cfg) == hash(other) and repr(cfg) == repr(other)
    assert repr(cfg) == ("PotentialConfig(alpha=1.5, d_alpha=1.0, "
                         "gamma_strength=1.0, hbar=1.0, lam=0.5)")


@pytest.mark.parametrize("lam", [5e-324, 1e-310])
def test_measure_norm_at_subnormal_lam(lam):
    # 2 pi^(lam/2) / Gamma(lam/2) = lam (1 + O(lam)): formed from lam, not
    # from lam/2, which is 0 at 5e-324 and loses digits below 2.2e-308
    assert PotentialConfig(alpha=1.5, lam=lam).measure_norm == lam


@pytest.mark.parametrize("lam", [1.0, 0.8, 0.3, 1e-3, 1e-100, 2.0 ** -1021])
def test_measure_norm_is_twice_the_weight_norm(lam):
    cfg = PotentialConfig(alpha=1.5, lam=lam)
    assert cfg.measure_norm == 2.0 * MeasureDim(lam).weight_norm


def test_energy_oracle_beyond_two_to_the_200():
    # |E| ~ 8.02e102 > 2^200 ~ 1.6e60
    cfg = PotentialConfig(alpha=1.03, lam=1.0, gamma_strength=10.0,
                          d_alpha=0.1)
    ec = dw.energy_closed_form(cfg).energy
    eo = dw.energy_oracle(cfg).energy
    assert 8.0e102 < -ec < 8.05e102
    assert abs(ec - eo) / abs(eo) <= 1e-6


def test_energy_oracle_root_beyond_double_range():
    with pytest.raises(OverflowError, match="oracle energy out of double range"):
        dw.energy_oracle(PotentialConfig(alpha=1.001, lam=1.0))


@pytest.mark.parametrize("alpha, gamma, d", [(1.0031622776601684, 1.0, 0.1)])
def test_energy_oracle_stops_where_the_knee_leaves_double_range(alpha, gamma, d):
    # the closed |E| is e^2191: |E|, and with it |E|/D, is beyond the
    # double range, and the oracle refuses it as the closed form does
    cfg = PotentialConfig(alpha=alpha, lam=1.0, gamma_strength=gamma,
                          d_alpha=d)
    with pytest.raises(OverflowError):
        dw.energy_closed_form(cfg)
    with pytest.raises(OverflowError, match="oracle energy out of double range"):
        dw.energy_oracle(cfg)


@pytest.mark.parametrize("alpha, gamma, d", [(1.03, 9089367.28, 0.1),
                                             (2.0, 1.0, 1e300)])
def test_energy_oracle_right_where_only_e_over_d_leaves_double_range(alpha, gamma, d):
    # the closed |E| is e^708 and 2.5e-301, with |E|/D beyond the double
    # range: the oracle's h holds no power of |E|/D, so it finds both
    cfg = PotentialConfig(alpha=alpha, lam=1.0, gamma_strength=gamma,
                          d_alpha=d)
    assert _oracle_or_both_raise(cfg) <= 1e-12


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
    """gamma/(2 pi hbar)^lam * N * J(0) = 1 at the bound energy, J(0) the
    radial integral; this is the defining spectral condition, checked
    through public calls only.  At unit amplitude phi(0) is
    gamma/(2 pi hbar)^(2 lam) * N * J(0), so the condition reads
    (2 pi hbar)^lam phi(0) = 1."""
    for alpha, lam in ((2.0, 1.0), (1.5, 0.8), (1.8, 0.3)):
        cfg = PotentialConfig(alpha=alpha, lam=lam)
        st = dw.energy_closed_form(cfg)
        assert st.amplitude == 1.0
        phi0, _ = dw.position_wavefunction_quadrature(st, cfg, 0.0)
        fp = (2.0 * math.pi * cfg.hbar) ** lam * phi0
        assert abs(fp - 1.0) <= 1e-8


# ----------------------------------------------------- position, quadrature

def test_classical_profile_integral_at_origin():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    i0, _ = dw._profile_quadrature(cfg, np.zeros(1), QuadSpec())
    assert_allclose(i0, math.pi / 2, rtol=1e-9)     # (pi/2) e^{-y} at y = 0


def test_classical_position_profile_is_exponential():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    assert_allclose(st.kappa, 0.5, rtol=1e-14)
    xs = np.linspace(0.1, 5.0, 13)
    phi = np.array([dw.position_wavefunction_quadrature(st, cfg, x)[0]
                    for x in xs])
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
    assert all(isinstance(v, float) for row in want for p in row for v in p)
    calls = []
    integral = dw.integrate_oscillatory
    monkeypatch.setattr(dw, "integrate_oscillatory",
                        lambda f, y, **kw: calls.append(y) or integral(f, y, **kw))
    got, err = dw.position_wavefunction_quadrature(st, cfg, xs)
    assert got.shape == err.shape == xs.shape
    assert np.array_equal(np.stack([got, err], axis=-1), want)
    # one oscillatory call on the distinct nonzero |x|, each integrated once
    assert len(calls) == 1
    assert np.array_equal(calls[0], st.kappa * np.array([0.5, 1.0]))


def test_cosine_profile_integral_error_estimate_at_large_kappa():
    # alpha=2, lam=1, gamma=100: kappa = 50 and the profile integral is
    # I(kappa x) = (pi/2) e^(-kappa x), down to 3e-22 at x = 1
    cfg = PotentialConfig(alpha=2.0, lam=1.0, gamma_strength=100.0)
    st = dw.energy_closed_form(cfg)
    xs = np.arange(1, 11) / 10.0
    v, e = dw._profile_quadrature(cfg, st.kappa * xs, QuadSpec())
    exact = math.pi / 2.0 * np.exp(-st.kappa * xs)
    assert np.all(np.abs(v - exact) <= e)


@pytest.mark.parametrize("alpha,lam", [(1.5, 0.02), (1.2, 0.01)])
def test_quadrature_route_at_small_lam(alpha, lam):
    # the q^(lam-1) mass at 0 is taken out in closed form, so small lam
    # costs no accuracy
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    state = dw.energy_closed_form(cfg)
    xs = np.linspace(0.25, 4.0, 16) / state.kappa
    want, _ = dw.position_wavefunction_hfox(state, cfg, xs)
    got, _ = dw.position_wavefunction_quadrature(state, cfg, xs)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8


def test_normalize_classical_matches_textbook():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.normalize(dw.energy_closed_form(cfg), cfg)
    kap = st.kappa
    for x in (0.0, 0.5, 2.0, 4.0):
        got, _ = dw.position_wavefunction_quadrature(st, cfg, x)
        assert_allclose(got, math.sqrt(kap) * math.exp(-kap * abs(x)),
                        rtol=1e-7)


@pytest.mark.parametrize("alpha,lam", [
    (2.0, 1.0), (1.5, 0.8), (1.2, 0.3), (1.05, 1.0), (1.5, 0.1)])
def test_normalize_matches_mellin_parseval(alpha, lam):
    # int_0^inf I(y)^2 y^(lam-1) dy = (1/pi) int_0^inf |M(lam/2 + it)|^2 dt,
    # M(s) = Gamma(s) cos(pi s/2) (pi/alpha) / sin(pi (lam - s)/alpha) the
    # Mellin transform of I (Paris & Kaminski, Asymptotics and Mellin-Barnes
    # Integrals, 2001, ch. 3); at (1.05, 1) kappa = 1.3e16
    def mellin_sq(t):
        s = lam / 2 + 1j * t
        return abs(sp.gamma(s) * np.cos(np.pi * s / 2) * (np.pi / alpha)
                   / np.sin(np.pi * (lam - s) / alpha)) ** 2

    cfg = PotentialConfig(alpha=alpha, lam=lam)
    st = dw.energy_closed_form(cfg)
    j = si.quad(mellin_sq, 0.0, 40.0, limit=400, epsabs=0.0,
                epsrel=1e-12)[0] / np.pi
    nrm2 = (2.0 * MeasureDim(lam).weight_norm
            * dw._profile_amplitude(st, cfg) ** 2 * st.kappa ** -lam * j)
    assert_allclose(dw.normalize(st, cfg).amplitude, 1.0 / math.sqrt(nrm2),
                    rtol=1e-8)


@pytest.mark.parametrize("alpha, lam, want", [
    (1.5, 0.05, 0.7706457778459685), (1.5, 0.01, 0.7192379880611765),
    (1.5, 1e-3, 0.7083074106339453), (1.2, 1e-8, 0.7071067931790682),
    (1.05, 1.0, 8261381909.015924),
    (1.5, 0.8, 3.824833423168633), (1.2, 0.3, 1.2670262360256568),
    (1.5, 0.1, 0.8419235065237934)])
def test_normalize_matches_reference_amplitudes(alpha, lam, want):
    # gamma = D = hbar = 1.  The first five are 30-digit mpmath values of
    # 1/norm, lam down to 1e-8, where the position-space integrand's
    # y^(-lam) tail passes the double range; the last three come from
    # int I(y)^2 d^lam y taken in position space (nested exp-sinh and
    # Ooura-Mori quadratures of the profile, with a small-y head form)
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    assert_allclose(dw.normalize(dw.energy_closed_form(cfg), cfg).amplitude,
                    want, rtol=1e-10)


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
    val, err = dw.position_wavefunction_hfox(st, cfg, 1.0)
    want, want_err = dw.position_wavefunction_quadrature(st, cfg, 1.0)
    assert np.isfinite(val) and val > 0
    assert 0.0 <= err < 1e-10 * val
    assert abs(val - want) <= err + want_err


def test_hfox_route_classical_ratio_constant():
    # both routes share one prefactor and one amplitude, so the
    # pointwise ratio is 1, not merely x-independent
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    st = dw.energy_closed_form(cfg)
    ratios = []
    for x in np.linspace(0.5, 6.0, 7):
        v, _ = dw.position_wavefunction_hfox(st, cfg, x)
        ratios.append(v / dw.position_wavefunction_quadrature(st, cfg, x)[0])
    ratios = np.array(ratios)
    assert np.ptp(ratios) / np.mean(ratios) < 1e-6
    assert_allclose(np.mean(ratios), 1.0, rtol=1e-6)


def _shape_dev(state, cfg):
    """Largest relative gap of the H route from the quadrature route on
    16 points spanning [0.25, 4] decay lengths."""
    xs = np.linspace(0.25, 4.0, 16) / state.kappa
    hq, _ = dw.position_wavefunction_quadrature(state, cfg, xs)
    hh, _ = dw.position_wavefunction_hfox(state, cfg, xs)
    return np.max(np.abs(hh - hq) / np.abs(hq))


def test_hfox_shape_check_classical_passes():
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    assert _shape_dev(dw.energy_closed_form(cfg), cfg) < 1e-4


def test_hfox_shape_check_fractional_passes():
    # the exact block reproduces the quadrature values off the classical
    # point too, where the printed reduction misses by up to 0.96
    for alpha, lam in ((1.5, 0.8), (1.2, 0.3), (1.9, 1.0), (1.05, 1.0)):
        cfg = PotentialConfig(alpha=alpha, lam=lam)
        assert _shape_dev(dw.energy_closed_form(cfg), cfg) <= 1e-6, (alpha, lam)


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
    # I(0) = pi / (alpha sin(pi lam/alpha)) is the quadrature route's I(0),
    # the radial integral at x = 0 over (kappa hbar)^lam / |E|
    cfg = PotentialConfig(alpha=alpha, lam=lam, gamma_strength=gamma,
                          d_alpha=d, hbar=hbar)
    st = dw.energy_closed_form(cfg)
    i0 = math.pi / (alpha * math.sin(math.pi * lam / alpha))
    want, _ = dw._profile_quadrature(cfg, np.zeros(1), QuadSpec())
    assert_allclose(i0, want, rtol=1e-8)
    hv, _ = dw.position_wavefunction_hfox(st, cfg, 0.0)
    assert_allclose(hv, dw.position_wavefunction_quadrature(st, cfg, 0.0)[0],
                    rtol=1e-8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1.01, 2.0), lam=st.floats(0.01, 1.0),
       ks=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=6))
def test_hfox_route_matches_quadrature(alpha, lam, ks):
    # kappa x in [0.25, 4]: both routes must give the same values
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    state = dw.energy_closed_form(cfg)
    xs = np.array(ks) / state.kappa
    got, got_err = dw.position_wavefunction_hfox(state, cfg, xs)
    want, want_err = dw.position_wavefunction_quadrature(state, cfg, xs)
    # the wavefunction command's verified rule, on these rows
    assert np.all(np.abs(got - want)
                  <= dw.SHAPE_TOL * np.abs(want) + got_err + want_err)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6


def _x0_rel_err(cfg, state):
    # relative error of the identity at x = 0: the radial integral at the
    # bound energy against its closed value
    val, want = dw.x0_identity(cfg, state, QuadSpec())
    return abs(val - want) / abs(want)


def _printed_dev(state, cfg):
    """Largest relative gap of the printed reduction exp(-kappa (x - x0))
    from the quadrature shape phi(x)/phi(x0) on 16 points spanning
    [0.25, 4] decay lengths, x0 the first."""
    xs = np.linspace(0.25, 4.0, 16) / state.kappa
    hq, _ = dw.position_wavefunction_quadrature(state, cfg, xs)
    printed = hq[0] * np.exp(-state.kappa * (xs - xs[0])) / hq
    return np.max(np.abs(printed - 1.0))


def test_printed_reduction_exact_only_classically():
    # the printed exp(-kappa|x|) form holds at alpha=2, lam=1 (and
    # test_comparison_report_fields shows it fails at (1.5, 0.8))
    cfg = PotentialConfig(alpha=2.0, lam=1.0)
    assert _printed_dev(dw.energy_closed_form(cfg), cfg) < 1e-6


def test_comparison_report_fields():
    cfg = PotentialConfig(alpha=1.5, lam=0.8)
    state = dw.energy_closed_form(cfg)
    assert state.energy < 0 and state.kappa > 0
    assert _x0_rel_err(cfg, state) <= 1e-8
    assert _shape_dev(state, cfg) <= 1e-6
    assert _printed_dev(state, cfg) > 0.5     # the printed reduction's defect


def test_x0_identity_all_report_points():
    # |E|^{(alpha+1-lam)/alpha}-weighted value at x=0 reduces to a pure
    # gamma expression; holds on the whole report grid
    for alpha in (1.5, 1.8):
        for lam in (0.5, 0.8):
            cfg = PotentialConfig(alpha=alpha, lam=lam)
            assert _x0_rel_err(cfg, dw.energy_closed_form(cfg)) <= 1e-8, (alpha, lam)
