import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.integrate as si
from hypothesis import given, settings, strategies as st

from fracwell import hfox as hf
from fracwell.gammafn import LANCZOS_REL_ACC, gammaln_sign
from fracwell.hfox import HFoxParams
from fracwell.quadrature import QuadFailure, QuadSpec

# the two workhorse instances: H[z] = e^{-z} and H[z] = 1/(1+z)
EXP = HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0),))
RAT = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),))
# one factor in each of the four gamma groups: lower numerators (0.1, 1)
# and (0.4, 0.6), upper numerator (0.3, 0.7), lower denominator
# (0.2, 0.9), upper denominator (0.2, 1.1)
MIXED = HFoxParams(m=2, n=1, upper=((0.3, 0.7), (0.2, 1.1)),
                   lower=((0.1, 1.0), (0.4, 0.6), (0.2, 0.9)))
# H[z] = 2 exp(-z^2)
G2 = HFoxParams(m=1, n=0, upper=(), lower=((0.0, 0.5),))


# --------------------------------------------------------------- validate

def test_validate_accepts_canonical():
    rep = hf.validate(EXP)
    assert rep.ok and rep.violations == ()


def test_validate_rejects_zero_orders():
    rep = hf.validate(HFoxParams(m=0, n=0, upper=(), lower=((0.0, 1.0),)))
    assert not rep.ok
    assert any("m" in v and "n" in v for v in rep.violations)


def test_validate_rejects_negative_scale():
    rep = hf.validate(HFoxParams(m=1, n=0, upper=(), lower=((0.0, -1.0),)))
    assert not rep.ok


def test_validate_rejects_order_overflow():
    # m > q and n > p are structural nonsense
    rep = hf.validate(HFoxParams(m=2, n=0, upper=(), lower=((0.0, 1.0),)))
    assert not rep.ok


@pytest.mark.parametrize("params", [
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, math.inf),)),
    HFoxParams(m=1, n=0, upper=(), lower=((math.nan, 1.0),)),
    HFoxParams(m=1, n=1, upper=((-math.inf, 1.0),), lower=((0.0, 1.0),)),
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0),), arg_scale=math.inf),
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0),), arg_scale=math.nan),
])
def test_validate_rejects_non_finite(params):
    assert not hf.validate(params).ok
    with pytest.raises(ValueError, match="invalid H-function parameters"):
        hf.eval_auto(params, 1.0)


@pytest.mark.parametrize("z", [math.inf, math.nan, 0.0, -1.0])
def test_evaluate_rejects_non_finite_arguments(z):
    for params in (EXP, RAT):
        with pytest.raises(ValueError, match="finite and positive"):
            hf._evaluate(params, np.array([0.5, z]), QuadSpec())
        with pytest.raises(ValueError, match="finite and positive"):
            hf.eval_contour(params, z)


# ----------------------------------------------------------------- series

def _series_value(params, z):
    # (value, err_est) of the dispatcher at one argument, which the
    # residue series must have answered
    vals, errs, from_series = hf._evaluate(params, np.array([z]), QuadSpec())
    assert from_series[0]
    return vals[0], errs[0]


def _unsettled_contour(params, w, quad):
    return np.full(len(w), np.nan), np.full(len(w), np.inf)


def _assert_series_refused(params, z):
    # the series leaves nan with err_est inf: with no contour to take
    # there is no value to keep, and eval_auto returns the contour's value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hf, "_contour", _unsettled_contour)
        with pytest.raises(QuadFailure):
            hf.eval_auto(params, z)
    out = hf.eval_auto(params, z)
    assert out.method == "contour"
    assert out.value == hf.eval_contour(params, z).value


@pytest.mark.parametrize("z", [0.1, 1.0, 5.0])
def test_series_exponential(z):
    # alternating sum loses ~2 digits to cancellation by z=5
    value, _ = _series_value(EXP, z)
    assert_allclose(value, math.exp(-z), rtol=1e-11)


def test_series_exponential_tiny_argument():
    value, _ = _series_value(EXP, 1e-12)
    assert_allclose(value, 1.0, rtol=1e-11)


@pytest.mark.parametrize("z", [0.3, 0.79])
def test_series_rational_inside_radius(z):
    value, _ = _series_value(RAT, z)
    assert_allclose(value, 1.0 / (1.0 + z), rtol=1e-12)


@pytest.mark.parametrize("z", [1.26, 3.0])
def test_series_rational_outside_radius_inverted(z):
    # |z| > 1 goes through the right-pole expansion in 1/z
    value, _ = _series_value(RAT, z)
    assert_allclose(value, 1.0 / (1.0 + z), rtol=1e-12)


def test_series_exponential_far_argument_diverges():
    # exp(-800): the alternating terms overflow before they decay
    _assert_series_refused(EXP, 800.0)


def test_series_rational_on_radius_rejected():
    # z = 1 is in the borderline annulus, where neither series is taken
    _assert_series_refused(RAT, 1.0)


def test_series_shifted_rational():
    # H^{1,1}_{1,1}[z | (a,1); (a,1)] = z^a / (1+z)
    Q = HFoxParams(m=1, n=1, upper=((0.25, 1.0),), lower=((0.25, 1.0),))
    value, _ = _series_value(Q, 0.2)
    assert_allclose(value, 0.2 ** 0.25 / 1.2, rtol=1e-12)


def test_series_sqrt_exponential_form():
    # H^{1,0}_{0,1}[w | (1,2)] = (1/2) sqrt(w) e^{-sqrt(w)}
    P = HFoxParams(m=1, n=0, upper=(), lower=((1.0, 2.0),))
    for w in (0.3, 0.7, 2.0):
        value, _ = _series_value(P, w)
        assert_allclose(value, 0.5 * math.sqrt(w) * math.exp(-math.sqrt(w)),
                        rtol=1e-11)


# ---------------------------------------------------------------- contour

def test_contour_exponential():
    out = hf.eval_contour(EXP, 1.0)
    assert_allclose(out.value, math.exp(-1.0), rtol=1e-9)


def test_contour_rational():
    out = hf.eval_contour(RAT, 1.0)
    assert_allclose(out.value, 0.5, rtol=1e-9)


def test_contour_shifted_rational():
    Q = HFoxParams(m=1, n=1, upper=((0.25, 1.0),), lower=((0.25, 1.0),))
    out = hf.eval_contour(Q, 0.2)
    assert_allclose(out.value, 0.2 ** 0.25 / 1.2, rtol=1e-9)


def test_contour_agrees_with_series():
    for z in (0.2, 0.7, 2.0, 6.0):
        value, err = _series_value(EXP, z)
        b = hf.eval_contour(EXP, z)
        assert abs(value - b.value) <= max(err + b.err_est, 1e-10)


def test_contour_stops_refining_at_its_rounding(monkeypatch):
    # z^a/(1+z), a = -2/15, at the tiny arguments of the cosine-transform
    # check: the line's rounding term exceeds the tolerance, so no finer h
    # settles these; the contour gives up after a few levels, not ten
    P = HFoxParams(m=1, n=1, upper=((-2 / 15, 1.0),), lower=((-2 / 15, 1.0),))
    w = np.array([2.44873879e-38, 4.55057433e-35, 4.23999621e-32, 2.11520413e-29,
                  5.99549083e-27, 1.01888504e-24, 1.08986792e-22, 7.66796977e-21])
    nodes = []
    log_h = hf._log_h

    def counting(params, s):
        nodes.append(np.size(s))
        return log_h(params, s)

    monkeypatch.setattr(hf, "_log_h", counting)
    _, errs = hf._contour(P, w, QuadSpec())
    assert sum(nodes) < 1e5
    assert np.all(errs == math.inf)


def _saddle_reference(params, w, left_max):
    # the ladder one rung at a time: skip a rung where h vanishes, keep
    # the first of equal amplitudes
    best_c, best_f = left_max + 0.5, math.inf
    for step in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0):
        c = left_max + step
        logabs, sign = hf._log_h_real(params, c)
        f = float(logabs) - c * math.log(w)
        if sign != 0.0 and f < best_f:
            best_c, best_f = c, f
    return best_c


@pytest.mark.parametrize("params", [
    EXP,
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 0.5),)),
    HFoxParams(m=1, n=0, upper=(), lower=((1.0, 2.0),)),
    # Gamma(s)/Gamma(1-s): every rung but c = 0.5 is a denominator pole
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0), (0.0, 1.0))),
    # Gamma(s)/Gamma(1-2s): every rung is a denominator pole
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0), (0.0, 2.0))),
    HFoxParams(m=1, n=0, upper=((0.5, 1.0),), lower=((0.3, 0.7),)),
])
def test_saddle_ladder_matches_scalar_reference(params):
    # the whole grid in one (w x rung) argmin, out of order
    left_max = hf._strip(params)[0]
    w = np.concatenate([[1e-3, 0.3, 1.0, 7.0, 45.0, 1e3],
                        np.geomspace(1e-3, 1e3, 34)[::-1]])
    got = hf._contour_position(params, w)
    assert got.shape == w.shape
    assert list(got) == [_saddle_reference(params, x, left_max) for x in w]


def test_auto_dispatch():
    out = hf.eval_auto(RAT, 1.0)        # series refuses z=1, contour takes over
    assert out.method == "contour"
    assert_allclose(out.value, 0.5, rtol=1e-9)
    out = hf.eval_auto(EXP, 0.5)
    assert out.method == "series"


# block, exact value and largest z of the eval_auto accuracy property
EXACT = {
    "exp": (EXP, lambda z: math.exp(-z), 300.0),
    "2exp(-z^2)": (G2, lambda z: 2.0 * math.exp(-z * z), 6.0),
    "1/(1+z)": (RAT, lambda z: 1.0 / (1.0 + z), 1e3),
    "z^0.25/(1+z)": (HFoxParams(m=1, n=1, upper=((0.25, 1.0),),
                                lower=((0.25, 1.0),)),
                     lambda z: z ** 0.25 / (1.0 + z), 1e3),
}


@pytest.mark.parametrize("name", list(EXACT))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_auto_relative_accuracy(name, data):
    # z in [1e-3, z_max]: a series value that lost its leading digits to
    # cancellation must go to the contour instead.  The bound is 10x the
    # acceptance rule's 1e-8
    params, exact, z_max = EXACT[name]
    z = data.draw(st.floats(1e-3, z_max), label="z")
    want = exact(z)
    assert abs(hf.eval_auto(params, z).value - want) <= 1e-7 * abs(want)


def test_auto_does_not_certify_far_tail_as_zero():
    # one value per argument: the integrand grid returns the far-tail
    # exp(-45) = 2.86e-20 that eval_auto returns, not a certified zero
    out = hf.eval_auto(EXP, 45.0)
    assert_allclose(out.value, math.exp(-45.0), rtol=1e-7)
    grid = hf._evaluate(EXP, np.array([0.5, 45.0]), QuadSpec())[0]
    assert_allclose(grid[0], math.exp(-0.5), rtol=1e-12)
    assert_allclose(grid[1], math.exp(-45.0), rtol=1e-7)


def test_dispatcher_keeps_series_value_without_contour(monkeypatch):
    def no_contour(*args, **kwargs):
        raise QuadFailure("no contour")

    for fake in (no_contour, _unsettled_contour):
        monkeypatch.setattr(hf, "_contour", fake)
        # the series value of exp(-12) fails the acceptance rule; with no
        # contour to take, it is still returned, as a series value
        out = hf.eval_auto(EXP, 12.0)
        assert out.method == "series"
        assert_allclose(out.value, math.exp(-12.0), rtol=1e-2)
        vals = hf._evaluate(EXP, np.array([[0.5], [12.0]]), QuadSpec())[0]
        assert vals.shape == (2, 1) and vals[1, 0] == out.value
        # in the annulus of 1/(1+z) there is no series value to keep
        with pytest.raises(QuadFailure):
            hf.eval_auto(RAT, 1.0)


@pytest.mark.parametrize("params, z, exact", [
    (EXP, 100.0, math.exp(-100.0)),
    (EXP, 200.0, math.exp(-200.0)),
    (EXP, 300.0, math.exp(-300.0)),
    (G2, 10.0, 2.0 * math.exp(-100.0)),
])
def test_far_tail_relative_accuracy(params, z, exact):
    # the saddle-placed line sums in units of its t = 0 amplitude, so an
    # exponentially small value keeps its relative accuracy, alone and
    # inside a grid that shares lines with other arguments
    assert_allclose(hf.eval_auto(params, z).value, exact, rtol=1e-10)
    grid = hf._evaluate(params, np.array([z, 0.5, 12.0, z, 3.0]), QuadSpec())[0]
    assert_allclose(grid[[0, 3]], exact, rtol=1e-10)


@pytest.mark.parametrize("params, z, exact", [
    (EXP, 700.0, math.exp(-700.0)),
    (G2, 20.0, 2.0 * math.exp(-400.0)),
])
def test_far_tail_err_est_covers_error(params, z, exact):
    # relative accuracy runs out here; the exponent-aware roundoff term
    # must still cover the error, and the value keeps its sign
    out = hf.eval_auto(params, z)
    assert out.value > 0.0
    assert out.err_est >= abs(out.value - exact)


@pytest.mark.parametrize("params", [
    EXP, RAT, MIXED,
    HFoxParams(m=1, n=1, upper=((0.25, 1.0),), lower=((0.25, 1.0),)),
])
def test_contour_grid_matches_single_arguments(params):
    # grouping by line and sizing the nodes by the whole grid must not
    # move any value by more than 1e-13 relative, or where a call reports
    # less accuracy than that (the cancelling far tails), by more than its
    # err_est
    w = np.concatenate([[3.0, 1e6, 1e-3, 0.5, 45.0, 3.0, 1e-3, 700.0, 200.0],
                        np.geomspace(1e-3, 1e6, 19)[::-1]])
    vals, errs = hf._contour(params, w, QuadSpec())
    assert np.all(np.isfinite(errs))
    single = np.array([hf._contour(params, np.array([x]), QuadSpec()) for x in w])
    bound = np.maximum(1e-13 * np.abs(single[:, 0, 0]),
                       np.minimum(errs, single[:, 1, 0]))
    assert np.all(np.abs(vals - single[:, 0, 0]) <= bound)


def _series_reference(params, w):
    # the residue series at one argument w, one term at a time: the loop
    # each element of a blocked _series_core call must reproduce bit for bit
    m = params.m
    if m == 0:
        return math.nan, math.inf
    c, d, e = hf._factors(params)
    ks = np.arange(hf._MAX_TERMS)
    power = (c[:m, None] + ks) / d[:m, None]
    log_fact = np.array([math.lgamma(k + 1) for k in range(hf._MAX_TERMS)])
    logabs = np.array([-log_fact - math.log(B) for B in d[:m]])
    sign = np.tile((-1.0) ** ks, (m, 1))
    clash = hf._MAX_TERMS
    with np.errstate(invalid="ignore"):
        for j in range(m):
            rest = np.arange(len(c)) != j
            la, sg = gammaln_sign(c[rest, None] + d[rest, None] * -power[j])
            for la_i, sg_i, e_i in zip(la, sg, e[rest]):
                logabs[j] = logabs[j] + la_i if e_i > 0 else logabs[j] - la_i
                sign[j] *= sg_i
                if e_i > 0 and not np.all(sg_i):
                    clash = min(clash, int(np.argmin(sg_i != 0.0)))
    logw = np.log(np.array([w]))
    acc = np.zeros(1)
    max_mag, small, norms = 0.0, 0, []
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(clash):
            term = np.zeros(1)
            for j in range(m):
                if sign[j, k] != 0.0:
                    term = term + sign[j, k] * np.exp(logabs[j, k] + power[j, k] * logw)
            acc = acc + term
            if not np.isfinite(acc[0]):
                break
            norm = abs(float(term[0]))
            max_mag = max(max_mag, norm)
            norms.append(norm)
            small = small + 1 if norm < hf._SERIES_TOL * max(1.0, abs(float(acc[0]))) else 0
            if small >= 3 and len(norms) >= 5:
                recent = [x for x in norms[-5:] if x > 0.0]
                ratios = [recent[i + 1] / recent[i] for i in range(len(recent) - 1)]
                if max(ratios, default=0.0) < 0.9:
                    return float(acc[0]), norm * (0.9 / 0.1) + LANCZOS_REL_ACC * max_mag
    return math.nan, math.inf


@pytest.mark.parametrize("params", [
    EXP, RAT, G2, MIXED,   # MIXED is H^{2,1}_{2,3} of the series-error defect
    HFoxParams(m=1, n=0, upper=((0.5, 1.0),), lower=((0.3, 0.7),)),
])
@pytest.mark.parametrize("swapped", [True, False])
def test_series_blocks_match_term_loop(params, swapped):
    # grids that converge, that overflow in part or in full, and that
    # exhaust the term budget; swapped takes the block the inverted band
    # sums, which for the blocks without right poles has no left family.
    # Each element of a grid call equals its one-element call, and that
    # equals the term loop
    if swapped:
        params = hf._swap(params)
    w = np.geomspace(1e-3, 1e8, 97)
    single = np.array([hf._series_core(params, w[i:i + 1]) for i in range(w.size)])[..., 0]
    at = np.arange(w.size)
    for grid in (at, at[w < 5.0], at[w > 100.0], at[:1], at[::-7]):
        got = np.array(hf._series_core(params, w[grid]))
        assert np.array_equal(got, single[grid].T, equal_nan=True)
        assert np.array_equal(np.signbit(got[0]), np.signbit(single[grid, 0]))
    for i in (0, *at[::-7]):
        want = _series_reference(params, w[i])
        assert np.array_equal(single[i], want, equal_nan=True)
        assert np.signbit(single[i, 0]) == np.signbit(want[0])


def _profile(alpha, lam):
    from fracwell.deltawell import PotentialConfig, _profile_block
    return _profile_block(PotentialConfig(alpha=alpha, lam=lam))


@pytest.mark.parametrize("params, z", [
    (EXP, [0.3, 800.0, 5.0, 1e-3, 40.0, 12.0, 900.0, 2.0]),
    (RAT, [0.3, 1.0, 0.79, 3.0, 1e3, 1.1, 1e-4]),
    (G2, [0.1, 40.0, 3.1341, 6.0, 20.0, 1.0]),
    (MIXED, [0.3, 30.0, 1.0, 4.0, 7.0, 2.0]),
    (_profile(1.5, 0.8), np.geomspace(1e-3, 15.0, 23)),
    # the shared left pole s = -18 is reached beyond about y/2 = 0.45
    (_profile(1.9, 1.0), np.geomspace(1e-3, 15.0, 23)[::-1]),
])
def test_evaluate_grid_matches_single_arguments(params, z):
    # one H value per argument: whether the series answers, and with
    # which bits, does not depend on the rest of the grid
    z = np.asarray(z)
    vals, errs, series = hf._evaluate(params, z, QuadSpec())
    single = np.array([hf._evaluate(params, z[i:i + 1], QuadSpec())
                       for i in range(z.size)])[..., 0]
    assert np.array_equal(series, single[:, 2].astype(bool))
    assert np.array_equal(vals[series], single[series, 0])
    assert np.array_equal(errs[series], single[series, 1])
    assert series.any() and not series.all()


@pytest.mark.parametrize("name", ["exp", "1/(1+z)", "2exp(-z^2)"])
def test_series_err_est_covers_exact_error(name):
    params, exact, _ = EXACT[name]
    z = np.geomspace(1e-4, 60.0, 400)
    vals, errs, series = hf._evaluate(params, z, QuadSpec())
    want = np.array([exact(x) for x in z[series]])
    assert np.all(np.abs(vals[series] - want) <= errs[series])


@pytest.mark.parametrize("alpha, lam", [(1.5, 0.8), (1.2, 0.3), (2.0, 1.0),
                                        (1.05, 1.0)])
def test_series_err_est_covers_contour_profile_block(alpha, lam):
    # no exact values here: each series value lies within its err_est plus
    # the err_est of the one-argument contour
    params = _profile(alpha, lam)
    z = np.geomspace(1e-3, 50.0, 200)
    vals, errs, series = hf._evaluate(params, z, QuadSpec())
    for v, e, x in zip(vals[series], errs[series], z[series]):
        b = hf.eval_contour(params, x)
        assert abs(v - b.value) <= e + b.err_est, x


@pytest.mark.parametrize("name", ["check_hfox_cosine_transform",
                                  "check_hfox_mellin_exp",
                                  "check_hfox_mellin_rational",
                                  "check_wavefunction_classical"])
def test_hfox_checks_stay_small_in_memory(name):
    # the contour, series and Ooura-Mori products are formed in blocks, so
    # no grid turns into one large (argument x node) or (term x argument)
    # matrix, however many panels' nodes an integrand call carries
    import tracemalloc
    from fracwell import checks
    tracemalloc.start()
    try:
        assert getattr(checks, name)().passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ------------------------------------------------------- convergence data

def test_convergence_profile_values():
    # series radius, and the contour decay exponent delta = sum(e |d|)
    assert hf._radius(EXP) == math.inf and hf._radius(RAT) == 1.0
    for params, delta in ((EXP, 1.0), (RAT, 2.0)):
        _, d, e = hf._factors(params)
        assert np.sum(e * np.abs(d)) == delta


# ----------------------------------------------------------------- mellin

def test_mellin_gamma_products():
    assert_allclose(hf.mellin(EXP, 2.0), 1.0, rtol=1e-13)
    assert_allclose(hf.mellin(RAT, 0.5), math.pi, rtol=1e-13)
    # arg_scale a contributes a^{-s}
    RAT2 = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),),
                      arg_scale=2.0)
    assert_allclose(hf.mellin(RAT2, 0.5), math.pi / math.sqrt(2.0), rtol=1e-13)
    s, G = 0.2, math.gamma
    want = (G(0.1 + s) * G(0.4 + 0.6 * s) * G(1.0 - 0.3 - 0.7 * s)
            / (G(1.0 - 0.2 - 0.9 * s) * G(0.2 + 1.1 * s)))
    assert_allclose(hf.mellin(MIXED, s), want, rtol=1e-13)


def test_mellin_outside_strip():
    # int z^{s-1}/(1+z) diverges for s >= 1
    with pytest.raises(hf.OutOfStrip):
        hf.mellin(RAT, 1.5)


@pytest.mark.parametrize("params, s", [
    (EXP, 2.0),
    (RAT, 0.5),
])
def test_mellin_numeric_check_anchors(params, s):
    chk = hf.mellin_numeric_check(params, s)
    assert chk.rel_err <= 1e-6


def test_mellin_numeric_check_strip_scan():
    for s in (0.5, 1.0, 3.5):
        assert hf.mellin_numeric_check(EXP, s).rel_err <= 1e-6
    for s in (0.1, 0.5, 0.9):
        assert hf.mellin_numeric_check(RAT, s).rel_err <= 1e-6


def test_mellin_against_direct_quadrature():
    # independent cross-check, not through the package quadrature
    want, _ = si.quad(lambda z: z ** 0.5 * math.exp(-z), 0.0, 60.0)
    assert_allclose(hf.mellin(EXP, 1.5), want, rtol=1e-9)


# ---------------------------------------------------------------- rescale

def test_rescale_identity_mu_one():
    new, mult = hf.rescale_power(EXP, 1.0)
    assert new == EXP and mult == 1.0


def test_rescale_round_trip():
    r1, m1 = hf.rescale_power(EXP, 2.0)
    r2, m2 = hf.rescale_power(r1, 0.5)
    assert r2 == EXP
    assert_allclose(m1 * m2, 1.0, rtol=1e-14)


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_rescale_numeric_identity(mu):
    # H[a z^mu | P] = mult * H[a' z | P']
    new, mult = hf.rescale_power(EXP, mu)
    for z in (0.5, 1.3):
        lhs, _ = _series_value(EXP, z ** mu)
        rhs = mult * _series_value(new, z)[0]
        assert_allclose(lhs, rhs, rtol=1e-11)


# ----------------------------------------------------------- cancellation

def _classical_shifted():
    """Momentum-kernel transform chain at alpha=2, lam=1, |E|=1/4,
    taken to the point where gamma pairs coincide."""
    spec_in = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),),
                         arg_scale=4.0)
    ct = hf.cosine_transform(spec_in, k=1.0, s=1.0, mu=2.0)
    resc, _ = hf.rescale_power(ct.params, 2.0)
    return hf._shift(resc, -1.0)


def test_cancel_pairs_reduces_orders():
    shifted = _classical_shifted()
    assert (shifted.m, shifted.n, shifted.p, shifted.q) == (2, 1, 2, 3)
    p1 = hf.cancel_pairs(shifted)
    assert (p1.m, p1.n, p1.p, p1.q) == (2, 0, 1, 2)
    p2 = hf.cancel_pairs(p1)
    assert p2 == EXP


def test_cancel_pairs_numeric_consistency():
    # value must be unchanged by cancellation; contour on both sides
    shifted = _classical_shifted()
    full = hf.eval_contour(shifted, 0.7)
    red, _ = _series_value(hf.reduce_fully(shifted), 0.7)
    assert abs(full.value - red) <= 1e-8
    assert_allclose(red, math.exp(-0.7), rtol=1e-12)


def test_cancel_pairs_nothing_to_cancel():
    with pytest.raises(hf.NoMatchingPair):
        hf.cancel_pairs(EXP)


def test_reduce_fully_idempotent():
    assert hf.reduce_fully(EXP) == EXP
    assert hf.reduce_fully(_classical_shifted()) == EXP


# ------------------------------------------------------- cosine transform

def test_cosine_transform_layout():
    spec_in = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),),
                         arg_scale=4.0)
    ct = hf.cosine_transform(spec_in, k=1.0, s=1.0, mu=2.0)
    assert (ct.params.m, ct.params.n) == (2, 1)
    assert (ct.params.p, ct.params.q) == (3, 4) or (ct.params.p, ct.params.q) == (2, 3)
    assert_allclose(ct.multiplier, math.pi, rtol=1e-14)
    assert_allclose(ct.argument, 0.25, rtol=1e-14)
    assert not ct.verified    # stays False until a numeric check passes


def test_cosine_transform_classical_check():
    # closed form of the left side: (pi/4) e^{-k/2} at k=1
    spec_in = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),),
                         arg_scale=4.0)
    chk = hf.cosine_transform_check(spec_in, k=1.0, s=1.0, mu=2.0)
    assert chk.passed and chk.rel_err <= 1e-6
    assert chk.transform.verified
    assert_allclose(chk.lhs, math.pi / 4.0 * math.exp(-0.5), rtol=1e-6)


def test_cosine_transform_fractional_check():
    # no closed form here: the check compares against direct
    # oscillatory quadrature of the left side
    alpha, lam = 1.5, 0.8
    spec_in = HFoxParams(m=1, n=1, upper=(((lam - 1) / alpha, 1.0),),
                         lower=(((lam - 1) / alpha, 1.0),), arg_scale=2.0)
    chk = hf.cosine_transform_check(spec_in, k=0.7, s=1.0, mu=alpha)
    assert chk.passed and chk.rel_err <= 1e-6


def test_cosine_transform_rejects_bad_frequency():
    with pytest.raises(ValueError):
        hf.cosine_transform(EXP, k=0.0, s=1.0, mu=1.0)
    with pytest.raises(ValueError):
        hf.cosine_transform(EXP, k=-1.0, s=1.0, mu=1.0)


def test_cosine_transform_strip_violation():
    bad = HFoxParams(m=1, n=1, upper=((0.3, 1.0),), lower=((-0.5, 1.0),))
    with pytest.raises(hf.StripViolation):
        hf.cosine_transform(bad, k=1.0, s=0.3, mu=1.0)
    # integrable at 0 (s + mu*min(b/B) = 1.5) but s + mu*max((a-1)/A) = 1.4
    bad = HFoxParams(m=1, n=1, upper=((0.9, 1.0),), lower=((0.0, 1.0),))
    with pytest.raises(hf.StripViolation, match="does not decay"):
        hf.cosine_transform(bad, k=1.0, s=1.5, mu=1.0)


# ------------------------------------------------------ shared factor table

@pytest.mark.parametrize("z", [0.3, 1.0, 2.0])
def test_series_agrees_with_contour_mixed_block(z):
    value, err = _series_value(MIXED, z)
    b = hf.eval_contour(MIXED, z)
    assert abs(value - b.value) <= err + b.err_est


def test_series_err_est_covers_error_mixed_block():
    # the series value is 9.4e-12 off the contour's -0.030437863026580
    # +- 2.1e-15; its err_est counts the gamma kernel's relative accuracy
    # in every term, not only the rounding of the sum
    out = hf.eval_auto(MIXED, 4.0)
    assert out.err_est >= abs(out.value - hf.eval_contour(MIXED, 4.0).value)


def test_series_sums_short_of_a_shared_left_pole():
    # the wavefunction block at (alpha, lam) = (1.9, 1): Gamma(s/2) and
    # Gamma(9/19 + 10 s/19) share the pole s = -18, the tenth term of
    # each; the series answers where its sum stops short of that term
    # and leaves nan with err_est inf where the sum reaches it
    from fracwell.deltawell import PotentialConfig, _profile_block
    P = _profile_block(PotentialConfig(alpha=1.9, lam=1.0))
    for z in (0.005, 0.05, 0.2):
        value, err = _series_value(P, z)
        b = hf.eval_contour(P, z)
        assert abs(value - b.value) <= err + b.err_est
    _assert_series_refused(P, 1.0)


def test_series_rejects_shared_left_poles():
    # the classical chain's transform block has Gamma(1 + 2s) and
    # Gamma(1 + s) among its numerators: both have poles at s = -1, -2, ...
    from fracwell.checks import _classical_chain
    _, ct = _classical_chain()
    _assert_series_refused(ct.params, 0.5)
