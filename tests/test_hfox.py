import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.integrate as si
from hypothesis import given, settings, strategies as st

from fracwell import hfox as hf
from fracwell.gammafn import LANCZOS_REL_ACC, gammaln_sign
from fracwell.hfox import HFoxParams
from fracwell.quadrature import NumericalFailure, QuadFailure, QuadSpec

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
# two strips that reach left of 0: z e^-z, transform Gamma(1+s) on
# (-1, inf), and transform Gamma(1/2+s) Gamma(1/2-s) = pi/cos(pi s) on
# (-1/2, 1/2)
ZEXP = HFoxParams(m=1, n=0, upper=(), lower=((1.0, 1.0),))
HALF_RAT = HFoxParams(m=1, n=1, upper=((0.5, 1.0),), lower=((0.5, 1.0),))


# ----------------------------------------------- validation at construction
# an invalid block cannot be made, so these tests pass constructor kwargs

def _rejected(**kwargs):
    """The violation messages of HFoxParams(**kwargs), which must raise."""
    with pytest.raises(ValueError, match="^invalid H-function parameters: ") as info:
        HFoxParams(**kwargs)
    return str(info.value).split(": ", 1)[1].split("; ")


def test_validate_accepts_canonical():
    for params in (EXP, RAT, MIXED, G2):
        assert HFoxParams(params.m, params.n, params.upper, params.lower,
                          params.arg_scale) == params


def test_validate_rejects_zero_orders():
    assert _rejected(m=0, n=0, upper=(), lower=((0.0, 1.0),)) == [
        "m^2 + n^2 != 0 violated (no numerator gammas at all)"]


def test_validate_rejects_negative_scale():
    assert _rejected(m=1, n=0, upper=(), lower=((0.0, -1.0),)) == [
        "B_j > 0 violated at lower[0]: got -1.0"]
    assert _rejected(m=1, n=1, upper=((0.0, 0.0),), lower=((0.0, 1.0),)) == [
        "A_j > 0 violated at upper[0]: got 0.0"]


def test_validate_rejects_order_overflow():
    # m > q and n > p are structural nonsense
    assert _rejected(m=2, n=0, upper=(), lower=((0.0, 1.0),)) == [
        "need 0 <= m <= q, got m=2, q=1"]
    assert _rejected(m=1, n=1, upper=(), lower=((0.0, 1.0),)) == [
        "need 0 <= n <= p, got n=1, p=0"]


@pytest.mark.parametrize("params", [
    (dict(m=1, n=0, upper=(), lower=((0.0, math.inf),)),
     "lower[0] must be finite, got (0.0, inf)"),
    (dict(m=1, n=0, upper=(), lower=((math.nan, 1.0),)),
     "lower[0] must be finite, got (nan, 1.0)"),
    (dict(m=1, n=1, upper=((-math.inf, 1.0),), lower=((0.0, 1.0),)),
     "upper[0] must be finite, got (-inf, 1.0)"),
    (dict(m=1, n=0, upper=(), lower=((0.0, 1.0),), arg_scale=math.inf),
     "arg_scale must be finite and positive, got inf"),
    (dict(m=1, n=0, upper=(), lower=((0.0, 1.0),), arg_scale=math.nan),
     "arg_scale must be finite and positive, got nan"),
])
def test_validate_rejects_non_finite(params):
    kwargs, message = params
    assert _rejected(**kwargs) == [message]


def test_validate_rejects_pole_coincidence():
    # Gamma(1 + s) has poles at s = -1, -2, ...; Gamma(1 - 3 - s) at
    # s = -2, -1, 0, ...: two shared poles, named by the first
    assert _rejected(m=1, n=1, upper=((3.0, 1.0),), lower=((1.0, 1.0),)) == [
        "left pole -1.0 coincides with right pole -1.0 "
        "(first of 2 in lower[0] x upper[0])"]
    # one message per family pair, each pair in the order of its first hit
    assert _rejected(m=2, n=2, upper=((3.0, 1.0), (2.0, 1.0)),
                     lower=((1.0, 1.0), (0.5, 1.0))) == [
        "left pole -1.0 coincides with right pole -1.0 "
        "(first of 2 in lower[0] x upper[0])",
        "left pole -1.0 coincides with right pole -1.0 "
        "(first of 1 in lower[0] x upper[1])"]


def test_validate_coincidence_scan_is_fast_and_short():
    # 5000 left poles right of the first right pole: the scan tests at
    # most _POLE_CAP of them in one kernel call
    t0 = time.perf_counter()
    HFoxParams(m=1, n=1, upper=((0.5, 1.0),), lower=((-5000.0, 1.0),))
    assert time.perf_counter() - t0 < 0.5
    # thousands of coincidences make one message, not one each
    bad = _rejected(m=1, n=1, upper=((0.0, 1.0),), lower=((-5000.0, 1.0),))
    assert bad == ["left pole 5000.0 coincides with right pole 5000.0 "
                   f"(first of {hf._POLE_CAP} in lower[0] x upper[0])"]
    assert len("; ".join(bad)) < 1000


def test_replace_checks_the_new_block():
    with pytest.raises(ValueError, match="A_j > 0 violated"):
        replace(RAT, upper=((0.0, -1.0),))
    with pytest.raises(ValueError, match="left pole -1.0 coincides"):
        replace(RAT, upper=((3.0, 1.0),), lower=((1.0, 1.0),))


def test_block_builds_its_tables_once(monkeypatch):
    # factor table, strip and swapped block come with the block; the
    # swapped block's own swap is the block at arg_scale 1, and no
    # evaluation, contour or Mellin check of a block at arg_scale 1 builds
    # a table again
    P = replace(HALF_RAT, arg_scale=3.0)
    assert P._swap is P._swap and P._swap._swap == replace(P, arg_scale=1.0)
    assert P._swap._swap._swap is P._swap
    P = replace(MIXED, arg_scale=3.0)
    assert EXP._swap.m == 0 and EXP._swap.n == 1
    built = []
    monkeypatch.setattr(hf, "_build_tables", lambda params: built.append(params))
    hf.eval_auto(P, np.geomspace(1e-2, 1e2, 9), QuadSpec())
    hf._contour(P, np.array([0.5, 2.0]), QuadSpec())
    hf._contour(EXP._swap, np.array([0.5, 2.0]), QuadSpec())
    hf.mellin_numeric_check(RAT, [0.5])
    assert built == []
    c, d, e = P._factors
    with pytest.raises(ValueError, match="read-only"):
        c[0] = 1.0


@pytest.mark.parametrize("z", [math.inf, math.nan, 0.0, -1.0])
def test_evaluate_rejects_non_finite_arguments(z):
    for params in (EXP, RAT):
        with pytest.raises(ValueError, match="finite and positive"):
            hf.eval_auto(params, np.array([0.5, z]), QuadSpec())
        with pytest.raises(ValueError, match="finite and positive"):
            hf.eval_contour(params, z)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_array_routines_keep_the_argument_shape(shape):
    # each element equals the call on the flattened arguments, bit for bit
    z = np.linspace(0.4, 3.0, max(1, math.prod(shape))).reshape(shape)
    s = np.linspace(0.1, 0.9, z.size).reshape(shape)
    for got, flat in ((hf.eval_contour(MIXED, z), hf.eval_contour(MIXED, z.ravel())),
                      (hf.eval_auto(MIXED, z), hf.eval_auto(MIXED, z.ravel())),
                      ((hf.mellin(MIXED, s),), (hf.mellin(MIXED, s.ravel()),))):
        for g, f in zip(got, flat):
            assert g.shape == shape
            assert np.array_equal(g.ravel(), f)


def test_eval_contour_names_the_first_w_that_did_not_settle(monkeypatch):
    def unsettled_past_3(params, w, quad):
        return w, np.where(w > 3.0, np.inf, 0.0)

    monkeypatch.setattr(hf, "_contour", unsettled_past_3)
    with pytest.raises(QuadFailure, match=r"^contour did not settle at w = 4$"):
        hf.eval_contour(replace(EXP, arg_scale=2.0), np.array([[0.5, 1.0], [2.0, 3.0]]))
    # eval_auto's fallback: the series answers w = 1 and 2, and refuses
    # the rest
    with pytest.raises(QuadFailure, match=r"^contour did not settle at w = 12$"):
        hf.eval_auto(replace(EXP, arg_scale=2.0), np.array([0.5, 1.0, 6.0, 400.0]))


# ----------------------------------------------------------------- series

def _series_value(params, z):
    # (value, err_est) of the dispatcher at one argument, which the
    # residue series must have answered
    vals, errs, from_series = hf.eval_auto(params, np.array([z]), QuadSpec())
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
    value, _, series = hf.eval_auto(params, z)
    assert not series
    assert value == hf.eval_contour(params, z)[0]


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
    value, _ = hf.eval_contour(EXP, 1.0)
    assert_allclose(value, math.exp(-1.0), rtol=1e-9)


def test_contour_rational():
    value, _ = hf.eval_contour(RAT, 1.0)
    assert_allclose(value, 0.5, rtol=1e-9)


def test_contour_shifted_rational():
    Q = HFoxParams(m=1, n=1, upper=((0.25, 1.0),), lower=((0.25, 1.0),))
    value, _ = hf.eval_contour(Q, 0.2)
    assert_allclose(value, 0.2 ** 0.25 / 1.2, rtol=1e-9)


def test_contour_agrees_with_series():
    for z in (0.2, 0.7, 2.0, 6.0):
        value, err = _series_value(EXP, z)
        b, b_err = hf.eval_contour(EXP, z)
        assert abs(value - b) <= max(err + b_err, 1e-10)


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


def _cosine_blocks():
    from fracwell.checks import _classical_chain
    _, ct = _classical_chain()
    return [ct.params,   # 5 rows, 3 distinct: the chain block of validate
            hf.cosine_transform(EXP, k=1.0, s=1.0, mu=2.0).params,    # 4 rows, 2 distinct
            hf.cosine_transform(EXP, k=1.0, s=0.5, mu=1.0).params]    # 4 rows, 3 distinct


@pytest.mark.parametrize("params", _cosine_blocks())
def test_log_h_takes_each_distinct_row_once(params, monkeypatch):
    # one gamma pass per distinct (c, d) row, gathered back before the sum:
    # bit for bit the sum over every row, cancelling pairs included
    c, d, e = params._factors
    assert len(set(zip(c, d))) < len(c)
    s = np.concatenate([0.7 + 1j * np.linspace(0.0, 40.0, 161), [-0.3 + 2j, 2.5 - 7j]])
    lg = hf.loggamma(c[:, None] + d[:, None] * s)
    want = np.sum(np.where(e[:, None] > 0, lg, -lg), axis=0)
    sizes, loggamma = [], hf.loggamma
    monkeypatch.setattr(hf, "loggamma", lambda z: (sizes.append(np.size(z)), loggamma(z))[1])
    got = hf._log_h(params, s)
    assert np.array_equal(got.view(float), want.view(float))
    assert sizes == [len(set(zip(c, d))) * s.size]


def test_contour_line_past_the_node_bound_raises(monkeypatch):
    # t_max grows as 1/delta: at delta = 1e-8 the first line would hold
    # 4.8e9 nodes, which the bound refuses before they are allocated
    tiny = HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1e-8),))
    arange = np.arange

    def guarded(*args, **kwargs):
        assert all(abs(a) <= 4 * hf._MAX_NODES for a in args if isinstance(a, (int, float)))
        return arange(*args, **kwargs)

    monkeypatch.setattr(hf.np, "arange", guarded)
    with pytest.raises(QuadFailure, match="4.82931e.09 nodes .* past the bound of 1048576"):
        hf.eval_contour(tiny, 2.0)
    monkeypatch.setattr(hf.np, "arange", arange)
    # the bound counts the nodes of a line at every step: e^-z at z = 1
    # takes 95 nodes at step 1/2 and halves the step once
    monkeypatch.setattr(hf, "_MAX_NODES", 94)
    with pytest.raises(QuadFailure, match="94.8212 nodes of step 0.5 "):
        hf.eval_contour(EXP, 1.0)
    monkeypatch.setattr(hf, "_MAX_NODES", 189)
    with pytest.raises(QuadFailure, match="190 nodes of step 0.25 "):
        hf.eval_contour(EXP, 1.0)
    monkeypatch.setattr(hf, "_MAX_NODES", 190)
    assert hf.eval_contour(EXP, 1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def _right_poles(params, reach):
    # the right poles left of reach, one term at a time: pole k of a
    # numerator Gamma(c_j + d_j s) with d_j < 0 sits at s_k = (c_j + k)/|d_j|,
    # and a line right of it gains (-1)^k/(k! |d_j|) h_j(s_k) w^-s_k, h_j
    # the other factors.  Rows (s_k, log|coefficient|, sign, usable): a
    # double pole, or one beyond the residue table, is not usable
    cf, df, ef = params._factors
    poles = []
    for j in np.flatnonzero((ef > 0) & (df < 0)):
        for k in range(hf._MAX_TERMS + 1):
            s = (cf[j] + k) / -df[j]
            if s >= reach:
                break
            logabs, sign = -math.lgamma(k + 1) - math.log(-df[j]), (-1.0) ** k
            usable = k < hf._MAX_TERMS
            for i in range(len(cf)):
                if i != j:
                    la, sg = gammaln_sign(cf[i] + df[i] * s)
                    usable &= not (sg == 0.0 and ef[i] > 0)
                    logabs, sign = logabs + ef[i] * la, sign * sg
            poles.append((s, logabs, sign, usable))
    return poles


RUNGS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


def _saddle_reference(params, w, left_max, poles):
    # the ladder one rung at a time: skip a rung where h vanishes or that
    # passes a double pole, keep the first of equal scores; (c, sum and
    # largest of the passed residues)
    best = (left_max + 0.5, math.inf, 0.0, 0.0)
    for step in RUNGS:
        c = left_max + step
        logabs, sign = hf._log_h_real(params, c)
        passed = [p for p in poles if p[0] < c]
        if sign == 0.0 or not all(p[3] for p in passed):
            continue
        logs = [la - s * math.log(w) for s, la, sg, _ in passed if sg != 0.0]
        f = max([float(logabs) - c * math.log(w)] + logs)
        if f < best[1]:
            terms = [sg * math.exp(la - s * math.log(w))
                     for s, la, sg, _ in passed if sg != 0.0]
            best = (c, f, math.fsum(terms), max(map(abs, terms), default=0.0))
    return best[0], best[2], best[3]


@pytest.mark.parametrize("params", [
    EXP,
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 0.5),)),
    HFoxParams(m=1, n=0, upper=(), lower=((1.0, 2.0),)),
    # Gamma(s)/Gamma(1-s): every rung but c = 0.5 is a denominator pole
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0), (0.0, 1.0))),
    # Gamma(s)/Gamma(1-2s): every rung is a denominator pole
    HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0), (0.0, 2.0))),
    HFoxParams(m=1, n=0, upper=((0.5, 1.0),), lower=((0.3, 0.7),)),
    RAT, MIXED,
    # the classical profile block: every passed residue is zero
    pytest.param((2.0, 1.0), id="profile_2_1"),
    pytest.param((1.2, 0.3), id="profile_1.2_0.3"),
])
def test_saddle_ladder_matches_scalar_reference(params):
    # the whole grid in one (w x rung) argmin, out of order
    if isinstance(params, tuple):
        params = _profile(*params)
    left_max = params._strip[0]
    w = np.concatenate([[1e-3, 0.3, 1.0, 7.0, 45.0, 1e3],
                        np.geomspace(1e-3, 1e3, 34)[::-1]])
    got, passed, top = hf._contour_position(params, w)
    assert got.shape == passed.shape == top.shape == w.shape
    poles = _right_poles(params, left_max + RUNGS[-1])
    want = np.array([_saddle_reference(params, x, left_max, poles) for x in w])
    assert list(got) == list(want[:, 0])
    assert_allclose(top, want[:, 2], rtol=1e-12)
    assert np.all(np.abs(passed - want[:, 1]) <= 1e-13 * want[:, 2])


@pytest.mark.parametrize("params", [
    EXP, G2, RAT, MIXED,
    HFoxParams(m=1, n=1, upper=((0.25, 1.0),), lower=((0.25, 1.0),)),
    # e^(-1/z) / z has no left poles: its contour runs on the swapped block
    HFoxParams(m=0, n=1, upper=((0.0, 1.0),), lower=())._swap,
    pytest.param((2.0, 1.0), id="profile_2_1"),
    pytest.param((1.05, 1.0), id="profile_1.05_1"),
    pytest.param("chain", id="cancellation_chain"),
])
def test_ladder_table_stops_with_the_whole_tables_answer(params, monkeypatch):
    # the golden hfox-eval blocks and the validation suite's cancellation
    # chain: the residue table grows from _LADDER_TERMS poles per family by
    # doubling and stops early, yet rung, passed sum and top equal, bit for
    # bit, those of the whole table, its one size before
    chain = params == "chain"
    if chain:
        from fracwell import checks
        params = checks._classical_chain()[1].params
    elif isinstance(params, tuple):
        params = _profile(*params)
    w = np.concatenate([np.geomspace(1e-8, 1e8, 161), [0.25, 0.7]])
    sizes = []
    residues = hf._residues

    def recorded(block, terms):
        sizes.append(terms)
        return residues(block, terms)

    monkeypatch.setattr(hf, "_residues", recorded)
    if chain:   # one argument of the check read 512 poles; the first 8 do
        hf._contour_position(params, np.array([0.25]))
        assert sizes == [8]
    got = hf._contour_position(params, w)
    monkeypatch.setattr(hf, "_LADDER_TERMS", hf._MAX_TERMS)
    want = hf._contour_position(params, w)
    for g, h in zip(got, want):
        assert np.array_equal(g, h, equal_nan=True)


def test_auto_dispatch():
    value, _, series = hf.eval_auto(RAT, 1.0)   # series refuses z=1, contour takes over
    assert not series
    assert_allclose(value, 0.5, rtol=1e-9)
    assert hf.eval_auto(EXP, 0.5)[2]


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
    assert abs(hf.eval_auto(params, z)[0] - want) <= 1e-7 * abs(want)


def test_auto_does_not_certify_far_tail_as_zero():
    # one value per argument: the integrand grid returns the far-tail
    # exp(-45) = 2.86e-20 that eval_auto returns, not a certified zero
    assert_allclose(hf.eval_auto(EXP, 45.0)[0], math.exp(-45.0), rtol=1e-7)
    grid = hf.eval_auto(EXP, np.array([0.5, 45.0]), QuadSpec())[0]
    assert_allclose(grid[0], math.exp(-0.5), rtol=1e-12)
    assert_allclose(grid[1], math.exp(-45.0), rtol=1e-7)


def test_dispatcher_raises_without_contour(monkeypatch):
    def no_contour(*args, **kwargs):
        raise QuadFailure("no contour")

    for fake in (no_contour, _unsettled_contour):
        monkeypatch.setattr(hf, "_contour", fake)
        # the series value of exp(-12) fails the acceptance rule; with no
        # contour to take, the failure is raised, alone and in a grid
        with pytest.raises(QuadFailure):
            hf.eval_auto(EXP, 12.0)
        with pytest.raises(QuadFailure):
            hf.eval_auto(EXP, np.array([[0.5], [12.0]]), QuadSpec())
        with pytest.raises(QuadFailure):
            hf.eval_auto(RAT, 1.0)
        assert hf.eval_auto(EXP, 0.5)[2]


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
    assert_allclose(hf.eval_auto(params, z)[0], exact, rtol=1e-10)
    grid = hf.eval_auto(params, np.array([z, 0.5, 12.0, z, 3.0]), QuadSpec())[0]
    assert_allclose(grid[[0, 3]], exact, rtol=1e-10)


@pytest.mark.parametrize("params, z, exact", [
    (EXP, 700.0, math.exp(-700.0)),
    (G2, 20.0, 2.0 * math.exp(-400.0)),
])
def test_far_tail_err_est_covers_error(params, z, exact):
    # relative accuracy runs out here; the exponent-aware roundoff term
    # must still cover the error, and the value keeps its sign
    value, err, _ = hf.eval_auto(params, z)
    assert value > 0.0
    assert err >= abs(value - exact)


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
    # each element of a grid _series_core call must reproduce bit for bit
    m = params.m
    if m == 0:
        return math.nan, math.inf
    c, d, e = params._factors
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
        params = params._swap
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
    vals, errs, series = hf.eval_auto(params, z, QuadSpec())
    single = np.array([hf.eval_auto(params, z[i:i + 1], QuadSpec())
                       for i in range(z.size)])[..., 0]
    assert np.array_equal(series, single[:, 2].astype(bool))
    assert np.array_equal(vals[series], single[series, 0])
    assert np.array_equal(errs[series], single[series, 1])
    assert series.any() and not series.all()


@pytest.mark.parametrize("name", ["exp", "1/(1+z)", "2exp(-z^2)"])
def test_series_err_est_covers_exact_error(name):
    params, exact, _ = EXACT[name]
    z = np.geomspace(1e-4, 60.0, 400)
    vals, errs, series = hf.eval_auto(params, z, QuadSpec())
    want = np.array([exact(x) for x in z[series]])
    assert np.all(np.abs(vals[series] - want) <= errs[series])


@pytest.mark.parametrize("alpha, lam", [
    (1.5, 0.8), (1.2, 0.3), (2.0, 1.0), (1.05, 1.0),
    # near confluence: two left pole families nearly meet at small lam
    (1.5, 0.02), (1.2, 0.01),
])
def test_series_err_est_covers_contour_profile_block(alpha, lam):
    # no exact values here: each series value lies within its err_est plus
    # the err_est of the one-argument contour
    params = _profile(alpha, lam)
    z = np.geomspace(1e-3, 50.0, 200)
    vals, errs, series = hf.eval_auto(params, z, QuadSpec())
    for v, e, x in zip(vals[series], errs[series], z[series]):
        b, b_err = hf.eval_contour(params, x)
        assert abs(v - b) <= e + b_err, x


@pytest.mark.parametrize("w", [5.0, 10.0, 20.0, 25.0, 40.0, 100.0, 300.0])
def test_classical_profile_block_far_tail(w):
    # the block at (2, 1) is 2 sqrt(pi) e^(-2w): the line moves right past
    # the right poles, whose residues all vanish, so e^(-600) keeps its
    # relative accuracy (the strip midpoint was off by 2.7e17 at w = 40)
    params = _profile(2.0, 1.0)
    vals, errs, _ = hf.eval_auto(params, np.array([w]), QuadSpec())
    assert_allclose(vals[0], 2.0 * math.sqrt(math.pi) * math.exp(-2.0 * w), rtol=1e-10)
    assert errs[0] < 1e-9 * vals[0]


def test_classical_profile_block_between_rungs():
    # between the ladder's rungs the line loses digits, not all of them
    w = np.geomspace(5.0, 300.0, 40)
    vals, _, _ = hf.eval_auto(_profile(2.0, 1.0), w, QuadSpec())
    assert_allclose(vals, 2.0 * math.sqrt(math.pi) * np.exp(-2.0 * w), rtol=1e-6)


@pytest.mark.parametrize("alpha, lam", [(1.05, 1.0), (1.5, 0.8), (1.2, 0.3)])
def test_profile_block_algebraic_tail_leading_term(alpha, lam):
    # far out, I(y) = sqrt(pi)/(2 alpha) H[y/2] is its leading right-pole
    # term: Gamma(lam) cos(pi lam/2) y^-lam for lam < 1, and
    # Gamma(1+alpha) sin(pi alpha/2) y^-(1+alpha) at lam = 1
    y = np.geomspace(1e10, 1e14, 9)
    vals, _, _ = hf.eval_auto(_profile(alpha, lam), y / 2.0, QuadSpec())
    if lam < 1.0:
        lead = math.gamma(lam) * math.cos(math.pi * lam / 2.0) * y ** -lam
    else:
        lead = (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0)
                * y ** -(1.0 + alpha))
    assert_allclose(math.sqrt(math.pi) / (2.0 * alpha) * vals, lead, rtol=1e-10)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(alpha_gap=st.floats(-6.0, 0.0), lam=st.one_of(st.just(0.0), st.floats(-8.0, 0.0)),
       y=st.floats(-8.0, 14.0))
def test_profile_block_values_are_honest_or_raise(alpha_gap, lam, y):
    # over 1 < alpha <= 2 down to 1 + 1e-6, lam in [1e-8, 1] and y in
    # [1e-8, 1e14] (decimal exponents drawn), every value carries an
    # err_est below its size, or is an underflowed 0 +- 0, or the call
    # raises a typed failure; at lam = 1, I(y) > 0 is never negative
    alpha, lam, y = 1.0 + 10.0 ** alpha_gap, 10.0 ** lam, 10.0 ** y
    try:
        vals, errs, _ = hf.eval_auto(_profile(alpha, lam), np.array([y / 2.0]), QuadSpec())
    except NumericalFailure:
        return
    v, e = vals[0], errs[0]
    assert e < abs(v) or v == e == 0.0
    if lam == 1.0:
        assert v >= 0.0


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


def test_series_grid_stays_small_in_memory():
    # each horizon sums its open arguments in (term x argument) blocks, so
    # a large grid never becomes one large matrix
    import tracemalloc
    tracemalloc.start()
    try:
        hf._series_core(EXP, np.geomspace(1e-3, 30.0, 20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ------------------------------------------------------- convergence data

def test_convergence_profile_values():
    # series radius, and the contour decay exponent delta = sum(e |d|)
    assert hf._radius(EXP) == math.inf and hf._radius(RAT) == 1.0
    for params, delta in ((EXP, 1.0), (RAT, 2.0)):
        _, d, e = params._factors
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
    assert_allclose(hf.mellin(ZEXP, -0.5), math.sqrt(math.pi), rtol=1e-13)
    assert_allclose(hf.mellin(ZEXP, 0.0), 1.0, rtol=1e-13)
    assert_allclose(hf.mellin(HALF_RAT, -0.3), math.pi / math.cos(0.3 * math.pi),
                    rtol=1e-13)
    assert_allclose(hf.mellin(HALF_RAT, 0.0), math.pi, rtol=1e-13)


def test_mellin_outside_strip():
    # int z^{s-1}/(1+z) diverges for s >= 1
    with pytest.raises(hf.OutOfStrip):
        hf.mellin(RAT, 1.5)
    # Gamma(s) at s = 1e-14 is within the gamma kernel's pole tolerance
    with pytest.raises(hf.OutOfStrip):
        hf.mellin(EXP, 1e-14)


def test_mellin_zero_of_a_reciprocal_gamma():
    # Gamma(s) Gamma(1-s) / (Gamma(1/2-s) Gamma(1/2+s)) = cot(pi s) on the
    # strip (0, 1); at s = 1/2 the denominator Gamma(1/2-s) has its pole
    cot = HFoxParams(m=1, n=1, upper=((0.0, 1.0), (0.5, 1.0)),
                     lower=((0.0, 1.0), (0.5, 1.0)))
    assert hf.mellin(cot, 0.5) == 0.0
    assert_allclose(hf.mellin(cot, 0.25), 1.0, rtol=1e-13)
    assert_allclose(hf.mellin(cot, 0.75), -1.0, rtol=1e-13)


@pytest.mark.parametrize("params, s", [
    (EXP, 2.0),
    (RAT, 0.5),
    (ZEXP, -0.5),
    (ZEXP, 0.0),
    (HALF_RAT, -0.3),
    (HALF_RAT, 0.0),
])
def test_mellin_numeric_check_anchors(params, s):
    chk, = hf.mellin_numeric_check(params, [s])
    assert chk.rel_err <= 1e-6


def test_mellin_numeric_check_strip_scan():
    for block, svals in ((EXP, (0.5, 1.0, 3.5)), (RAT, (0.1, 0.5, 0.9))):
        checks = hf.mellin_numeric_check(block, svals)
        assert len(checks) == len(svals)
        assert all(chk.rel_err <= 1e-6 for chk in checks)


@pytest.mark.parametrize("params, s", [(RAT, 0.99), (RAT, 0.999), (EXP, 0.001)])
def test_mellin_numeric_check_close_to_a_strip_edge(params, s):
    # the sum past each grid end is taken in closed form from the leading
    # residue, so the grid does not depend on how close s is to an edge
    chk, = hf.mellin_numeric_check(params, [s])
    assert chk.rel_err <= 1e-12


def test_mellin_numeric_check_near_the_left_edge_of_exp():
    assert hf.mellin_numeric_check(EXP, [0.01])[0].rel_err <= 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_mellin_numeric_check_refuses_a_double_pole_at_the_edge(s):
    # Gamma(s)^2 is the transform of 2 K0(2 sqrt z): a double pole at s = 0
    # makes the integrand ~ log z there, not a residue power
    k0 = HFoxParams(m=2, n=0, upper=(), lower=((0.0, 1.0), (0.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadFailure, match=rf"s = \[{s}\]: .* left edge 0 .* not simple"):
            hf.mellin_numeric_check(k0, [s])


@pytest.mark.parametrize("params, svals", [
    (EXP, (0.3, 0.5, 1.0, 2.5, 5.0)),   # the validate suite's s values
    (RAT, (0.1, 0.3, 0.5, 0.7, 0.9)),
    (EXP, (2.0,)), (RAT, (0.5,)), (ZEXP, (-0.5, 0.0)), (HALF_RAT, (-0.3, 0.0)),
    # two left families whose poles interleave, both read at the left end
    (MIXED, (-0.05, 0.2, 0.5, 0.9, 0.99)),
])
def test_mellin_numeric_check_quad_err_covers_the_error(params, svals):
    for chk in hf.mellin_numeric_check(params, svals):
        assert abs(chk.numeric - chk.analytic) <= chk.quad_err


def test_mellin_grid_ends_read_the_leading_residues():
    # the leading poles across families in order, short of each family's
    # 16th pole: e^-z takes 15 residues and ends its grid at log w = -0.75,
    # where 1/15! w^15 is 1e-17 of the first term (the gap alone put the
    # end at -39.1); 1/(1+z) ends at +-39.1/15
    s = np.array([0.5])
    t, lead, rate = hf._grid_end(EXP, s, "left")
    assert t == pytest.approx((math.log(1e-17) + math.lgamma(16.0)) / 15.0, rel=1e-12)
    assert_allclose(lead, [(-1.0) ** k / math.factorial(k) for k in range(15)], rtol=1e-13)
    assert_allclose(rate, 0.5 + np.arange(15.0)[None, :], rtol=0.0)
    for block in (RAT, RAT._swap):
        t, lead, _ = hf._grid_end(block, s, "left")
        assert t == pytest.approx(math.log(1e-17) / 15.0, rel=1e-12)
        assert_allclose(lead, (-1.0) ** np.arange(15), rtol=1e-13)
    # MIXED: Gamma(0.1 + s) has poles at -0.1, -1.1, ..., Gamma(0.4 + 0.6 s)
    # at -0.667, -2.33, ...; short of -15.1 the first family gives 15, the
    # second 9, each ordered by its own index
    t, lead, rate = hf._grid_end(MIXED, s, "left")
    poles = np.sort(rate[0] - 0.5)
    want = np.sort(np.concatenate([0.1 + np.arange(15.0), (0.4 + np.arange(9.0)) / 0.6]))
    assert_allclose(poles, want, rtol=1e-14)
    assert lead.size == 24 and -3.0 < t < -1.0


@pytest.mark.parametrize("params, svals", [
    (EXP, (0.3, 0.5, 1.0, 2.5, 5.0)), (RAT, (0.1, 0.3, 0.5, 0.7, 0.9)),
    (MIXED, (-0.05, 0.2, 0.9)), (replace(RAT, arg_scale=2.0), (0.5, 0.25)),
])
def test_mellin_numeric_check_analytic_values_are_mellins(params, svals):
    # one _log_h_real call over all s gives, bit for bit, a^-s h(s) from
    # one call at each s
    def one(s):
        logabs, sign = hf._log_h_real(params, s)
        return float(sign) * math.exp(float(logabs) - s * math.log(params.arg_scale))

    got = [chk.analytic for chk in hf.mellin_numeric_check(params, svals)]
    assert got == [hf.mellin(params, s) for s in svals] == [one(s) for s in svals]


def test_mellin_numeric_check_refuses_the_first_s_outside_the_strip():
    with pytest.raises(hf.OutOfStrip) as want:
        hf.mellin(RAT, 1.5)
    with pytest.raises(hf.OutOfStrip) as got:
        hf.mellin_numeric_check(RAT, [0.5, 1.5, 2.0, -1.0])
    assert str(got.value) == str(want.value) == "s = 1.5 outside the fundamental strip (-0.0, 1.0)"


def test_mellin_checks_take_one_engine_call_per_block(monkeypatch):
    # each check reads its whole grid in one eval_auto call, and the grid
    # reaches every route of the engine that its block has: the series and
    # the contour for e^-z, and the direct series, the inversion band and
    # the contour for 1/(1+z), on fewer than 1000 nodes
    from fracwell import checks
    calls, real = [], hf.eval_auto

    def counting(params, z, quad):
        vals, errs, series = real(params, z, quad)
        w, radius = params.arg_scale * np.asarray(z), hf._radius(params)
        calls.append({"direct": np.sum(series & (w <= 0.8 * radius)),
                      "inversion": np.sum(series & (w >= 1.25 * radius)),
                      "contour": np.sum(~series)})
        return vals, errs, series

    monkeypatch.setattr(hf, "eval_auto", counting)
    assert checks.check_hfox_mellin_exp().passed
    assert len(calls) == 1 and calls[0]["direct"] > 0 and calls[0]["contour"] > 0
    assert checks.check_hfox_mellin_rational().passed
    assert len(calls) == 2 and all(calls[1][k] > 0 for k in calls[1])
    assert all(sum(call.values()) < 1000 for call in calls)


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
    full, _ = hf.eval_contour(shifted, 0.7)
    red, _ = _series_value(hf.reduce_fully(shifted), 0.7)
    assert abs(full - red) <= 1e-8
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
    b, b_err = hf.eval_contour(MIXED, z)
    assert abs(value - b) <= err + b_err


def test_series_err_est_covers_error_mixed_block():
    # the series value is 9.4e-12 off the contour's -0.030437863026580
    # +- 2.1e-15; its err_est counts the gamma kernel's relative accuracy
    # in every term, not only the rounding of the sum
    value, err, _ = hf.eval_auto(MIXED, 4.0)
    assert err >= abs(value - hf.eval_contour(MIXED, 4.0)[0])


def test_series_sums_short_of_a_shared_left_pole():
    # the wavefunction block at (alpha, lam) = (1.9, 1): Gamma(s/2) and
    # Gamma(9/19 + 10 s/19) share the pole s = -18, the tenth term of
    # each; the series answers where its sum stops short of that term
    # and leaves nan with err_est inf where the sum reaches it
    from fracwell.deltawell import PotentialConfig, _profile_block
    P = _profile_block(PotentialConfig(alpha=1.9, lam=1.0))
    for z in (0.005, 0.05, 0.2):
        value, err = _series_value(P, z)
        b, b_err = hf.eval_contour(P, z)
        assert abs(value - b) <= err + b_err
    _assert_series_refused(P, 1.0)


def test_series_rejects_shared_left_poles():
    # the classical chain's transform block has Gamma(1 + 2s) and
    # Gamma(1 + s) among its numerators: both have poles at s = -1, -2, ...
    from fracwell.checks import _classical_chain
    _, ct = _classical_chain()
    _assert_series_refused(ct.params, 0.5)
