"""Special-function wrappers against independent quadrature/mpmath oracles,
and the binomial quantile against the scipy.stats function it replaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from empcouple.numerics import (
    P_CEIL,
    P_FLOOR,
    ClampCounter,
    binom_quantile,
    clamp_probability,
    gamma2_tail,
    inv_reg_beta_i,
    inv_reg_gamma_p,
    reg_beta_i,
    reg_gamma_p,
    std_normal_cdf,
    std_normal_quantile,
)
from oracles import beta_i_mp, gamma_p_mp, normal_cdf_quad


@pytest.mark.parametrize(
    "z,expected",
    [
        (0.0, 0.5),
        (1.0, 0.8413447460685429),
        (-1.0, 1.0 - 0.8413447460685429),
    ],
)
def test_normal_cdf_known_values(z, expected):
    assert std_normal_cdf(z) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("z", [-3.5, -0.7, 0.0, 0.3, 1.9, 4.2])
def test_normal_cdf_against_quadrature(z):
    assert std_normal_cdf(z) == pytest.approx(normal_cdf_quad(z), abs=1e-13)


def test_normal_quantile_roundtrip():
    p = np.linspace(1e-10, 1 - 1e-10, 201)
    np.testing.assert_allclose(std_normal_cdf(std_normal_quantile(p)), p, atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_normal_quantile_rejects_boundary(p):
    with pytest.raises(ValueError):
        std_normal_quantile(p)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 16.0, 300.0])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_gamma_p_against_mpmath(a, frac):
    x = a * frac * 2.0
    assert reg_gamma_p(a, x) == pytest.approx(gamma_p_mp(a, x), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 1.0), (4.0, 7.0), (64.0, 64.0)])
@pytest.mark.parametrize("x", [0.05, 0.5, 0.93])
def test_beta_i_against_mpmath(a, b, x):
    assert reg_beta_i(x, a, b) == pytest.approx(beta_i_mp(x, a, b), rel=1e-12, abs=1e-14)


# shape ranges below match actual usage: the coupling only inverts at
# half-integer shapes >= 1/2
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.5, max_value=512.0),
    p=st.floats(min_value=1e-8, max_value=1.0 - 1e-8),
)
def test_gamma_quantile_roundtrip(a, p):
    x = inv_reg_gamma_p(a, p)
    assert reg_gamma_p(a, x) == pytest.approx(p, rel=1e-9, abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.5, max_value=256.0),
    b=st.floats(min_value=0.5, max_value=256.0),
    p=st.floats(min_value=1e-8, max_value=1.0 - 1e-8),
)
@example(a=2.0, b=0.5, p=0.99999999)
def test_beta_quantile_roundtrip(a, b, p):
    x = inv_reg_beta_i(p, a, b)
    if x < 1.0:
        assert reg_beta_i(x, a, b) == pytest.approx(p, rel=1e-9, abs=1e-10)
    else:
        # no float below 1 reaches p, so 1.0 is the correctly rounded quantile
        # and the round trip cannot hold in float64
        assert reg_beta_i(math.nextafter(1.0, 0.0), a, b) <= p


def test_gamma_quantile_monotone():
    p = np.linspace(0.001, 0.999, 500)
    x = inv_reg_gamma_p(8.0, p)
    assert np.all(np.diff(x) > 0)


def test_shape_floor_enforced():
    with pytest.raises(ValueError):
        reg_gamma_p(1e-6, 1.0)
    with pytest.raises(ValueError):
        inv_reg_beta_i(0.5, 1e-6, 1.0)


def test_clamp_probability_counts_events():
    counter = ClampCounter()
    p = np.asarray([0.5, 1e-320, 1.0, 0.25])
    out = clamp_probability(p, counter)
    assert counter.count == 2
    assert np.all(out > 0) and np.all(out < 1)
    assert out[0] == 0.5 and out[3] == 0.25


def test_gamma2_tail_matches_survival():
    # complementary reg. gamma at a=2 equals (u+1) e^{-u}
    u = np.asarray([0.0, 0.3, 1.0, 2.5, 7.0])
    np.testing.assert_allclose(gamma2_tail(u), 1.0 - reg_gamma_p(2.0, u), atol=1e-13)
    assert gamma2_tail(0.0) == 1.0


def test_gamma2_tail_rejects_negative():
    with pytest.raises(ValueError):
        gamma2_tail(-0.5)


def test_binom_quantile_is_scipy_binom_ppf():
    # binom_quantile calls the Boost ufunc scipy.stats.binom.ppf dispatches
    # to, so every count AnchoredBundle draws stays the same.  The public
    # route, the smallest k with scipy.special.bdtr(k, n, t) >= q found by
    # bisection, was rejected: near a tie it gives other counts.  Over
    # n in {2, 17, 100, 511, 4096, 100 000} and t in {0.01, 0.3, 0.5, 0.9}
    # it disagreed with binom.ppf for 6 633 of 13 651 q at a CDF value
    # within 4 sd of the mean or one ulp from one (255 against 256 at the
    # tie below), though for none of 24 000 random q.
    rng = np.random.default_rng(20261019)
    n = np.array([0, 1, 2, 3, 17, 64, 100, 511, 512, 4096, 100_000, 1 << 20])
    t = np.array([1e-3, 0.01, 0.3, 0.5, 0.7, 0.99])
    q = np.concatenate([rng.random(120), [P_FLOOR, P_CEIL, 0.5, 1e-10, 1 - 1e-10]])
    q, n, t = np.meshgrid(q, n, t, indexing="ij")
    np.testing.assert_array_equal(binom_quantile(q, n, t), stats.binom.ppf(q, n, t))
    # q at the cdf of the mean count and one ulp either side
    tie = stats.binom.cdf(np.floor(n * t), n, t)
    for q in (tie, np.nextafter(tie, 0.0), np.nextafter(tie, 1.0)):
        ok = (q > 0.0) & (q < 1.0)
        np.testing.assert_array_equal(
            binom_quantile(q[ok], n[ok], t[ok]), stats.binom.ppf(q[ok], n[ok], t[ok])
        )
    # P{Bin(511, 1/2) <= 255} rounds below 1/2; Boost returns 256
    assert binom_quantile(0.5, 511, 0.5) == 256.0 == stats.binom.ppf(0.5, 511, 0.5)


@pytest.mark.parametrize(
    "p,n,t",
    [(0.0, 4, 0.5), (1.0, 4, 0.5), (0.5, -1, 0.5), (0.5, 2.5, 0.5), (0.5, 4, 1.5), (0.5, 4, np.nan)],
)
def test_binom_quantile_rejects_bad_arguments(p, n, t):
    with pytest.raises(ValueError):
        binom_quantile(p, n, t)


def test_inv_reg_gamma_p_rejects_nan():
    # NaN fails the range check rather than the quantile iteration
    with pytest.raises(ValueError):
        inv_reg_gamma_p(2.0, np.nan)
    with pytest.raises(ValueError):
        inv_reg_gamma_p(np.nan, 0.5)


def test_inv_reg_beta_i_rejects_nan():
    for p, a, b in ((np.nan, 2.0, 2.0), (0.5, np.nan, 2.0), (0.5, 2.0, np.nan)):
        with pytest.raises(ValueError):
            inv_reg_beta_i(p, a, b)
    # array shapes are checked entry by entry
    with pytest.raises(ValueError):
        inv_reg_beta_i([0.5, 0.5], np.array([2.0, np.nan]), 2.0)


def test_std_normal_quantile_rejects_nan():
    with pytest.raises(ValueError):
        std_normal_quantile(np.nan)
    with pytest.raises(ValueError):
        std_normal_quantile([0.5, np.nan])


def test_binom_quantile_rejects_nan():
    for p, n, t in ((np.nan, 10, 0.5), (0.5, np.nan, 0.5)):
        with pytest.raises(ValueError):
            binom_quantile(p, n, t)


def test_reg_gamma_p_rejects_nan():
    for a, x in ((1.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError):
            reg_gamma_p(a, x)


def test_reg_beta_i_rejects_nan():
    for x, a, b in ((np.nan, 2.0, 2.0), (0.5, np.nan, 2.0)):
        with pytest.raises(ValueError):
            reg_beta_i(x, a, b)


def test_gamma2_tail_rejects_nan():
    with pytest.raises(ValueError):
        gamma2_tail(np.nan)


def test_inversions_write_in_place():
    # out= gives the values of a fresh call, written into the array passed
    p = np.array([[1e-320, 0.25, 0.5], [0.75, 1.0, 0.125]])
    want = inv_reg_beta_i(clamp_probability(std_normal_cdf(p)), np.array([1.0, 2.0, 8.0]), 3.0)
    buf = p.copy()
    counter = ClampCounter()
    got = inv_reg_beta_i(
        clamp_probability(std_normal_cdf(buf, out=buf), counter, out=buf),
        np.array([1.0, 2.0, 8.0]), 3.0, out=buf,
    )
    assert got is buf
    np.testing.assert_array_equal(got, want)
    assert counter.count == 0
