"""Special-function wrappers against independent quadrature/mpmath oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from empcouple.numerics import (
    ClampCounter,
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
