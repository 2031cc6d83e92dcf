"""Censored model algebra, uniformization, exact identities, weighted stats."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from empcouple.censored import (
    CensoredSample,
    CensoringModel,
    SubEmpiricals,
    censored_sup_problems,
    censored_weighted_stats,
    default_check_grid,
    generate,
    representation_check,
    sample_from_bundle,
    survival_representation_check,
    uniformize,
)
from empcouple.processes import AnchoredBundle, ProcessBundle
from empcouple.rng import RngStream, derive_stream
from empcouple.supstats import solve
from oracles import (
    count_leq,
    fake_w_lookups,
    hand_sample,
    hand_xi,
    naive_sup,
    on_grid,
)


def _bundle(n, seed=0, rep=0):
    return ProcessBundle.build(
        n,
        derive_stream(seed, n, rep, "path1"),
        derive_stream(seed, n, rep, "path2"),
    )


def _hand_censored_sample(c=1.0):
    Z, delta = hand_sample()
    model = CensoringModel(c)
    return model, CensoredSample(n=3, Z=Z, delta=delta, xi=uniformize(model, Z, delta))


# -- model algebra ----------------------------------------------------------


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_subdistributions_against_quadrature(c):
    # H1(z) = P{X <= z, X <= Y} = integral of e^{-x} e^{-cx}; H0 analogous
    model = CensoringModel(c)
    for z in (0.1, 0.5, 1.3, 3.0):
        h1, _ = integrate.quad(lambda x: math.exp(-x) * math.exp(-c * x), 0.0, z)
        h0, _ = integrate.quad(lambda x: c * math.exp(-c * x) * math.exp(-x), 0.0, z)
        assert model.h1(z) == pytest.approx(h1, abs=1e-12)
        assert model.h0(z) == pytest.approx(h0, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_model_identities(c):
    model = CensoringModel(c)
    z = np.linspace(0.01, 8.0, 200)
    np.testing.assert_allclose(model.h(z), model.h0(z) + model.h1(z), atol=1e-14)
    np.testing.assert_allclose(
        1.0 - model.h(z),
        (1.0 - model.lifetime_cdf(z)) * (1.0 - model.censor_cdf(z)),
        atol=1e-14,
    )
    assert model.theta == pytest.approx(1.0 / (1.0 + c))
    # theta is the total mass of the uncensored part
    assert model.h1(50.0) == pytest.approx(model.theta, abs=1e-14)
    assert model.h0(50.0) == pytest.approx(1.0 - model.theta, abs=1e-14)


def test_model_inverse_roundtrip():
    model = CensoringModel(1.7)
    u = np.linspace(1e-6, model.theta - 1e-6, 50)
    np.testing.assert_allclose(model.h1(model.inv_h1(u)), u, atol=1e-12)
    u0 = np.linspace(1e-6, (1.0 - model.theta) - 1e-6, 50)
    np.testing.assert_allclose(model.h0(model.inv_h0(u0)), u0, atol=1e-12)


def test_model_rejects_bad_rate():
    with pytest.raises(ValueError):
        CensoringModel(0.0)


# -- uniformization ---------------------------------------------------------


def test_uniformize_branches():
    model = CensoringModel(1.0)  # theta = 0.5
    z1 = model.inv_h1(np.asarray([0.3]))[0]
    assert uniformize(model, [z1], [True])[0] == pytest.approx(0.3, abs=1e-12)
    z0 = model.inv_h0(np.asarray([0.2]))[0]
    assert uniformize(model, [z0], [False])[0] == pytest.approx(0.7, abs=1e-12)


def test_generate_contracts():
    model = CensoringModel(1.0)
    with pytest.raises(ValueError):
        generate(model, 0, RngStream(0))
    s = generate(model, 200, RngStream(1))
    assert s.n == 200
    assert np.all(s.Z > 0)
    assert np.all((s.xi > 0) & (s.xi < 1))
    # xi <= theta if and only if the observation is uncensored
    np.testing.assert_array_equal(s.xi <= model.theta, s.delta)


def test_xi_uniformity_and_theta():
    model = CensoringModel(2.0)
    pooled = np.concatenate(
        [generate(model, 500, RngStream(3).child("unif", i)).xi for i in range(20)]
    )
    assert stats.kstest(pooled, "uniform").pvalue > 0.01
    p_unc = np.mean(pooled <= model.theta)
    tol = 3.0 * math.sqrt(model.theta * (1 - model.theta) / pooled.size)
    assert abs(p_unc - model.theta) <= tol


# -- exact identities -------------------------------------------------------


def test_hand_enumeration_representation():
    model, sample = _hand_censored_sample()
    xi = hand_xi(*hand_sample())
    np.testing.assert_allclose(sample.xi, xi, atol=1e-15)
    emp = SubEmpiricals(sample)
    for v in (0.1, 0.4, 0.9):
        lhs0 = count_leq(sample.Z[~sample.delta], v)
        rhs0 = count_leq(xi, model.theta + model.h0(v)) - count_leq(xi, model.theta)
        assert lhs0 == rhs0 == emp.count_h0(v)
        lhs1 = count_leq(sample.Z[sample.delta], v)
        rhs1 = count_leq(xi, model.h1(v))
        assert lhs1 == rhs1 == emp.count_h1(v)
    reports = representation_check(sample, model, [0.1, 0.4, 0.9])
    assert all(r.passed for r in reports)


def test_hand_enumeration_survival():
    model, sample = _hand_censored_sample()
    emp = SubEmpiricals(sample)
    v = 0.4
    sq3 = math.sqrt(3.0)
    lhs1 = sq3 * (emp.hbar1_n(v) - model.hbar1(v))
    rhs1 = emp.alpha_star(model.theta) - emp.alpha_star(model.h1(v))
    assert lhs1 == pytest.approx(rhs1, abs=1e-12)
    reports = survival_representation_check(sample, model, [0.4])
    assert all(r.passed for r in reports)


def test_representation_boundary_counts():
    model, sample = _hand_censored_sample()
    emp = SubEmpiricals(sample)
    assert emp.count_h1(0.01) == 0 and emp.count_h0(0.01) == 0
    assert emp.count_h1(99.0) == int(sample.delta.sum())
    assert emp.h1_n(99.0) == pytest.approx(sample.delta.sum() / 3.0)


def test_survival_check_all_uncensored():
    model = CensoringModel(1.0)
    z = np.asarray([0.2, 0.7, 1.4])
    delta = np.asarray([True, True, True])
    sample = CensoredSample(n=3, Z=z, delta=delta, xi=uniformize(model, z, delta))
    reports = survival_representation_check(sample, model, [0.1, 0.5, 2.0])
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [3, 10, 100])
def test_identities_on_generated_samples(c, n):
    model = CensoringModel(c)
    for rep in range(20):
        sample = generate(model, n, derive_stream(17, n, rep, "cens"))
        grid = default_check_grid(sample, model)
        for report in representation_check(sample, model, grid):
            assert report.passed, report
        for report in survival_representation_check(sample, model, grid):
            assert report.passed, report


# -- coupled sample and weighted statistics ---------------------------------


def test_sample_from_bundle_is_coupled():
    model = CensoringModel(1.5)
    b = _bundle(64, seed=23)
    sample = sample_from_bundle(model, b, derive_stream(23, 64, 0, "shuffle"))
    np.testing.assert_array_equal(np.sort(sample.xi), b.U[1:])
    assert np.all(sample.Z > 0)
    np.testing.assert_array_equal(sample.delta, sample.xi <= model.theta)


def test_weighted_stats_contracts():
    model = CensoringModel(1.0)
    b = _bundle(16, seed=2)
    sample = sample_from_bundle(model, b, derive_stream(2, 16, 0, "shuffle"))
    with pytest.raises(ValueError):
        censored_weighted_stats(sample, model, b, xi_exp=0.3)
    with pytest.raises(ValueError):
        censored_weighted_stats(sample, model, b, xi_exp=0.1, lam=0.0)
    other = generate(model, 16, RngStream(99))
    with pytest.raises(ValueError):
        censored_weighted_stats(other, model, b, xi_exp=0.1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_stats_oracle_equality(seed):
    # on the lattice-anchored bundle and on the count-anchored one at theta,
    # which the harness uses for the censored pair
    model = CensoringModel(1.0)
    anchored = AnchoredBundle.build(
        32, derive_stream(seed, 32, 0, "anchored"), t=model.theta, depth=4
    )
    for b in (_bundle(32, seed=seed), anchored):
        sample = sample_from_bundle(model, b, derive_stream(seed, 32, 0, "shuffle"))
        problems = censored_sup_problems(sample, model, b, xi_exp=0.1)
        results = censored_weighted_stats(sample, model, b, xi_exp=0.1)
        for name, prob in problems.items():
            assert results[name].value == naive_sup(b, prob)
            assert prob.lo <= results[name].arg_s <= prob.hi


def test_weighted_stat_zero_for_identical_processes():
    # force the bridge to reproduce the empirical process; cens-h0 compares
    # exactly those two objects, so the statistic collapses to zero.  The
    # bridge jumps where the ECDF does, so the order statistics are moved
    # onto the dyadic grid, as every jump of a W_n bridge lies there.
    model = CensoringModel(1.0)
    b = _bundle(16, seed=31)
    sample = sample_from_bundle(model, b, derive_stream(31, 16, 0, "shuffle"))
    b.U = on_grid(b, b.U)
    sample = dataclasses.replace(sample, xi=on_grid(b, sample.xi))
    n = b.n
    b.w_nn = -float(n)

    def fake_w_n(z):
        s = np.asarray(z, dtype=float) / n
        cnt = b.ecdf_count(s)
        return -s * n - n * (cnt / n - s)

    fake_w_lookups(b, fake_w_n)
    res = censored_weighted_stats(sample, model, b, xi_exp=0.1)
    assert res["cens-h0"].value == 0.0


def test_weighted_stats_empty_domain():
    model = CensoringModel(1.0)
    b = _bundle(4, seed=5)
    sample = sample_from_bundle(model, b, derive_stream(5, 4, 0, "shuffle"))
    with pytest.raises(ValueError):
        censored_weighted_stats(sample, model, b, xi_exp=0.1, lam=3.0)
