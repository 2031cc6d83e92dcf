"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated scale and tolerance
and prints a single PASS/FAIL line (bypassing capture) so the run log shows
the verdict per criterion even when everything is green.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy
from scipy import stats

import empcouple as ec
from empcouple.censored import censored_sup_problems, default_check_grid
from empcouple.coupling import couple_batch
from empcouple.harness import (
    check_floor_bound,
    check_gamma2_tail,
    check_min_ratio_law,
    rate_normalizer,
)
from empcouple.rng import RngStream
from empcouple.supstats import (
    solve,
    problem_empirical_full,
    problem_empirical_increment,
    problem_quantile_full,
    problem_quantile_increment,
    problem_restricted,
    problem_tail,
)
from oracles import naive_sup_fast

SEED = 20260824
CRITERION_5_LADDER = [512, 1024, 2048, 4096, 8192]

# sha256 of rows_to_csv of the criterion-5 rows.  Recorded with numpy 2.4.6
# and scipy 1.17.1; a change of either may move the last bits of a sup.
CRITERION_5_SHA256 = "3af35e1e37377e974e077c9b1473ae3b904d90e373e3d0bee999eb51f8de1fc3"


def _verdict(capsys, criterion: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def _bundle(n, seed, rep, t=0.5):
    return ec.build_bundle(seed, n, rep, t, 6)


def test_criterion_1_exact_identities(capsys):
    """Representation identities hold exactly over 9 x 10^3 replicates."""
    failures = 0
    total = 0
    for c in (0.5, 1.0, 2.0):
        model = ec.CensoringModel(c)
        for n in (3, 10, 100):
            for rep in range(1000):
                sample = ec.generate(model, n, ec.derive_stream(SEED, n, rep, f"id-{c}"))
                grid = default_check_grid(sample, model)
                reports = ec.representation_check(sample, model, grid)
                reports += ec.survival_representation_check(sample, model, grid)
                total += len(reports)
                failures += sum(0 if r.passed else 1 for r in reports)
    passed = failures == 0
    _verdict(capsys, 1, passed, f"{failures} failures in {total} identity checks")
    assert passed


def test_criterion_2_exact_laws(capsys):
    """Min-ratio, Gamma(2,1) tail and floor bound at their stated tolerances."""
    root = RngStream(SEED).child("laws")
    reports = [
        check_min_ratio_law([0.05, 0.1, 0.25], 50, 100000, root.child("mr")),
        check_gamma2_tail([0.5, 1.0, 2.0], 100000, root.child("g2")),
        check_floor_bound(n_max=50, grid_points=200),
    ]
    passed = all(r.passed for r in reports)
    detail = "; ".join(f"{r.name}={'ok' if r.passed else r.details}" for r in reports)
    _verdict(capsys, 2, passed, detail)
    assert passed


def test_criterion_3_coupling_quality(capsys):
    """Log growth of the median gap (R^2 >= 0.9), decreasing median/sqrt(m), mu > 0."""
    ladder = [2**k for k in range(8, 15)]
    fit = ec.fit_kmt_tail(ladder, 200, RngStream(SEED).child("kmt"))
    ratios = np.asarray(fit.medians) / np.sqrt(ladder)
    decreasing = bool(np.all(np.diff(ratios) < 0))
    passed = fit.growth_r2 >= 0.9 and decreasing and fit.mu_hat > 0
    _verdict(
        capsys, 3, passed,
        f"R2={fit.growth_r2:.3f} C={fit.C_hat:.3f} mu={fit.mu_hat:.3f} "
        f"median/sqrt(m) decreasing={decreasing}",
    )
    assert passed


def test_criterion_4_marginal_laws(capsys):
    """KS at the 1% level for every stated marginal, 5000 replicates each."""
    m = 1024
    s, w = couple_batch(m, 5000, RngStream(SEED).child("marginals"))
    pvals = {
        "S_m~Gamma(m,1)": stats.kstest(s[:, m], "gamma", args=(float(m),)).pvalue,
        "ratio~Beta": stats.kstest(s[:, m // 2] / s[:, m], "beta",
                                   args=(m / 2.0, m / 2.0)).pvalue,
        "W(m)/sqrt(m)~N(0,1)": stats.kstest(w[:, m] / math.sqrt(m), "norm").pvalue,
    }
    n = 16
    u = np.empty((5000, 3))
    for rep in range(5000):
        b = _bundle(n, SEED + 1, rep)
        u[rep] = b.U[[1, n // 2, n]]
    for label, k in (("U_(1)", 1), ("U_(n/2)", n // 2), ("U_(n)", n)):
        pvals[f"{label}~Beta"] = stats.kstest(
            u[:, (1, n // 2, n).index(k)], "beta", args=(float(k), float(n + 1 - k))
        ).pvalue
    model = ec.CensoringModel(1.0)
    pooled = np.concatenate(
        [ec.generate(model, 500, RngStream(SEED).child("xi", i)).xi for i in range(12)]
    )
    pvals["xi~U(0,1)"] = stats.kstest(pooled, "uniform").pvalue
    passed = all(p > 0.01 for p in pvals.values())
    detail = ", ".join(f"{k}: p={v:.3f}" for k, v in pvals.items())
    _verdict(capsys, 4, passed, detail)
    assert passed


def _criterion_5_requests():
    requests = ec.default_requests()
    requests += [
        ec.StatRequest(name, name, ec.WeightConfig(), rate_c=1.0, xi_exp=0.1)
        for name in ("cens-h0", "cens-h1")
    ]
    return requests


@pytest.mark.slow
def test_criterion_5_tightness_proxy(capsys):
    """Rate-normalized q95 is flat in log n for every default statistic.

    For each statistic the slope of q95(n) / rho(n) on log n must not exceed
    z times its bootstrap standard error, with rho the running maximum of the
    documented desk-scale rate r(n) / r(512) floored at 1 (identically 1
    except at the near-critical eta = 0.45 and nu = 0.2) and z = 2.69 the
    Bonferroni bound over the 14 statistics.  See ``tightness_verdicts``.
    The rows' CSV must keep its recorded sha256.
    """
    requests = _criterion_5_requests()
    rows = ec.run_requests(requests, CRITERION_5_LADDER, 500, SEED)
    verdicts = ec.tightness_verdicts(rows, requests)
    passed = all(v.passed for v in verdicts.values())
    detail = "; ".join(
        f"{stat} raw={v.raw_slope:+.3f} norm={v.slope:+.3f}±{v.stderr:.3f}"
        f" {'ok' if v.passed else 'GROWING'}"
        for stat, v in sorted(verdicts.items())
    )
    _verdict(capsys, 5, passed, detail)
    assert passed
    digest = hashlib.sha256(ec.rows_to_csv(rows).encode()).hexdigest()
    assert digest == CRITERION_5_SHA256, (np.__version__, scipy.__version__)


def _synthetic_ladder_rows(name, growth, stream):
    rows = []
    for n in CRITERION_5_LADDER:
        draws = stream.child(n).generator().standard_normal(500)
        rows += [
            ec.ResultRow(name, n, rep, float(growth(n) * (1.0 + abs(v))), 0.0, SEED)
            for rep, v in enumerate(draws)
        ]
    return rows


def test_criterion_5_verdict_can_fail():
    """The criterion-5 verdict flags q95 growing like n^{0.1} and passes flat rows.

    approx4-nu0.2 on the lattice-anchored bundle grows about this fast.  The
    synthetic rows cover all 14 criterion-5 statistics, so the family-wise
    bound is the criterion's z = 2.69.
    """
    requests = _criterion_5_requests()
    target = "approx4-nu0.2"
    for label, growth, expect in (
        ("flat", lambda n: 1.0, True),
        ("growing", lambda n: (n / 512) ** 0.1, False),
    ):
        rows = []
        for req in requests:
            rows += _synthetic_ladder_rows(
                req.name,
                growth if req.name == target else (lambda n: 1.0),
                RngStream(SEED).child(label, req.name),
            )
        verdicts = ec.tightness_verdicts(rows, requests)
        for name, verdict in verdicts.items():
            assert verdict.bound == pytest.approx(2.69 * verdict.stderr, rel=1e-3)
            assert verdict.passed is (expect if name == target else True), (label, name, verdict)


def test_criterion_5_rate_normalizer():
    """rho is 1 off criticality and rises to about 1.26 (eta 0.45) and 1.10 (nu 0.2)."""
    for req in _criterion_5_requests():
        rho = rate_normalizer(req, CRITERION_5_LADDER)
        if req.statistic in ("approx1", "approx3") and req.weights.eta == 0.45:
            assert rho[-1] == pytest.approx(1.26, abs=0.005)
        elif req.statistic in ("approx2", "approx4") and req.weights.nu == 0.2:
            assert rho[-1] == pytest.approx(1.10, abs=0.005)
        else:
            np.testing.assert_array_equal(rho, 1.0)
        assert np.all(np.diff(rho) >= 0.0)


def test_rate_normalizer_rejects_sizes_below_3():
    """Below n = 3 log log n < 0 and r(n) is NaN: the verdict raises instead of failing."""
    req = ec.StatRequest("approx2", "approx2", ec.WeightConfig(lam=0.5))
    assert np.all(np.isfinite(rate_normalizer(req, [3, 4, 8])))
    with pytest.raises(ValueError, match=">= 3"):
        rate_normalizer(req, [2, 4, 8])
    rows = [
        ec.ResultRow(req.name, n, rep, 1.0 + rep / 20, 0.0, SEED)
        for n in (2, 4, 8)
        for rep in range(20)
    ]
    with pytest.raises(ValueError, match=">= 3"):
        ec.tightness_verdicts(rows, [req])


def test_criterion_6_ineq1_shape(capsys):
    """Exponential decay of the tail-interval exceedance in x at n=2^12, d=64."""
    est = ec.estimate_ineq1(
        4096, [64.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], reps=2000, seed=SEED, a=1.0
    )
    passed = est.c_hat > 0 and est.fit_r2 >= 0.8
    _verdict(
        capsys, 6, passed,
        f"c_hat={est.c_hat:.3f} b_hat={est.b_hat:.3f} R2={est.fit_r2:.3f} "
        f"fit_points={est.fit_points} probs={est.probs[0].tolist()}",
    )
    assert passed


def test_criterion_7_oracle_equivalence(capsys):
    """Every statistic equals the exhaustive brute-force scan bit-for-bit."""
    sizes = (8, 16, 32, 64)
    cfg = ec.WeightConfig(eta=0.25, nu=0.1)
    model = ec.CensoringModel(1.0)
    mismatches = 0
    checks = 0
    for rep in range(100):
        n = sizes[rep % len(sizes)]
        # each statistic on the bundle the harness evaluates it on
        b = _bundle(n, SEED + 2, rep)
        a = ec.build_anchored_bundle(SEED + 2, n, rep, 0.5, 6)
        problems = {
            "approx1": (b, problem_quantile_full(b, cfg)),
            "approx2": (b, problem_empirical_full(b, cfg)),
            "approx3": (b, problem_quantile_increment(b, cfg)),
            "approx4": (a, problem_empirical_increment(a, cfg)),
            "restricted": (a, problem_restricted(a, cfg)),
            "ineq1-tail": (b, problem_tail(b, min(8.0, n / 2.0), "left")),
        }
        sample = ec.sample_from_bundle(model, a, ec.derive_stream(SEED + 2, n, rep, "shuffle"))
        for name, prob in censored_sup_problems(sample, model, a, xi_exp=0.1).items():
            problems[name] = (a, prob)
        for name, (bundle, prob) in problems.items():
            engine = solve(bundle, prob).value
            oracle = naive_sup_fast(bundle, prob)
            checks += 1
            if engine != oracle:
                mismatches += 1
    passed = mismatches == 0
    _verdict(capsys, 7, passed, f"{mismatches} mismatches in {checks} bit-exact comparisons")
    assert passed


def test_criterion_8_parallel_determinism(capsys):
    """`mc` output is byte-identical at thread counts 1, 4 and 16."""
    reqs = [ec.StatRequest("approx4", "approx4", ec.WeightConfig(nu=0.1))]
    outputs = {
        threads: ec.rows_to_csv(ec.run_requests(reqs, [64, 128], 6, SEED, threads=threads))
        for threads in (1, 4, 16)
    }
    passed = outputs[1] == outputs[4] == outputs[16]
    _verdict(capsys, 8, passed, "CSV identical across thread counts {1, 4, 16}")
    assert passed
