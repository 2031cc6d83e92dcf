"""Correctness checks made apart from the program under test.

Each sup statistic's integrand is written out here from the bundles' public
evaluators (``quantile_process``, ``empirical_process``, ``bridge``, ``t``,
``n``), never through the package's own numerators.  A reported sup must
dominate its integrand at random points of the domain and at the closed
endpoints, be attained next to its ``arg_s``, and that ``arg_s`` must lie in
the domain.  The samples a bundle
carries must be strictly increasing uniforms in (0, 1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from empcouple import CensoringModel

# A sup may fall below a point value of its integrand by rounding alone: the
# two sides evaluate the same terms in a different order, with cancellation
# in the window differences.  Seen: 21 ulp at most, at a breakpoint.  The
# smallest real fault seen (the endpoint probe) is 1.8e-3 relative.
REL_TOL = 256 * np.finfo(float).eps

# Random points per checked solve, on top of the closed endpoints.
RANDOM_POINTS = 2048

# The reported sup is a one-sided limit at arg_s, so one of the points this
# close to arg_s (relative offsets, several scales in case a piece is narrow)
# comes within ATTAIN_TOL below it.  Seen: 1e-9 at most.
ATTAIN_OFFSETS = np.array([-1e-9, -1e-11, -1e-13, 0.0, 1e-13, 1e-11, 1e-9])
ATTAIN_TOL = 1e-6

# Family-wise false-alarm level of the uniformity tests in one run.
UNIFORM_ALPHA = 1e-6


def domain(req, n: int) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo closed, hi closed) of a request's sup domain at size n."""
    w = req.weights
    stat = req.statistic
    if stat in ("approx1", "approx2"):
        return w.lam / n, 1.0 - w.lam / n, True, True
    if stat in ("approx3", "approx4"):
        return w.lam / n, w.t, True, False
    if stat == "ineq1-tail":
        if req.side == "left":
            return 0.0, req.d / n, True, True
        return 1.0 - req.d / n, 1.0, True, True
    theta = CensoringModel(req.rate_c).theta
    if stat == "cens-h0":
        return theta, 1.0 - w.lam / n, True, True
    if stat == "cens-h1":
        return w.lam / n, theta, True, False
    raise ValueError(f"no integrand written for {stat!r}")


def _window(f, anchor: float, s: np.ndarray) -> np.ndarray:
    """f(anchor) - f(anchor - s)."""
    return f(np.asarray([anchor]))[0] - f(anchor - s)


def integrand(req, bundle, s: np.ndarray) -> np.ndarray:
    """Point values of the statistic's weighted discrepancy at s."""
    n = bundle.n
    w = req.weights
    qp, ep, br = bundle.quantile_process, bundle.empirical_process, bundle.bridge
    stat = req.statistic
    if stat == "approx1":
        return n**w.eta * np.abs(qp(s) - br(s)) / (s * (1 - s)) ** (0.5 - w.eta)
    if stat == "approx2":
        return n**w.nu * np.abs(ep(s) - br(s)) / (s * (1 - s)) ** (0.5 - w.nu)
    if stat == "approx3":
        gap = _window(qp, w.t, s) - _window(br, w.t, s)
        return n**w.eta * np.abs(gap) / s ** (0.5 - w.eta)
    if stat == "approx4":
        gap = _window(ep, w.t, s) - _window(br, w.t, s)
        return n**w.nu * np.abs(gap) / s ** (0.5 - w.nu)
    if stat == "ineq1-tail":
        return np.abs(qp(s) - br(s))
    xi = req.xi_exp
    if stat == "cens-h0":
        return n**xi * np.abs(ep(s) - br(s)) / (1 - s) ** (0.5 - xi)
    if stat == "cens-h1":
        theta = CensoringModel(req.rate_c).theta
        gap = _window(ep, theta, s) - _window(br, theta, s)
        return n**xi * np.abs(gap) / s ** (0.5 - xi)
    raise ValueError(f"no integrand written for {stat!r}")


def sup_problems(req, bundle, value: float, arg_s: float, rng) -> list[str]:
    """Ways a reported (value, arg_s) fails to be the sup of its integrand.

    The sup must dominate the integrand at random points and the closed
    endpoints, and be attained next to arg_s, which must lie in the domain.
    """
    lo, hi, lo_closed, hi_closed = domain(req, bundle.n)

    def inside(s):
        return s[((s > lo) | (lo_closed & (s == lo))) & ((s < hi) | (hi_closed & (s == hi)))]

    problems = []
    if not lo <= arg_s <= hi:
        problems.append(f"{req.name} n={bundle.n}: arg_s={arg_s!r} outside [{lo!r}, {hi!r}]")
    near = inside(arg_s + ATTAIN_OFFSETS * max(1.0, abs(arg_s)))
    if near.size and not integrand(req, bundle, near).max() >= value * (1.0 - ATTAIN_TOL):
        problems.append(f"{req.name} n={bundle.n}: sup {value!r} not attained next to arg_s={arg_s!r}")
    s = inside(np.concatenate([rng.uniform(lo, hi, RANDOM_POINTS), [lo, hi], near]))
    vals = integrand(req, bundle, s)
    j = int(np.argmax(vals))
    if not vals[j] <= value * (1.0 + REL_TOL):
        problems.append(
            f"{req.name} n={bundle.n}: integrand {vals[j]!r} at s={s[j]!r} exceeds "
            f"the reported sup {value!r} by {vals[j] / value - 1.0:.3g} relative"
        )
    return problems


def uniform_problems(bundle, bundles_in_run: int) -> list[str]:
    """Strictly increasing samples in (0, 1) that pass a KS test vs Uniform(0, 1)."""
    u = np.asarray(bundle.U[1 : bundle.n + 1])
    if u.size != bundle.n or not (np.all(np.diff(u) > 0) and u[0] > 0 and u[-1] < 1):
        return [f"{type(bundle).__name__} n={bundle.n}: samples not strictly increasing in (0, 1)"]
    p = sps.kstest(u, "uniform").pvalue
    if p < UNIFORM_ALPHA / bundles_in_run:
        return [f"{type(bundle).__name__} n={bundle.n}: KS p-value {p:.3g} against Uniform(0, 1)"]
    return []


def law_shape_problems(est, min_r2: float = 0.8) -> list[str]:
    """Exceedance non-increasing in x; c_hat > 0 and fit_r2 >= min_r2."""
    problems = []
    if np.any(np.diff(est.probs, axis=1) > 0):
        problems.append(f"exceedance probabilities increase in x: {est.probs.tolist()}")
    if not (est.c_hat > 0 and est.fit_r2 >= min_r2):
        problems.append(f"decay fit c_hat={est.c_hat!r} fit_r2={est.fit_r2!r}")
    if not math.isfinite(est.b_hat):
        problems.append(f"decay fit b_hat={est.b_hat!r}")
    return problems
