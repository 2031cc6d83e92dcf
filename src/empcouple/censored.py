"""Right-censored exponential samples and their sub-distribution processes.

The lifetime X ~ Exp(1) is censored by an independent Y ~ Exp(c); only
Z = min(X, Y) and the indicator delta = 1{X <= Y} are observed.  With this
model everything has closed form:

    H(z)      = 1 - exp(-(1+c) z)                 (law of Z)
    H1(z)     = P{Z <= z, delta = 1} = H(z) / (1+c)
    H0(z)     = P{Z <= z, delta = 0} = c H(z) / (1+c)
    theta     = H1(inf) = P{delta = 1} = 1 / (1+c)

Each observation maps to a single uniform variable

    xi = delta * H1(Z) + (1 - delta) * (theta + H0(Z)),

and the two sub-empirical distribution functions become exact window
increments of the empirical CDF of the xi sample.  The survival-scale
identities and the weighted sup approximations below are stated with
Hbar_i(v) := H_i(inf) - H_i(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .processes import Bundle
from .rng import RngStream
from .supstats import (
    SupProblem,
    WeightConfig,
    WeightedSupResult,
    empirical_range_problem,
    power_weight,
    problem_empirical_increment,
    solve,
)


@dataclass(frozen=True)
class CensoringModel:
    """Exponential lifetime with independent exponential censoring at rate c."""

    rate_c: float = 1.0

    def __post_init__(self):
        if not self.rate_c > 0:
            raise ValueError("censoring rate must be positive")

    @property
    def theta(self) -> float:
        return 1.0 / (1.0 + self.rate_c)

    def lifetime_cdf(self, z):
        return 1.0 - np.exp(-np.asarray(z, dtype=float))

    def censor_cdf(self, z):
        return 1.0 - np.exp(-self.rate_c * np.asarray(z, dtype=float))

    def h(self, z):
        return 1.0 - np.exp(-(1.0 + self.rate_c) * np.asarray(z, dtype=float))

    def h1(self, z):
        return self.h(z) / (1.0 + self.rate_c)

    def h0(self, z):
        return self.rate_c * self.h(z) / (1.0 + self.rate_c)

    def hbar1(self, z):
        return self.theta - self.h1(z)

    def hbar0(self, z):
        return (1.0 - self.theta) - self.h0(z)

    def inv_h1(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-(1.0 + self.rate_c) * u) / (1.0 + self.rate_c)

    def inv_h0(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-(1.0 + self.rate_c) * u / self.rate_c) / (1.0 + self.rate_c)


@dataclass
class CensoredSample:
    """Observed pairs (Z_i, delta_i) with their uniformized xi values."""

    n: int
    Z: np.ndarray
    delta: np.ndarray
    xi: np.ndarray
    redraws: int = 0


def uniformize(model: CensoringModel, z, delta) -> np.ndarray:
    """xi = delta H1(Z) + (1 - delta) (theta + H0(Z)); Uniform(0,1) in law."""
    z = np.asarray(z, dtype=float)
    delta = np.asarray(delta)
    return np.where(delta, model.h1(z), model.theta + model.h0(z))


def generate(model: CensoringModel, n: int, stream: RngStream) -> CensoredSample:
    """Draw a censored sample; replicates with tied Z values are redrawn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream.generator()
    for attempt in range(100):
        x = rng.exponential(1.0, size=n)
        y = rng.exponential(1.0 / model.rate_c, size=n)
        z = np.minimum(x, y)
        if np.unique(z).size == n:
            delta = x <= y
            return CensoredSample(n=n, Z=z, delta=delta, xi=uniformize(model, z, delta), redraws=attempt)
    raise RuntimeError("persistent ties in censored sample generation")


def sample_from_bundle(
    model: CensoringModel, bundle: Bundle, stream: RngStream
) -> CensoredSample:
    """Censored sample whose xi values are the bundle's coupled uniforms.

    The bundle's order statistics are randomly permuted, split at theta into
    uncensored (xi <= theta) and censored observations, and mapped back to Z
    through the closed-form inverses.  The resulting sample has the model's
    law while its empirical xi process is exactly the bundle's empirical
    process, so the bundle's bridge is the coupled bridge for the censored
    statistics.
    """
    n = bundle.n
    xi = bundle.U[1 : n + 1][stream.generator().permutation(n)]
    delta = xi <= model.theta
    z = np.empty(n)
    z[delta] = model.inv_h1(xi[delta])
    z[~delta] = model.inv_h0(xi[~delta] - model.theta)
    if np.unique(z).size != n:
        raise RuntimeError("tied Z values after inverse mapping")
    return CensoredSample(n=n, Z=z, delta=delta, xi=xi)


class SubEmpiricals:
    """Counting evaluators for H_n, its censored/uncensored parts and U_n."""

    def __init__(self, sample: CensoredSample):
        self.n = sample.n
        self._z_all = np.sort(sample.Z)
        self._z1 = np.sort(sample.Z[sample.delta])
        self._z0 = np.sort(sample.Z[~sample.delta])
        self._xi = np.sort(sample.xi)
        self.n1 = self._z1.size
        self.n0 = self._z0.size

    def count_h(self, v) -> np.ndarray:
        return np.searchsorted(self._z_all, np.asarray(v, dtype=float), side="right")

    def count_h1(self, v) -> np.ndarray:
        return np.searchsorted(self._z1, np.asarray(v, dtype=float), side="right")

    def count_h0(self, v) -> np.ndarray:
        return np.searchsorted(self._z0, np.asarray(v, dtype=float), side="right")

    def count_u(self, s) -> np.ndarray:
        return np.searchsorted(self._xi, np.asarray(s, dtype=float), side="right")

    def h_n(self, v):
        return self.count_h(v) / self.n

    def h1_n(self, v):
        return self.count_h1(v) / self.n

    def h0_n(self, v):
        return self.count_h0(v) / self.n

    def hbar1_n(self, v):
        return self.n1 / self.n - self.h1_n(v)

    def hbar0_n(self, v):
        return self.n0 / self.n - self.h0_n(v)

    def u_n(self, s):
        return self.count_u(s) / self.n

    def alpha_star(self, s):
        s = np.asarray(s, dtype=float)
        return np.sqrt(self.n) * (self.u_n(s) - s)


@dataclass
class IdentityReport:
    """Outcome of the exact sub-empirical representation checks."""

    name: str
    n_points: int
    n_failures: int
    max_abs_error: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


def representation_check(
    sample: CensoredSample, model: CensoringModel, v_grid
) -> list[IdentityReport]:
    """Exact count-level identities linking H0_n/H1_n to the xi ECDF.

    Checks, at every v in v_grid,
        n H0_n(v) = #{xi <= theta + H0(v)} - #{xi <= theta}
        n H1_n(v) = #{xi <= H1(v)}
    as integer equalities.
    """
    emp = SubEmpiricals(sample)
    v = np.asarray(v_grid, dtype=float)
    theta = model.theta
    at_theta = int(emp.count_u(theta))
    lhs0 = emp.count_h0(v)
    rhs0 = emp.count_u(theta + model.h0(v)) - at_theta
    lhs1 = emp.count_h1(v)
    rhs1 = emp.count_u(model.h1(v))
    reports = []
    for name, lhs, rhs in (("censored-part", lhs0, rhs0), ("uncensored-part", lhs1, rhs1)):
        bad = np.nonzero(lhs != rhs)[0]
        reports.append(
            IdentityReport(
                name=name,
                n_points=v.size,
                n_failures=int(bad.size),
                max_abs_error=float(np.max(np.abs(lhs - rhs))) if v.size else 0.0,
                failures=[(float(v[i]), int(lhs[i]), int(rhs[i])) for i in bad[:20]],
            )
        )
    return reports


def survival_representation_check(
    sample: CensoredSample, model: CensoringModel, v_grid, atol: float = 1e-9
) -> list[IdentityReport]:
    """Survival-scale identities expressing both parts through alpha_star.

        sqrt(n) (Hbar0_n(v) - Hbar0(v)) = -alpha_star(1 - Hbar0(v))
        sqrt(n) (Hbar1_n(v) - Hbar1(v)) = alpha_star(theta) - alpha_star(theta - Hbar1(v))

    Both sides are identical counts dressed in different float expressions,
    so they are compared to ``atol``.  The ECDF arguments 1 - Hbar0(v) and
    theta - Hbar1(v) are evaluated through their algebraically equal closed
    forms theta + H0(v) and H1(v) -- the exact float expressions the xi
    values were built with -- so the underlying counts match even at v equal
    to an observed Z.
    """
    emp = SubEmpiricals(sample)
    v = np.asarray(v_grid, dtype=float)
    theta = model.theta
    sqn = np.sqrt(sample.n)
    lhs0 = sqn * (emp.hbar0_n(v) - model.hbar0(v))
    rhs0 = -emp.alpha_star(theta + model.h0(v))
    lhs1 = sqn * (emp.hbar1_n(v) - model.hbar1(v))
    rhs1 = emp.alpha_star(theta) - emp.alpha_star(model.h1(v))
    reports = []
    for name, lhs, rhs in (("censored-survival", lhs0, rhs0), ("uncensored-survival", lhs1, rhs1)):
        err = np.abs(lhs - rhs)
        bad = np.nonzero(err > atol)[0]
        reports.append(
            IdentityReport(
                name=name,
                n_points=v.size,
                n_failures=int(bad.size),
                max_abs_error=float(np.max(err)) if v.size else 0.0,
                failures=[(float(v[i]), float(lhs[i]), float(rhs[i])) for i in bad[:20]],
            )
        )
    return reports


def censored_domain(n: int, model: CensoringModel, lam: float) -> tuple[float, float]:
    """[theta, 1 - lam/n], the domain of 'cens-h0'; ValueError where it is empty."""
    if not lam / n < 1.0 - model.theta:
        raise ValueError(f"empty censored-part domain: lam/n = {lam / n} >= 1 - theta")
    return model.theta, 1.0 - lam / n


def problem_censored_part(
    bundle: Bundle, model: CensoringModel, xi_exp: float, lam: float = 1.0
) -> SupProblem:
    """'cens-h0' on ``bundle`` (see ``censored_sup_problems``)."""
    weight = power_weight(bundle.n, xi_exp, "one-minus-s")
    return empirical_range_problem(bundle, *censored_domain(bundle.n, model, lam), *weight)


def censored_sup_problems(
    sample: CensoredSample,
    model: CensoringModel,
    bundle: Bundle,
    xi_exp: float,
    lam: float = 1.0,
) -> dict[str, SupProblem]:
    """The two censored sup problems in the uniformized variable.

    Requires a sample produced by ``sample_from_bundle`` for this bundle, so
    that alpha_star coincides with the bundle's empirical process and the
    bundle's bridge is the coupled one.  'cens-h1' is approx4's problem
    (``problem_empirical_increment``) at t = theta with xi for nu, an
    empirical window increment at theta, so the bundle should be the
    count-anchored ``AnchoredBundle`` at theta (as the harness builds it);
    on a lattice-anchored ``ProcessBundle`` that increment decouples from
    the bridge over windows of fewer than O(sqrt(n)) points and the
    statistic is not tight.  With u = Hbar_i(v):

      'cens-h0': sup over u in [lam/n, 1-theta] of
                 n^xi |alpha(1-u) - B(1-u)| / u^{1/2-xi}
                 (written below in the substituted variable w = 1-u)
      'cens-h1': sup over u in [lam/n, theta) of
                 n^xi |alpha(u; theta) - B(u; theta)| / u^{1/2-xi}

    where B(u; theta) = B(theta) - B(theta - u) is the bridge's own window
    increment (itself a Brownian bridge in u on [0, theta]).
    """
    if not 0.0 <= xi_exp < 0.25:
        raise ValueError("xi exponent must lie in [0, 1/4)")
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not np.array_equal(np.sort(sample.xi), bundle.U[1 : bundle.n + 1]):
        raise ValueError("sample is not coupled to this bundle (xi != order statistics)")
    at_theta = WeightConfig(lam=lam, nu=xi_exp, t=model.theta)
    return {
        "cens-h0": problem_censored_part(bundle, model, xi_exp, lam),
        "cens-h1": problem_empirical_increment(bundle, at_theta),
    }


def censored_weighted_stats(
    sample: CensoredSample,
    model: CensoringModel,
    bundle: Bundle,
    xi_exp: float,
    lam: float = 1.0,
) -> dict[str, WeightedSupResult]:
    """Solve both censored sup statistics (see ``censored_sup_problems``)."""
    problems = censored_sup_problems(sample, model, bundle, xi_exp, lam)
    return {name: solve(bundle, prob) for name, prob in problems.items()}


def default_check_grid(sample: CensoredSample, model: CensoringModel) -> np.ndarray:
    """v values for the identity checks: quantiles, observations, perturbations."""
    base = -np.log1p(-np.linspace(0.05, 0.95, 10)) / (1.0 + model.rate_c)
    eps = 1e-9 * (1.0 + np.abs(sample.Z))
    pts = np.concatenate([base, sample.Z, sample.Z - eps, sample.Z + eps])
    return pts[pts > 0.0]
