"""Every statistic's sup against an exact-rational scan of its integrand.

The scan (``oracles.ExactIntegrand``) shares no code with the sup engine:
its breakpoints are exact rationals (j / (n 2^depth), k / n, the blocks'
mapped grids, the domain ends and anchors as the rationals their floats
denote, plus the float U_k), its lookups exact integer arithmetic on them,
and W_n is read by index from the paths' refined grids.  The reported sup
must dominate the integrand at every breakpoint, as the point value and
both one-sided limits, and be attained there, within ``oracles.REL_TOL``.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from empcouple import supstats
from empcouple.harness import (
    StatRequest,
    build_anchored_bundle,
    evaluate_requests,
    replicate_bundle,
)
from empcouple.supstats import WeightConfig, problem_quantile_full, problem_quantile_increment
from oracles import REL_TOL, ExactIntegrand, exact_candidates, lattice_rational

# Grid points per unit of the scanned grid at most: the scan is Python-speed.
_MAX_GRID = 1 << 12


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


# Dyadic points, one ulp off them, and points off any grid.
_POINTS = st.builds(
    _nudged, st.sampled_from([0.5, 0.25, 0.75, 0.375, 0.3, 0.37, 0.61]), st.integers(-1, 1)
)


def _definition(req, bundle):
    """(kind, anchor, weight exponent, weight kind, lo, hi, hi closed) of a
    statistic, from its definition (README) rather than the package's builders."""
    n, w = bundle.n, req.weights
    lam = lattice_rational(w.lam / n, n)
    stat = req.statistic
    # A window increment's anchor: a count-anchored bundle's own t, where its
    # bridge is spliced; else the lattice point t denotes.
    anchor = Fraction(bundle.t) if hasattr(bundle, "below") else lattice_rational(w.t, n)
    if stat in ("approx1", "approx2"):
        kind = "quantile" if stat == "approx1" else "empirical"
        return kind, None, w.eta if stat == "approx1" else w.nu, "sym", lam, 1 - lam, True
    if stat in ("approx3", "approx4"):
        kind = "quantile" if stat == "approx3" else "empirical"
        return kind, anchor, w.eta if stat == "approx3" else w.nu, "s", lam, anchor, False
    if stat == "restricted":
        t_n = math.floor(n * w.t)
        return "empirical", anchor, w.nu, "s", Fraction(bundle.U[1]), Fraction(bundle.U[t_n]), False
    if stat == "ineq1-tail":
        d = lattice_rational(req.d / n, n)
        lo, hi = (Fraction(0), d) if req.side == "left" else (1 - d, Fraction(1))
        return "quantile", None, 0.0, None, lo, hi, True
    if stat == "cens-h0":  # on the bundle anchored at theta
        return "empirical", None, req.xi_exp, "one-minus-s", anchor, 1 - lam, True
    return "empirical", anchor, req.xi_exp, "s", lam, anchor, False


# Derandomized, so every run draws the same cases; not shrunk, so a failure
# reports its first failing draw at once.
@settings(
    max_examples=200, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)
@given(
    stat=st.sampled_from(
        ["approx1", "approx2", "approx3", "approx4", "restricted", "ineq1-tail", "cens-h0", "cens-h1"]
    ),
    n=st.integers(2, 300),
    depth=st.integers(0, 8),
    lam_n=_POINTS.map(lambda x: x / 4),
    t=_POINTS,
    rate_c=st.sampled_from([1.0, 1.5, 0.5, 3.0]),
    d=st.integers(1, 300),
    side=st.sampled_from(["left", "right"]),
    seed=st.integers(0, 1000),
    rep=st.integers(0, 9),
    block_points=st.sampled_from([supstats._BLOCK_POINTS, 64]),
)
# The endpoint probe: the sup is the point value at the closed end lam/n.
@example("approx3", 64, 6, 1.2 / 64, 0.3, 1.0, 1, "left", 5, 9, supstats._BLOCK_POINTS)
# Count-anchored bundles at 1/2 whose lower block holds 0, 1, n - 1 and n of
# the n = 3 points (theta = 1/2 at c = 1).
@example("approx4", 3, 4, 0.0625, 0.5, 1.0, 1, "left", 0, 0, 64)
@example("approx4", 3, 4, 0.0625, 0.5, 1.0, 1, "left", 0, 1, 64)
@example("cens-h1", 3, 5, 0.0625, 0.5, 1.0, 1, "left", 0, 2, 64)
@example("cens-h0", 3, 3, 0.0625, 0.5, 1.0, 1, "left", 1, 0, 64)
def test_sup_is_exact(stat, n, depth, lam_n, t, rate_c, d, side, seed, rep, block_points):
    depth = min(depth, (_MAX_GRID // n).bit_length() - 1)
    req = StatRequest(
        stat, stat, WeightConfig(lam=lam_n * n, eta=0.25, nu=0.1, t=t),
        d=float(min(d, n)), side=side, rate_c=rate_c, xi_exp=0.1,
    )
    with mock.patch.object(supstats, "_BLOCK_POINTS", block_points):
        try:
            row = evaluate_requests([req], seed, n, rep, depth)[0]
        except ValueError:  # the sup domain is empty at this n
            assume(False)
    bundle = replicate_bundle(req, seed, n, rep, depth)
    kind, anchor, x, weight_kind, lo, hi, closed_hi = _definition(req, bundle)
    assume(lo < hi)
    integrand = ExactIntegrand(bundle, kind, anchor, x, weight_kind)
    bound, reach = exact_candidates(integrand, lo, hi, closed_hi)
    assert max(bound) <= row.value * (1.0 + REL_TOL), (max(bound), row)
    assert any(abs(v - row.value) <= REL_TOL * row.value for v in reach), row


# The quantile sups on a count-anchored bundle, which the harness never
# builds, so ``test_sup_is_exact`` does not reach them.
@settings(
    max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)
@given(
    stat=st.sampled_from(["approx3", "approx1"]),
    n=st.integers(2, 300),
    depth=st.integers(0, 8),
    lam_n=_POINTS.map(lambda x: x / 4),
    t=_POINTS,
    seed=st.integers(0, 1000),
    rep=st.integers(0, 9),
    block_points=st.sampled_from([supstats._BLOCK_POINTS, 64]),
)
# The sup lies at the step jump t - 33/100, which rounds one ulp below the
# lattice point 17/100.
@example("approx3", 100, 3, 0.01, 0.5, 11, 0, supstats._BLOCK_POINTS)
# The sup is the point value at the splice t, which is neither a step jump
# nor an end: both one-sided limits there lie below it.
@example("approx1", 2, 2, _nudged(0.3, -1) / 4, _nudged(0.3, -1), 721, 3, supstats._BLOCK_POINTS)
def test_anchored_quantile_sup_is_exact(stat, n, depth, lam_n, t, seed, rep, block_points):
    # Where t n lies within the snap of an integer k but t != k / n, the
    # quantile process reads U_k at t while the bridge is spliced at the
    # float t: no one rational anchor denotes both.
    assume(lattice_rational(t, n) == Fraction(t))
    depth = min(depth, (_MAX_GRID // n).bit_length() - 1)
    cfg = WeightConfig(lam=lam_n * n, eta=0.25, t=t)
    bundle = build_anchored_bundle(seed, n, rep, t, depth)
    builder = problem_quantile_increment if stat == "approx3" else problem_quantile_full
    with mock.patch.object(supstats, "_BLOCK_POINTS", block_points):
        try:
            res = supstats.solve(bundle, builder(bundle, cfg))
        except ValueError:  # the sup domain is empty at this n
            assume(False)
    definition = _definition(StatRequest(stat, stat, cfg), bundle)
    kind, anchor, x, weight_kind, lo, hi, closed_hi = definition
    assume(lo < hi)
    integrand = ExactIntegrand(bundle, kind, anchor, x, weight_kind)
    bound, reach = exact_candidates(integrand, lo, hi, closed_hi)
    assert max(bound) <= res.value * (1.0 + REL_TOL), (max(bound), res)
    assert any(abs(v - res.value) <= REL_TOL * res.value for v in reach), res
