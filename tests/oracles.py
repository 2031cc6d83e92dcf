"""Independent reference implementations used by the test suite.

Everything here is deliberately slow and simple: quadrature and mpmath for
special functions, bisection for inverses, plain Python loops for suprema and
counts.  Nothing imports the package's numerics beyond raw data access, so a
disagreement points at the implementation, not at a shared bug.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

mpmath.mp.dps = 30


# -- special functions -------------------------------------------------------


def normal_cdf_quad(z: float) -> float:
    """Standard normal CDF by adaptive quadrature of the density."""
    if z < 0:
        return 1.0 - normal_cdf_quad(-z)
    val, _ = integrate.quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), 0.0, z)
    return 0.5 + val


def gamma_p_mp(a: float, x: float) -> float:
    """Regularized lower incomplete gamma via mpmath."""
    return float(mpmath.gammainc(a, 0, x, regularized=True))


def beta_i_mp(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta via mpmath."""
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def inv_gamma_p_bisect(a: float, p: float) -> float:
    hi = max(4.0 * a, 10.0)
    while gamma_p_mp(a, hi) < p:
        hi *= 2.0
    return _bisect(lambda x: gamma_p_mp(a, x) - p, 0.0, hi)


def inv_beta_i_bisect(p: float, a: float, b: float) -> float:
    return _bisect(lambda x: beta_i_mp(x, a, b) - p, 0.0, 1.0)


def gamma2_median() -> float:
    """Median of a sum of two unit exponentials: root of (1+x)e^{-x} = 1/2."""
    return _bisect(lambda x: 0.5 - (1.0 + x) * math.exp(-x), 0.0, 10.0)


# -- coupling ---------------------------------------------------------------


def naive_max_discrepancy(S, W, m: int) -> tuple[float, int]:
    """Loop recomputation of max_k |S_k - k - W(k)|."""
    best, at = -1.0, 0
    for k in range(1, m + 1):
        gap = abs(S[k] - k - W[k])
        if gap > best:
            best, at = gap, k
    return best, at


# -- counting ---------------------------------------------------------------


def count_leq(values, x, strict: bool = False) -> int:
    """#{v < x} (strict) or #{v <= x} by a plain loop."""
    c = 0
    for v in values:
        if (v < x) if strict else (v <= x):
            c += 1
    return c


# -- weighted sup oracles ---------------------------------------------------


def _breakpoints(bundle, prob) -> list[float]:
    """Sorted breakpoints in the domain: endpoints, bridge grids, step jumps."""
    pts = {prob.lo, prob.hi}
    for source in (bundle.jump_grid(), prob.bridge_breaks, prob.step_jumps):
        for s in np.asarray(source, dtype=float):
            if prob.lo <= s <= prob.hi:
                pts.add(float(s))
    return sorted(pts)


def _in_domain(prob, s: float) -> bool:
    return prob.lo <= s < prob.hi or (s == prob.hi and prob.closed_hi)


def _scan_points(bundle, prob, per_cell: int) -> list[float]:
    """Point abscissae (k + j / per_cell) / n over the cells covering the domain."""
    n = bundle.n
    k0 = int(math.floor(prob.lo * n))
    k1 = int(math.floor(prob.hi * n)) + 1
    out = []
    for k in range(k0, k1 + 2):
        for j in range(per_cell):
            s = (k + j / per_cell) / n
            if _in_domain(prob, s):
                out.append(s)
    return out


def _candidates(bundle, prob, per_cell: int):
    """(s, s_piece) pairs: at every breakpoint the point value (if s lies in
    the domain), the left limit (but at lo) and the right limit (but at hi);
    plus point values at ``per_cell`` points per lattice cell."""
    pts = _breakpoints(bundle, prob)
    pairs = []
    for i, s in enumerate(pts):
        if _in_domain(prob, s):
            pairs.append((s, s))
        if i > 0:
            pairs.append((s, 0.5 * (pts[i - 1] + s)))
        if i + 1 < len(pts):
            pairs.append((s, 0.5 * (s + pts[i + 1])))
    pairs += [(s, s) for s in _scan_points(bundle, prob, per_cell)]
    return pairs


def naive_sup(bundle, prob, per_cell: int = 80) -> float:
    """Exhaustive scan of a sup problem, one scalar evaluation at a time.

    Takes the point value and both one-sided limits at every breakpoint (the
    bundle's bridge jump grid, the problem's bridge breaks and step jumps,
    the endpoints), plus point values at ``per_cell`` points per lattice
    cell.  This searches a superset of the engine's evaluation set; the
    extra points can only tie it, so the result must equal the engine's
    bit-for-bit.
    """
    best = -math.inf
    for s, piece in _candidates(bundle, prob, per_cell):
        val = float(prob.weighted(np.asarray([s]), np.asarray([piece]))[0])
        best = max(best, val)
    return best


def naive_sup_fast(bundle, prob, per_cell: int = 80) -> float:
    """Same evaluation set as ``naive_sup`` with vectorized evaluation.

    Candidate abscissae are still enumerated by plain Python loops; only the
    final weighted evaluations are batched so the scan stays usable at
    n = 64 across many replicates.
    """
    s, piece = (np.asarray(col) for col in zip(*_candidates(bundle, prob, per_cell)))
    return float(np.max(prob.weighted(s, piece)))


# -- censored hand enumeration ----------------------------------------------


def hand_sample():
    """The fixed n=3 censored sample used for enumeration checks (c = 1)."""
    Z = np.asarray([0.2, 0.5, 1.0])
    delta = np.asarray([True, False, True])
    return Z, delta


def hand_h1(z: float, c: float = 1.0) -> float:
    return (1.0 - math.exp(-(1.0 + c) * z)) / (1.0 + c)


def hand_h0(z: float, c: float = 1.0) -> float:
    return c * (1.0 - math.exp(-(1.0 + c) * z)) / (1.0 + c)


def hand_xi(Z, delta, c: float = 1.0):
    theta = 1.0 / (1.0 + c)
    return np.asarray(
        [hand_h1(z, c) if d else theta + hand_h0(z, c) for z, d in zip(Z, delta)]
    )
