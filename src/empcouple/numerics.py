"""Special-function layer: normal, gamma and beta CDFs with their inverses,
and the binomial quantile.

Thin, validated wrappers around ``scipy.special`` ufuncs.  The coupling
applies these inverses once per summand, in one call per path over every
level's summands at once (``out=`` writes in place), so each range and
finiteness check below runs once per path.  NaN fails every range check.
Probabilities that fall outside the representable inversion range are
clamped and counted instead of aborting the path.  Nothing here imports
``scipy.stats``, whose import costs a fresh process most of its start-up
time.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import special
from scipy.special._ufuncs import _binom_ppf

# Inversion clamp range on the probability scale.  Outside of it quantiles
# are pinned to the nearest representable value and the event is counted.
P_FLOOR = 1e-300
P_CEIL = 1.0 - 1e-16

# Smallest admissible gamma/beta shape.
SHAPE_FLOOR = 1e-3


class ClampCounter:
    """Thread-safe tally of tail-clamping events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def add(self, k: int) -> None:
        if k:
            with self._lock:
                self.count += int(k)


def clamp_probability(p, counter: ClampCounter | None = None, out=None):
    """Clamp probabilities into the invertible range, counting the events."""
    p = np.asarray(p, dtype=float)
    out_of_range = (p < P_FLOOR) | (p > P_CEIL)
    if counter is not None:
        counter.add(int(np.count_nonzero(out_of_range)))
    return np.clip(p, P_FLOOR, P_CEIL, out=out)


def _check_shape(a, name: str = "a") -> None:
    if np.any(~(np.asarray(a) >= SHAPE_FLOOR)):
        raise ValueError(f"shape parameter {name} below {SHAPE_FLOOR} or NaN")


def std_normal_cdf(z, out=None):
    """Standard normal CDF, accurate to ~1e-16; clamps at the float extremes."""
    return special.ndtr(z, out=out)


def std_normal_quantile(p):
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0.0) & (p < 1.0))):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    return special.ndtri(p)


def binom_quantile(p, n, t):
    """Smallest k with P{Bin(n, t) <= k} >= p, for p strictly inside (0, 1).

    The Boost ufunc that ``scipy.stats.binom.ppf`` dispatches to for such p
    (scipy 1.17), so the two agree bit for bit; returned as a float.
    """
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0.0) & (p < 1.0))):
        raise ValueError("binom_quantile requires 0 < p < 1")
    n = np.asarray(n)
    if np.any((n < 0) | (n != np.floor(n))):
        raise ValueError("binom_quantile requires an integer n >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(~((t >= 0.0) & (t <= 1.0))):
        raise ValueError("binom_quantile requires 0 <= t <= 1")
    return _binom_ppf(p, n, t)


def reg_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    _check_shape(a)
    x = np.asarray(x, dtype=float)
    if np.any(~(x >= 0.0)):
        raise ValueError("reg_gamma_p requires x >= 0")
    return special.gammainc(a, x)


def inv_reg_gamma_p(a, p):
    """Inverse of ``reg_gamma_p`` in x.  Requires 0 <= p < 1."""
    _check_shape(a)
    p = np.asarray(p, dtype=float)
    if np.any(~((p >= 0.0) & (p < 1.0))):
        raise ValueError("inv_reg_gamma_p requires 0 <= p < 1")
    out = special.gammaincinv(a, p)
    if np.any(~np.isfinite(out)):
        raise RuntimeError(f"gamma quantile iteration failed for a={a!r}, p={p!r}")
    return out


def reg_beta_i(x, a, b):
    """Regularized incomplete beta I_x(a, b)."""
    _check_shape(a, "a")
    _check_shape(b, "b")
    x = np.asarray(x, dtype=float)
    if np.any(~((x >= 0.0) & (x <= 1.0))):
        raise ValueError("reg_beta_i requires 0 <= x <= 1")
    return special.betainc(a, b, x)


def inv_reg_beta_i(p, a, b, out=None):
    """Inverse of ``reg_beta_i`` in x.  Requires 0 <= p <= 1.

    The shapes a and b may be arrays, broadcast against p.
    """
    _check_shape(a, "a")
    _check_shape(b, "b")
    p = np.asarray(p, dtype=float)
    if np.any(~((p >= 0.0) & (p <= 1.0))):
        raise ValueError("inv_reg_beta_i requires 0 <= p <= 1")
    out = special.betaincinv(a, b, p, out=out)
    if np.any(~np.isfinite(out)):
        given = "" if out is p else f", p={p!r}"  # else p was overwritten
        raise RuntimeError(f"beta quantile iteration failed for a={a!r}, b={b!r}{given}")
    return out


def gamma2_tail(u):
    """Upper tail of a sum of two unit exponentials: (u + 1) * exp(-u)."""
    u = np.asarray(u, dtype=float)
    if np.any(~(u >= 0.0)):
        raise ValueError("gamma2_tail requires u >= 0")
    return (u + 1.0) * np.exp(-u)
