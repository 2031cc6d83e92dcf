"""Joint construction of exponential partial sums and a Brownian motion.

A path carries iid Exp(1) increment sums S_0 < S_1 < ... < S_m together with
a standard Brownian motion W evaluated on the integers 0..m (and, after
freezing, on a dyadic refinement of [0, m]).  The two are built on the same
draws by top-down dyadic conditional quantile coupling:

  * W is generated first: W(m) ~ N(0, m), then midpoints by bridge bisection.
  * S_m is the Gamma(m, 1) quantile of Phi(W(m) / sqrt(m)).
  * A block of k summands with total s splits as
    left = s * I^{-1}_{k/2,k/2}(Phi(V / sqrt(k/4))), with V the Brownian
    bridge midpoint deviation of the block; the left/total ratio of a gamma
    block sum is Beta(k/2, k/2) independent of the total, so the increments
    come out iid Exp(1) while staying maximally dependent on W.

The maximal gap max_k |S_k - k - W(k)| of this construction grows
logarithmically in m with an exponential upper tail; ``fit_kmt_tail``
estimates those growth/tail constants empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    ClampCounter,
    clamp_probability,
    inv_reg_beta_i,
    inv_reg_gamma_p,
    std_normal_cdf,
)
from .rng import RngStream

MAX_REFINE_DEPTH = 12

# Fractions this close to {0, 1} are pulled inside so every increment stays
# strictly positive.
_FRAC_FLOOR = 1e-300
_FRAC_CEIL = 1.0 - 1e-16


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _brownian_integer_grid(m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """W at integer times 0..m, shape (count, m+1), by top-down bisection."""
    w = np.zeros((count, m + 1))
    w[:, m] = np.sqrt(m) * rng.standard_normal(count)
    step = m
    while step > 1:
        half = step // 2
        mid = np.arange(half, m, step)
        z = rng.standard_normal((count, mid.size))
        w[:, mid] = 0.5 * (w[:, mid - half] + w[:, mid + half]) + (0.5 * np.sqrt(step)) * z
        step = half
    return w


def _sums_from_brownian(m: int, w: np.ndarray, counter: ClampCounter) -> np.ndarray:
    """Partial sums S_0..S_m coupled to integer-grid Brownian values."""
    count = w.shape[0]
    p_top = clamp_probability(std_normal_cdf(w[:, m] / np.sqrt(m)), counter)
    sums = inv_reg_gamma_p(float(m), p_top).reshape(count, 1)
    k = m
    while k > 1:
        half = k // 2
        start = np.arange(0, m, k)
        v = w[:, start + half] - 0.5 * (w[:, start] + w[:, start + k])
        q = clamp_probability(std_normal_cdf(v * (2.0 / np.sqrt(k))), counter)
        frac = inv_reg_beta_i(q, float(half), float(half))
        clipped = (frac < _FRAC_FLOOR) | (frac > _FRAC_CEIL)
        counter.add(int(np.count_nonzero(clipped)))
        frac = np.clip(frac, _FRAC_FLOOR, _FRAC_CEIL)
        left = sums * frac
        merged = np.empty((count, 2 * sums.shape[1]))
        merged[:, 0::2] = left
        merged[:, 1::2] = sums - left
        sums = merged
        k = half
    s = np.empty((count, m + 1))
    s[:, 0] = 0.0
    np.cumsum(sums, axis=1, out=s[:, 1:])
    return s


@dataclass
class CoupledPath:
    """One realization of the coupled (S, W) pair on [0, m].

    ``extent`` (default m) bounds the range [0, extent] that ``freeze``
    refines and ``values_at`` answers; S and W stay on the whole of 0..m.
    """

    m: int
    S: np.ndarray
    W: np.ndarray
    stream: RngStream
    clamp_count: int
    refinement_depth: int = 0
    _fine: np.ndarray | None = field(default=None, repr=False)
    extent: int | None = None

    def __post_init__(self) -> None:
        if self.extent is None:
            self.extent = self.m
        if not 1 <= self.extent <= self.m:
            raise ValueError(f"extent must lie in [1, {self.m}], got {self.extent}")

    def freeze(self, depth: int) -> None:
        """Materialize W on the dyadic grid of step 2**-depth over [0, extent].

        Refinement draws come from sub-streams keyed by (path stream,
        refinement level) and are consumed in dyadic index order, so any
        later query sees the same values regardless of call order.  Deeper
        freezes extend shallower ones without changing them.  For the same
        reason a path refined over [0, extent] holds a prefix of the values
        of one refined over [0, m], bit for bit: each level's normals are
        the first draws of the full level's.
        """
        check_refine_depth(depth)
        if self._fine is None:
            self._fine = self.W[: self.extent + 1].copy()
            self.refinement_depth = 0
        while self.refinement_depth < depth:
            level = self.refinement_depth + 1
            cur = self._fine
            spacing = 2.0 ** -(level - 1)
            rng = self.stream.child("refine", level).generator()
            z = rng.standard_normal(cur.size - 1)
            fine = np.empty(2 * cur.size - 1)
            fine[0::2] = cur
            fine[1::2] = 0.5 * (cur[:-1] + cur[1:]) + (0.5 * np.sqrt(spacing)) * z
            self._fine = fine
            self.refinement_depth = level

    def grid(self, depth: int) -> np.ndarray:
        """View of W on the dyadic grid of step 2**-depth over [0, extent].

        Entry i is W(i 2**-depth), the value ``values_at`` reads on [i, i + 1)
        2**-depth.  Requires a prior ``freeze`` at least as deep.
        """
        check_refine_depth(depth)
        if self._fine is None or depth > self.refinement_depth:
            raise ValueError(f"path not frozen to depth {depth}")
        return self._fine[:: 1 << (self.refinement_depth - depth)]

    def values_at(self, t: np.ndarray, depth: int) -> np.ndarray:
        """Vectorized dyadic-grid lookup of W over [0, extent].

        t is floored to the grid of step 2**-depth; arguments within a few
        ulp of an integer snap to that integer first, so lattice queries are
        exact.  Requires a prior ``freeze`` at least as deep.
        """
        grid = self.grid(depth)
        t = snap_to_integer(np.asarray(t, dtype=float))
        if np.any((t < 0.0) | (t > self.extent)):
            raise ValueError(f"time outside the refined range [0, {self.extent}]")
        return grid[np.floor(t * (1 << depth)).astype(np.int64)]


def check_refine_depth(depth: int) -> None:
    """Reject a refinement depth outside [0, MAX_REFINE_DEPTH]."""
    if not 0 <= depth <= MAX_REFINE_DEPTH:
        raise ValueError(f"refinement depth must lie in [0, {MAX_REFINE_DEPTH}], got {depth}")


def snap_to_integer(z: np.ndarray, ulps: int = 8) -> np.ndarray:
    """Round values within a few ulp of an integer to that integer.

    Floor-based grid lookups are applied to products like s * n; without the
    snap, lattice arguments whose product rounds a hair below the integer
    would land one cell short.
    """
    z = np.asarray(z, dtype=float)
    nearest = np.round(z)
    tol = ulps * np.spacing(np.maximum(1.0, np.abs(z)))
    return np.where(np.abs(z - nearest) <= tol, nearest, z)


def couple_exponential_sums(
    m: int, stream: RngStream, extent: int | None = None
) -> CoupledPath:
    """Build one coupled path of m exponential summands; m must be 2**L.

    ``extent`` (default m) is the range [0, extent] its Brownian motion is
    refined over (see ``CoupledPath``).
    """
    counter = ClampCounter()
    s, w = couple_batch(m, 1, stream, counter)
    if np.any(np.diff(s[0]) <= 0.0):
        raise RuntimeError(f"non-increasing partial sums for m={m}, stream={stream}")
    return CoupledPath(
        m=m, S=s[0], W=w[0], stream=stream, clamp_count=counter.count, extent=extent
    )


def couple_batch(
    m: int, count: int, stream: RngStream, counter: ClampCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(S, W) arrays of shape (count, m+1) from a single stream.

    Draw order differs from per-path construction for count > 1; use this
    for aggregate Monte Carlo checks, not for reproducing individual paths.
    ``counter`` collects the tail clamps of the inversions.
    """
    if not _is_power_of_two(m):
        raise ValueError(f"m must be a power of two, got {m}")
    w = _brownian_integer_grid(m, stream.generator(), count)
    return _sums_from_brownian(m, w, ClampCounter() if counter is None else counter), w


def max_discrepancy(path: CoupledPath) -> tuple[float, int]:
    """Exact max over k = 1..m of |S_k - k - W(k)| with its location."""
    k = np.arange(1, path.m + 1)
    gap = np.abs(path.S[1:] - k - path.W[1:])
    j = int(np.argmax(gap))
    return float(gap[j]), int(k[j])


@dataclass
class KmtTailFit:
    """Empirical growth/tail constants of the coupling discrepancy."""

    C_hat: float
    K_hat: float
    mu_hat: float
    m_ladder: list[int]
    residual: float
    growth_r2: float
    medians: list[float] = field(default_factory=list)


def fit_kmt_tail(ladder: list[int], reps: int, stream: RngStream) -> KmtTailFit:
    """Fit median discrepancy growth in log m and the exceedance tail in x.

    The median of max_k |S_k - k - W(k)| is regressed on log m (slope
    C_hat); the pooled exceedance P{max >= C_hat log m + x} is fitted
    log-linearly in x (slope -mu_hat, intercept log K_hat).  With fewer than
    two ladder sizes the growth fit is refused (C_hat = nan) and the tail is
    fitted around the per-size medians instead.
    """
    if not ladder:
        raise ValueError("ladder must be nonempty")
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    medians = []
    excesses = []
    for m in ladder:
        s, w = couple_batch(m, reps, stream.child("kmt", m))
        k = np.arange(1, m + 1)
        gaps = np.max(np.abs(s[:, 1:] - k - w[:, 1:]), axis=1)
        medians.append(np.median(gaps))
        excesses.append(gaps)
    log_m = np.log(np.asarray(ladder, dtype=float))
    medians = np.asarray(medians)
    if len(ladder) >= 2:
        slope, intercept = np.polyfit(log_m, medians, 1)
        pred = slope * log_m + intercept
        ss_res = float(np.sum((medians - pred) ** 2))
        ss_tot = float(np.sum((medians - medians.mean()) ** 2))
        growth_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
        c_hat = float(slope)
        centers = c_hat * log_m + intercept
    else:
        c_hat = float("nan")
        growth_r2 = float("nan")
        centers = medians
    pooled = np.concatenate([g - c for g, c in zip(excesses, centers)])
    x_grid = np.arange(0.0, max(1.5, float(np.quantile(pooled, 0.98))), 0.25)
    surv = np.array([np.mean(pooled >= x) for x in x_grid])
    keep = surv > 0
    if np.count_nonzero(keep) < 2:
        raise RuntimeError("degenerate tail fit: exceedance estimates all zero")
    tail_slope, tail_intercept = np.polyfit(x_grid[keep], np.log(surv[keep]), 1)
    resid = float(
        np.sqrt(np.mean((np.log(surv[keep]) - (tail_slope * x_grid[keep] + tail_intercept)) ** 2))
    )
    return KmtTailFit(
        C_hat=c_hat,
        K_hat=float(np.exp(tail_intercept)),
        mu_hat=float(-tail_slope),
        m_ladder=list(ladder),
        residual=resid,
        growth_r2=growth_r2,
        medians=[float(v) for v in medians],
    )
