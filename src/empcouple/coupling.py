"""Joint construction of exponential partial sums and a Brownian motion.

A path carries iid Exp(1) increment sums S_0 < S_1 < ... < S_m together with
a standard Brownian motion W evaluated on the integers 0..m (and, once read
there, on a dyadic refinement of [0, m]).  The two are built on the same
draws by top-down dyadic conditional quantile coupling:

  * W is generated first: W(m) ~ N(0, m), then midpoints by bridge bisection.
  * S_m is the Gamma(m, 1) quantile of Phi(W(m) / sqrt(m)).
  * A block of k summands with total s splits as
    left = s * I^{-1}_{k/2,k/2}(Phi(V / sqrt(k/4))), with V the Brownian
    bridge midpoint deviation of the block; the left/total ratio of a gamma
    block sum is Beta(k/2, k/2) independent of the total, so the increments
    come out iid Exp(1) while staying maximally dependent on W.

A block's split depends on W alone, not on the sums above it, so a path
computes the splitting fractions of every level in one pass of the normal
CDF and one beta inversion over all of them (``_sums_from_brownian``), and
then walks the levels top-down for the products alone.  Its normals are
drawn in one call too (``_brownian_integer_grid``).

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

# Grid values ``freeze`` refines per tile, every level of one tile before the
# next, so that a tile's values and normals stay in cache; each level's
# draws come out in the same order whatever the tile.
_REFINE_TILE = 1 << 16


def _check_power_of_two(m: int) -> None:
    if m < 1 or m & (m - 1):
        raise ValueError(f"m must be a power of two, got {m}")


def _checked_extent(m: int, extent: int | None) -> int:
    """``extent``, or m when None, which must lie in [1, m]."""
    extent = m if extent is None else extent
    if not 1 <= extent <= m:
        raise ValueError(f"extent must lie in [1, {m}], got {extent}")
    return extent


def _brownian_integer_grid(m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """W at integer times 0..m, shape (count, m+1), by top-down bisection.

    All count m normals are drawn at once, in the order they are used: W(m)
    of each row, then each level's midpoints, row by row.  Each level is
    written through strided views of w.
    """
    z = rng.standard_normal(count * m)
    w = np.zeros((count, m + 1))
    w[:, m] = np.sqrt(m) * z[:count]
    used = count
    step = m
    while step > 1:
        half = step // 2
        zl = z[used : used + count * (m // step)].reshape(count, -1)
        used += zl.size
        mid = w[:, half:m:step]
        # 0.5 * (w[mid - half] + w[mid + half]) + (0.5 * sqrt(step)) * z, operation for operation
        np.add(w[:, 0 : m - half : step], w[:, step : m + 1 : step], out=mid)
        mid *= 0.5
        zl *= 0.5 * np.sqrt(step)
        mid += zl
        step = half
    return w


def _sums_from_brownian(
    m: int, w: np.ndarray, counter: ClampCounter, extent: int | None = None
) -> np.ndarray:
    """Partial sums S_0..S_extent coupled to integer-grid Brownian values.

    ``extent`` (default m) bounds the sums made: each level splits only the
    blocks that start below it, so no inversion is spent on summands past it.
    A level's splitting fractions depend on W alone, so every level's
    standardized deviation is written into one array first, and the normal
    CDF, the clamp and the beta inversion run once over it, in place; the
    levels are then walked top-down for the splits alone.  Every inversion
    is elementwise and the cumsum runs left to right, so the sums are the
    first extent + 1 of the full ones, bit for bit.
    """
    extent = m if extent is None else extent
    count = w.shape[0]
    p_top = clamp_probability(std_normal_cdf(w[:, m] / np.sqrt(m)), counter)
    sums = inv_reg_gamma_p(float(m), p_top).reshape(count, 1)
    # (block size k, blocks split) of each level, top-down
    levels = [(k, -(-extent // k)) for k in (m >> i for i in range(m.bit_length() - 1))]
    z = np.empty((count, sum(cnt for _, cnt in levels)))
    shapes = np.empty(z.shape[1])
    used = 0
    for k, cnt in levels:
        half, stop = k // 2, cnt * k
        v = z[:, used : used + cnt]
        # w[mid] - 0.5 * (w[start] + w[start + k]), then * (2 / sqrt(k))
        np.add(w[:, 0:stop:k], w[:, k : stop + 1 : k], out=v)
        v *= 0.5
        np.subtract(w[:, half : stop : k], v, out=v)
        v *= 2.0 / np.sqrt(k)
        shapes[used : used + cnt] = half
        used += cnt
    q = clamp_probability(std_normal_cdf(z, out=z), counter, out=z)
    frac = inv_reg_beta_i(q, shapes, shapes, out=z)
    counter.add(int(np.count_nonzero((frac < _FRAC_FLOOR) | (frac > _FRAC_CEIL))))
    np.clip(frac, _FRAC_FLOOR, _FRAC_CEIL, out=frac)
    used = 0
    for k, cnt in levels:
        split = np.empty((count, 2 * cnt))
        left = split[:, 0::2]
        np.multiply(sums, frac[:, used : used + cnt], out=left)
        np.subtract(sums, left, out=split[:, 1::2])
        sums = split[:, : -(-extent // (k // 2))]
        used += cnt
    s = np.empty((count, extent + 1))
    s[:, 0] = 0.0
    np.cumsum(sums, axis=1, out=s[:, 1:])
    return s


@dataclass
class CoupledPath:
    """One realization of the coupled (S, W) pair on [0, m].

    ``extent`` (default m) bounds the range [0, extent] the path serves: S
    holds S_0..S_extent, and W is refined over [0, extent] on its first grid
    read (``grid``, ``values_at``) or by ``freeze``.  W stays on the whole of
    0..m: its top-down draws start at W(m), and all of them must be made.
    """

    m: int
    S: np.ndarray
    W: np.ndarray
    stream: RngStream
    clamp_count: int
    _fine: np.ndarray | None = field(default=None, repr=False)
    extent: int | None = None
    _extremes: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.extent = _checked_extent(self.m, self.extent)

    @property
    def refinement_depth(self) -> int:
        """Depth of the refined grid held; 0 before the first refinement."""
        return 0 if self._fine is None else self._depth_of(self._fine)

    def _depth_of(self, fine: np.ndarray) -> int:
        return ((fine.size - 1) // self.extent).bit_length() - 1

    def freeze(self, depth: int) -> None:
        """Materialize W on the dyadic grid of step 2**-depth over [0, extent].

        Refinement draws come from sub-streams keyed by (path stream,
        refinement level) and are consumed in dyadic index order, so any
        later query sees the same values regardless of call order.  Deeper
        freezes extend shallower ones without changing them.  For the same
        reason a path refined over [0, extent] holds a prefix of the values
        of one refined over [0, m], bit for bit: each level's normals are
        the first draws of the full level's.  The missing levels are written
        in place into one local array: the held grid at its stride, then,
        tile by tile of the held grid's cells, each level's midpoints between
        the points of the last.  Each level draws from its own generator in
        index order, so the tiling changes no draw.  The grid, which carries
        its depth in its size, is published by one assignment, so concurrent
        reads are safe.
        """
        check_refine_depth(depth)
        held = self._fine
        if held is not None and self._depth_of(held) >= depth:
            return
        if held is None:
            held = self.W[: self.extent + 1]
        have = self._depth_of(held)
        span = 1 << (depth - have)  # refined values per held cell
        fine = np.empty((self.extent << depth) + 1)
        fine[::span] = held
        levels = [  # (stride, scale, generator) of each missing level
            (
                1 << (depth - level),
                0.5 * np.sqrt(2.0 ** -(level - 1)),
                self.stream.child("refine", level).generator(),
            )
            for level in range(have + 1, depth + 1)
        ]
        tile = max(1, _REFINE_TILE // span) * span
        z = np.empty(min(tile, fine.size - 1) // 2)
        tmp = np.empty_like(z)
        for lo in range(0, fine.size - 1, tile):
            part = fine[lo : lo + tile + 1]
            for stride, scale, rng in levels:
                prev = part[:: 2 * stride]
                mid = part[stride :: 2 * stride]
                zc, tc = z[: mid.size], tmp[: mid.size]
                rng.standard_normal(out=zc)
                # 0.5 * (a + b) + c * z, operation for operation, through the
                # contiguous tc so that the strided mid is written once
                np.add(prev[:-1], prev[1:], out=tc)
                tc *= 0.5
                zc *= scale
                np.add(tc, zc, out=mid)
        self._fine = fine

    def extremes(self, depth: int, size: int) -> np.ndarray:
        """Least and greatest W over each chunk of ``size`` grid cells of [0, extent).

        Row 0 holds the least and row 1 the greatest of ``grid(depth)[i]``
        over the cells [i, i + 1) 2**-depth, i = c size .. (c + 1) size - 1, of
        chunk c; the last chunk ends at the cell before ``extent``.  The first
        call at a (depth, size) reads the grid, and so refines the path, and
        computes every chunk with one ``reduceat`` each; the result is kept
        beside the grid, published by one assignment, so concurrent reads
        are safe.
        """
        held = self._extremes
        if held is not None and held[:2] == (depth, size):
            return held[2]
        cells = self.grid(depth)[:-1]
        starts = np.arange(0, cells.size, size)
        out = np.empty((2, starts.size))
        np.minimum.reduceat(cells, starts, out=out[0])
        np.maximum.reduceat(cells, starts, out=out[1])
        self._extremes = (depth, size, out)
        return out

    def grid(self, depth: int) -> np.ndarray:
        """View of W on the dyadic grid of step 2**-depth over [0, extent].

        Entry i is W(i 2**-depth), the value ``values_at`` reads on [i, i + 1)
        2**-depth.  The first read at a depth refines the path to it
        (``freeze``); a path never read is never refined.
        """
        check_refine_depth(depth)
        fine = self._fine
        while fine is None or fine.size <= self.extent << depth:
            self.freeze(depth)  # again if a concurrent shallower freeze published last
            fine = self._fine
        return fine[:: (fine.size - 1) // (self.extent << depth)]

    def values_at(self, t: np.ndarray, depth: int) -> np.ndarray:
        """Vectorized dyadic-grid lookup of W over [0, extent].

        t is floored to the grid of step 2**-depth; arguments within a few
        ulp of an integer snap to that integer first, so lattice queries are
        exact.  Reads through ``grid``, so the first read refines the path.
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

    ``extent`` (default m) is the range [0, extent] the path serves (see
    ``CoupledPath``): only S_0..S_extent are coupled, and they equal the
    first extent + 1 sums of the full path bit for bit.
    """
    _check_power_of_two(m)
    extent = _checked_extent(m, extent)
    counter = ClampCounter()
    w = _brownian_integer_grid(m, stream.generator(), 1)
    s = _sums_from_brownian(m, w, counter, extent)
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
    _check_power_of_two(m)
    w = _brownian_integer_grid(m, stream.generator(), count)
    return _sums_from_brownian(m, w, ClampCounter() if counter is None else counter), w


def max_discrepancy(path: CoupledPath) -> tuple[float, int]:
    """Exact max over k = 1..extent of |S_k - k - W(k)| with its location."""
    k = np.arange(1, path.extent + 1)
    gap = np.abs(path.S[1:] - k - path.W[1 : path.extent + 1])
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
