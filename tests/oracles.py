"""Independent reference implementations used by the test suite.

Everything here is deliberately slow and simple: quadrature and mpmath for
special functions, bisection for inverses, plain Python loops for suprema and
counts.  Nothing imports the package's numerics beyond raw data access, so a
disagreement points at the implementation, not at a shared bug.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate

from empcouple.processes import ProcessBundle
from empcouple.supstats import Index

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


# -- processes --------------------------------------------------------------


def increment(f, s: float, t: float):
    """Window increment f(t) - f(t - s); requires 0 <= s < t."""
    if not 0.0 <= s < t:
        raise ValueError("increment requires 0 <= s < t")
    return f(t) - f(t - s)


# -- coupling ---------------------------------------------------------------


def naive_max_discrepancy(S, W, m: int) -> tuple[float, int]:
    """Loop recomputation of max_k |S_k - k - W(k)|."""
    best, at = -1.0, 0
    for k in range(1, m + 1):
        gap = abs(S[k] - k - W[k])
        if gap > best:
            best, at = gap, k
    return best, at


def refine_reference(path, depth: int) -> np.ndarray:
    """W on the dyadic grid of step 2**-depth over [0, path.extent], refined
    one level at a time into a new array: each level's points interleaved
    with the midpoints 0.5 (a + b) + 0.5 sqrt(2**-(level - 1)) z, where z are
    the level's normals drawn at once from the path's ("refine", level)
    stream."""
    fine = np.array(path.W[: path.extent + 1], dtype=float)
    for level in range(1, depth + 1):
        spacing = 2.0 ** -(level - 1)
        z = path.stream.child("refine", level).generator().standard_normal(fine.size - 1)
        finer = np.empty(2 * fine.size - 1)
        finer[0::2] = fine
        finer[1::2] = 0.5 * (fine[:-1] + fine[1:]) + (0.5 * np.sqrt(spacing)) * z
        fine = finer
    return fine


# -- counting ---------------------------------------------------------------


def count_leq(values, x, strict: bool = False) -> int:
    """#{v < x} (strict) or #{v <= x} by a plain loop."""
    c = 0
    for v in values:
        if (v < x) if strict else (v <= x):
            c += 1
    return c


# -- weighted sup oracles ---------------------------------------------------


def increment_grid(bundle, anchor: float) -> np.ndarray:
    """The full grid a window increment at ``anchor`` reads: anchor - j / (n 2^depth),
    or on a count-anchored bundle t x for the points x of its lower block's grid."""
    if hasattr(bundle, "below"):
        return bundle.t * bundle.below.jump_grid()
    return anchor - bundle.jump_grid()


def _w_read(bundle, prob, s: np.ndarray) -> np.ndarray:
    """W_n where the bridge of ``prob`` reads it at s, by the blocks' public
    ``w_n``: at s n, at (anchor - s) n for a window increment (0 past the
    anchor, where it is not read), and on a count-anchored bundle in the
    block that s maps into."""
    if hasattr(bundle, "below"):
        t, below, above = bundle.t, bundle.below, bundle.above
        if prob.anchor is not None:
            return below.w_n(np.minimum(s / t, 1.0) * below.n)
        low = s <= t
        w = np.empty(s.shape)
        w[low] = below.w_n((1.0 - s[low] / t) * below.n)
        w[~low] = above.w_n((s[~low] - t) / (1.0 - t) * above.n)
        return w
    if prob.anchor is None:
        return bundle.w_n(s * bundle.n)
    shift = prob.anchor - s
    w = np.zeros(s.shape)
    w[shift > 0] = bundle.w_n(shift[shift > 0] * bundle.n)
    return w


def lookups(bundle, prob, s_piece, w_at=None) -> Index:
    """The lookups of ``prob``'s numerator at the abscissae s_piece, read by
    float: the step count of its step jumps at or before s_piece (before it
    for a window increment, whose terms read anchor - s), and W_n where its
    bridge reads it at ``w_at`` (default s_piece; ``_w_read``), passed as
    W_n values.  For a piece, give a point inside it."""
    s = np.asarray(s_piece, dtype=float)
    w_at = s if w_at is None else np.asarray(w_at, dtype=float)
    side = "right" if prob.anchor is None else "left"
    return Index(np.searchsorted(np.sort(prob.step_jumps), s, side), _w_read(bundle, prob, w_at))


def weighted(bundle, prob, s, s_piece, w_at=None) -> np.ndarray:
    """The weighted integrand scale |numerator| / w(s)^c of ``prob`` at s, with
    the lookups done at s_piece, W_n at ``w_at`` (``lookups``)."""
    s = np.asarray(s, dtype=float)
    s_piece = np.asarray(s_piece, dtype=float)
    index = lookups(bundle, prob, s_piece, w_at)
    num = prob.scale * np.abs(prob.numerator(s_piece, index)(s))
    if prob.weight_kind is None:
        return num
    base = {"sym": s * (1.0 - s), "s": s, "one-minus-s": 1.0 - s}[prob.weight_kind]
    return num / base**prob.weight_exp


def _breakpoints(bundle, prob) -> list[float]:
    """Sorted breakpoints in the domain: endpoints, step jumps and the grid the
    bridge lookup reads, the bridge's jump grid or a window increment's grid."""
    pts = {prob.lo, prob.hi}
    if prob.anchor is None:
        grid = bundle.jump_grid()
    else:
        grid = increment_grid(bundle, prob.anchor)
    for source in (grid, prob.step_jumps):
        for s in np.asarray(source, dtype=float):
            if prob.lo <= s <= prob.hi:
                pts.add(float(s))
    return sorted(pts)


def merge_runs(runs: list) -> tuple[np.ndarray, list]:
    """The general merge the engine's block kernel replaced: the distinct
    values of the ascending ``runs``, merged in order by a stable sort, and
    for each run but the first how many of its points lie at or before each
    value but the last."""
    x = np.concatenate(runs)
    order = np.argsort(x, kind="stable")
    x = x[order]
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    run_of = np.repeat(np.arange(len(runs), dtype=np.int8), [r.size for r in runs])[order]
    counts = [np.cumsum(run_of == i, dtype=np.int32)[last[:-1]] for i in range(1, len(runs))]
    return x[last], counts


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


def _bridge_side(bundle, prob, s: float) -> int:
    """1 where the bridge of ``prob`` takes its value at s from the right, -1
    from the left, 0 at the splice t of a count-anchored bundle's full range.

    W_n is left-continuous in its argument, which falls as s rises for a
    window increment on a lattice bundle and below the splice.
    """
    if not hasattr(bundle, "below"):
        return 1 if prob.anchor is not None else -1
    if prob.anchor is not None:
        return -1
    return int(np.sign(bundle.t - s))


def _candidates(bundle, prob, per_cell: int):
    """(s, s_piece, w_at) triples: at every breakpoint the point value (if s
    lies in the domain), with W_n read on the piece the bridge is continuous
    from, the left limit (but at lo) and the right limit (but at hi); plus
    point values at ``per_cell`` points per lattice cell that are no
    breakpoint."""
    pts = _breakpoints(bundle, prob)
    out = []
    for i, s in enumerate(pts):
        left = 0.5 * (pts[i - 1] + s) if i > 0 else s
        right = 0.5 * (s + pts[i + 1]) if i + 1 < len(pts) else s
        if _in_domain(prob, s):
            out.append((s, s, (left, s, right)[_bridge_side(bundle, prob, s) + 1]))
        if i > 0:
            out.append((s, left, left))
        if i + 1 < len(pts):
            out.append((s, right, right))
    breaks = set(pts)
    out += [(s, s, s) for s in _scan_points(bundle, prob, per_cell) if s not in breaks]
    return out


def naive_sup(bundle, prob, per_cell: int = 80) -> float:
    """Exhaustive scan of a sup problem, one scalar evaluation at a time.

    Takes the point value and both one-sided limits at every breakpoint (the
    grid the problem's bridge lookup reads, its step jumps, the endpoints),
    plus point values at ``per_cell`` points per lattice cell.  This searches
    a superset of the engine's evaluation set; the extra points can only tie
    it, so the result must equal the engine's bit-for-bit.
    """
    best = -math.inf
    for s, piece, w_at in _candidates(bundle, prob, per_cell):
        val = weighted(bundle, prob, np.asarray([s]), np.asarray([piece]), np.asarray([w_at]))
        val = float(val[0])
        best = max(best, val)
    return best


def naive_sup_fast(bundle, prob, per_cell: int = 80) -> float:
    """Same evaluation set as ``naive_sup`` with vectorized evaluation.

    Candidate abscissae are still enumerated by plain Python loops; only the
    final weighted evaluations are batched so the scan stays usable at
    n = 64 across many replicates.
    """
    s, piece, w_at = (np.asarray(col) for col in zip(*_candidates(bundle, prob, per_cell)))
    return float(np.max(weighted(bundle, prob, s, piece, w_at)))


def reevaluate(bundle, prob, s: float, side: str) -> float:
    """Value of a sup integrand at a recorded (arg_s, side) pair."""
    arr = np.asarray([s], dtype=float)
    # Offset past the near-integer snap tolerance of the piecewise lookups,
    # but far inside the narrowest possible piece.
    off = 32.0 * np.spacing(max(1.0, abs(s)))
    if side == "point":
        piece = arr
    elif side == "right":
        piece = np.asarray([s + off])
    elif side == "left":
        piece = np.asarray([s - off])
    else:
        raise ValueError(side)
    return float(weighted(bundle, prob, arr, piece)[0])


# -- exact-rational sup scan ------------------------------------------------
#
# Shares nothing with the sup engine but the bundle's raw data (U, the
# paths' refined grids, the anchored blocks and b_anchor): the integrands
# are written from their definitions, the breakpoints are exact rationals,
# and every lookup (W_n cell, lattice index, ECDF count) is exact integer
# arithmetic on those rationals.  Only the final values are floats.

# A sup may fall below a value of its integrand by rounding alone, since
# both evaluate the same terms in a different order: the tolerance
# ``ladderbench/bench_checks.REL_TOL`` documents.
REL_TOL = 256 * np.finfo(float).eps


def lattice_rational(x: float, n: int) -> Fraction:
    """The rational a float argument x denotes: k / n where x n lies within
    8 ulp of the integer k (the package's documented snap), else x itself."""
    z = x * n
    k = round(z)
    if abs(z - k) <= 8 * math.ulp(max(1.0, abs(z))):
        return Fraction(k, n)
    return Fraction(x)


class ExactBridge:
    """Coupled bridge of a lattice-anchored bundle, with exact lookups."""

    def __init__(self, bundle):
        bundle.path1.grid(bundle.depth), bundle.path2.grid(bundle.depth)
        if bundle.path1.refinement_depth != bundle.depth:
            raise ValueError("paths refined past the bundle's depth")
        self.n, self.h, self.g = bundle.n, bundle.n // 2, bundle.n + 1 - bundle.n // 2
        self.den = 1 << bundle.depth
        self.fine1, self.fine2 = bundle.path1._fine, bundle.path2._fine
        self.w1_h = self.fine1[self.h * self.den]
        self.w2_g = self.fine2[self.g * self.den]
        self.w_nn = self.w(Fraction(self.n))

    def w(self, z: Fraction) -> float:
        """W_n(z): W1(h) - W1(h - z) for z <= h, else W1(h) + W2(g) - W2(n + 1 - z),
        with each path read at the grid point at or below its argument."""
        if z <= self.h:
            return self.w1_h - self.fine1[math.floor((self.h - z) * self.den)]
        return self.w1_h + self.w2_g - self.fine2[math.floor((self.n + 1 - z) * self.den)]

    def bridge(self, x: float, m: Fraction) -> float:
        """n^{-1/2} (x W_n(n) - W_n(m n)): the bridge's piece through m, at x."""
        return (x * self.w_nn - self.w(m * self.n)) / math.sqrt(self.n)

    def jumps(self) -> list:
        return [Fraction(j, self.n * self.den) for j in range(self.n * self.den + 1)]


class ExactAnchoredBridge:
    """Bridge of a count-anchored bundle, spliced at t from its blocks' bridges."""

    def __init__(self, bundle):
        self.t, self.tf, self.b_t = Fraction(bundle.t), bundle.t, bundle.b_anchor
        self.below, self.above = ExactBridge(bundle.below), ExactBridge(bundle.above)

    def bridge(self, x: float, m: Fraction) -> float:
        t, tf = self.t, self.tf
        if m <= t:
            return (x / tf) * self.b_t - math.sqrt(tf) * self.below.bridge(1 - x / tf, 1 - m / t)
        v = (x - tf) / (1 - tf)
        return (1 - v) * self.b_t + math.sqrt(1 - tf) * self.above.bridge(v, (m - t) / (1 - t))

    def jumps(self) -> list:
        t = self.t
        return [t - t * j for j in self.below.jumps()] + [t + (1 - t) * j for j in self.above.jumps()]


class ExactIntegrand:
    """Weighted |process - bridge| of one statistic; lookups at a rational m.

    ``kind`` is 'quantile' or 'empirical'; with ``anchor`` (a Fraction) the
    window increments f(anchor) - f(anchor - s) of both are compared.  The weight
    is n^x / w(s)^{1/2 - x} with w(s) = s(1-s), s, 1-s, or no weight (None).
    """

    def __init__(self, bundle, kind, anchor, x, weight_kind):
        self.n = bundle.n
        self.U = [Fraction(u) for u in bundle.U]
        self.Uf = bundle.U
        self.br = ExactAnchoredBridge(bundle) if hasattr(bundle, "below") else ExactBridge(bundle)
        self.kind, self.x, self.weight_kind = kind, x, weight_kind
        self.anchor = anchor

    def _process(self, x: float, m: Fraction) -> float:
        n = self.n
        if self.kind == "quantile":
            k = min(max(math.floor(m * n), 0), n)
            return math.sqrt(n) * (x - self.Uf[k])
        count = max(bisect.bisect_right(self.U, m) - 1, 0)  # U_0 = 0 is no sample
        return math.sqrt(n) * (count / n - x)

    def _bridge(self, x: float, m: Fraction) -> float:
        return self.br.bridge(x, m) if m > 0 else 0.0

    def __call__(self, s: float, m: Fraction) -> float:
        if self.anchor is None:
            gap = self._process(s, m) - self._bridge(s, m)
        else:
            a, af = self.anchor, float(self.anchor)
            gap = (self._process(af, a) - self._process(af - s, a - m)) - (
                self._bridge(af, a) - self._bridge(af - s, a - m)
            )
        w = {"sym": s * (1 - s), "s": s, "one-minus-s": 1 - s, None: 1.0}[self.weight_kind]
        return self.n**self.x * abs(gap) / w ** ((0.5 - self.x) if self.weight_kind else 0.0)

    def breakpoints(self, lo: Fraction, hi: Fraction) -> list:
        """Sorted distinct breakpoints in [lo, hi]: the ends, the bridge's jumps,
        the lattice k / n and the U_k, or for a window increment their images
        anchor - x."""
        pts = self.br.jumps() + [Fraction(k, self.n) for k in range(self.n + 1)] + self.U[1:]
        if self.anchor is not None:
            pts += [self.anchor - x for x in pts]
        return sorted({lo, hi, *(x for x in pts if lo <= x <= hi)})


def exact_candidates(integrand, lo: Fraction, hi: Fraction, closed_hi: bool) -> tuple:
    """(bound, reach): values the sup must dominate, and values it must be one of.

    Breakpoints that round to one float are one abscissa: the pieces
    between them hold no float, and which of their lookups a float argument
    there denotes is a matter of rounding.  So an abscissa's limits come
    from the pieces to the neighbouring floats, with lookups at the exact
    midpoint between the nearest breakpoints, and its point value is
    ambiguous among its breakpoints': ``bound`` takes their least, ``reach``
    all of them, and every limit.
    """
    pts = integrand.breakpoints(lo, hi)
    groups: list = []
    for x in pts:
        if groups and float(x) == float(groups[-1][-1]):
            groups[-1].append(x)
        else:
            groups.append([x])
    bound, reach = [], []
    for i, group in enumerate(groups):
        xf = float(group[0])
        points = [integrand(xf, x) for x in group if x < hi or closed_hi]
        limits = []
        if i > 0:
            limits.append(integrand(xf, (groups[i - 1][-1] + group[0]) / 2))
        if i + 1 < len(groups):
            limits.append(integrand(xf, (group[-1] + groups[i + 1][0]) / 2))
        bound += limits + ([min(points)] if points else [])
        reach += limits + points
    return bound, reach


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


# -- faked bridges -------------------------------------------------------------


def pathless_bundle(n: int, order_stats, t: float = 0.5) -> ProcessBundle:
    """A ``ProcessBundle`` with the prescribed order statistics U_1 < ... < U_n
    in (0, 1), depth 0 and no Brownian paths.

    Its sample evaluators (``ecdf_count``, ``empirical_process``,
    ``quantile_process``) work; a bridge read fails unless the test fakes
    W_n (``fake_w_lookups``) or reads no W_n.
    """
    u = np.concatenate([[0.0], np.asarray(order_stats, dtype=float)])
    assert u.size == n + 1 and np.all(np.diff(u) > 0) and u[-1] < 1.0, order_stats
    s = np.append(u, 1.0)
    return ProcessBundle(n=n, t=t, path1=None, path2=None, Y=np.diff(s), S=s, U=u, depth=0)


def fake_w_lookups(bundle, w_n) -> None:
    """Replace a ``ProcessBundle``'s W_n by ``w_n`` (a function of z in [0, n+1]).

    Every lookup is replaced: by float (``w_n``), by cell index (``w_cells``
    and ``w_span``: cell j, (j, j + 1) 2^-depth, is read at its midpoint, and
    cell -1 at 0), and the sub-block bounds' extremes (``w_extremes``), which
    are read through the fake ``w_span``.  ``w_n`` must be constant on those
    cells, as the true W_n is.
    """
    bundle.w_n = w_n
    bundle.w_cells = lambda j: w_n(np.maximum(np.asarray(j) + 0.5, 0.0) / (1 << bundle.depth))
    bundle.w_span = lambda c0, c1: bundle.w_cells(np.arange(c0, c1 + 1))
    bundle.w_extremes = lambda c0, c1: w_extremes(bundle, c0, c1)


def w_extremes(bundle, c0: int, c1: int) -> tuple:
    """``ProcessBundle.w_extremes`` by ``reduceat`` over one ``w_span`` read of
    the cells c0..c1, cut where ``chunk_starts`` cuts them."""
    starts = np.concatenate([[c0], bundle.chunk_starts(c0, c1)]).astype(np.int64)
    w = bundle.w_span(c0, c1)
    return starts, np.minimum.reduceat(w, starts - c0), np.maximum.reduceat(w, starts - c0)


def mapped_run(den: int, offset: float, scale: float, lo: float, hi: float) -> tuple:
    """(x, first, step): the points offset + scale j / den, j = 0..den, that lie
    in [lo, hi], ascending, built whole; x[i] has index first + step i.

    The reference for ``processes.Run``, which computes its points only where
    they are read.
    """
    ends = sorted(((lo - offset) / scale * den, (hi - offset) / scale * den))
    j0, j1 = max(0, math.floor(ends[0]) - 1), min(den, math.ceil(ends[1]) + 1)
    step = 1 if scale > 0 else -1
    x = np.arange(j0, j1 + 1, dtype=float)[::step] / den
    x *= scale  # in place: the same floats as offset + scale * (j / den)
    x += offset
    i = int(np.searchsorted(x, lo))
    first = (j0 if step > 0 else j1) + step * i
    return x[i : np.searchsorted(x, hi, "right")], first, step


def on_grid(bundle, x) -> np.ndarray:
    """x rounded to the nearest grid points j / (n 2^depth) of the bundle."""
    den = bundle.n << bundle.depth
    out = np.round(np.asarray(x, dtype=float) * den) / den
    assert np.unique(out).size == out.size, "values collide on the grid"
    return out
