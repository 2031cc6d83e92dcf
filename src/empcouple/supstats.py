"""Weighted sup discrepancy statistics over a coupled process bundle.

Between breakpoints every discrepancy here is |a + b s| for constants a, b
(the step processes and the dyadic-resolution bridge are constant, the
drift terms linear), and against the weights s^c, (1-s)^c and [s(1-s)]^c
with 0 <= c <= 1 such a ratio has no interior local maximum.  The supremum
over the domain is therefore attained at a breakpoint, as a one-sided limit
or as the point value there.

Breakpoints are: the bundle's jump grid (``jump_grid``: where the bridge
lookup or the lattice index k/n can change), the jump points of the bridge
lookups of a window increment (``increment_jump_grid``), the jump points of
whichever step process appears in the numerator, and the domain endpoints.
One-sided limits are evaluated by resolving all piecewise lookups at the
midpoint of the adjacent interval and then plugging in the endpoint abscissa.

Point values are evaluated at the closed endpoints and at every jump of the
numerator's step process (k/n, t - k/n, U_k or t - U_k).  Elsewhere the step
term is continuous, the drift linear and the bridge lookup takes the value of
one adjacent piece, so a point value equals a one-sided limit already
evaluated.  At a step jump it need not: on ``ProcessBundle`` the bridge is
left-continuous in s while U_[sn] is right-continuous, and both jump at
every k/n.  Evaluating both one-sided limits at every breakpoint and these
point values gives the *exact* supremum of the discretized processes.

Every lookup (the bridge value W_n, the lattice index [sn], the ECDF count)
is done once per piece: a numerator is a piece factory that resolves its
lookups at the midpoints and returns s -> values, evaluated at both ends of
each piece; the point values take one more pass.  The weight enters only
after |numerator|, so several weights of one numerator and domain (the
eta or nu variants of a statistic) share one pass (``solve_weights``).

The domain is solved block by block.  Block edges are lo, every k-th step
jump inside (lo, hi) and hi, with k chosen so that a block holds about
``_BLOCK_POINTS`` points of the bundle's dyadic grid.  Edges are
breakpoints, so the blocks' pieces are exactly the pieces of the whole
domain; each block asks the bundle only for the grid points over itself.
The best right and left limits are carried across blocks with a strict
``>``, so ties resolve to the first occurrence as in a single pass.  Working
memory beyond the bundle is O(block + n): the block's breakpoints, and the
step jumps and point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import Bundle

# Dyadic grid points per block of the sup domain (see ``_block_edges``).
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class WeightConfig:
    """Weight/domain parameters for the sup statistics."""

    lam: float = 1.0
    eta: float = 0.0
    nu: float = 0.0
    t: float = 0.5

    def validate(self, n: int | None = None) -> None:
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not 0.0 <= self.eta < 0.5:
            raise ValueError("eta must lie in [0, 1/2)")
        if not 0.0 <= self.nu < 0.25:
            raise ValueError("nu must lie in [0, 1/4)")
        if not 0.0 < self.t < 1.0:
            raise ValueError("t must lie in (0, 1)")
        if n is not None and self.lam / n >= 1.0:
            raise ValueError(f"lam/n must be < 1 (lam={self.lam}, n={n})")


@dataclass
class WeightedSupResult:
    value: float
    arg_s: float
    side: str  # 'right' | 'left' | 'point'
    grid_points: int  # number of evaluations


class SupProblem:
    """Domain, numerator and weight of one sup statistic.

    ``anchor`` is set for a window increment at that anchor, whose bridge
    lookups jump off the bundle's ``jump_grid``, on its ``increment_jump_grid``;
    ``step_jumps`` are the jump points of its step process, where the point
    value is evaluated too.
    """

    def __init__(
        self, lo, hi, closed_hi, anchor, step_jumps, numerator, weight_exp, weight_kind, scale
    ):
        self.lo = float(lo)
        self.hi = float(hi)
        self.closed_hi = bool(closed_hi)
        self.anchor = anchor
        self.step_jumps = np.asarray(step_jumps, dtype=float)
        self.numerator = numerator  # s_piece -> (s -> ndarray), lookups done at s_piece
        self.weight_exp = weight_exp
        self.weight_kind = weight_kind  # 'sym' | 's' | 'one-minus-s' | None
        self.scale = float(scale)

    @property
    def weight(self) -> tuple:
        return self.weight_exp, self.weight_kind, self.scale

    def weighted(self, s, s_piece) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        wpow = _weight_power(s, self.weight_exp, self.weight_kind)
        return _weigh(np.abs(self.numerator(s_piece)(s)), wpow, self.scale)

    def point_abscissae(self) -> np.ndarray:
        """Where the point value is evaluated: closed endpoints and step jumps."""
        s = self.step_jumps
        ends = [self.lo, self.hi] if self.closed_hi else [self.lo]
        return np.unique(np.concatenate([ends, s[(s >= self.lo) & (s < self.hi)]]))


def power_weight(n: int, x: float, kind) -> tuple:
    """(exponent, kind, scale) of the weight n^x / w(s)^{1/2 - x}."""
    return 0.5 - x, kind, n**x


def _weight_power(s, weight_exp, weight_kind):
    """w(s)^weight_exp for w(s) = s(1-s), s or 1-s; None for no weight (kind None)."""
    if weight_kind is None:
        return None
    if weight_kind == "sym":
        return (s * (1.0 - s)) ** weight_exp
    if weight_kind == "s":
        return s**weight_exp
    if weight_kind == "one-minus-s":
        return (1.0 - s) ** weight_exp
    raise ValueError(weight_kind)


def _weigh(abs_num, wpow, scale) -> np.ndarray:
    """scale |numerator| / w(s)^weight_exp, with wpow from ``_weight_power``."""
    num = scale * abs_num
    return num if wpow is None else num / wpow


def _block_edges(bundle: Bundle, prob: SupProblem, jumps: np.ndarray) -> np.ndarray:
    """lo, every k-th of the sorted step jumps inside (lo, hi), and hi.

    k is chosen so that a block holds about ``_BLOCK_POINTS`` points of the
    dyadic grid, whose density is n 2^depth.
    """
    inside = jumps[np.searchsorted(jumps, prob.lo, "right") : np.searchsorted(jumps, prob.hi)]
    grid = (bundle.n << bundle.depth) * (prob.hi - prob.lo)
    k = max(1, int(_BLOCK_POINTS * inside.size / grid))
    return np.concatenate([[prob.lo], inside[k - 1 :: k], [prob.hi]])


def _breakpoints(bundle: Bundle, prob: SupProblem, a: float, b: float, jumps) -> np.ndarray:
    """Sorted breakpoints in the block [a, b]: its ends, the bundle's jump grid,
    the window increment's grid and the (sorted) step jumps there."""
    parts = [[a, b], bundle.jump_grid(a, b)]
    if prob.anchor is not None:
        parts.append(bundle.increment_jump_grid(prob.anchor, a, b))
    parts.append(jumps[np.searchsorted(jumps, a) : np.searchsorted(jumps, b, "right")])
    pts = np.concatenate(parts)
    return np.unique(pts[(pts >= a) & (pts <= b)])


def solve_weights(bundle: Bundle, prob: SupProblem, weights) -> list[WeightedSupResult]:
    """``solve`` for each (weight_exp, weight_kind, scale) in ``weights``, in one pass.

    |numerator| is evaluated once on each candidate set (right limits, left
    limits, point values) and every weight is applied to it.  The limits are
    taken block by block (``_block_edges``), carrying each weight's best
    right and best left limit across blocks; the first occurrence wins ties.
    """
    if not prob.lo < prob.hi:
        raise ValueError(f"empty sup domain [{prob.lo}, {prob.hi})")
    jumps = np.unique(prob.step_jumps)
    best = {side: [(-math.inf, prob.lo)] * len(weights) for side in ("right", "left")}
    pieces = 0
    edges = _block_edges(bundle, prob, jumps)
    for a, b in zip(edges[:-1], edges[1:]):
        pts = _breakpoints(bundle, prob, a, b, jumps)
        p, q = pts[:-1], pts[1:]
        pieces += p.size
        limits = prob.numerator(0.5 * (p + q))
        abs_right, abs_left = np.abs(limits(p)), np.abs(limits(q))
        for i, (weight_exp, weight_kind, scale) in enumerate(weights):
            wpow = _weight_power(pts, weight_exp, weight_kind)
            for side, s, abs_num, cut in (
                ("right", p, abs_right, slice(None, -1)),
                ("left", q, abs_left, slice(1, None)),
            ):
                vals = _weigh(abs_num, None if wpow is None else wpow[cut], scale)
                j = int(np.argmax(vals))
                if vals[j] > best[side][i][0]:
                    best[side][i] = (float(vals[j]), float(s[j]))
    at = prob.point_abscissae()
    abs_points = np.abs(prob.numerator(at)(at))
    results = []
    for i, (weight_exp, weight_kind, scale) in enumerate(weights):
        res = WeightedSupResult(-math.inf, prob.lo, "right", 2 * pieces + at.size)
        for side in ("right", "left"):
            value, arg_s = best[side][i]
            if value > res.value:
                res.value, res.arg_s, res.side = value, arg_s, side
        vals = _weigh(abs_points, _weight_power(at, weight_exp, weight_kind), scale)
        j = int(np.argmax(vals))
        if vals[j] > res.value:
            res.value, res.arg_s, res.side = float(vals[j]), float(at[j]), "point"
        results.append(res)
    return results


def solve(bundle: Bundle, prob: SupProblem) -> WeightedSupResult:
    """Largest one-sided limit at the breakpoints or point value (``point_abscissae``)."""
    return solve_weights(bundle, prob, [prob.weight])[0]


# -- numerators ------------------------------------------------------------
#
# Each numerator is a piece factory: num(s_piece) does its lookups once at
# s_piece and returns s -> values, which is linear in s on each piece.


def _beta_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def piece(s_piece):
        bridge = bundle.bridge_piece(s_piece)
        u = bundle.U[bundle.lattice_index(s_piece)]
        return lambda s: sqn * (s - u) - bridge(s)

    return piece


def _alpha_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def piece(s_piece):
        frac = bundle.ecdf_count(s_piece) / bundle.n
        bridge = bundle.bridge_piece(s_piece)
        return lambda s: sqn * (frac - s) - bridge(s)

    return piece


def _beta_increment_minus_bridge(bundle: Bundle, anchor: float):
    # The comparison process for the window increments is the coupled
    # bridge's own increment B(anchor) - B(anchor - s), which (in s, on
    # [0, anchor]) has covariance min(s, s') - s s' and is therefore itself
    # a Brownian bridge.  Comparing against B(s) instead leaves a
    # nondegenerate Gaussian gap of variance 2 min(s, anchor - s), which
    # destroys the n^eta-weighted tightness.
    sqn = np.sqrt(bundle.n)
    beta_anchor = float(bundle.quantile_process(np.asarray([anchor]))[0])
    bridge_inc = bundle.bridge_increment(anchor)

    def piece(s_piece):
        sp = np.asarray(s_piece, dtype=float)
        u = bundle.U[bundle.lattice_index(anchor - sp)]
        inc = bridge_inc(sp)
        return lambda s: (beta_anchor - sqn * ((anchor - s) - u)) - inc(s)

    return piece


def _alpha_increment_minus_bridge(bundle: Bundle, anchor: float):
    # Same increment-bridge comparison as _beta_increment_minus_bridge.  The
    # restricted domain can reach past the anchor; there the shifted
    # processes are extended by zero, so the increment degenerates to the
    # anchor value itself (``bridge_increment`` does the same).
    sqn = np.sqrt(bundle.n)
    alpha_anchor = float(bundle.empirical_process(np.asarray([anchor]))[0])
    bridge_inc = bundle.bridge_increment(anchor)

    def piece(s_piece):
        sp = np.asarray(s_piece, dtype=float)
        frac = bundle.ecdf_count(anchor - sp) / bundle.n
        inc = bridge_inc(sp)
        return lambda s: (alpha_anchor - sqn * (frac - (anchor - s))) - inc(s)

    return piece


# -- public statistics -----------------------------------------------------


def _full_domain(bundle: Bundle, cfg: WeightConfig) -> tuple[float, float]:
    lo = cfg.lam / bundle.n
    hi = 1.0 - cfg.lam / bundle.n
    if not lo < hi:
        raise ValueError(f"empty domain: lam/n = {lo} >= 1 - lam/n")
    return lo, hi


def _lattice(n: int) -> np.ndarray:
    """k / n for k = 0..n: the jumps of s -> U_[sn]."""
    return np.arange(n + 1) / n


def problem_quantile_full(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    lo, hi = _full_domain(bundle, cfg)
    return SupProblem(
        lo, hi, True, None, _lattice(bundle.n), _beta_minus_bridge(bundle),
        *power_weight(bundle.n, cfg.eta, "sym"),
    )


def empirical_range_problem(
    bundle: Bundle, lo: float, hi: float, weight_exp: float, weight_kind, scale
) -> SupProblem:
    """Sup over [lo, hi] of the empirical process against the bridge, with the given weight."""
    return SupProblem(
        lo, hi, True, None, bundle.U[1:], _alpha_minus_bridge(bundle),
        weight_exp, weight_kind, scale,
    )


def problem_empirical_full(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    return empirical_range_problem(
        bundle, *_full_domain(bundle, cfg), *power_weight(bundle.n, cfg.nu, "sym")
    )


def problem_quantile_increment(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    lo = cfg.lam / bundle.n
    if not lo < cfg.t:
        raise ValueError(f"empty domain: lam/n = {lo} >= t = {cfg.t}")
    return SupProblem(
        lo,
        cfg.t,
        False,
        cfg.t,
        cfg.t - _lattice(bundle.n),
        _beta_increment_minus_bridge(bundle, cfg.t),
        *power_weight(bundle.n, cfg.eta, "s"),
    )


def empirical_window_problem(
    bundle: Bundle, anchor: float, lo: float, hi: float, weight_exp: float, weight_kind, scale
) -> SupProblem:
    """Sup over [lo, hi) of the empirical window increment at ``anchor`` against
    the bridge increment B(anchor) - B(anchor - s), with the given weight.
    """
    return SupProblem(
        lo,
        hi,
        False,
        anchor,
        anchor - bundle.U[1:],
        _alpha_increment_minus_bridge(bundle, anchor),
        weight_exp,
        weight_kind,
        scale,
    )


def problem_empirical_increment(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    lo = cfg.lam / bundle.n
    if not lo < cfg.t:
        raise ValueError(f"empty domain: lam/n = {lo} >= t = {cfg.t}")
    return empirical_window_problem(bundle, cfg.t, lo, cfg.t, *power_weight(bundle.n, cfg.nu, "s"))


def problem_restricted(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    if bundle.t_n < 2:
        raise ValueError(f"restricted statistic requires [nt] >= 2, got {bundle.t_n}")
    return empirical_window_problem(
        bundle, cfg.t, bundle.U[1], bundle.U[bundle.t_n], *power_weight(bundle.n, cfg.nu, "s")
    )


def problem_tail(bundle: Bundle, d: float, side: str) -> SupProblem:
    if not 1.0 <= d <= bundle.n:
        raise ValueError(f"d must lie in [1, n], got {d}")
    if side == "left":
        lo, hi = 0.0, d / bundle.n
    elif side == "right":
        lo, hi = 1.0 - d / bundle.n, 1.0
    else:
        raise ValueError("side must be 'left' or 'right'")
    return SupProblem(
        lo, hi, True, None, _lattice(bundle.n), _beta_minus_bridge(bundle), 0.0, None, 1.0
    )


def stat_quantile_full(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Sup of n^eta |quantile process - bridge| / [s(1-s)]^{1/2-eta}."""
    cfg.validate(bundle.n)
    return solve(bundle, problem_quantile_full(bundle, cfg))


def stat_empirical_full(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Sup of n^nu |empirical process - bridge| / [s(1-s)]^{1/2-nu}."""
    cfg.validate(bundle.n)
    return solve(bundle, problem_empirical_full(bundle, cfg))


def stat_quantile_increment(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Sup over [lam/n, t) of n^eta |window increment - bridge increment| / s^{1/2-eta}.

    The comparison process is B(t) - B(t-s), the coupled bridge's own window
    increment, which in s is itself a Brownian bridge on [0, t].
    """
    cfg.validate(bundle.n)
    return solve(bundle, problem_quantile_increment(bundle, cfg))


def stat_empirical_increment(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Empirical-process counterpart of ``stat_quantile_increment``.

    The window count in (t-s, t] is coupled to the bridge increment only on
    a count-anchored bundle (``AnchoredBundle`` at t), whose lower block puts
    its well-coupled tail at t.  On a lattice-anchored ``ProcessBundle`` the
    count is driven by spacings O(sqrt(n)) indices away from [tn], the
    increments decouple below that range, and the weighted sup grows like
    n^{nu/2}; the harness therefore evaluates this statistic (and
    ``stat_restricted``) on the count-anchored bundle.
    """
    cfg.validate(bundle.n)
    return solve(bundle, problem_empirical_increment(bundle, cfg))


def stat_restricted(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Increment statistic (vs the bridge increment) restricted to [U_{1}, U_{[nt]})."""
    cfg.validate(bundle.n)
    return solve(bundle, problem_restricted(bundle, cfg))


def tail_sup_discrepancy(bundle, d: float, side: str = "left") -> WeightedSupResult:
    """Unweighted sup of |quantile process - bridge| over a d/n tail interval."""
    return solve(bundle, problem_tail(bundle, d, side))
