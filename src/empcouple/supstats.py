"""Weighted sup discrepancy statistics over a coupled process bundle.

Between breakpoints every discrepancy here is |a + b s| for constants a, b
(the step processes and the dyadic-resolution bridge are constant, the
drift terms linear), and against the weights s^c, (1-s)^c and [s(1-s)]^c
with 0 <= c <= 1 such a ratio has no interior local maximum.  The supremum
over the domain is therefore attained at a breakpoint, as a one-sided limit
or as the point value there.

A problem's breakpoints are its domain ends, the jump points of the step
process in its numerator, and the grid its bridge lookup reads, and nothing
else: for a full-range or tail sup the bundle's bridge grid, for a window
increment the jump points of its bridge increment (``grid_runs``).  Between
them every lookup is constant.
One-sided limits are evaluated by resolving all piecewise lookups on the
adjacent interval and then plugging in the endpoint abscissa.

Point values are evaluated at the closed endpoints, at every jump of the
numerator's step process (k/n, t - k/n, U_k or t - U_k) and where the
bridge takes neither one-sided limit (the bundle's ``point_breaks``: the
splice t of an ``AnchoredBundle``).  Elsewhere the step term is continuous,
the drift linear and the bridge lookup takes the value of one adjacent
piece, so a point value equals a one-sided limit already evaluated.  At a
step jump it need not: on ``ProcessBundle`` the bridge is left-continuous in
s while U_[sn] is right-continuous, and both jump at every k/n.  Evaluating
both one-sided limits at every breakpoint and these point values gives the
*exact* supremum of the discretized processes.

Every lookup (the bridge value W_n, the lattice index [sn], the ECDF count)
is done once per piece: a numerator is a piece factory that resolves its
lookups on a piece and returns s -> values, evaluated at both ends of each
piece.  The weight enters only after |numerator|, so several weights of one
numerator and domain (the eta or nu variants of a statistic) share one pass
(``solve_weights``), and each weight's base s(1-s), s or 1-s is computed
once per block.

On pieces the lookups are read from integer indices, never from float
midpoints.  A block's breakpoints are the grid of ``grid_runs`` cut to the
block, one strictly ascending run of known integer index (the jump grid
j / (n 2^depth); on ``AnchoredBundle`` one of its blocks' grids, mapped onto
[0, t] or [t, 1]; for a window increment that increment's grid), with the
block's ends and step jumps inserted where they are no grid point
(``_merge``).  How many points of the run lie at or before a piece gives
its lookups: the W_n cell, by index into the paths' refined grids
(``w_cells``), and the lattice index or ECDF count, from the step jumps
before it.  Both counts follow from the insertion positions, with no sort
and no running sum over the block.  The numerator's float lookups
(``numerator(s)``, which snap s n to the lattice) serve the point values
alone, at their float abscissae.

The domain is solved block by block.  Block edges are lo, every k-th step
jump inside (lo, hi), the splice t inside an ``AnchoredBundle``'s full
range, and hi, with k chosen so that a block holds about
``_BLOCK_POINTS`` points of the bundle's dyadic grid.  Edges are
breakpoints, so the blocks' pieces are exactly the pieces of the whole
domain; each block asks the bundle only for the grid points over itself.
The best right and left limits are carried across blocks with a strict
``>``, so ties resolve to the first occurrence as in a single pass.  A
weight is applied on a block only if the bound scale max|numerator| /
min(w(a), w(b))^c over the block [a, b] could beat its best so far
(``_cannot_win``): the weight's base is smallest at a block end, and once
the sup is found most blocks fall below it.  Working
memory beyond the bundle is O(block + n): the block's breakpoints, and the
step jumps and point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if n is not None and n < 1:
            raise ValueError(f"sample size n must be >= 1, got {n}")
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
    lookups jump on the bundle's increment grid (``grid_runs(anchor, ...)``);
    ``step_jumps`` are the jump points of its step process, where the point
    value is evaluated too; the numerator counts them for its step lookups
    from an ``Index``, so they must be exactly its step process's jumps.
    """

    def __init__(
        self, lo, hi, closed_hi, anchor, step_jumps, numerator, weight_exp, weight_kind, scale
    ):
        self.lo = float(lo)
        self.hi = float(hi)
        self.closed_hi = bool(closed_hi)
        self.anchor = anchor
        self.step_jumps = np.asarray(step_jumps, dtype=float)
        self.numerator = numerator  # (s_piece, index=None) -> (s -> ndarray), see below
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

    def point_abscissae(self, breaks: np.ndarray) -> np.ndarray:
        """Where the point value is evaluated: closed endpoints, step jumps and
        the bundle's ``point_breaks``, given as ``breaks``."""
        s = np.concatenate([self.step_jumps, breaks])
        ends = [self.lo, self.hi] if self.closed_hi else [self.lo]
        return np.unique(np.concatenate([ends, s[(s >= self.lo) & (s < self.hi)]]))


def power_weight(n: int, x: float, kind) -> tuple:
    """(exponent, kind, scale) of the weight n^x / w(s)^{1/2 - x}."""
    return 0.5 - x, kind, n**x


def _weight_base(s, weight_kind):
    """w(s) = s(1-s), s or 1-s; None for no weight (kind None)."""
    if weight_kind is None:
        return None
    if weight_kind == "sym":
        return s * (1.0 - s)
    if weight_kind == "s":
        return s
    if weight_kind == "one-minus-s":
        return 1.0 - s
    raise ValueError(weight_kind)


def _weight_power(s, weight_exp, weight_kind):
    """w(s)^weight_exp (see ``_weight_base``); None for no weight."""
    base = _weight_base(s, weight_kind)
    return None if base is None else base**weight_exp


def _weigh(abs_num, wpow, scale) -> np.ndarray:
    """scale |numerator| / w(s)^weight_exp, with wpow from ``_weight_power``."""
    num = scale * abs_num
    return num if wpow is None else num / wpow


def _block_edges(bundle: Bundle, prob: SupProblem, jumps: np.ndarray) -> np.ndarray:
    """lo, every k-th of the sorted step jumps inside (lo, hi), the bundle's
    ``point_breaks`` inside it, and hi.

    k is chosen so that a block holds about ``_BLOCK_POINTS`` points of the
    dyadic grid, whose density is n 2^depth.  The point breaks are the
    splice t of an ``AnchoredBundle``'s full range, which its bridge grid
    runs end at (``grid_runs``), so no block straddles it.
    """
    inside = jumps[np.searchsorted(jumps, prob.lo, "right") : np.searchsorted(jumps, prob.hi)]
    grid = (bundle.n << bundle.depth) * (prob.hi - prob.lo)
    k = max(1, int(_BLOCK_POINTS * inside.size / grid))
    breaks = bundle.point_breaks(prob.anchor)
    breaks = breaks[(breaks > prob.lo) & (breaks < prob.hi)]
    return np.unique(np.concatenate([[prob.lo], inside[k - 1 :: k], breaks, [prob.hi]]))


class Index(NamedTuple):
    """Lookups of a block's pieces, read from the run counts (see ``_blocks``)."""

    steps: np.ndarray  # step jumps at or before each piece's left end
    cells: np.ndarray  # W_n cell of each piece, in the block's run of ``grid_runs``


def _merge(a: float, b: float, steps: np.ndarray, grid: np.ndarray) -> tuple:
    """Breakpoints of the block [a, b], and the counts that index its pieces.

    ``steps`` are the sorted step jumps in [a, b], repeats kept, and
    ``grid`` the strictly ascending run of ``grid_runs`` in [a, b].  The ends
    and the distinct step jumps that are no grid point are inserted into
    that run.  Returns (pts, before, count): the breakpoints and, for the
    step jumps and for the grid run, how many of its points lie at or before
    each breakpoint but the last.  These counts follow from the insertion
    positions: the step count is constant between consecutive ends or step
    jumps, and the grid count of the j-th breakpoint is j + 1 less the
    inserted points up to it.
    """
    extras = np.concatenate([[a], steps, [b]])
    # The i-th distinct value has last[i] step jumps at or before it (b aside).
    last = np.flatnonzero(np.append(extras[1:] != extras[:-1], True))
    extras = extras[last]
    pos = np.searchsorted(grid, extras)
    new = np.ones(extras.size, dtype=bool)
    inside = pos < grid.size
    new[inside] = grid[pos[inside]] != extras[inside]
    at = pos + np.cumsum(new) - new  # where each value lands among the breakpoints
    pts = np.insert(grid, pos[new], extras[new])
    before = np.repeat(last[:-1].astype(np.int32), np.diff(at))
    added = at[new]
    inserted = np.repeat(
        np.arange(added.size + 1, dtype=np.int32),
        np.diff(np.concatenate([[0], added, [pts.size - 1]])),
    )
    return pts, before, np.arange(1, pts.size, dtype=np.int32) - inserted


def _blocks(bundle: Bundle, prob: SupProblem):
    """Sorted breakpoints of each block, with the index lookups of its pieces.

    A block's breakpoints are its ends, the step jumps in it and the grid
    its bridge lookups read (``grid_runs``: one run of the bundle's bridge
    grid, or of the window increment's grid), inserted into that run
    (``_merge``).  The piece after the c-th point of the run lies in W_n
    cell first + c - 1 (ascending index) or first - c (descending), and
    ``steps`` counts the step jumps at or before it.
    """
    steps = np.sort(prob.step_jumps)  # repeats kept: they count
    edges = _block_edges(bundle, prob, steps[np.append(True, steps[1:] != steps[:-1])])
    for a, b in zip(edges[:-1], edges[1:]):
        s0, s1 = int(np.searchsorted(steps, a)), int(np.searchsorted(steps, b, "right"))
        run = bundle.grid_runs(prob.anchor, a, b)
        pts, before, count = _merge(a, b, steps[s0:s1], run.x)
        cells = run.first + count - 1 if run.step > 0 else run.first - count
        yield pts, Index(s0 + before, cells)


def _abs_limits(prob: SupProblem, pts: np.ndarray, index: Index) -> tuple:
    """|numerator| right limits at pts[:-1] and left limits at pts[1:].

    The lookups come from ``index``, once per piece.
    """
    p, q = pts[:-1], pts[1:]
    limits = prob.numerator(0.5 * (p + q), index)
    return np.abs(limits(p)), np.abs(limits(q))


def _cannot_win(max_num: float, a: float, b: float, weight: tuple, floor: float) -> bool:
    """Whether no value of ``weight`` on the block [a, b] can exceed ``floor``.

    |numerator| is at most ``max_num`` on the block, and the weight's base
    is smallest at a block end: s(1-s) is concave, s rises and 1 - s falls.
    So scale max_num / min(w(a), w(b))^c bounds every value of the weight
    there; the relative margin 1e-12 covers the rounding of the bases,
    powers and divides.  A zero base bounds nothing.
    """
    weight_exp, weight_kind, scale = weight
    if weight_kind is None:
        low = 1.0
    else:
        low = min(_weight_base(a, weight_kind), _weight_base(b, weight_kind)) ** weight_exp
    return low > 0.0 and scale * max_num / low * (1.0 + 1e-12) <= floor


def solve_weights(bundle: Bundle, prob: SupProblem, weights) -> list[WeightedSupResult]:
    """``solve`` for each (weight_exp, weight_kind, scale) in ``weights``, in one pass.

    |numerator| is evaluated once on each candidate set (right limits, left
    limits, point values) and every weight is applied to it.  The limits are
    taken block by block (``_block_edges``), carrying each weight's best
    right and best left limit across blocks; the first occurrence wins ties.
    A weight whose values on a block cannot beat its best on either side
    (``_cannot_win``) is not applied there, and its base is computed on a
    block only for the weights that are.
    """
    if not prob.lo < prob.hi:
        raise ValueError(f"empty sup domain [{prob.lo}, {prob.hi})")
    best = {side: [(-math.inf, prob.lo)] * len(weights) for side in ("right", "left")}
    pieces = 0
    for pts, index in _blocks(bundle, prob):
        p, q = pts[:-1], pts[1:]
        pieces += p.size
        abs_right, abs_left = _abs_limits(prob, pts, index)
        max_num = max(abs_right.max(), abs_left.max())
        bases: dict = {}
        for i, weight in enumerate(weights):
            weight_exp, weight_kind, scale = weight
            floor = min(best["right"][i][0], best["left"][i][0])
            if _cannot_win(max_num, pts[0], pts[-1], weight, floor):
                continue
            if weight_kind not in bases:
                bases[weight_kind] = _weight_base(pts, weight_kind)
            base = bases[weight_kind]
            wpow = None if base is None else base**weight_exp
            for side, s, abs_num, cut in (
                ("right", p, abs_right, slice(None, -1)),
                ("left", q, abs_left, slice(1, None)),
            ):
                vals = _weigh(abs_num, None if wpow is None else wpow[cut], scale)
                j = int(np.argmax(vals))
                if vals[j] > best[side][i][0]:
                    best[side][i] = (float(vals[j]), float(s[j]))
    at = prob.point_abscissae(bundle.point_breaks(prob.anchor))
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
# num(s_piece, index) takes them from an ``Index`` instead, for pieces with
# midpoints s_piece; the problem's step jumps, sorted, are then the jumps of
# the step process it reads.


def _beta_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def piece(s_piece, index=None):
        if index is None:
            bridge = bundle.bridge_piece(s_piece)
            u = bundle.U[bundle.lattice_index(s_piece)]
        else:  # steps: the k / n, k = 0..n, at or before the piece
            bridge = bundle.bridge_piece(s_piece, index.cells)
            u = bundle.U[index.steps - 1]
        return lambda s: sqn * (s - u) - bridge(s)

    return piece


def _alpha_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def piece(s_piece, index=None):
        if index is None:
            frac = bundle.ecdf_count(s_piece) / bundle.n
            bridge = bundle.bridge_piece(s_piece)
        else:  # steps: the U_k at or before the piece
            frac = index.steps / bundle.n
            bridge = bundle.bridge_piece(s_piece, index.cells)
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

    def piece(s_piece, index=None):
        sp = np.asarray(s_piece, dtype=float)
        if index is None:
            u = bundle.U[bundle.lattice_index(anchor - sp)]
            inc = bridge_inc(sp)
        else:  # steps: the anchor - k / n at or before the piece, k = n..0
            u = bundle.U[np.clip(bundle.n - index.steps, 0, bundle.n)]
            inc = bridge_inc(sp, index.cells)
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

    def piece(s_piece, index=None):
        sp = np.asarray(s_piece, dtype=float)
        if index is None:
            frac = bundle.ecdf_count(anchor - sp) / bundle.n
            inc = bridge_inc(sp)
        else:  # steps: the anchor - U_k at or before the piece, k = n..1
            frac = (bundle.n - index.steps) / bundle.n
            inc = bridge_inc(sp, index.cells)
        return lambda s: (alpha_anchor - sqn * (frac - (anchor - s))) - inc(s)

    return piece


# -- domain rules ----------------------------------------------------------
#
# Each raises ValueError where a statistic's sup domain is empty at size n.
# The problem builders apply them to the bundle; the harness applies them at
# every ladder size before any replicate is scheduled.


def full_domain(n: int, lam: float) -> tuple[float, float]:
    """[lam/n, 1 - lam/n]."""
    lo, hi = lam / n, 1.0 - lam / n
    if not lo < hi:
        raise ValueError(f"empty domain: lam/n = {lo} >= 1 - lam/n")
    return lo, hi


def increment_domain(n: int, lam: float, t: float) -> tuple[float, float]:
    """[lam/n, t)."""
    lo = lam / n
    if not lo < t:
        raise ValueError(f"empty domain: lam/n = {lo} >= t = {t}")
    return lo, t


def restricted_count(n: int, t: float) -> int:
    """[nt], which the restricted domain [U_1, U_[nt]) needs to be at least 2."""
    t_n = int(math.floor(n * t))
    if t_n < 2:
        raise ValueError(f"restricted statistic requires [nt] >= 2, got {t_n}")
    return t_n


def tail_domain(n: int, d: float, side: str) -> tuple[float, float]:
    """[0, d/n] (left) or [1 - d/n, 1] (right), for 1 <= d <= n."""
    if not 1.0 <= d <= n:
        raise ValueError(f"d must lie in [1, n], got {d}")
    if side == "left":
        return 0.0, d / n
    if side == "right":
        return 1.0 - d / n, 1.0
    raise ValueError("side must be 'left' or 'right'")


# -- public statistics -----------------------------------------------------


def _lattice(n: int) -> np.ndarray:
    """k / n for k = 0..n: the jumps of s -> U_[sn]."""
    return np.arange(n + 1) / n


def problem_quantile_full(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    lo, hi = full_domain(bundle.n, cfg.lam)
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
        bundle, *full_domain(bundle.n, cfg.lam), *power_weight(bundle.n, cfg.nu, "sym")
    )


def problem_quantile_increment(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    return SupProblem(
        *increment_domain(bundle.n, cfg.lam, cfg.t),
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
    lo, hi = increment_domain(bundle.n, cfg.lam, cfg.t)
    return empirical_window_problem(bundle, cfg.t, lo, hi, *power_weight(bundle.n, cfg.nu, "s"))


def problem_restricted(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    t_n = restricted_count(bundle.n, cfg.t)
    return empirical_window_problem(
        bundle, cfg.t, bundle.U[1], bundle.U[t_n], *power_weight(bundle.n, cfg.nu, "s")
    )


def problem_tail(bundle: Bundle, d: float, side: str) -> SupProblem:
    lo, hi = tail_domain(bundle.n, d, side)
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
