"""Weighted sup discrepancy statistics over a coupled process bundle.

Between breakpoints every discrepancy here is |a + b s| for constants a, b
(the step processes and the dyadic-resolution bridge are constant, the
drift terms linear), and against the weights s^c, (1-s)^c and [s(1-s)]^c
with 0 <= c <= 1 such a ratio has no interior local maximum.  The supremum
over the domain is therefore attained at a breakpoint, as a one-sided limit
or as the point value there.

Breakpoints are: the points of the bundle's grid runs (``grid_runs``), that
is its jump grid, where the bridge lookup or the lattice index k/n can change,
and for a window increment the jump points of its bridge lookups; the jump
points of whichever step process appears in the numerator; and the domain
endpoints.
One-sided limits are evaluated by resolving all piecewise lookups on the
adjacent interval and then plugging in the endpoint abscissa.

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
lookups on a piece and returns s -> values, evaluated at both ends of each
piece; the point values take one more pass, at their float abscissae.  The
weight enters only after |numerator|, so several weights of one numerator
and domain (the eta or nu variants of a statistic) share one pass
(``solve_weights``), and each weight's base s(1-s), s or 1-s is computed
once per block.

Every breakpoint but the step jumps and the domain ends is a grid point of
known integer index, and the lookups are read from those indices, not from
float midpoints.  A block's breakpoints are a stable, de-duplicated merge of
sorted runs (``_blocks``): its ends, the bundle's grid runs (``grid_runs``:
the jump grid j / (n 2^depth), or on ``AnchoredBundle`` its blocks' grids
mapped onto [0, t] and [t, 1] and the lattice k / n, and the window
increment's grid, each cut to the block) and the step jumps.  How many
points of each run lie at or before a piece gives its lookups: the W_n
cell, by index into the paths' refined grids (``w_cells``), and the
lattice index or ECDF count, from the step jumps before it.  A piece
narrower than ``_NARROW`` keeps all its lookups at its float midpoint, as
``numerator(mid)`` does: its ends are floats a few ulp apart, such as
t - t x and t x' on ``AnchoredBundle``, or an increment grid point one ulp
off the grid, and rounding may put its midpoint in either neighbouring cell.

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
from typing import NamedTuple

import numpy as np

from .processes import Bundle

# Dyadic grid points per block of the sup domain (see ``_block_edges``).
_BLOCK_POINTS = 1 << 16

# Pieces narrower than this keep the lookups at their float midpoint; wider
# ones read them by index (see ``_abs_limits``).  The midpoint lookups round and
# snap within a few dozen ulp of 1 in s, far inside this margin, so on a
# wider piece they find the cell the run counts give.
_NARROW = 2.0**-36


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

    def point_abscissae(self) -> np.ndarray:
        """Where the point value is evaluated: closed endpoints and step jumps."""
        s = self.step_jumps
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
    """lo, every k-th of the sorted step jumps inside (lo, hi), and hi.

    k is chosen so that a block holds about ``_BLOCK_POINTS`` points of the
    dyadic grid, whose density is n 2^depth.
    """
    inside = jumps[np.searchsorted(jumps, prob.lo, "right") : np.searchsorted(jumps, prob.hi)]
    grid = (bundle.n << bundle.depth) * (prob.hi - prob.lo)
    k = max(1, int(_BLOCK_POINTS * inside.size / grid))
    return np.concatenate([[prob.lo], inside[k - 1 :: k], [prob.hi]])


class Index(NamedTuple):
    """Lookups of a block's pieces, read from the run counts (see ``_blocks``)."""

    steps: np.ndarray  # step jumps at or before each piece's left end
    cells: list  # W_n cell of each piece, one array per run that ``reads_cells``

    def take(self, k) -> "Index":
        """The lookups of pieces k."""
        return Index(self.steps[k], [c[k] for c in self.cells])


def _merge(runs: list, counted: list) -> tuple[np.ndarray, list]:
    """Distinct values of the ascending ``runs``, merged in order, and for each
    run in ``counted`` how many of its points lie at or before each value but
    the last."""
    x = np.concatenate(runs)
    order = np.argsort(x, kind="stable")
    x = x[order]
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    run_of = np.repeat(np.arange(len(runs), dtype=np.int8), [r.size for r in runs])[order]
    return x[last], [np.cumsum(run_of == i, dtype=np.int32)[last[:-1]] for i in counted]


def _blocks(bundle: Bundle, prob: SupProblem):
    """Sorted breakpoints of each block, with the index lookups of its pieces.

    A block's breakpoints are its ends, the bundle's grid runs in it
    (``grid_runs``: the jump grid, and the window increment's grid) and the
    step jumps in it, merged from these sorted runs.  The piece after the c-th point of a run
    that ``reads_cells`` lies in W_n cell first + c - 1 (ascending index) or
    first - c (descending), and ``steps`` counts the step jumps at or before
    it.
    """
    steps = np.sort(prob.step_jumps)  # repeats kept: they count
    edges = _block_edges(bundle, prob, steps[np.append(True, steps[1:] != steps[:-1])])
    for a, b in zip(edges[:-1], edges[1:]):
        s0, s1 = int(np.searchsorted(steps, a)), int(np.searchsorted(steps, b, "right"))
        runs = bundle.grid_runs(prob.anchor, a, b)
        cell_runs = [run for run in runs if run.reads_cells]
        pts, counts = _merge(
            [np.array([a, b]), steps[s0:s1], *(r.x for r in runs)],
            [1, *(i + 2 for i, run in enumerate(runs) if run.reads_cells)],
        )
        cells = [
            run.first + c - 1 if run.step > 0 else run.first - c
            for run, c in zip(cell_runs, counts[1:])
        ]
        yield pts, Index(s0 + counts[0], cells)


def _abs_limits(prob: SupProblem, pts: np.ndarray, index: Index) -> tuple:
    """|numerator| right limits at pts[:-1] and left limits at pts[1:].

    The lookups come from ``index``, but a piece narrower than ``_NARROW``
    takes them at its float midpoint: a float rounding may move those to a
    neighbouring cell.  Each piece does each lookup once.
    """
    p, q = pts[:-1], pts[1:]
    mid = 0.5 * (p + q)
    narrow = q - p < _NARROW
    if not narrow.any():
        limits = prob.numerator(mid, index)
        return np.abs(limits(p)), np.abs(limits(q))
    wide = np.flatnonzero(~narrow)  # integer indices: boolean masks gather slowly
    right, left = np.empty_like(p), np.empty_like(p)
    for part, idx in ((wide, index.take(wide)), (np.flatnonzero(narrow), None)):
        limits = prob.numerator(mid[part], idx)
        right[part], left[part] = np.abs(limits(p[part])), np.abs(limits(q[part]))
    return right, left


def solve_weights(bundle: Bundle, prob: SupProblem, weights) -> list[WeightedSupResult]:
    """``solve`` for each (weight_exp, weight_kind, scale) in ``weights``, in one pass.

    |numerator| is evaluated once on each candidate set (right limits, left
    limits, point values) and every weight is applied to it.  The limits are
    taken block by block (``_block_edges``), carrying each weight's best
    right and best left limit across blocks; the first occurrence wins ties.
    """
    if not prob.lo < prob.hi:
        raise ValueError(f"empty sup domain [{prob.lo}, {prob.hi})")
    best = {side: [(-math.inf, prob.lo)] * len(weights) for side in ("right", "left")}
    pieces = 0
    for pts, index in _blocks(bundle, prob):
        p, q = pts[:-1], pts[1:]
        pieces += p.size
        abs_right, abs_left = _abs_limits(prob, pts, index)
        bases = {kind: _weight_base(pts, kind) for kind in {w[1] for w in weights}}
        for i, (weight_exp, weight_kind, scale) in enumerate(weights):
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
