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

The point values are evaluated first; then the domain is solved block by
block.  Block edges are lo, every k-th step jump inside (lo, hi), the
splice t inside an ``AnchoredBundle``'s full range, and hi, with k chosen
so that a block holds about ``_BLOCK_POINTS`` points of the bundle's
dyadic grid.  Edges are breakpoints, so the blocks' pieces are exactly the
pieces of the whole domain; each block asks the bundle only for the grid
points over itself.  The best right and left limits are carried across
blocks with a strict ``>``, so ties resolve to the first occurrence as in
a single pass.

A block of more than ``_BOUND_CELLS`` grid cells is cut into sub-blocks at
every ``_SUB_BLOCK``-th point of its grid run, and each sub-block [e, f] is
bounded without a merge (``_sub_block_bounds``).  Every numerator is affine
in s, affine in W_n and monotone in its step count, so |numerator| there is
at most its largest |value| at the 8 corners s in {e, f}, step count in
{at e, just before f} and W_n in {min, max over the sub-block's cells}.
That is widened by 1e-9 relative and by 1e-9 (sqrt(n) + max|W_n| / sqrt(n)
+ 1), which covers the rounding of the numerator's terms, near a zero
crossing too.  A weight's bound there is scale bound / min(w(e), w(f))^c,
widened by 1e-9 relative, and its floor is the largest of its best point
value and its best right and left limits so far: values the sup reaches.
Only the sub-blocks whose bound reaches the floor of some weight (a tie
can still move arg_s or side), those with a zero base and those past a
window increment's anchor are merged, as one set of pieces in position
order, and evaluated (``_kept``, ``_pieces``).  A skipped sub-block holds
no value at or above any floor, so no first occurrence of a side's best
that can win, and every result is that of a full evaluation, to the bit;
``grid_points`` still counts every piece.  Smaller blocks, such as the tail
sups' of at most 2^14 cells at n = 4096, are evaluated whole: there the
bound costs about as much as it saves.

A weight is applied on the evaluated pieces only if the bound scale
max|numerator| / min(w(a), w(b))^c over their range [a, b] could beat its
best so far (``_cannot_win``): the weight's base is smallest at an end of
the range.  Working memory beyond the bundle is O(block + n): the block's
breakpoints, and the step jumps and point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .processes import Bundle

# Dyadic grid points per block of the sup domain (see ``_block_edges``).
_BLOCK_POINTS = 1 << 16
# A block of more grid cells than this is bounded by sub-blocks of
# ``_SUB_BLOCK`` grid points (``_kept``); a smaller one is evaluated whole,
# where the bound costs about as much as it saves.
_BOUND_CELLS = 1 << 14
_SUB_BLOCK = 64


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


def _blocks(bundle: Bundle, prob: SupProblem, steps: np.ndarray):
    """(a, b, run) of each block [a, b] (``_block_edges``): the run is the grid
    its bridge lookups read (``grid_runs``), and ``steps`` the problem's
    sorted step jumps."""
    edges = _block_edges(bundle, prob, steps[np.append(True, steps[1:] != steps[:-1])])
    for a, b in zip(edges[:-1], edges[1:]):
        yield a, b, bundle.grid_runs(prob.anchor, a, b)


class Index(NamedTuple):
    """Lookups of a block's pieces, read from the run counts (see ``_pieces``)."""

    steps: np.ndarray  # step jumps at or before each piece's left end
    cells: np.ndarray  # W_n cell of each piece, in the block's run of ``grid_runs``, or W_n


def _extras(a: float, b: float, steps: np.ndarray, grid: np.ndarray) -> tuple:
    """The block ends and distinct step jumps of [a, b] and where they go in the grid run.

    Returns (extras, last, pos, new): the distinct values of a, ``steps``
    and b, where the i-th has last[i] step jumps at or before it (b aside),
    their ``searchsorted`` positions in ``grid``, and which are no grid point.
    """
    extras = np.concatenate([[a], steps, [b]])
    last = np.flatnonzero(np.append(extras[1:] != extras[:-1], True))
    extras = extras[last]
    pos = np.searchsorted(grid, extras)
    new = np.ones(extras.size, dtype=bool)
    inside = pos < grid.size
    new[inside] = grid[pos[inside]] != extras[inside]
    return extras, last, pos, new


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
    extras, last, pos, new = _extras(a, b, steps, grid)
    at = pos + np.cumsum(new) - new  # where each value lands among the breakpoints
    pts = np.insert(grid, pos[new], extras[new])
    before = np.repeat(last[:-1].astype(np.int32), np.diff(at))
    added = at[new]
    inserted = np.repeat(
        np.arange(added.size + 1, dtype=np.int32),
        np.diff(np.concatenate([[0], added, [pts.size - 1]])),
    )
    return pts, before, np.arange(1, pts.size, dtype=np.int32) - inserted


def _preceding(sizes: np.ndarray) -> np.ndarray:
    """Sum of the sizes before each."""
    return np.cumsum(sizes) - sizes


def _pieces(steps: np.ndarray, run, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The pieces of the disjoint ranges [lo[i], hi[i]] of one block, in order.

    ``lo`` and ``hi`` ascend, and every end but lo[0] and hi[-1] is a point of
    the block's grid ``run``.  The ranges' grid points and step jumps are
    merged at once (``_merge``) into the breakpoints ``pts``; ``take`` picks
    the pieces (pts[:-1][take], pts[1:][take]) that lie in a range, which
    drops the one piece across each gap.  The piece after the c-th point of
    the run lies in W_n cell first + c - 1 (ascending index) or first - c
    (descending), and ``Index.steps`` counts the problem's step jumps
    ``steps`` at or before it.  Returns (pts, take, Index).
    """
    g0, g1 = np.searchsorted(run.x, lo), np.searchsorted(run.x, hi, "right")
    s0, s1 = np.searchsorted(steps, lo), np.searchsorted(steps, hi, "right")
    if lo.size == 1:
        pts, before, count = _merge(lo[0], hi[0], steps[s0[0] : s1[0]], run.x[g0[0] : g1[0]])
        take, at_steps, skipped = slice(None), s0[0] + before, g0[0]
    else:
        grid = np.concatenate([run.x[i:j] for i, j in zip(g0, g1)])
        jumps = np.concatenate([steps[i:j] for i, j in zip(s0, s1)])
        pts, before, count = _merge(lo[0], hi[-1], jumps, grid)
        first = np.searchsorted(pts, lo)
        sizes = np.searchsorted(pts, hi) - first
        take = np.repeat(first - _preceding(sizes), sizes) + np.arange(sizes.sum())
        at_steps = before[take] + np.repeat(s0 - _preceding(s1 - s0), sizes)
        count = count[take] + np.repeat(g0 - _preceding(g1 - g0), sizes)
        skipped = 0
    # skipped + count points of the run lie at or before each piece's left end
    if run.step > 0:
        cells = (run.first + skipped - 1) + count
    else:
        cells = (run.first - skipped) - count
    return pts, take, Index(at_steps, cells)


def _piece_count(a: float, b: float, steps: np.ndarray, grid: np.ndarray) -> int:
    """How many pieces ``_merge`` makes of the block [a, b], without merging.

    ``steps`` are the problem's sorted step jumps, and ``grid`` the block's run.
    """
    steps = steps[np.searchsorted(steps, a) : np.searchsorted(steps, b, "right")]
    return grid.size + int(np.count_nonzero(_extras(a, b, steps, grid)[3])) - 1


def _sub_block_bounds(bundle: Bundle, prob: SupProblem, steps: np.ndarray, a, b, run) -> tuple:
    """Edges of the sub-blocks of the block [a, b], and a bound on |numerator| over each.

    The edges are a, every ``_SUB_BLOCK``-th point of the block's grid run
    and b, all breakpoints.  On a sub-block [e, f] each numerator is affine
    in s, affine in W_n and monotone in the step count, so |numerator| there
    is at most its largest |value| over the 8 corners s in {e, f}, step
    count in {at e, just before f} and W_n in {min, max over the sub-block's
    cells}.  All 8 are evaluated in one call of the piece factory, with the
    W_n values passed as cells.  The bound is widened for the rounding of
    the numerator's terms, of size sqrt(n) s and W_n / sqrt(n).
    """
    x = run.x
    inner = np.arange(_SUB_BLOCK, x.size - 1, _SUB_BLOCK)
    edges = np.concatenate([[a], x[inner], [b]])
    lo, hi = edges[:-1], edges[1:]
    k_lo, k_hi = np.searchsorted(steps, lo, "right"), np.searchsorted(steps, hi)
    # the pieces of the block lie after its c-th run point, c = c_a..c_b, and
    # those of sub-block i after c = inner[i - 1] + 1 .. inner[i]
    c_a, c_b = int(x[0] == a), x.size - int(x[-1] == b)
    if run.step > 0:
        w = run.w_span(run.first + c_a - 1, run.first + c_b - 1)
    else:
        w = run.w_span(run.first - c_b, run.first - c_a)[::-1]
    starts = np.concatenate([[0], inner + 1 - c_a])
    w_min, w_max = np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)
    s = np.concatenate([lo, hi] * 4)
    k = np.concatenate([k_lo, k_lo, k_hi, k_hi] * 2)
    w = np.concatenate([w_min] * 4 + [w_max] * 4)
    corners = np.abs(prob.numerator(np.tile(0.5 * (lo + hi), 8), Index(k, w))(s))
    bound = corners.reshape(8, -1).max(axis=0)
    sqn = math.sqrt(bundle.n)
    w_abs = np.maximum(np.abs(w_min), np.abs(w_max))
    return lo, hi, bound * (1.0 + 1e-9) + 1e-9 * (sqn + w_abs / sqn + 1.0)


def _kept(bundle: Bundle, prob: SupProblem, steps, a, b, run, weights, floors) -> tuple:
    """The sub-blocks of [a, b] that may hold a value at or above a weight's floor.

    The weight's base is smallest at a sub-block end (see ``_cannot_win``),
    so scale bound / min(w(e), w(f))^c, widened by 1e-9 relative, bounds its
    values on the sub-block [e, f] (``_sub_block_bounds``).  A sub-block is
    kept where that reaches the floor of some weight: on a tie it could still
    move arg_s or side.  It is also kept where a base is zero, and past the
    anchor of a window increment, where the increment is constant (only the
    restricted domain reaches there).  Returns the ends (lo, hi) of the
    kept ranges, adjacent sub-blocks joined.
    """
    lo, hi, bound = _sub_block_bounds(bundle, prob, steps, a, b, run)
    keep = np.zeros(lo.size, dtype=bool) if prob.anchor is None else hi > prob.anchor
    for (weight_exp, weight_kind, scale), floor in zip(weights, floors):
        if weight_kind is None:
            low = 1.0
        else:
            base = np.minimum(_weight_base(lo, weight_kind), _weight_base(hi, weight_kind))
            low = base**weight_exp
        with np.errstate(divide="ignore", invalid="ignore"):
            keep |= (low <= 0.0) | (scale * bound / low * (1.0 + 1e-9) >= floor)
    turns = np.diff(np.concatenate([[0], keep, [0]]).astype(np.int8))
    return lo[turns[:-1] == 1], hi[turns[1:] == -1]


def _abs_limits(prob: SupProblem, p: np.ndarray, q: np.ndarray, index: Index) -> tuple:
    """|numerator| right limits at p and left limits at q, the ends of pieces.

    The lookups come from ``index``, once per piece.
    """
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


def _best_points(bundle: Bundle, prob: SupProblem, weights) -> tuple:
    """Each weight's largest point value and its abscissa, the first on a tie,
    from the numerator's float lookups (``point_abscissae``); and how many
    abscissae there are."""
    at = prob.point_abscissae(bundle.point_breaks(prob.anchor))
    abs_points = np.abs(prob.numerator(at)(at))
    best = []
    for weight_exp, weight_kind, scale in weights:
        vals = _weigh(abs_points, _weight_power(at, weight_exp, weight_kind), scale)
        j = int(np.argmax(vals))
        best.append((float(vals[j]), float(at[j])))
    return best, at.size


def solve_weights(bundle: Bundle, prob: SupProblem, weights) -> list[WeightedSupResult]:
    """``solve`` for each (weight_exp, weight_kind, scale) in ``weights``, in one pass.

    |numerator| is evaluated once on each candidate set (point values, right
    limits, left limits) and every weight is applied to it.  The point
    values come first.  The limits are taken block by block
    (``_block_edges``), carrying each weight's best right and best left
    limit across blocks; the first occurrence wins ties.  On a block of more
    than ``_BOUND_CELLS`` grid cells only the sub-blocks that may reach a
    weight's floor, the largest of its best point value and its best limits
    so far, are evaluated (``_kept``).  A weight whose values on the
    evaluated pieces cannot beat its best on either side (``_cannot_win``)
    is not applied there, and its base is computed on a block only for the
    weights that are.
    """
    if not prob.lo < prob.hi:
        raise ValueError(f"empty sup domain [{prob.lo}, {prob.hi})")
    points, n_points = _best_points(bundle, prob, weights)
    best = {side: [(-math.inf, prob.lo)] * len(weights) for side in ("right", "left")}
    pieces = 0
    steps = np.sort(prob.step_jumps)  # repeats kept: they count
    for a, b, run in _blocks(bundle, prob, steps):
        if run.x.size - 1 > _BOUND_CELLS:
            pieces += _piece_count(a, b, steps, run.x)
            # a NaN point value (0/0 at a zero base) never wins, so sets no floor
            floors = [
                max(right[0], left[0], -math.inf if math.isnan(point[0]) else point[0])
                for right, left, point in zip(best["right"], best["left"], points)
            ]
            lo, hi = _kept(bundle, prob, steps, a, b, run, weights, floors)
            if lo.size == 0:
                continue
            pts, take, index = _pieces(steps, run, lo, hi)
        else:
            pts, take, index = _pieces(steps, run, np.array([a]), np.array([b]))
            pieces += pts.size - 1
        p, q = pts[:-1][take], pts[1:][take]
        abs_right, abs_left = _abs_limits(prob, p, q, index)
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
                vals = _weigh(abs_num, None if wpow is None else wpow[cut][take], scale)
                j = int(np.argmax(vals))
                if vals[j] > best[side][i][0]:
                    best[side][i] = (float(vals[j]), float(s[j]))
    results = []
    for i, (value, arg_s) in enumerate(points):
        res = WeightedSupResult(-math.inf, prob.lo, "right", 2 * pieces + n_points)
        for side in ("right", "left"):
            if best[side][i][0] > res.value:
                res.value, res.arg_s = best[side][i]
                res.side = side
        if value > res.value:
            res.value, res.arg_s, res.side = value, arg_s, "point"
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
# the step process it reads.  Float ``index.cells`` are W_n values, passed
# through to the bundle's bridge (the corners of ``_sub_block_bounds``).
# Each value is affine in s and in W_n, and monotone in the step count.


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
