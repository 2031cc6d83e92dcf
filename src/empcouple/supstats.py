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
once per block.  So do sub-intervals of the domain, *views*, whose inner
ends are point abscissae of the problem: a view's pieces and point
abscissae are then the problem's in it, and a row of a (weight, view) pair
equals the solve over the view alone, to the bit.  The tails of one side
whose inner ends are lattice points are views of the widest.

Every lookup is read from integer indices, never from float abscissae.
A block's breakpoints are the grid of ``grid_runs`` cut to the
block, one strictly ascending run of known integer index (the jump grid
j / (n 2^depth); on ``AnchoredBundle`` one of its blocks' grids, mapped onto
[0, t] or [t, 1]; for a window increment that increment's grid), with the
block's ends and step jumps inserted where they are no grid point
(``_merge``).  How many points of the run lie at or before a piece gives
its lookups: the W_n cell, by index into the paths' refined grids
(``w_cells``), and the lattice index or ECDF count, from the step jumps
before it.  Both counts follow from the insertion positions, with no sort
and no running sum over the block.  A point value takes its lookups from
the side each term is continuous from (``_abs_points``): its step count is
one ``searchsorted`` in the sorted step jumps, and its W_n cell follows from
its place in its stretch's grid run, by the index arithmetic of ``Run``.
The domain ends are floats of the lattice points they denote, where they
lie within the lookup snap of one (``domain_end``), so a closed end is read
as the lookups read it.  The public evaluators (``bridge``,
``quantile_process``, ``empirical_process``) read by float, and the engine
reads them only at a window increment's anchor.

The point values are evaluated first; then the domain is solved stretch
by stretch and block by block, every stretch on one path.  The splice t of
an ``AnchoredBundle``'s full range (the bundle's ``point_breaks``) splits
the domain into stretches that each read one grid run (``_runs``).  Each
stretch is cut into blocks at every ``_BLOCK_POINTS``-th point of its run.
Run points are breakpoints, so the blocks' pieces are exactly the pieces of
the stretch; a block computes only the points of its stretch's run over
itself.  Of the stretch's kept ranges (``_kept``, below), each block merges,
as one set of pieces in position order, and evaluates those that still
reach a floor raised by the best limits so far (``_pieces``).  The best
right and left limits are carried across blocks with a strict ``>``
(``_carry``), so ties resolve to the first occurrence as in a single pass.
``grid_points`` counts every piece of every stretch in a row's view once,
evaluated or not (``_piece_count``).

Most of a large domain cannot hold the sup, and is never evaluated.  A
stretch of more than ``_BOUND_CELLS`` grid cells is cut into sub-blocks
where its W_n cells split into the aligned chunks of ``_SUB_BLOCK`` cells
of the paths' refined grids (chunks of each path start at its grid value 0,
and the path split [n/2] 2^depth is always an edge).  Groups of 4
sub-blocks, of 4 of those, and so on, are the nodes of coarser levels, as
long as a level holds at least ``_TOP_NODES`` nodes (``_Nodes``).  Every
numerator is affine in s, affine in W_n and monotone in its step count, so
|numerator| on a node [e, f] is at most its largest |value| at the 8
corners s in {e, f}, step count in {at e, just before f} and W_n in {min,
max over the node's cells}.  A path computes the least and greatest value
of every chunk once, on its first bounded read, and keeps them beside its
grid (``CoupledPath.extremes``); a cell's W_n is C - v for a scalar C and
the path's value v, so these give each whole sub-block's W_n extremes to
the bit, only the two sub-blocks at the stretch's ends are read cell by
cell (``ProcessBundle.w_extremes``), and a node's extremes are those of its
children.  The bound is widened by 1e-9 relative and by 1e-9 (sqrt(n) +
max|W_n| / sqrt(n) + 1), which covers the rounding of the numerator's
terms, near a zero crossing too.  A weight's bound there is scale bound /
min(w(e), w(f))^c, widened by 1e-9 relative, and its floor is its best
point value: a value the sup reaches.  The nodes are bounded from the
coarsest level down, and only the children of those whose bound reaches the
floor of some row (a tie can still move arg_s or side; a row bounds
nothing on a node outside its view), those with a
zero base and those that reach past a window increment's anchor are
bounded at the next level (``_kept``); the sub-blocks kept at the finest
level are the stretch's kept ranges.  A skipped node holds no value at or
above any floor, so no first occurrence of a side's best that can win, and
every result is that of a full evaluation, to the bit.  The grid run
computes its points only where they are read, the node edges and the kept
ranges, and places the ends and step jumps in the run by index arithmetic
checked against those floats (``Run``), so a bounded stretch costs
O(sub-blocks + step jumps in it) in cheap array passes, plus the nodes
bounded and the kept pieces, and builds no array of its grid size.  A
stretch of at most ``_BOUND_CELLS`` cells, such as the tail sups' of at
most 2^14 cells at n = 4096, is kept whole, as one range that reaches
every floor: bounding those too made a replicate of the three
tail-exceedance sups, bundle build included, 11-14% slower (0.8 to 1.9 ms
on medians of 7.7 to 13.9 ms, over seven runs of 110 replicates on a
shared 2-core x86 machine), and slower in at least 99 of 110 replicates.

A weight is applied on the evaluated pieces only if the bound scale
max|numerator| / min(w(a), w(b))^c over their range [a, b] could beat its
best so far (``_cannot_win``): the weight's base is smallest at an end of
the range.  Working memory beyond the bundle is O(n) for the step jumps
and point values, plus, per block, the pieces of its kept ranges, plus,
per bounded stretch, a few floats and indices per sub-block for the
extremes and node edges, and the corners of fewer than 2 ``_CORNER_NODES``
nodes at a time.  The paths' cached extremes add 2 floats per
``_SUB_BLOCK`` grid cells to the bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import snap_to_integer
from .processes import AnchoredBundle, Bundle

# Grid run points per block of a stretch (``solve_weights``).
_BLOCK_POINTS = 1 << 16
# A stretch of more grid cells than this is bounded by a descent over its
# sub-blocks, the chunks of the paths' cached W_n extremes; a smaller one is
# kept whole (``_kept``).  Bounding those too made a tail-exceedance
# replicate, three tail sups at n = 4096, 11-14% slower.
_BOUND_CELLS = 1 << 14
# The coarsest level of a stretch's descent holds at least this many nodes
# (``_Nodes``): each level costs a fixed ~0.1 ms of array calls, which fewer
# nodes do not repay.
_TOP_NODES = 1 << 10
# Nodes whose 8 corners are evaluated in one call of the piece factory, up to
# twice as many; this keeps the corners' temporaries near those of a block's
# flat pass, 1 024 sub-blocks.
_CORNER_NODES = 1 << 10


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
    grid_points: int  # 2 x pieces + point abscissae, evaluated or not


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
        self.numerator = numerator  # (s_piece, Index) -> (s -> ndarray), see below
        self.weight_exp = weight_exp
        self.weight_kind = weight_kind  # 'sym' | 's' | 'one-minus-s' | None
        self.scale = float(scale)

    @property
    def weight(self) -> tuple:
        return self.weight_exp, self.weight_kind, self.scale

    def point_abscissae(self, steps: np.ndarray, breaks: np.ndarray) -> np.ndarray:
        """Where the point value is evaluated: closed endpoints, step jumps and
        the bundle's ``point_breaks``, given as ``breaks``; ``steps`` are the
        step jumps, sorted.  Ascending and distinct."""
        inside = steps[np.searchsorted(steps, self.lo) : np.searchsorted(steps, self.hi)]
        at = np.concatenate([[self.lo], inside, [self.hi] if self.closed_hi else []])
        breaks = breaks[(breaks >= self.lo) & (breaks < self.hi)]
        if breaks.size:
            at = np.insert(at, np.searchsorted(at, breaks), breaks)
        return at[np.append(True, at[1:] != at[:-1])]


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


def _weigh(abs_num, wpow, scale) -> np.ndarray:
    """scale |numerator| / w(s)^weight_exp, with wpow = w(s)^weight_exp, None for no weight."""
    num = scale * abs_num
    return num if wpow is None else num / wpow


def _runs(bundle: Bundle, prob: SupProblem):
    """(a, b, run) of each stretch [a, b] of the domain between the bundle's
    ``point_breaks``, and the one grid run of ``grid_runs`` over it."""
    breaks = bundle.point_breaks(prob.anchor)
    edges = np.concatenate([[prob.lo], breaks[(breaks > prob.lo) & (breaks < prob.hi)], [prob.hi]])
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
    the block's grid ``run``.  The ranges' grid points, computed from their
    run positions, and step jumps are merged at once (``_merge``) into the
    breakpoints ``pts``; ``take`` picks the pieces (pts[:-1][take],
    pts[1:][take]) that lie in a range, which drops the one piece across
    each gap.  The piece after the c-th point of the run lies in W_n cell
    first + c - 1 (ascending index) or first - c (descending), and
    ``Index.steps`` counts the problem's step jumps ``steps`` at or before
    it.  Returns (pts, take, Index).
    """
    s0, s1 = np.searchsorted(steps, lo), np.searchsorted(steps, hi, "right")
    if lo.size == 1:
        g0 = run.place(lo[0])
        grid = run.points(g0, run.place(hi[0], "right"))
        pts, before, count = _merge(lo[0], hi[0], steps[s0[0] : s1[0]], grid)
        take, at_steps, skipped = slice(None), s0[0] + before, g0
    else:
        g0, g1 = run.search(lo), run.search(hi, "right")
        sizes = g1 - g0
        grid = run.at(np.repeat(g0 - _preceding(sizes), sizes) + np.arange(sizes.sum()))
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


def _piece_count(a: float, b: float, steps: np.ndarray, run) -> int:
    """How many pieces ``_merge`` makes of [a, b], without merging.

    ``steps`` are the problem's sorted step jumps, and ``run`` the grid run
    of [a, b], of at least one point.  Each distinct end or step jump that
    is no run point adds a piece (``_extras``).  Each is checked against the
    run point nearest its index (``Run.holds``), so the run's points are
    computed only there.
    """
    inside = steps[np.searchsorted(steps, a) : np.searchsorted(steps, b, "right")]
    ends = np.concatenate([[a], inside, [b]])
    extras = ends[np.append(ends[1:] != ends[:-1], True)]
    return run.size + extras.size - int(np.count_nonzero(run.holds(extras))) - 1


def _by_fours(x: np.ndarray, pick) -> np.ndarray:
    """``pick`` (np.minimum or np.maximum) over x[4 i .. 4 i + 3], for each i."""
    fours = np.append(x, [x[-1]] * (-x.size % 4)).reshape(-1, 4)
    return pick(pick(fours[:, 0], fours[:, 1]), pick(fours[:, 2], fours[:, 3]))


class _Nodes:
    """The sub-blocks of a stretch [a, b] of one grid run, and their unions.

    Sub-block edges are a, the run points where the W_n cells of [a, b]
    split into chunks of the paths' cached extremes
    (``ProcessBundle.w_extremes``), and b, all breakpoints.  A node of
    level L is the union of the 4^L consecutive sub-blocks 4^L i ..
    4^L (i + 1) - 1 (the last node may hold fewer), and its least and
    greatest W_n are those of its 4 children (``_by_fours``), so of its
    sub-blocks, to the bit.  Levels coarsen while the coarser one holds at
    least ``_TOP_NODES`` nodes; ``top`` is the coarsest.
    """

    def __init__(self, bundle: Bundle, prob: SupProblem, steps: np.ndarray, a, b, run):
        self.prob, self.steps, self.a, self.b, self.run = prob, steps, a, b, run
        self.sqn = math.sqrt(bundle.n)
        ends = run.at([0, run.size - 1])
        # the pieces of [a, b] lie in the cells c0..c1 (see ``_pieces``)
        c_a, c_b = int(ends[0] == a), run.size - int(ends[1] == b)
        if run.step > 0:
            c0, c1 = run.first + c_a - 1, run.first + c_b - 1
        else:
            c0, c1 = run.first - c_b, run.first - c_a
        starts, w_min, w_max = run.bundle.w_extremes(c0, c1)
        # the grid point of index c, where cell c starts, is run point (c - first) step
        pos = (starts[1:] - run.first) * run.step
        if run.step < 0:
            pos, w_min, w_max = pos[::-1], w_min[::-1], w_max[::-1]
        self.pos = np.concatenate([[0], pos, [0]])  # of edge j; a and b are set apart
        self.w = [(w_min, w_max)]
        while self.w[-1][0].size >= 4 * _TOP_NODES:
            self.w.append(tuple(map(_by_fours, self.w[-1], (np.minimum, np.maximum))))
        self.top = len(self.w) - 1

    def bounds(self, level: int, i=None) -> tuple:
        """(lo, hi, bound): the ends of the nodes i of ``level`` (all if None)
        and a bound on |numerator| over each.

        On a node [e, f] each numerator is affine in s, affine in W_n and
        monotone in the step count, so |numerator| there is at most its
        largest |value| over the 8 corners s in {e, f}, step count in {at e,
        just before f} and W_n in {min, max over the node's cells}.  All 8
        are evaluated in one call of the piece factory, with the W_n values
        passed as cells, for ``_CORNER_NODES`` to twice as many nodes at a
        time.  The bound is widened for the rounding of the numerator's
        terms, of size sqrt(n) s and W_n / sqrt(n).  Only the nodes' edges
        are computed, and their step counts searched.
        """
        w_min, w_max = self.w[level]
        if i is None:
            i = np.arange(w_min.size)
        else:
            w_min, w_max = w_min[i], w_max[i]
        m = self.pos.size - 1  # sub-blocks
        j = np.concatenate([i << 2 * level, np.minimum((i + 1) << 2 * level, m)])
        edges = self.run.at(self.pos[j])
        edges[j == 0], edges[j == m] = self.a, self.b
        lo, hi = edges[: i.size], edges[i.size :]
        k_lo = np.searchsorted(self.steps, lo, "right")
        k_hi = np.searchsorted(self.steps, hi)
        bound = np.empty(i.size)
        parts = max(1, i.size // _CORNER_NODES)
        for c in range(parts):
            part = slice(c * i.size // parts, (c + 1) * i.size // parts)
            e, f, k_e, k_f = lo[part], hi[part], k_lo[part], k_hi[part]
            s = np.concatenate([e, f] * 4)
            k = np.concatenate([k_e, k_e, k_f, k_f] * 2)
            w = np.concatenate([w_min[part]] * 4 + [w_max[part]] * 4)
            corners = np.abs(self.prob.numerator(np.tile(0.5 * (e + f), 8), Index(k, w))(s))
            bound[part] = corners.reshape(8, -1).max(axis=0)
        w_abs = np.maximum(np.abs(w_min), np.abs(w_max))
        return lo, hi, bound * (1.0 + 1e-9) + 1e-9 * (self.sqn + w_abs / self.sqn + 1.0)


def _least_power(e, f, weight_exp, weight_kind):
    """min(w(e), w(f))^weight_exp, the least of w(s)^weight_exp on [e, f]
    (see ``_weight_base``): s(1-s) is concave, s rises and 1 - s falls.
    1.0 for no weight."""
    if weight_kind is None:
        return 1.0
    return np.minimum(_weight_base(e, weight_kind), _weight_base(f, weight_kind)) ** weight_exp


def _reach(prob: SupProblem, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray, rows):
    """Each row's bound, one per (weight, view) in ``rows``, on the nodes [lo, hi] on
    which |numerator| is at most ``bound``.

    scale bound / ``_least_power`` on the node, widened by 1e-9 relative,
    bounds the weight's values there.  It is +inf where a base is zero, and
    on a node that reaches past the anchor of a window increment (only the
    restricted domain does): past it the increment stops following the
    bridge, and a node's corners, evaluated on one side of the anchor,
    bound nothing on the other.  So such a node is never skipped.  It is
    -inf on a node that holds no piece of the row's view.
    """
    reach = np.empty((len(rows), lo.size))
    for row, ((weight_exp, weight_kind, scale), (v_lo, v_hi)) in zip(reach, rows):
        low = _least_power(lo, hi, weight_exp, weight_kind)
        with np.errstate(divide="ignore", invalid="ignore"):
            row[:] = np.where(np.less_equal(low, 0.0), np.inf, scale * bound / low * (1.0 + 1e-9))
        row[(lo >= v_hi) | (hi <= v_lo)] = -np.inf
    if prob.anchor is not None:
        reach[:, hi > prob.anchor] = np.inf
    return reach


def _kept(bundle: Bundle, prob: SupProblem, steps, a, b, run, rows, floors) -> tuple:
    """The sub-blocks of the stretch [a, b] that may hold a value at or above a row's floor.

    The nodes of [a, b] (``_Nodes``) are bounded from the top level down,
    and only the children of the nodes kept at one level are bounded at the
    next.  A node is kept where some row's bound on it (``_reach``)
    reaches that row's floor: on a tie it could still move arg_s or side.
    Returns the ends (lo, hi) of the kept sub-blocks and their ``_reach``.
    A stretch of at most ``_BOUND_CELLS`` grid cells is kept whole, as one
    range that reaches +inf for every row.
    """
    if run.size - 1 <= _BOUND_CELLS:
        return np.array([a]), np.array([b]), np.full((len(rows), 1), np.inf)
    nodes = _Nodes(bundle, prob, steps, a, b, run)
    floors = np.asarray(floors)[:, None]
    i = None  # every node of the top level
    for level in range(nodes.top, -1, -1):
        lo, hi, bound = nodes.bounds(level, i)
        reach = _reach(prob, lo, hi, bound, rows)
        keep = (reach >= floors).any(axis=0)
        i = np.flatnonzero(keep) if i is None else i[keep]
        if not i.size:
            break
        if level:  # the children of the kept nodes
            i = (4 * i[:, None] + np.arange(4)).ravel()
            i = i[i < nodes.w[level - 1][0].size]
    return lo[keep], hi[keep], reach[:, keep]


def _abs_limits(prob: SupProblem, p: np.ndarray, q: np.ndarray, index: Index) -> tuple:
    """|numerator| right limits at p and left limits at q, the ends of pieces.

    The lookups come from ``index``, once per piece.
    """
    limits = prob.numerator(0.5 * (p + q), index)
    return np.abs(limits(p)), np.abs(limits(q))


def _cannot_win(max_num: float, a: float, b: float, weight: tuple, floor: float) -> bool:
    """Whether no value of ``weight`` on the block [a, b] can exceed ``floor``.

    |numerator| is at most ``max_num`` on the block, so scale max_num /
    ``_least_power`` bounds every value of the weight there; the relative
    margin 1e-12 covers the rounding of the bases, powers and divides.  A
    zero base bounds nothing.
    """
    weight_exp, weight_kind, scale = weight
    low = _least_power(a, b, weight_exp, weight_kind)
    return low > 0.0 and scale * max_num / low * (1.0 + 1e-12) <= floor


def _abs_points(prob: SupProblem, steps: np.ndarray, stretches, at: np.ndarray) -> np.ndarray:
    """|numerator| at the point abscissae ``at``, with its lookups read by
    index, as a piece's are, from the side each term is continuous from.

    The step count is that of the sorted ``steps`` at or before the
    abscissa: U_[sn] and the ECDF are right-continuous in s.  For a window
    increment it is that of the steps before it, since those terms read
    anchor - s.  The bridge reads W_n, which is left-continuous in its
    argument, at the abscissa's image in the grid run of its stretch (a < x
    <= b of ``stretches``, lo in the first).  So a grid point of index j
    reads cell j - 1, and j = 0 reads W_n(0) = 0 (``w_span``), which at the
    splice t gives B(t) = b_anchor; any other abscissa reads the cell that
    holds it.  The position comes from ``Run.search``, by index arithmetic
    checked against the run's floats.
    """
    k = np.searchsorted(steps, at, "right" if prob.anchor is None else "left")
    cells = np.empty(at.size, dtype=np.int64)
    ends = np.searchsorted(at, [b for _, b, _ in stretches], "right")
    for (_, _, run), i0, i1 in zip(stretches, np.append(0, ends[:-1]), ends):
        if run.step > 0:  # cell j - 1 of the j-th grid point, counted from first
            cells[i0:i1] = run.first - 1 + run.search(at[i0:i1])
        else:
            cells[i0:i1] = run.first - run.search(at[i0:i1], "right")
    return np.abs(prob.numerator(at, Index(k, cells))(at))


def _best_points(prob: SupProblem, steps: np.ndarray, stretches, at: np.ndarray, rows) -> tuple:
    """Each row's largest point value and its abscissa, the first on a tie,
    over the point abscissae ``at`` in its view (``_abs_points``); and how
    many abscissae each view holds."""
    abs_points = _abs_points(prob, steps, stretches, at)
    best, sizes = [], []
    for (weight_exp, weight_kind, scale), (v_lo, v_hi) in rows:
        i0, i1 = np.searchsorted(at, v_lo), np.searchsorted(at, v_hi, "right")
        part, base = at[i0:i1], _weight_base(at[i0:i1], weight_kind)
        vals = _weigh(abs_points[i0:i1], None if base is None else base**weight_exp, scale)
        j = int(np.argmax(vals))
        best.append((float(vals[j]), float(part[j])))
        sizes.append(int(i1 - i0))
    return best, sizes


def _carry(prob: SupProblem, rows, best: dict, pts: np.ndarray, take, index: Index) -> None:
    """Carry each row's best right and left limit in ``best`` over the
    pieces (p, q) = (pts[:-1][take], pts[1:][take]) of ``_pieces`` in its
    view, those with p and q in [lo_v, hi_v], in position order; a value
    replaces the best only if it is larger, so the first occurrence wins
    ties.  A row whose values there cannot beat its best on either side
    (``_cannot_win``) is not weighed, and a weight's base is computed only
    for the rows that are."""
    p, q = pts[:-1][take], pts[1:][take]
    abs_right, abs_left = _abs_limits(prob, p, q, index)
    max_num = max(abs_right.max(), abs_left.max())
    bases: dict = {}
    for i, (weight, (v_lo, v_hi)) in enumerate(rows):
        weight_exp, weight_kind, scale = weight
        i0, i1 = np.searchsorted(p, v_lo), np.searchsorted(q, v_hi, "right")
        floor = min(best["right"][i][0], best["left"][i][0])
        if i0 >= i1 or _cannot_win(max_num, pts[0], pts[-1], weight, floor):
            continue
        if weight_kind not in bases:
            bases[weight_kind] = _weight_base(pts, weight_kind)
        base = bases[weight_kind]
        wpow = None if base is None else base**weight_exp
        for side, s, abs_num, cut in (
            ("right", p, abs_right, slice(None, -1)),
            ("left", q, abs_left, slice(1, None)),
        ):
            w = None if wpow is None else wpow[cut][take][i0:i1]
            vals = _weigh(abs_num[i0:i1], w, scale)
            j = int(np.argmax(vals))
            if vals[j] > best[side][i][0]:
                best[side][i] = (float(vals[j]), float(s[i0 + j]))


def solve_weights(bundle: Bundle, prob: SupProblem, weights, views=None) -> list[WeightedSupResult]:
    """``solve`` for each (weight_exp, weight_kind, scale) in ``weights``, in one pass.

    Each weight is a row, solved over its view [lo_v, hi_v] in ``views``
    (default: the domain [lo, hi] for every row).  A view is a sub-interval
    of the domain whose ends other than lo and hi are point abscissae of the
    problem (a step jump or a point break), and an inner upper end needs a
    domain closed at hi.  So a view's pieces are the problem's pieces in it,
    its point abscissae the problem's in it, and each row equals the
    ``solve`` of the problem over the view, to the bit: nested tails share
    one pass this way.  In a view, point values count at abscissae in
    [lo_v, hi_v], right limits at p with lo_v <= p < hi_v and left limits at
    q with lo_v < q <= hi_v.

    |numerator| is evaluated once on each candidate set (point values, right
    limits, left limits) and every row is applied to it.  The point values
    come first, and are each row's floor.  Every stretch of the domain
    (``_runs``) then takes the same steps: the pieces of each view in it are
    counted (``_piece_count``), the ranges that may reach a floor are kept
    (``_kept``, the whole stretch where it is small), and it is cut into
    blocks at every ``_BLOCK_POINTS``-th point of its grid run.  Each block
    evaluates the kept ranges in it that still reach a floor raised by the
    best limits so far (``_pieces``), carrying each row's best right and
    best left limit across blocks (``_carry``).
    """
    if not prob.lo < prob.hi:
        raise ValueError(f"empty sup domain [{prob.lo}, {prob.hi})")
    steps = np.sort(prob.step_jumps)  # repeats kept: they count
    abscissae = prob.point_abscissae(steps, bundle.point_breaks(prob.anchor))
    if views is None:
        views = [(prob.lo, prob.hi)] * len(weights)
    views = [(float(v_lo), float(v_hi)) for v_lo, v_hi in views]
    if len(views) != len(weights):
        raise ValueError(f"{len(views)} views for {len(weights)} weights")
    for v_lo, v_hi in views:
        inner = [v for v, end in ((v_lo, prob.lo), (v_hi, prob.hi)) if v != end]
        near = abscissae[np.searchsorted(abscissae, inner).clip(max=abscissae.size - 1)]
        if not (
            prob.lo <= v_lo < v_hi <= prob.hi
            and (v_hi == prob.hi or prob.closed_hi)
            and np.array_equal(near, inner)
        ):
            raise ValueError(f"view [{v_lo}, {v_hi}] is no sub-domain of [{prob.lo}, {prob.hi}]")
    rows = list(zip(weights, views))
    stretches = list(_runs(bundle, prob))
    points, n_points = _best_points(prob, steps, stretches, abscissae, rows)
    # a NaN point value (0/0 at a zero base) never wins, so sets no floor
    floors = np.array([-math.inf if math.isnan(value) else value for value, _ in points])
    best = {side: [(-math.inf, v_lo) for v_lo, _ in views] for side in ("right", "left")}
    pieces = dict.fromkeys(views, 0)
    for a, b, run in stretches:
        for v_lo, v_hi in pieces:
            e, f = max(a, v_lo), min(b, v_hi)
            if e < f:
                part = run if (e, f) == (a, b) else bundle.grid_runs(prob.anchor, e, f)
                pieces[v_lo, v_hi] += _piece_count(e, f, steps, part)
        lo, hi, reach = _kept(bundle, prob, steps, a, b, run, rows, floors)
        cuts = run.at(np.arange(_BLOCK_POINTS, run.size - 1, _BLOCK_POINTS))
        blocks = np.concatenate([[a], cuts, [b]])
        firsts, lasts = np.searchsorted(hi, blocks[:-1], "right"), np.searchsorted(lo, blocks[1:])
        for e, f, r0, r1 in zip(blocks[:-1], blocks[1:], firsts, lasts):
            if r0 == r1:  # no kept range in (e, f)
                continue
            # the kept ranges in (e, f) that reach a floor raised by the best limits so far
            limits = [max(right[0], left[0]) for right, left in zip(best["right"], best["left"])]
            raised = np.maximum(floors, limits)[:, None]
            at = r0 + np.flatnonzero((reach[:, r0:r1] >= raised).any(axis=0))
            if not at.size:
                continue
            gap = lo[at[1:]] != hi[at[:-1]]
            r_lo, r_hi = lo[at[np.append(True, gap)]], hi[at[np.append(gap, True)]]
            pts, take, index = _pieces(steps, run, np.maximum(r_lo, e), np.minimum(r_hi, f))
            _carry(prob, rows, best, pts, take, index)
    results = []
    for i, ((value, arg_s), view) in enumerate(zip(points, views)):
        res = WeightedSupResult(-math.inf, view[0], "right", 2 * pieces[view] + n_points[i])
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
# Each numerator is a piece factory: num(s_piece, index) takes its lookups
# from an ``Index`` (see ``_pieces`` and ``_best_points``), for pieces with
# midpoints s_piece or for point abscissae s_piece, and returns s -> values,
# which is linear in s on each piece.  The problem's step jumps, sorted, are
# the jumps of the step process it reads.  Float ``index.cells`` are W_n
# values, passed through to the bundle's bridge (the corners of
# ``_Nodes.bounds``).  Each value is affine in s and in W_n, and monotone in
# the step count.


def _beta_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def piece(s_piece, index):  # steps: the k / n, k = 0..n, at or before the piece
        bridge = bundle.bridge_piece(s_piece, index.cells)
        u = bundle.U[index.steps - 1]
        return lambda s: sqn * (s - u) - bridge(s)

    return piece


def _alpha_minus_bridge(bundle: Bundle):
    sqn = np.sqrt(bundle.n)

    def piece(s_piece, index):  # steps: the U_k at or before the piece
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

    def piece(s_piece, index):  # steps: the anchor - k / n at or before the piece, k = n..0
        u = bundle.U[np.clip(bundle.n - index.steps, 0, bundle.n)]
        inc = bridge_inc(s_piece, index.cells)
        return lambda s: (beta_anchor - sqn * ((anchor - s) - u)) - inc(s)

    return piece


def _alpha_increment_minus_bridge(bundle: Bundle, anchor: float):
    # Same increment-bridge comparison as _beta_increment_minus_bridge.  The
    # restricted domain can reach past the anchor.  There the count of
    # points at or below anchor - s is 0, but the centring term keeps
    # anchor - s, so the empirical increment is alpha(anchor) - sqrt(n)
    # (s - anchor): it falls with slope -sqrt(n) in s.  The bridge increment
    # keeps its value at the anchor, B(anchor) - B(0) (``bridge_increment``).
    sqn = np.sqrt(bundle.n)
    alpha_anchor = float(bundle.empirical_process(np.asarray([anchor]))[0])
    bridge_inc = bundle.bridge_increment(anchor)

    def piece(s_piece, index):  # steps: the anchor - U_k at or before the piece, k = n..1
        frac = (bundle.n - index.steps) / bundle.n
        inc = bridge_inc(s_piece, index.cells)
        return lambda s: (alpha_anchor - sqn * (frac - (anchor - s))) - inc(s)

    return piece


# -- domain rules ----------------------------------------------------------
#
# Each raises ValueError where a statistic's sup domain is empty at size n.
# The problem builders apply them to the bundle; the harness applies them at
# every ladder size before any replicate is scheduled.


def on_lattice(x: float, n: int) -> bool:
    """Whether x n lies within the lookup snap of an integer (``snap_to_integer``)."""
    return float(snap_to_integer(x * n)).is_integer()


def domain_end(x: float, n: int) -> float:
    """The float of a domain end x at size n, as the lookups read it.

    Where x n lies within the lookup snap of an integer k (``on_lattice``),
    the end is the lattice point k / n, whose float is ``k / n``; elsewhere
    it is x.  The rules below take lam/n and d/n as their floats, and
    1 - lam/n and 1 - d/n from those, each correctly rounded.
    """
    return round(x * n) / n if on_lattice(x, n) else x


def full_domain(n: int, lam: float) -> tuple[float, float]:
    """[lam/n, 1 - lam/n]."""
    lo = domain_end(lam / n, n)
    hi = domain_end(1.0 - lo, n)
    if not lo < hi:
        raise ValueError(f"empty domain: lam/n = {lo} >= 1 - lam/n")
    return lo, hi


def increment_domain(n: int, lam: float, t: float) -> tuple[float, float]:
    """[lam/n, t)."""
    lo = domain_end(lam / n, n)
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
    inner = domain_end(d / n, n)
    if side == "left":
        return 0.0, inner
    if side == "right":
        return domain_end(1.0 - inner, n), 1.0
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


def _window_anchor(bundle: Bundle, t: float) -> float:
    """The anchor of a window increment at t: on a count-anchored bundle its
    splice t; on a lattice bundle, whose lookups read (t - s) n and t n, the
    float of t as a domain end (``domain_end``)."""
    return t if isinstance(bundle, AnchoredBundle) else domain_end(t, bundle.n)


def problem_quantile_increment(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    lo, _ = increment_domain(bundle.n, cfg.lam, cfg.t)
    t = _window_anchor(bundle, cfg.t)
    jumps = t - _lattice(bundle.n)
    # Where (t - lo) n lies within the lookup snap of k, the step term reads
    # U_k at lo (``lattice_index``), as at its jump t - k/n; a jump that
    # rounds below lo is taken there.
    k = round((t - lo) * bundle.n)
    if on_lattice(t - lo, bundle.n) and jumps[k] < lo:
        jumps[k] = lo
    return SupProblem(
        lo, t, False, t, jumps, _beta_increment_minus_bridge(bundle, t),
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
    lo, _ = increment_domain(bundle.n, cfg.lam, cfg.t)
    t = _window_anchor(bundle, cfg.t)
    return empirical_window_problem(bundle, t, lo, t, *power_weight(bundle.n, cfg.nu, "s"))


def problem_restricted(bundle: Bundle, cfg: WeightConfig) -> SupProblem:
    t_n = restricted_count(bundle.n, cfg.t)
    return empirical_window_problem(
        bundle, _window_anchor(bundle, cfg.t), bundle.U[1], bundle.U[t_n],
        *power_weight(bundle.n, cfg.nu, "s"),
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
