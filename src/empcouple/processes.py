"""Per-sample-size process objects built on two coupled paths.

For a sample size n, two independent coupled paths supply the n+1
exponential increments (interleaved so that both tails of the order
statistics sit at the *start* of a Brownian motion) and a spliced Brownian
motion W_n on [0, n+1].  From these we get the order statistics
U_k = S_k / S_{n+1}, the empirical and quantile processes, and the coupled
Brownian bridge.

Splice convention: for s <= [n/2] the first branch runs the first path's
Brownian motion backwards from [n/2],

    W_n(s) = W1([n/2]) - W1([n/2] - s),

matching the reversed interleaving of the first block; the second branch is
W1([n/2]) + W2(n+1-[n/2]) - W2(n+1-s).  Both branches agree at s = [n/2]
and W_n is a standard Brownian motion on [0, n+1].

This *lattice-anchored* bundle couples the quantile process well everywhere,
and in particular its window increments U_[tn] - U_[tn]-k, which sit at the
start of the first path.  The empirical window count in (t-s, t] is driven
by spacings near index n G_n(t) instead, O(sqrt(n)) indices away, where the
coupling of the increments is lost.  ``AnchoredBundle`` is the
*count-anchored* alternative for the empirical window statistics: it draws
N = #{U <= t} coupled to B(t) and builds the samples on either side of t as
ordinary bundles whose well-coupled tails sit at t.

A bundle's two paths are coupled at once, one on the calling thread and one
on a helper thread, and so are they refined when one read first needs both
(``ProcessBundle``), where both paths are long enough to repay the thread.
Each path draws every value from its own keyed stream and writes only its
own arrays, so the bits are those of doing the two in turn.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coupling import (
    CoupledPath,
    check_refine_depth,
    couple_exponential_sums,
    snap_to_integer,
)
from .numerics import binom_quantile, clamp_probability, std_normal_cdf
from .rng import RngStream

DEFAULT_REFINE_DEPTH = 6

# Grid cells per chunk of a path's cached W extremes (``CoupledPath.extremes``),
# and so per sub-block of the sup statistics' bound.
_SUB_BLOCK = 64

# Least extent, in summands, of both paths of a ``ProcessBundle`` for their
# coupling and refinement to run on two threads (``_paired``).  A helper
# thread costs about 135 us to start and slows the small jobs it overlaps:
# with no size rule, the sweep sizes n <= 8 192 ran up to 24% slower in wall
# time.  Paths of 2^16 summands couple and refine in about two thirds of the
# time.
_PAIR_THREADS = 1 << 14


def _paired(first, second, extent: int) -> tuple:
    """(first(), second()), with ``second`` on one helper thread when allowed.

    The helper runs when ``extent`` reaches ``_PAIR_THREADS``, the process may
    run on at least two cores, and it is no worker of a process pool (whose
    workers already share the cores).  The helper is started per call: a
    kept pool would leave a forked worker a pool without its thread.  An
    exception on the helper is raised here.
    """
    if extent < _PAIR_THREADS or multiprocessing.parent_process() is not None or cores() < 2:
        return first(), second()
    with ThreadPoolExecutor(1) as helper:
        other = helper.submit(second)
        return first(), other.result()


def cores() -> int:
    """The CPUs this process may run on; the pair helper's rule and the
    harness's default worker count read it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def next_power_of_two(k: int) -> int:
    return 1 << max(0, (k - 1).bit_length())


def interleave(n: int, seq1, seq2) -> np.ndarray:
    """Merge two increment sequences into the n+1 interleaved summands.

    The first [n/2] outputs are the first sequence's leading block reversed;
    the remaining n+1-[n/2] outputs are the second sequence's leading block
    reversed.
    """
    if n < 2:
        raise ValueError("interleave requires n >= 2")
    seq1 = np.asarray(seq1, dtype=float)
    seq2 = np.asarray(seq2, dtype=float)
    h = n // 2
    g = n + 1 - h
    if seq1.size < h:
        raise ValueError(f"first sequence needs >= {h} elements, got {seq1.size}")
    if seq2.size < g:
        raise ValueError(f"second sequence needs >= {g} elements, got {seq2.size}")
    return np.concatenate([seq1[:h][::-1], seq2[:g][::-1]])


class Run(NamedTuple):
    """An ascending run of breakpoints that carry integer grid indices.

    The run's i-th point, i = 0..size - 1, is the grid point of index
    j = first + step i, the float offset + scale (j / den) with the
    operations in that order; ``scale < 0`` gives a descending index.  The
    points are computed only where they are read (``at``, ``points``), and
    values are placed by index arithmetic checked against those floats
    (``search``, ``place``, ``holds``), so a run costs nothing per point
    until its points are read.  Cell j
    lies between the grid points of index j and j + 1, and ``bundle`` is the
    ``ProcessBundle`` whose W_n cells the index counts (``w_span``,
    ``w_extremes``).
    """

    den: int
    offset: float
    scale: float
    first: int
    step: int
    size: int
    bundle: "ProcessBundle"

    def at(self, i) -> np.ndarray:
        """The points at the positions i."""
        j = self.first + self.step * np.asarray(i, dtype=np.int64)
        return j / self.den * self.scale + self.offset

    def points(self, i0: int, i1: int) -> np.ndarray:
        """The points at the positions i0..i1 - 1, the same floats as ``at``."""
        j0 = self.first + self.step * i0
        x = np.arange(j0, j0 + self.step * (i1 - i0), self.step, dtype=float) / self.den
        x *= self.scale  # in place: the same floats as offset + scale * (j / den)
        x += self.offset
        return x

    def place(self, v: float, side: str = "left") -> int:
        """``search`` of one value, in Python floats, which are those of ``at``."""
        est = (v - self.offset) * (self.step * self.den / self.scale) - self.step * self.first
        i = math.ceil(est - 2.0**-20) if side == "left" else math.floor(est + 2.0**-20) + 1
        i = min(max(i, 0), self.size)
        point = lambda k: (self.first + self.step * k) / self.den * self.scale + self.offset
        before = (lambda x: x < v) if side == "left" else (lambda x: x <= v)
        while i > 0 and not before(point(i - 1)):
            i -= 1
        while i < self.size and before(point(i)):
            i += 1
        return i

    def _estimate(self, v: np.ndarray) -> np.ndarray:
        """The position of each v in the run, from its index, before rounding."""
        return (v - self.offset) * (self.step * self.den / self.scale) - self.step * self.first

    def holds(self, v) -> np.ndarray:
        """Whether each value of v is a point of the run.

        A point's position is its estimate to within far less than one
        (``search`` allows 2^-20), so v is compared with the one point,
        computed as ``at`` computes it, nearest its estimated position.
        """
        v = np.asarray(v, dtype=float)
        i = np.rint(self._estimate(v)).clip(0, self.size - 1).astype(np.int64)
        return self.at(i) == v

    def search(self, v, side: str = "left") -> np.ndarray:
        """``np.searchsorted(self.points(0, self.size), v, side)``, without computing the run.

        Each position is estimated from the index of v and moved until the
        points on either side of it, computed as ``at`` computes them,
        bracket v.
        """
        v = np.asarray(v, dtype=float)
        est = self._estimate(v)
        if side == "left":
            i, before = np.ceil(est - 2.0**-20), np.less
        else:
            i, before = np.floor(est + 2.0**-20) + 1, np.less_equal
        i = i.clip(0, self.size).astype(np.int64)
        while True:
            x = self.at(np.stack([i - 1, i]).clip(0, max(self.size - 1, 0)))
            down = (i > 0) & ~before(x[0], v)
            up = (i < self.size) & before(x[1], v)
            if not (down.any() or up.any()):
                return i
            i = i - down + up


def _mapped_run(den: int, offset: float, scale: float, lo: float, hi: float, bundle) -> Run:
    """The points offset + scale j / den, j = 0..den, that lie in [lo, hi], as a ``Run``.

    The index range is estimated with a margin of one point, and trimmed to
    [lo, hi] by the points' own floats (``Run.place``).
    """
    ends = sorted(((lo - offset) / scale * den, (hi - offset) / scale * den))
    j0, j1 = max(0, math.floor(ends[0]) - 1), min(den, math.ceil(ends[1]) + 1)
    step = 1 if scale > 0 else -1
    near = Run(den, offset, scale, j0 if step > 0 else j1, step, max(0, j1 - j0 + 1), bundle)
    i = near.place(lo)
    return near._replace(first=near.first + step * i, size=near.place(hi, "right") - i)


class _SampleProcesses:
    """Empirical/quantile evaluators shared by both bundle kinds.

    Subclasses provide ``n``, ``t``, ``U`` (with U_0 = 0) and ``depth``, plus
    the bridge methods ``bridge_piece``, ``bridge_increment``, ``grid_runs``
    and ``point_breaks`` that the sup statistics evaluate, and the full grid
    ``jump_grid``, which the oracles in the tests and the benchmark's trace
    read as a reference.  ``grid_runs`` returns exactly the grid the bridge
    lookups of a problem read over a block, as one run: the bridge's grid
    for a full-range or tail sup, the increment grid for a window increment.
    The two bridge piece factories take the abscissae ``s_piece`` of a set
    of pieces or points and their W_n cell indices ``cells`` (one integer
    array, counted in the runs of ``grid_runs``), read W_n by index
    (``w_cells``) and return ``s -> values``, which is linear in s on each
    piece; ``s_piece`` only places the pieces about the anchor.  Float
    ``cells`` are taken as the W_n values themselves, which is how the sup
    statistics bound a numerator over a range of cells.  The evaluators
    ``bridge``, ``quantile_process`` and ``empirical_process`` read by float
    instead (``bridge_piece`` without ``cells``, ``lattice_index``,
    ``ecdf_count``, ``w_n``); the sup statistics read by float only a
    window increment's values at its anchor.
    """

    n: int
    t: float
    U: np.ndarray

    def bridge(self, s) -> np.ndarray:
        """Coupled Brownian bridge at s (point values on the dyadic grid)."""
        return self.bridge_piece(s)(s)

    def lattice_index(self, s) -> np.ndarray:
        """[s n] with near-integer snap, clipped to 0..n."""
        z = np.floor(snap_to_integer(np.asarray(s, dtype=float) * self.n)).astype(np.int64)
        return np.clip(z, 0, self.n)

    def ecdf_count(self, s, side: str = "right") -> np.ndarray:
        """Number of order statistics <= s (or < s for side='left')."""
        return np.searchsorted(self.U[1 : self.n + 1], np.asarray(s, dtype=float), side=side)

    def empirical_process(self, s) -> np.ndarray:
        """sqrt(n) (G_n(s) - s) with right-continuous G_n."""
        s = np.asarray(s, dtype=float)
        return np.sqrt(self.n) * (self.ecdf_count(s) / self.n - s)

    def quantile_process(self, s) -> np.ndarray:
        """sqrt(n) (s - U_{[sn]}) with U_0 = 0."""
        s = np.asarray(s, dtype=float)
        return np.sqrt(self.n) * (s - self.U[self.lattice_index(s)])


@dataclass
class ProcessBundle(_SampleProcesses):
    """Order statistics, process evaluators and coupled bridge for one n.

    W_n reads the first path only on [0, h] and the second only on [0, g],
    so each is coupled and refined over that range alone.  A path is refined
    to ``depth`` extra dyadic levels on its first grid read, so a path that
    no statistic reads is never refined.  Its values do not depend on when
    it is refined, and ``CoupledPath.freeze`` publishes a grid whole, so
    concurrent reads are safe.  The same holds for the W extremes a path
    caches on the first bounded read of its cells (``w_extremes``).

    ``build`` couples the two paths at once, and the first read that needs
    both refines them at once: ``w_n`` at arguments on both sides of h, and
    ``w_span`` or ``w_extremes`` over cells on both sides of the split
    h 2^depth.  One path's job runs on a helper thread (``_paired``) when
    both extents reach ``_PAIR_THREADS``.  The two jobs share no stream and
    no array, so they give the bits of running in turn.  A read of one
    path still refines that path alone.
    """

    n: int
    t: float
    path1: CoupledPath
    path2: CoupledPath
    Y: np.ndarray
    S: np.ndarray
    U: np.ndarray
    depth: int
    w_nn: float = field(default=float("nan"))

    @property
    def h(self) -> int:
        return self.n // 2

    @property
    def g(self) -> int:
        return self.n + 1 - self.h

    # -- Brownian machinery ------------------------------------------------

    def w_n(self, z) -> np.ndarray:
        """Spliced Brownian motion on [0, n+1] (dyadic-grid resolution).

        A path's grid is read only for arguments on its side of [n/2].
        """
        z = np.asarray(z, dtype=float)
        if np.any((z < 0.0) | (z > self.n + 1)):
            raise ValueError("w_n argument outside [0, n+1]")
        out = np.empty_like(z)
        lo = z <= self.h
        hi = ~lo
        some_lo, some_hi = bool(lo.any()), bool(hi.any())
        if some_lo and some_hi:
            self._refine_both()
        w1_h = self.path1.W[self.h]
        if some_lo:
            out[lo] = w1_h - self.path1.values_at(self.h - z[lo], self.depth)
        if some_hi:
            w2_g = self.path2.W[self.g]
            out[hi] = w1_h + w2_g - self.path2.values_at((self.n + 1) - z[hi], self.depth)
        return out

    def w_span(self, c0: int, c1: int) -> np.ndarray:
        """W_n inside the grid cells (j, j + 1) 2^-depth, j = c0..c1, read from the paths.

        That is the value ``w_n`` takes at every point of the open cell, and,
        as W_n is left-continuous, at its upper end: so "cell" -1 gives
        W_n(0) = 0.  Cells outside [-1, (n+1) 2^depth) read the nearest one.
        Only the paths' grid over the cells asked for is read, and a path's
        grid only when a cell on its side is asked for.
        """
        d = self.depth
        hd, top = self.h << d, ((self.n + 1) << d) - 1
        lo, hi = min(max(c0, -1), top), max(min(c1, top), -1)
        if lo != c0 or hi != c1:
            return self.w_span(lo, hi)[np.clip(np.arange(c0, c1 + 1), -1, top) - lo]
        if c0 < hd <= c1:
            self._refine_both()
        w1_h = self.path1.W[self.h]
        parts = []
        if c0 < hd:
            v1 = self.path1.grid(d)
            parts.append(w1_h - v1[hd - 1 - min(c1, hd - 1) : hd - c0][::-1])
        if c1 >= hd:
            v2 = self.path2.grid(d)
            parts.append(w1_h + self.path2.W[self.g] - v2[top - c1 : top + 1 - max(c0, hd)][::-1])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def chunk_starts(self, c0: int, c1: int) -> np.ndarray:
        """The cells in (c0, c1] that start a chunk of the paths' ``extremes``, ascending.

        Cell c < [n/2] 2^depth reads the first path's grid value
        [n/2] 2^depth - 1 - c, and cell c >= [n/2] 2^depth the second path's
        (n + 1) 2^depth - 1 - c (``w_span``).  A path's chunks of
        ``_SUB_BLOCK`` cells are aligned at its grid value 0, and the path
        split [n/2] 2^depth starts a chunk on either side.
        """
        size, hd = _SUB_BLOCK, self.h << self.depth
        end = (self.n + 1) << self.depth

        def aligned(top: int, lo: int) -> np.ndarray:
            # top - k size in (lo, c1], k >= 1, ascending
            k = np.arange((top - lo - 1) // size, max(1, -((c1 - top) // size)) - 1, -1)
            return top - size * k

        split = np.array([hd] * (c0 < hd <= c1), dtype=np.int64)
        return np.concatenate([aligned(hd, max(c0, 0)), split, aligned(end, max(c0, hd))])

    def w_extremes(self, c0: int, c1: int) -> tuple:
        """(starts, least, greatest): W_n over the cells c0..c1 in sub-ranges
        that start at c0 and at each of ``chunk_starts(c0, c1)``.

        The inner sub-ranges are whole chunks of one path, whose least and
        greatest W_n come from the path's cached ``extremes``: a cell reads
        C - v for a scalar C and the path's value v, and float subtraction
        is monotone, so C - (greatest v) is the least W_n, to the bit.  The
        first and last sub-range are read cell by cell (``w_span``).
        """
        d, size = self.depth, _SUB_BLOCK
        hd, top = self.h << d, ((self.n + 1) << d) - 1
        if c0 < hd <= c1:
            self._refine_both()
        starts = np.concatenate([[c0], self.chunk_starts(c0, c1)])
        stops = np.append(starts[1:] - 1, c1)
        least, greatest = np.empty(starts.size), np.empty(starts.size)
        split = int(np.searchsorted(starts, hd))  # the first sub-range on the second path
        w1_h = self.path1.W[self.h]
        for path, last, const, i0, i1 in (
            (self.path1, hd - 1, w1_h, 1, min(split, starts.size - 1)),
            (self.path2, top, w1_h + self.path2.W[self.g], max(split, 1), starts.size - 1),
        ):
            if i0 < i1:
                # sub-ranges i0..i1 - 1 are the path's chunks m down to m - (i1 - i0) + 1
                m = (last - int(stops[i0])) // size
                low, high = path.extremes(d, size)[:, m - (i1 - i0) + 1 : m + 1]
                least[i0:i1], greatest[i0:i1] = const - high[::-1], const - low[::-1]
        for i in {0, starts.size - 1}:
            w = self.w_span(int(starts[i]), int(stops[i]))
            least[i], greatest[i] = w.min(), w.max()
        return starts, least, greatest

    def _refine_both(self) -> None:
        """Refine both paths to ``depth`` at once (``_paired``), for a read of both.

        A path already refined that deep is left to the read.
        """
        p1, p2, d = self.path1, self.path2, self.depth
        if p1.refinement_depth < d and p2.refinement_depth < d:
            _paired(lambda: p1.freeze(d), lambda: p2.freeze(d), self.h)

    def w_cells(self, j: np.ndarray) -> np.ndarray:
        """W_n inside the grid cells j, which are monotone, as ``w_span`` reads them.

        Cells spread over at most twice their number take one ``w_span``
        read, others are read from the paths' grids one by one, so a read
        costs O(cells) either way.
        """
        if j.size == 0:
            return np.empty(0)
        c0, c1 = sorted((int(j[0]), int(j[-1])))
        if c1 - c0 < 2 * j.size:
            return self.w_span(c0, c1)[j - c0]
        d = self.depth
        hd, top = self.h << d, ((self.n + 1) << d) - 1
        j = np.clip(j, -1, top)
        first = j < hd
        if first.any() and not first.all():
            self._refine_both()
        out = np.empty(j.shape)
        w1_h = self.path1.W[self.h]
        if first.any():
            out[first] = w1_h - self.path1.grid(d)[hd - 1 - j[first]]
        if not first.all():
            out[~first] = w1_h + self.path2.W[self.g] - self.path2.grid(d)[top - j[~first]]
        return out

    def _cell_w(self, cells: np.ndarray) -> np.ndarray:
        """W_n of pieces given by their cells, or float ``cells`` as W_n itself."""
        return cells if cells.dtype.kind == "f" else self.w_cells(cells)

    def bridge_piece(self, s_piece, cells=None):
        """s -> bridge n^{-1/2} (s W_n(n) - W_n(s n)), with the W_n lookup done once at s_piece.

        Between jump points the bridge is linear in s; resolving the grid
        lookup at a point of the adjacent piece gives the one-sided limit.
        """
        if cells is None:  # W_n read by float, taken as W_n values
            cells = self.w_n(np.asarray(s_piece, dtype=float) * self.n)
        w_val = self._cell_w(cells)
        sqn = np.sqrt(self.n)
        return lambda s: (np.asarray(s, dtype=float) * self.w_nn - w_val) / sqn

    def bridge_increment(self, anchor: float):
        """Piece factory of the window increment B(anchor) - B(anchor - s).

        ``bridge_increment(anchor)(s_piece, cells)`` reads W_n at anchor -
        s_piece from ``cells`` and returns s -> increment.  Past the anchor
        (anchor - s_piece <= 0) the increment is extended by its value
        B(anchor) - B(0); only the restricted domain reaches there.
        """
        sqn = np.sqrt(self.n)
        w_anchor = float(self.w_n(np.asarray([anchor * self.n]))[0])
        past = (anchor * self.w_nn - w_anchor) / sqn

        def piece(s_piece, cells):
            shift = anchor - np.asarray(s_piece, dtype=float)
            pos = shift > 0.0
            if pos.all():
                w_shift = self._cell_w(cells)
                return lambda s: (s * self.w_nn - w_anchor + w_shift) / sqn
            w_shift = np.zeros_like(shift)
            w_shift[pos] = self._cell_w(cells[pos])
            return lambda s: np.where(pos, (s * self.w_nn - w_anchor + w_shift) / sqn, past)

        return piece

    def jump_grid(self) -> np.ndarray:
        """Dyadic grid j / (n 2^depth), j = 0..n 2^depth, which contains the lattice k / n.

        Between consecutive grid points the bridge lookup and the lattice
        index are constant.  This is the full grid, kept as a reference; the
        sup statistics read the points of a range through ``grid_runs``.
        """
        den = self.n << self.depth
        return np.arange(den + 1) / den

    def grid_runs(self, anchor: float | None, lo: float, hi: float) -> Run:
        """The points in [lo, hi] of the one grid the bridge lookups read, as a run.

        That is ``jump_grid()``, whose cell j, between grid points j and
        j + 1, the bridge reads; for a window increment at ``anchor`` it is
        the increment grid anchor - j / den instead, whose cell j lies
        between anchor - (j + 1) / den and anchor - j / den.  The run's ends
        are found by index arithmetic, checked against the points' floats, so
        it costs O(1) until its points are read.
        """
        if anchor is None:
            return _mapped_run(self.n << self.depth, 0.0, 1.0, lo, hi, self)
        return _mapped_run(self.n << self.depth, anchor, -1.0, lo, hi, self)

    def point_breaks(self, anchor: float | None) -> np.ndarray:
        """Abscissae in (0, 1) where the bridge, or the window increment at
        ``anchor``, takes neither of its one-sided limits: none.

        W_n is left-continuous, so the bridge is too; past the anchor the
        increment keeps its value there.
        """
        return np.empty(0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        stream1: RngStream,
        stream2: RngStream,
        t: float = 0.5,
        depth: int = DEFAULT_REFINE_DEPTH,
    ) -> "ProcessBundle":
        if n < 2:
            raise ValueError("ProcessBundle requires n >= 2")
        if not 0.0 < t < 1.0:
            raise ValueError("anchor t must lie in (0, 1)")
        check_refine_depth(depth)
        h = n // 2
        g = n + 1 - h
        path1, path2 = _paired(
            lambda: couple_exponential_sums(next_power_of_two(h), stream1, extent=h),
            lambda: couple_exponential_sums(next_power_of_two(g), stream2, extent=g),
            h,
        )
        y = interleave(n, np.diff(path1.S), np.diff(path2.S))
        s = np.empty(n + 2)
        s[0] = 0.0
        np.cumsum(y, out=s[1:])
        bundle = cls(
            n=n, t=t, path1=path1, path2=path2, Y=y, S=s, U=s[: n + 1] / s[n + 1], depth=depth
        )
        # W_n(n) = W1(h) + W2(g) - W2(1), read at integers from the coarse W,
        # which the refined grids hold unchanged
        bundle.w_nn = float(path1.W[h] + path2.W[g] - path2.W[1])
        return bundle


def bundle_bytes(n: int, depth: int) -> int:
    """Bytes of the arrays of a ``ProcessBundle`` of size n once every path is read at ``depth``.

    From the path layout: a path of extent e holds S on 0..e, W on 0..m,
    where m is the power of two ``next_power_of_two(e)``, and, once read, W
    refined over [0, e], (e << depth) + 1 floats, and, once bounded, the
    least and greatest W over each chunk of ``_SUB_BLOCK`` of its e << depth
    cells (``CoupledPath.extremes``); the extents are [n/2] and
    n + 1 - [n/2].  The bundle adds Y, S and U, 3 n + 4 floats.  A path that
    is never read holds no refined grid, and one never bounded no extremes,
    so this is an upper bound on a bundle's bytes.  An ``AnchoredBundle``
    with count N holds U and bundles of sizes max(N, 2) and max(n - N, 2).
    """
    floats = 3 * n + 4
    for extent in (n // 2, n + 1 - n // 2):
        cells = extent << depth
        floats += (extent + 1) + (next_power_of_two(extent) + 1) + cells + 1
        floats += 2 * -(-cells // _SUB_BLOCK)
    return 8 * floats


def _block(m: int, stream: RngStream, depth: int) -> tuple[ProcessBundle, np.ndarray]:
    """m uniform order statistics on (0, 1) with the bundle that couples them.

    Fewer than two points borrow a two-point bundle: its bridge serves as the
    block's bridge and a single point is the ratio U_1 / U_2, which is
    uniform.
    """
    bundle = ProcessBundle.build(
        max(m, 2), stream.child("path1"), stream.child("path2"), depth=depth
    )
    if m >= 2:
        return bundle, bundle.U[1:]
    if m == 1:
        return bundle, bundle.U[1:2] / bundle.U[2]
    return bundle, np.empty(0)


@dataclass
class AnchoredBundle(_SampleProcesses):
    """Sample and bridge coupled through the count N = #{U <= t} at an anchor t.

    Construction:

      1. B(t) = sqrt(t (1-t)) Z with Z standard normal, and N is the
         Bin(n, t) quantile of Phi(Z), so sqrt(n) (N/n - t) tracks B(t).
      2. The N points below t are t (1 - R) for the order statistics R of an
         ordinary ``ProcessBundle`` of size N (the ``below`` block); the
         points nearest t come from its well-coupled lower tail.
      3. The n - N points above t are t + (1-t) R' from the ``above`` block.
      4. The bridge is spliced from the blocks' bridges B_L, B_U:

             B(t) - B(t - t u)  = u B(t) + sqrt(t) B_L(u),
             B(t + (1-t) v)     = (1 - v) B(t) + sqrt(1-t) B_U(v),

         which makes B a Brownian bridge and couples the empirical window
         increment alpha(t) - alpha(t - s) ~ (s/t) alpha(t) + sqrt(t) alpha_L(s/t)
         to the bridge increment term by term.

    Window increments are coupled at t only, so ``bridge_increment``
    rejects other anchors.
    """

    n: int
    t: float
    count: int
    b_anchor: float
    below: ProcessBundle
    above: ProcessBundle
    U: np.ndarray
    depth: int

    def bridge_piece(self, s_piece, cells=None):
        """s -> spliced bridge at s, with the block lookups done once at s_piece.

        s must have the shape of s_piece.
        """
        sp = np.asarray(s_piece, dtype=float)
        t = self.t
        low = sp <= t
        high = ~low
        below = self.below.bridge_piece(1.0 - sp[low] / t, None if cells is None else cells[low])
        above = self.above.bridge_piece(
            (sp[high] - t) / (1.0 - t), None if cells is None else cells[high]
        )

        def at(s) -> np.ndarray:
            s = np.asarray(s, dtype=float)
            out = np.empty(s.shape)
            out[low] = (s[low] / t) * self.b_anchor - math.sqrt(t) * below(1.0 - s[low] / t)
            v = (s[high] - t) / (1.0 - t)
            out[high] = (1.0 - v) * self.b_anchor + math.sqrt(1.0 - t) * above(v)
            return out

        return at

    def bridge_increment(self, anchor: float):
        """Piece factory of B(t) - B(t - s) = (s/t) B(t) + sqrt(t) B_L(s/t).

        Past the anchor the increment is B(t).
        """
        self._check_anchor(anchor)
        t = self.t
        root_t = math.sqrt(t)

        def piece(s_piece, cells):
            below = self.below.bridge_piece(None, cells)
            inside = np.asarray(s_piece, dtype=float) < t

            def at(s) -> np.ndarray:
                u = np.asarray(s, dtype=float) / t
                if inside.all():
                    return u * self.b_anchor + root_t * below(u)
                return np.where(inside, u * self.b_anchor + root_t * below(u), self.b_anchor)

            return at

        return piece

    def jump_grid(self) -> np.ndarray:
        """Block bridge grids mapped onto [0, t] and [t, 1]: t - t x and t + (1 - t) x.

        Unsorted; both hold t.  This is the full grid, kept as a reference;
        the sup statistics read the points of a range through ``grid_runs``.
        """
        t = self.t
        return np.concatenate([
            t - t * self.below.jump_grid(),
            t + (1.0 - t) * self.above.jump_grid(),
        ])

    def grid_runs(self, anchor: float | None, lo: float, hi: float) -> Run:
        """The points in [lo, hi] of the grid the bridge lookups read, as a run.

        The bridge reads W_n cells of ``below`` between the points t - t x of
        its grid on [lo, hi] within [0, t], and of ``above`` between the points
        t + (1 - t) x of its grid on [lo, hi] within [t, 1] (``jump_grid()``);
        a range on both sides of the splice t is rejected.  The window
        increment at the anchor reads cells of ``below`` between the points
        t x of its grid, and only those.  As on ``ProcessBundle``, the run
        computes its points only where they are read.
        """
        t, below, above = self.t, self.below, self.above
        den = below.n << self.depth
        if anchor is not None:
            self._check_anchor(anchor)
            return _mapped_run(den, 0.0, t, lo, hi, below)
        if hi <= t:
            return _mapped_run(den, t, -t, lo, hi, below)
        if lo >= t:
            return _mapped_run(above.n << self.depth, t, 1.0 - t, lo, hi, above)
        raise ValueError(f"bridge grid range [{lo}, {hi}] straddles the splice t={t}")

    def point_breaks(self, anchor: float | None) -> np.ndarray:
        """Abscissae in (0, 1) where the bridge, or the window increment at
        ``anchor``, takes neither of its one-sided limits.

        For the bridge that is the splice t: both blocks' bridges are 0 at
        their end at t, which makes B(t) = b_anchor, but not on their first
        grid cell, so neither limit at t need equal B(t).  The window
        increment is continuous at t.
        """
        return np.array([self.t]) if anchor is None else np.empty(0)

    def _check_anchor(self, anchor: float) -> None:
        if anchor != self.t:
            raise ValueError(
                f"count-anchored bundle couples window increments only at its anchor "
                f"t={self.t}, not {anchor}"
            )

    @classmethod
    def build(
        cls, n: int, stream: RngStream, t: float = 0.5, depth: int = DEFAULT_REFINE_DEPTH
    ) -> "AnchoredBundle":
        if n < 2:
            raise ValueError("AnchoredBundle requires n >= 2")
        if not 0.0 < t < 1.0:
            raise ValueError("anchor t must lie in (0, 1)")
        check_refine_depth(depth)
        z = float(stream.child("anchor").generator().standard_normal())
        count = int(binom_quantile(clamp_probability(std_normal_cdf(z)), n, t))
        below, r_below = _block(count, stream.child("below"), depth)
        above, r_above = _block(n - count, stream.child("above"), depth)
        u = np.concatenate([[0.0], t * (1.0 - r_below[::-1]), t + (1.0 - t) * r_above])
        if np.any(np.diff(u) <= 0.0) or u[-1] >= 1.0:
            raise RuntimeError(f"tied or out-of-range order statistics for n={n}, {stream}")
        return cls(
            n=n,
            t=t,
            count=count,
            b_anchor=math.sqrt(t * (1.0 - t)) * z,
            below=below,
            above=above,
            U=u,
            depth=depth,
        )


# Either bundle kind; the sup statistics evaluate both through the same methods.
Bundle = ProcessBundle | AnchoredBundle
