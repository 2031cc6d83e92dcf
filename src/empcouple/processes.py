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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import stats as sps

from .coupling import (
    CoupledPath,
    check_refine_depth,
    couple_exponential_sums,
    snap_to_integer,
)
from .numerics import clamp_probability, std_normal_cdf
from .rng import RngStream

DEFAULT_REFINE_DEPTH = 6


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


def floor_combination(n: int, s: float, t: float) -> int:
    """[nt] - [n(t-s)] - [ns]; always within [-2, 1] for 0 <= s < t < 1."""
    if not 0.0 <= s < t < 1.0:
        raise ValueError("floor_combination requires 0 <= s < t < 1")
    vals = snap_to_integer(np.asarray([n * t, n * (t - s), n * s]))
    a, b, c = np.floor(vals).astype(int)
    out = int(a - b - c)
    if not -2 <= out <= 1:
        raise ArithmeticError(f"floor combination {out} outside [-2, 1] (n={n}, s={s}, t={t})")
    return out


class Run(NamedTuple):
    """An ascending run of breakpoints that carry integer grid indices.

    ``x[i]`` is the grid point of index ``first + step * i``.
    ``reads_cells`` tells whether the bridge reads W_n cells (``w_cells``)
    between these points.
    """

    x: np.ndarray
    first: int
    step: int
    reads_cells: bool


def _run_in(
    x: np.ndarray, first: int, step: int, reads_cells: bool, lo: float, hi: float
) -> Run:
    """The points of the ascending ``x`` in [lo, hi] as a ``Run``; x[0] has index ``first``."""
    i = int(np.searchsorted(x, lo))
    return Run(x[i : np.searchsorted(x, hi, "right")], first + step * i, step, reads_cells)


class _SampleProcesses:
    """Empirical/quantile evaluators shared by both bundle kinds.

    Subclasses provide ``n``, ``t``, ``U`` (with U_0 = 0) and ``depth``, plus
    the bridge methods ``bridge_piece``, ``bridge_increment`` and
    ``grid_runs`` that the sup statistics evaluate, and the full grids
    ``jump_grid`` and ``increment_jump_grid``, which the oracles in the tests
    and the benchmark's trace read as references.  The two bridge piece
    factories, called on the abscissae ``s_piece`` of a set of pieces, do the
    grid lookups once and return ``s -> values``, which is linear in s on
    each piece.  Given ``cells``, the pieces' W_n cell indices (one array per
    run of ``grid_runs`` that ``reads_cells``), they read W_n by index
    (``w_cells``) and use ``s_piece`` only to place the pieces about the
    anchor.
    """

    n: int
    t: float
    U: np.ndarray

    @property
    def t_n(self) -> int:
        return int(math.floor(self.n * self.t))

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

    Immutable after construction: both paths are frozen to ``depth`` extra
    dyadic levels, so concurrent reads are safe.  W_n reads the first path
    only on [0, h] and the second only on [0, g], so each is refined over
    that range alone.
    """

    n: int
    t: float
    path1: CoupledPath | None
    path2: CoupledPath | None
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
        """Spliced Brownian motion on [0, n+1] (dyadic-grid resolution)."""
        if self.path1 is None or self.path2 is None:
            raise ValueError("synthetic bundle has no Brownian paths")
        z = np.asarray(z, dtype=float)
        if np.any((z < 0.0) | (z > self.n + 1)):
            raise ValueError("w_n argument outside [0, n+1]")
        out = np.empty_like(z)
        lo = z <= self.h
        w1_h = self.path1.values_at(np.asarray([float(self.h)]), self.depth)[0]
        out[lo] = w1_h - self.path1.values_at(self.h - z[lo], self.depth)
        hi = ~lo
        if np.any(hi):
            w2_g = self.path2.values_at(np.asarray([float(self.g)]), self.depth)[0]
            out[hi] = w1_h + w2_g - self.path2.values_at((self.n + 1) - z[hi], self.depth)
        return out

    def w_cells(self, j: np.ndarray) -> np.ndarray:
        """W_n inside the grid cells (j, j + 1) 2^-depth, read by index from the paths.

        That is the value ``w_n`` takes at every point of the open cell.  Cells
        outside [0, (n+1) 2^depth) are clipped to the nearest one.  Only the
        paths' grid over the cells asked for is read.
        """
        d = self.depth
        hd, top = self.h << d, ((self.n + 1) << d) - 1
        if j.size == 0:
            return np.empty(0)
        c0, c1 = sorted((int(j[0]), int(j[-1])))  # j is monotone along the pieces
        if c0 < 0 or c1 > top:
            j = np.clip(j, 0, top)
            c0, c1 = min(max(c0, 0), top), max(min(c1, top), 0)
        v1, v2 = self.path1.grid(d), self.path2.grid(d)
        w1_h = v1[hd]
        parts = []
        if c0 < hd:
            parts.append(w1_h - v1[hd - 1 - min(c1, hd - 1) : hd - c0][::-1])
        if c1 >= hd:
            parts.append(w1_h + v2[self.g << d] - v2[top - c1 : top + 1 - max(c0, hd)][::-1])
        return (parts[0] if len(parts) == 1 else np.concatenate(parts))[j - c0]

    def bridge_piece(self, s_piece, cells=None):
        """s -> bridge n^{-1/2} (s W_n(n) - W_n(s n)), with the W_n lookup done once at s_piece.

        Between jump points the bridge is linear in s; resolving the grid
        lookup at a point of the adjacent piece gives the one-sided limit.
        """
        if cells is None:
            w_val = self.w_n(np.asarray(s_piece, dtype=float) * self.n)
        else:
            w_val = self.w_cells(cells[0])
        sqn = np.sqrt(self.n)
        return lambda s: (np.asarray(s, dtype=float) * self.w_nn - w_val) / sqn

    def bridge_increment(self, anchor: float):
        """Piece factory of the window increment B(anchor) - B(anchor - s).

        ``bridge_increment(anchor)(s_piece)`` does the lookups at s_piece and
        returns s -> increment.  Past the anchor (anchor - s_piece <= 0) the
        increment is extended by its value B(anchor) - B(0); only the
        restricted domain reaches there.
        """
        sqn = np.sqrt(self.n)
        w_anchor = float(self.w_n(np.asarray([anchor * self.n]))[0])
        past = (anchor * self.w_nn - w_anchor) / sqn

        def piece(s_piece, cells=None):
            shift = anchor - np.asarray(s_piece, dtype=float)
            pos = shift > 0.0
            if pos.all():
                w_shift = self.w_n(shift * self.n) if cells is None else self.w_cells(cells[0])
                return lambda s: (s * self.w_nn - w_anchor + w_shift) / sqn
            w_shift = np.zeros_like(shift)
            if cells is None:
                w_shift[pos] = self.w_n(shift[pos] * self.n)
            else:
                w_shift[pos] = self.w_cells(cells[0][pos])
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

    def _grid_span(self, lo: float, hi: float) -> tuple[int, int, int]:
        """(den, j0, j1): the grid points j / den with j0 <= j <= j1 hold those in [lo, hi]."""
        den = self.n << self.depth
        return den, max(0, math.floor(lo * den) - 1), min(den, math.ceil(hi * den) + 1)

    def grid_runs(self, anchor: float | None, lo: float, hi: float) -> list[Run]:
        """The points in [lo, hi] of ``jump_grid()`` and, for a window increment
        at ``anchor``, of ``increment_jump_grid(anchor)``, as ascending runs.

        The bridge reads W_n cell j between grid points j and j + 1, and the
        window increment cell j between the increment grid's anchor - (j + 1)
        / den and anchor - j / den.
        """
        den, j0, j1 = self._grid_span(lo, hi)
        grid = _run_in(np.arange(j0, j1 + 1) / den, j0, 1, anchor is None, lo, hi)
        if anchor is None:
            return [grid]
        den, j0, j1 = self._grid_span(anchor - hi, anchor - lo)
        increment = (anchor - np.arange(j0, j1 + 1) / den)[::-1]
        return [grid, _run_in(increment, j1, -1, True, lo, hi)]

    def increment_jump_grid(self, anchor: float) -> np.ndarray:
        """Jump abscissae anchor - j / (n 2^depth) of s -> W_n((anchor - s) n).

        The full grid, kept as a reference (see ``jump_grid``).
        """
        return anchor - self.jump_grid()

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
        path1 = couple_exponential_sums(next_power_of_two(h), stream1, extent=h)
        path2 = couple_exponential_sums(next_power_of_two(g), stream2, extent=g)
        path1.freeze(depth)
        path2.freeze(depth)
        y = interleave(n, np.diff(path1.S), np.diff(path2.S))
        s = np.empty(n + 2)
        s[0] = 0.0
        np.cumsum(y, out=s[1:])
        bundle = cls(
            n=n, t=t, path1=path1, path2=path2, Y=y, S=s, U=s[: n + 1] / s[n + 1], depth=depth
        )
        bundle.w_nn = float(bundle.w_n(np.asarray([float(n)]))[0])
        return bundle

    @classmethod
    def synthetic(cls, n: int, order_stats, t: float = 0.5) -> "ProcessBundle":
        """Bundle with prescribed order statistics and no Brownian paths.

        Only the empirical/quantile evaluators work; used in tests.
        """
        u = np.concatenate([[0.0], np.asarray(order_stats, dtype=float)])
        if u.size != n + 1 or np.any(np.diff(u) <= 0) or u[-1] >= 1.0:
            raise ValueError("order_stats must be n strictly increasing values in (0, 1)")
        s = np.concatenate([u, [1.0]])
        return cls(n=n, t=t, path1=None, path2=None, Y=np.diff(s), S=s, U=u, depth=0)


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
        if cells is None:
            below = self.below.bridge_piece(1.0 - sp[low] / t)
            above = self.above.bridge_piece((sp[high] - t) / (1.0 - t))
        else:
            below = self.below.bridge_piece(None, [cells[0][low]])
            above = self.above.bridge_piece(None, [cells[1][high]])

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

        def piece(s_piece, cells=None):
            sp = np.asarray(s_piece, dtype=float)
            below = self.below.bridge_piece(np.minimum(sp / t, 1.0), cells)
            inside = sp < t

            def at(s) -> np.ndarray:
                u = np.asarray(s, dtype=float) / t
                if inside.all():
                    return u * self.b_anchor + root_t * below(u)
                return np.where(inside, u * self.b_anchor + root_t * below(u), self.b_anchor)

            return at

        return piece

    def jump_grid(self) -> np.ndarray:
        """Block bridge grids mapped onto [0, t] and [t, 1], plus the lattice k / n.

        Unsorted, with repeats.  This is the full grid, kept as a reference;
        the sup statistics read the points of a range through ``grid_runs``.
        """
        t = self.t
        return np.concatenate([
            t - t * self.below.jump_grid(),
            t + (1.0 - t) * self.above.jump_grid(),
            np.arange(self.n + 1) / self.n,
        ])

    def grid_runs(self, anchor: float | None, lo: float, hi: float) -> list[Run]:
        """The points in [lo, hi] of ``jump_grid()`` and, for a window increment
        at the anchor, of ``increment_jump_grid(anchor)``, as ascending runs.

        The bridge reads W_n cells of ``below`` between the points t - t x of
        its grid and of ``above`` between the points t + (1 - t) x of its
        grid; the window increment reads cells of ``below`` between the points
        t x of its grid.  No lookup reads the lattice run, but a quantile
        window increment's step jumps t - k / n can round one ulp away from
        k / n, and the one-ulp piece between them can hold the sup: without
        the lattice run, approx3 at n = 100, t = 1/2, depth 3 moves in its
        last bits.
        """
        t = self.t
        bridge = anchor is None
        den, b0, b1 = self.below._grid_span(1.0 - hi / t, 1.0 - lo / t)
        below = (t - t * (np.arange(b0, b1 + 1) / den))[::-1]
        den, a0, a1 = self.above._grid_span((lo - t) / (1.0 - t), (hi - t) / (1.0 - t))
        above = t + (1.0 - t) * (np.arange(a0, a1 + 1) / den)
        k0 = max(0, math.floor(lo * self.n) - 1)
        k1 = min(self.n, math.ceil(hi * self.n) + 1)
        runs = [
            _run_in(below, b1, -1, bridge, lo, hi),
            _run_in(above, a0, 1, bridge, lo, hi),
            _run_in(np.arange(k0, k1 + 1) / self.n, k0, 1, False, lo, hi),
        ]
        if not bridge:
            self._check_anchor(anchor)
            den, i0, i1 = self.below._grid_span(lo / t, hi / t)
            runs.append(_run_in(t * (np.arange(i0, i1 + 1) / den), i0, 1, True, lo, hi))
        return runs

    def increment_jump_grid(self, anchor: float) -> np.ndarray:
        """Jump abscissae t j / (N_L 2^depth) of s -> B_L(s / t).

        The full grid, kept as a reference (see ``jump_grid``).
        """
        self._check_anchor(anchor)
        return self.t * self.below.jump_grid()

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
        count = int(sps.binom.ppf(clamp_probability(std_normal_cdf(z)), n, t))
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
