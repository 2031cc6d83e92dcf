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

import numpy as np
from scipy import stats as sps

from .coupling import CoupledPath, couple_exponential_sums, snap_to_integer
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


class _SampleProcesses:
    """Empirical/quantile evaluators shared by both bundle kinds.

    Subclasses provide ``n``, ``t``, ``U`` (with U_0 = 0) and ``depth``, plus
    the bridge methods ``bridge_at``, ``bridge_increment``, ``jump_grid`` and
    ``increment_jump_grid`` that the sup statistics evaluate.
    """

    n: int
    t: float
    U: np.ndarray

    @property
    def t_n(self) -> int:
        return int(math.floor(self.n * self.t))

    def bridge(self, s) -> np.ndarray:
        """Coupled Brownian bridge at s (point values on the dyadic grid)."""
        return self.bridge_at(s, s)

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

    @staticmethod
    def increment(f, s: float, t: float):
        """Window increment f(t) - f(t - s); requires 0 <= s < t."""
        if not 0.0 <= s < t:
            raise ValueError("increment requires 0 <= s < t")
        return f(t) - f(t - s)


@dataclass
class ProcessBundle(_SampleProcesses):
    """Order statistics, process evaluators and coupled bridge for one n.

    Immutable after construction: both paths are frozen to ``depth`` extra
    dyadic levels, so concurrent reads are safe.
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

    def bridge_at(self, s, s_piece) -> np.ndarray:
        """Bridge n^{-1/2} (s W_n(n) - W_n(s n)) with the W_n lookup at s_piece.

        Between jump points the bridge is linear in s; resolving the grid
        lookup at a point of the adjacent piece gives the one-sided limit.
        """
        s = np.asarray(s, dtype=float)
        w_val = self.w_n(np.asarray(s_piece, dtype=float) * self.n)
        return (s * self.w_nn - w_val) / np.sqrt(self.n)

    def bridge_increment(self, anchor: float):
        """(s, s_piece) -> window increment B(anchor) - B(anchor - s), lookups at s_piece.

        Past the anchor (anchor - s_piece <= 0) the increment is extended by
        its value B(anchor) - B(0); only the restricted domain reaches there.
        """
        sqn = np.sqrt(self.n)
        w_anchor = float(self.w_n(np.asarray([anchor * self.n]))[0])
        past = (anchor * self.w_nn - w_anchor) / sqn

        def inc(s, s_piece) -> np.ndarray:
            sp = np.asarray(s_piece, dtype=float)
            if sp.size == 0 or sp.max() < anchor:
                w_shift = self.w_n((anchor - sp) * self.n)
                return (s * self.w_nn - w_anchor + w_shift) / sqn
            shift = anchor - sp
            pos = shift > 0.0
            w_shift = np.zeros_like(shift)
            w_shift[pos] = self.w_n(shift[pos] * self.n)
            return np.where(pos, (s * self.w_nn - w_anchor + w_shift) / sqn, past)

        return inc

    def jump_grid(self) -> np.ndarray:
        """Dyadic grid j / (n 2^depth), which contains the lattice k / n.

        Between consecutive grid points the bridge lookup and the lattice
        index are constant.
        """
        den = self.n * (1 << self.depth)
        return np.arange(den + 1) / den

    def increment_jump_grid(self, anchor: float) -> np.ndarray:
        """Jump abscissae of s -> W_n((anchor - s) n) on the dyadic grid."""
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
        h = n // 2
        g = n + 1 - h
        path1 = couple_exponential_sums(next_power_of_two(h), stream1)
        path2 = couple_exponential_sums(next_power_of_two(g), stream2)
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

    def bridge_at(self, s, s_piece) -> np.ndarray:
        """Spliced bridge at s, block lookups resolved at s_piece."""
        s = np.asarray(s, dtype=float)
        sp = np.broadcast_to(np.asarray(s_piece, dtype=float), s.shape)
        t = self.t
        out = np.empty(s.shape)
        low = sp <= t
        out[low] = (s[low] / t) * self.b_anchor - math.sqrt(t) * self.below.bridge_at(
            1.0 - s[low] / t, 1.0 - sp[low] / t
        )
        high = ~low
        v = (s[high] - t) / (1.0 - t)
        out[high] = (1.0 - v) * self.b_anchor + math.sqrt(1.0 - t) * self.above.bridge_at(
            v, (sp[high] - t) / (1.0 - t)
        )
        return out

    def bridge_increment(self, anchor: float):
        """(s, s_piece) -> B(t) - B(t - s) = (s/t) B(t) + sqrt(t) B_L(s/t); B(t) past the anchor."""
        self._check_anchor(anchor)
        t = self.t
        root_t = math.sqrt(t)

        def inc(s, s_piece) -> np.ndarray:
            sp = np.asarray(s_piece, dtype=float)
            u = np.asarray(s, dtype=float) / t
            val = u * self.b_anchor + root_t * self.below.bridge_at(u, np.minimum(sp / t, 1.0))
            return np.where(sp < t, val, self.b_anchor)

        return inc

    def jump_grid(self) -> np.ndarray:
        """Block bridge grids mapped onto [0, t] and [t, 1], plus the lattice k / n.

        Unsorted, with repeats; callers sort the breakpoints they merge it into.
        """
        lower = self.t - self.t * self.below.jump_grid()
        upper = self.t + (1.0 - self.t) * self.above.jump_grid()
        return np.concatenate([lower, upper, np.arange(self.n + 1) / self.n])

    def increment_jump_grid(self, anchor: float) -> np.ndarray:
        """Jump abscissae t j / (N_L 2^depth) of s -> B_L(s / t)."""
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
