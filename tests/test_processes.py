"""Interleaving, splice, bridge, and empirical/quantile process evaluators."""

import contextlib
import itertools
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from empcouple import processes
from empcouple.harness import (
    StatRequest,
    default_requests,
    evaluate_requests,
    rows_to_csv,
    run_requests,
)
from empcouple.processes import (
    AnchoredBundle,
    ProcessBundle,
    interleave,
    next_power_of_two,
)
from empcouple.rng import RngStream, derive_stream
from empcouple.supstats import WeightConfig
from oracles import increment, increment_grid, mapped_run, w_extremes

SQ2 = math.sqrt(2.0)


def _bundle(n, seed=0, rep=0, t=0.5, depth=6):
    return ProcessBundle.build(
        n,
        derive_stream(seed, n, rep, "path1"),
        derive_stream(seed, n, rep, "path2"),
        t=t,
        depth=depth,
    )


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 4), (5, 8), (64, 64), (65, 128)])
def test_next_power_of_two(k, expected):
    assert next_power_of_two(k) == expected


def test_interleave_n4():
    out = interleave(4, [1.0, 2.0], [10.0, 20.0, 30.0])
    np.testing.assert_array_equal(out, [2.0, 1.0, 30.0, 20.0, 10.0])


def test_interleave_n2():
    out = interleave(2, [1.0], [10.0, 20.0])
    np.testing.assert_array_equal(out, [1.0, 20.0, 10.0])


def test_interleave_is_permutation_of_prefixes():
    seq1 = np.arange(1.0, 6.0)
    seq2 = np.arange(10.0, 17.0)
    out = interleave(9, seq1, seq2)
    assert sorted(out) == sorted(list(seq1[:4]) + list(seq2[:6]))


def test_interleave_rejects_short_input():
    with pytest.raises(ValueError):
        interleave(4, [1.0], [10.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        interleave(1, [1.0], [1.0])


def test_order_statistics_valid():
    b = _bundle(33)
    assert b.U[0] == 0.0
    assert np.all(np.diff(b.U) > 0)
    assert b.U[-1] < 1.0
    assert b.S.shape == (35,)
    assert np.all(b.Y > 0)


def test_splice_continuity_at_half():
    b = _bundle(20, seed=3)
    h, g = b.h, b.g
    first_branch = b.w_n(np.asarray([float(h)]))[0]
    w1_h = b.path1.values_at(np.asarray([float(h)]), b.depth)[0]
    w2_g = b.path2.values_at(np.asarray([float(g)]), b.depth)[0]
    second_branch = w1_h + w2_g - b.path2.values_at(np.asarray([(b.n + 1) - float(h)]), b.depth)[0]
    assert first_branch == w1_h
    # (n+1) - h = g, so the lookups cancel; float addition order costs 1 ulp
    assert second_branch == pytest.approx(w1_h, rel=1e-14, abs=1e-14)


def test_w_n_origin_and_range():
    b = _bundle(12, seed=5)
    assert b.w_n(np.asarray([0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        b.w_n(np.asarray([-0.5]))
    with pytest.raises(ValueError):
        b.w_n(np.asarray([b.n + 1.5]))


def test_bridge_pinned_at_endpoints():
    for seed in range(5):
        b = _bundle(17, seed=seed)
        assert b.bridge(np.asarray([0.0]))[0] == 0.0
        assert b.bridge(np.asarray([1.0]))[0] == 0.0


def test_bridge_lattice_exactness():
    # at s = k/n the lookup must hit stored integer-time values bit-for-bit
    b = _bundle(24, seed=1)
    k = np.arange(b.n + 1)
    s = k / b.n
    w_direct = b.w_n(k.astype(float))
    np.testing.assert_array_equal(
        b.bridge(s), (s * b.w_nn - w_direct) / np.sqrt(b.n)
    )


def test_w_n_variance_matches_time():
    reps = 4000
    n = 8
    z = np.asarray([5.5])
    vals = np.empty(reps)
    for rep in range(reps):
        vals[rep] = _bundle(n, seed=77, rep=rep, depth=4).w_n(z)[0]
    var = np.var(vals)
    assert var == pytest.approx(5.5, rel=0.1)
    assert abs(np.mean(vals)) < 3.0 * math.sqrt(5.5 / reps)


def test_empirical_process_hand_values():
    b = ProcessBundle.synthetic(2, [0.25, 0.75])
    assert b.empirical_process(np.asarray([0.5]))[0] == pytest.approx(0.0)
    assert b.empirical_process(np.asarray([0.3]))[0] == pytest.approx(SQ2 * 0.2)
    assert b.empirical_process(np.asarray([1.0]))[0] == pytest.approx(0.0)


def test_quantile_process_hand_values():
    b = ProcessBundle.synthetic(2, [0.25, 0.75])
    assert b.quantile_process(np.asarray([0.6]))[0] == pytest.approx(SQ2 * 0.35)
    # below 1/n the floor index is 0 and U_0 = 0
    assert b.quantile_process(np.asarray([0.2]))[0] == pytest.approx(SQ2 * 0.2)


def test_quantile_lattice_identity_bitwise():
    b = _bundle(19, seed=2)
    k = np.arange(b.n + 1)
    s = k / b.n
    np.testing.assert_array_equal(
        b.quantile_process(s), np.sqrt(b.n) * (s - b.U[k])
    )


def test_increment_hand_value():
    # floor convention: [2*0.9] = 1 and [2*0.4] = 0, so the increment is
    # sqrt(2)(0.9 - U_1) - sqrt(2)(0.4 - 0) = sqrt(2) * 0.25
    b = ProcessBundle.synthetic(2, [0.25, 0.75])
    val = increment(lambda s: b.quantile_process(np.asarray([s]))[0], 0.5, 0.9)
    assert val == pytest.approx(SQ2 * 0.25)


def test_increment_telescoping():
    b = ProcessBundle.synthetic(4, [0.1, 0.3, 0.6, 0.8])

    def f(s):
        return b.empirical_process(np.asarray([s]))[0]

    total = increment(f, 0.5, 0.9)
    split = increment(f, 0.2, 0.9) + increment(f, 0.3, 0.7)
    assert total == pytest.approx(split, abs=1e-12)


def test_increment_rejects_bad_window():
    with pytest.raises(ValueError):
        increment(lambda s: s, 0.5, 0.5)


def test_ecdf_count_sides():
    b = ProcessBundle.synthetic(3, [0.2, 0.5, 0.9])
    assert b.ecdf_count(np.asarray([0.5]))[0] == 2
    assert b.ecdf_count(np.asarray([0.5]), side="left")[0] == 1


def test_build_validation():
    with pytest.raises(ValueError):
        _bundle(1)
    with pytest.raises(ValueError):
        ProcessBundle.build(
            8, derive_stream(0, 8, 0, "path1"), derive_stream(0, 8, 0, "path2"), t=1.0
        )


def test_synthetic_validation():
    with pytest.raises(ValueError):
        ProcessBundle.synthetic(2, [0.5, 0.25])
    with pytest.raises(ValueError):
        ProcessBundle.synthetic(2, [0.5])
    with pytest.raises(ValueError):
        ProcessBundle.synthetic(2, [0.5, 1.0])


def test_synthetic_has_no_brownian_paths():
    b = ProcessBundle.synthetic(2, [0.25, 0.75])
    with pytest.raises(ValueError):
        b.w_n(np.asarray([1.0]))


@pytest.mark.parametrize("n", [2, 3, 64, 100])
def test_paths_refined_only_where_read(n):
    # W_n reads the first path on [0, h] and the second on [0, g]
    b = _bundle(n, seed=4, depth=3)
    assert (b.path1.extent, b.path2.extent) == (b.h, b.g)
    b.path2.grid(3)
    assert b.path2._fine.size == (b.g << 3) + 1
    z = np.linspace(0.0, n + 1, 4 * n + 1)
    b.w_n(z)


def test_build_determinism():
    a = _bundle(14, seed=6)
    b = _bundle(14, seed=6)
    np.testing.assert_array_equal(a.U, b.U)
    assert a.w_nn == b.w_nn


def test_bridge_covariance():
    # Cov(B(s), B(u)) = s(1-u) for s <= u; estimate at (0.25, 0.5)
    reps = 4000
    vals = np.empty((reps, 2))
    for rep in range(reps):
        b = _bundle(8, seed=13, rep=rep, depth=3)
        vals[rep] = b.bridge(np.asarray([0.25, 0.5]))
    cov = np.cov(vals.T)[0, 1]
    assert cov == pytest.approx(0.125, abs=0.02)


# -- count-anchored bundle ----------------------------------------------------


def _anchored(n, seed=0, rep=0, t=0.5, depth=6):
    return AnchoredBundle.build(n, derive_stream(seed, n, rep, "anchored"), t=t, depth=depth)


@pytest.mark.parametrize("n,t", [(2, 0.5), (5, 0.1), (16, 0.5), (33, 0.9), (200, 0.3)])
def test_anchored_sample_splits_at_anchor(n, t):
    counts = set()
    for rep in range(30):
        b = _anchored(n, seed=3, rep=rep, t=t, depth=3)
        assert b.U[0] == 0.0 and b.U.shape == (n + 1,)
        assert np.all(np.diff(b.U) > 0) and b.U[-1] < 1.0
        assert b.ecdf_count(np.asarray([t]))[0] == b.count
        counts.add(b.count)
    assert len(counts) > 1


def test_anchored_bridge_pinned_and_spliced():
    for rep in range(5):
        b = _anchored(17, seed=2, rep=rep, t=0.3)
        assert b.bridge(np.asarray([0.0]))[0] == 0.0
        assert b.bridge(np.asarray([1.0]))[0] == 0.0
        assert b.bridge(np.asarray([0.3]))[0] == b.b_anchor
        # the increment is the bridge's own window increment at t
        s = np.asarray([0.01, 0.1234, 0.29])
        np.testing.assert_allclose(
            b.bridge_increment(0.3)(s, b.below.w_n(s / 0.3 * b.below.n))(s),
            b.bridge(np.asarray([0.3])) - b.bridge(0.3 - s),
            rtol=1e-12, atol=1e-12,
        )
        # past the anchor the increment is extended by B(t) - B(0)
        past = b.bridge_increment(0.3)(np.asarray([0.5]), np.zeros(1))
        assert past(np.asarray([0.5]))[0] == b.b_anchor


def test_anchored_increments_only_at_anchor():
    b = _anchored(16, seed=1, t=0.5)
    with pytest.raises(ValueError):
        b.bridge_increment(0.4)
    with pytest.raises(ValueError):
        b.grid_runs(0.4, 0.1, 0.2)


def test_anchored_build_validation():
    with pytest.raises(ValueError):
        _anchored(1)
    with pytest.raises(ValueError):
        _anchored(8, t=1.0)


def test_anchored_laws():
    # Brownian-bridge covariance s(1-u) across the splice at t, Bin(n, t)
    # counts, and Beta(k, n+1-k) order statistics on both sides of t
    reps, n, t = 2000, 8, 0.4
    grid = np.asarray([0.2, 0.4, 0.7])
    vals = np.empty((reps, grid.size))
    counts = np.empty(reps)
    u = np.empty((reps, 3))
    for rep in range(reps):
        b = _anchored(n, seed=21, rep=rep, t=t, depth=3)
        vals[rep] = b.bridge(grid)
        counts[rep] = b.count
        u[rep] = b.U[[1, n // 2, n]]
    cov = np.cov(vals.T)
    expected = np.minimum.outer(grid, grid) - np.outer(grid, grid)
    np.testing.assert_allclose(cov, expected, atol=0.02)
    assert abs(counts.mean() - n * t) < 3.0 * math.sqrt(n * t * (1 - t) / reps)
    for j, k in enumerate((1, n // 2, n)):
        assert stats.kstest(u[:, j], "beta", args=(float(k), float(n + 1 - k))).pvalue > 0.01


def _restricted_grid_ends(bundle, lam, theta):
    """lo/hi candidates: 0, 1, lam/n, t, theta, dyadic grid points and points just off them."""
    den = bundle.n * (1 << bundle.depth)
    on_grid = [j / den for j in (1, 7, den // 3, den - 2)]
    off_grid = [x + 0.25 / den for x in on_grid] + [0.3, 0.1234567]
    return sorted({0.0, 1.0, lam / bundle.n, bundle.t, theta, *on_grid, *off_grid})


def _grid_test_bundles(kind, t):
    if kind == "lattice":
        return [_bundle(24, seed=s, t=t, depth=3) for s in range(2)]
    return [_anchored(24, seed=s, t=t, depth=3) for s in range(3)] + [_anchored(3, seed=1, t=t)]


def _jump_grid_parts(b):
    """``jump_grid()`` split into the full grids ``grid_runs(None, ...)`` reads:
    the dyadic grid, or the block grids mapped below and above t."""
    full = b.jump_grid()
    if isinstance(b, ProcessBundle):
        return [full]
    return np.split(full, [(b.below.n << b.depth) + 1])


def _check_grid_runs(b, anchor, parts):
    # the run holds exactly the points of its full grid in [lo, hi], in
    # order, and x[i] is that grid's point of index first + step i; with two
    # parts, the grid below t serves a range up to t, the one above t a
    # range from t, and a range on both sides of t is rejected
    ends = _restricted_grid_ends(b, 1.2, 0.4)
    for lo in ends:
        for hi in ends:
            if not lo < hi:
                continue
            if len(parts) == 2 and lo < b.t < hi:
                with pytest.raises(ValueError, match="straddles"):
                    b.grid_runs(anchor, lo, hi)
                continue
            run = b.grid_runs(anchor, lo, hi)
            full = parts[0] if len(parts) == 1 or hi <= b.t else parts[1]
            inside = np.sort(full[(full >= lo) & (full <= hi)])
            x = run.points(0, run.size)
            assert np.array_equal(x, inside), (lo, hi)
            at = run.first + run.step * np.arange(x.size)
            assert (at >= 0).all() and np.array_equal(x, full[at]), (lo, hi)


@pytest.mark.parametrize("kind", ["lattice", "anchored"])
@pytest.mark.parametrize("t", [0.5, 0.3, 0.4])
def test_restricted_jump_grid_covers_domain(kind, t):
    # grid_runs(None, lo, hi) is the full jump grid in [lo, hi], as the same
    # floats
    for b in _grid_test_bundles(kind, t):
        _check_grid_runs(b, None, _jump_grid_parts(b))


@pytest.mark.parametrize("kind", ["lattice", "anchored"])
@pytest.mark.parametrize("t", [0.5, 0.3, 0.4])
def test_restricted_increment_jump_grid_covers_domain(kind, t):
    # grid_runs(t, lo, hi) is the full increment grid in [lo, hi] alone, as
    # the same floats: a window increment reads no other grid
    for b in _grid_test_bundles(kind, t):
        _check_grid_runs(b, t, [increment_grid(b, t)])


@pytest.mark.parametrize("t", [0.5, 0.3, 0.37])
def test_runs_match_mapped_run(t):
    # every run of grid_runs, for the bridge and for the increment at t, on
    # both bundle kinds, has the points, first index and size of the
    # reference that builds the mapped grid whole, to the bit, also read one
    # position at a time; and its index search places the grid points, the
    # floats one ulp either side of them and the range's ends where
    # np.searchsorted over the built points does, for many values at once
    # and one at a time
    bundles = _grid_test_bundles("lattice", t) + _grid_test_bundles("anchored", t)
    bundles += [_bundle(101, t=t, depth=8), _anchored(101, t=t, depth=8)]
    for b in bundles:
        for anchor in (None, t):
            for lo, hi in itertools.combinations(_restricted_grid_ends(b, 1.2, 0.4), 2):
                if anchor is None and isinstance(b, AnchoredBundle) and lo < t < hi:
                    continue
                run = b.grid_runs(anchor, lo, hi)
                x, first, step = mapped_run(run.den, run.offset, run.scale, lo, hi)
                assert np.array_equal(run.points(0, run.size), x), (lo, hi)
                assert (run.size, run.step) == (x.size, step) and (x.size == 0 or run.first == first)
                assert np.array_equal(run.at(np.arange(x.size)[::-1]), x[::-1])
                probe = np.concatenate([
                    x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf), [lo, hi, -1.0, 2.0]
                ])
                for side in ("left", "right"):
                    want = np.searchsorted(x, probe, side)
                    assert np.array_equal(run.search(probe, side), want)
                    assert [run.place(v, side) for v in probe[::9]] == want[::9].tolist()


@pytest.mark.parametrize("sub_block", [4, 64])
@pytest.mark.parametrize("depth", [0, 3, 6, 8])
def test_w_extremes_match_reduceat(monkeypatch, sub_block, depth):
    # the least and greatest W_n of each sub-range, whole chunks read from
    # the paths' cached extremes, equal reduceat over one w_span read of its
    # cells, to the bit: over the cells of bridge runs (ascending index) and
    # increment runs (descending) on a lattice bundle and on the below and
    # above blocks of a count-anchored one, on either path's side, next to
    # the path split and past the cells' ends
    monkeypatch.setattr(processes, "_SUB_BLOCK", sub_block)
    sides = set()
    for n in (37, 100, 1001):
        lattice = _bundle(n, t=0.37, depth=depth)
        anchored = _anchored(n, t=0.37, depth=depth)
        runs = [
            lattice.grid_runs(None, 0.01, 0.99),
            lattice.grid_runs(0.37, 0.01, 0.37),
            anchored.grid_runs(None, 0.01, 0.37),
            anchored.grid_runs(None, 0.37, 0.99),
            anchored.grid_runs(0.37, 0.01, 0.37),
        ]
        for run in runs:
            b = run.bundle
            hd, top = b.h << depth, ((b.n + 1) << depth) - 1
            j0, j1 = sorted((run.first, run.first + run.step * (run.size - 1)))
            ranges = [(j0, j1 - 1), (j0 - 1, j1), (-1, top + 1), (0, top), (hd - 1, hd), (hd, hd)]
            ranges += [(hd - 3 * sub_block - 1, hd + 2 * sub_block + 2), (hd - 1, top - 1)]
            for c0, c1 in ranges:
                c0, c1 = max(c0, -1), min(c1, top + 1)
                got, want = b.w_extremes(c0, c1), w_extremes(b, c0, c1)
                for g, w in zip(got, want, strict=True):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (n, c0, c1)
                inner = got[0][1:-1]
                sides |= {"first path" for c in inner if c < hd} | {"second path" for c in inner if c >= hd}
    assert sides == {"first path", "second path"}


@contextlib.contextmanager
def _paired_threads():
    """Every bundle's two per-path jobs on two threads, which switch often.

    The size rule is 0 and the process is taken to have two cores, whatever
    the machine.  Yields the list of helper threads started, one calling
    thread's ident each.  A pool worker that would start one raises: the
    patches reach the workers by fork.
    """
    started = []
    real = processes.ThreadPoolExecutor

    def counted(*args):
        if multiprocessing.parent_process() is not None:
            raise AssertionError("a pool worker started a helper thread")
        started.append(threading.get_ident())
        return real(*args)

    saved = (processes._PAIR_THREADS, processes._cores, sys.getswitchinterval())
    processes._PAIR_THREADS, processes.ThreadPoolExecutor = 0, counted
    processes._cores = lambda: 2
    sys.setswitchinterval(1e-6)
    try:
        yield started
    finally:
        processes._PAIR_THREADS, processes.ThreadPoolExecutor = saved[0], real
        processes._cores = saved[1]
        sys.setswitchinterval(saved[2])


def _sweep_and_censored():
    weights = WeightConfig()
    return default_requests() + [
        StatRequest(s, s, weights, rate_c=1.0, xi_exp=0.1) for s in ("cens-h0", "cens-h1")
    ]


@pytest.mark.parametrize("n", [64, 513, 2048])
def test_paired_threads_change_no_bit(n):
    # coupling and refining every bundle's two paths on two threads gives
    # the rows of doing them in turn, row for row
    reqs = _sweep_and_censored()
    for rep in (0, 1):
        alone = evaluate_requests(reqs, 31, n, rep)
        with _paired_threads() as started:
            paired = evaluate_requests(reqs, 31, n, rep)
        assert paired == alone, (n, rep)
        assert started


@pytest.mark.parametrize("n", [64, 100, 513])
def test_paired_threads_refine_only_the_paths_they_read(n):
    # a read of one path still refines that path alone: the unedited test,
    # with every pair of paths on two threads
    import test_supstats

    with _paired_threads() as started:
        test_supstats.test_solves_refine_only_the_paths_they_read(n)
    assert started


def test_pool_workers_start_no_helper():
    # the workers of a process pool share the cores already: they couple
    # and refine in turn, and give the calling process's CSV
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patches reach the workers only by fork")
    reqs = [StatRequest("approx1", "approx1"), StatRequest("approx4", "approx4")]
    with _paired_threads() as started:
        serial = run_requests(reqs, [64, 100], 2, seed=3, threads=1)
        assert started
        parallel = run_requests(reqs, [64, 100], 2, seed=3, threads=2)
    assert rows_to_csv(parallel) == rows_to_csv(serial)


class _HelperFailed(RuntimeError):
    pass


def test_helper_exception_reaches_caller(monkeypatch):
    # an exception on the helper thread is raised in the calling thread
    stream2 = RngStream(5, 2)
    couple, raised_on = processes.couple_exponential_sums, []

    def failing(m, stream, extent=None):
        if stream == stream2:
            raised_on.append(threading.get_ident())
            raise _HelperFailed("path2")
        return couple(m, stream, extent=extent)

    monkeypatch.setattr(processes, "couple_exponential_sums", failing)
    with _paired_threads() as started:
        with pytest.raises(_HelperFailed):
            ProcessBundle.build(64, RngStream(5, 1), stream2)
    assert started == [threading.get_ident()]
    assert raised_on and raised_on[0] != threading.get_ident()


@pytest.mark.parametrize("below,helpers", [(1, 0), (0, 1)])
def test_helper_starts_from_the_size_rule(monkeypatch, below, helpers):
    # two jobs share the threads only from the size rule on
    extent = processes._PAIR_THREADS - below
    started = []
    real = processes.ThreadPoolExecutor
    monkeypatch.setattr(processes, "ThreadPoolExecutor", lambda *a: started.append(1) or real(*a))
    monkeypatch.setattr(processes, "_cores", lambda: 2)
    assert processes._paired(lambda: 1, lambda: 2, extent) == (1, 2)
    assert len(started) == helpers
