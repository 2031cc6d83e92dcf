"""Weighted sup engine: exactness, trivial cases, and oracle equality."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empcouple.censored import CensoringModel, censored_sup_problems, sample_from_bundle
from empcouple.harness import STATISTIC_IDS, StatRequest, evaluate_requests, replicate_bundle
from empcouple.processes import AnchoredBundle, ProcessBundle, _SampleProcesses
from empcouple import supstats
from empcouple.rng import derive_stream
from empcouple.supstats import (
    SupProblem,
    WeightConfig,
    _beta_increment_minus_bridge,
    problem_empirical_full,
    problem_empirical_increment,
    problem_quantile_full,
    problem_quantile_increment,
    problem_restricted,
    problem_tail,
    solve,
    stat_empirical_full,
    stat_empirical_increment,
    stat_quantile_full,
    stat_quantile_increment,
    stat_restricted,
    tail_sup_discrepancy,
)
from oracles import (
    _breakpoints,
    fake_w_lookups,
    naive_sup,
    naive_sup_fast,
    on_grid,
    reevaluate,
)


def _bundle(n, seed=0, rep=0, t=0.5, depth=6):
    return ProcessBundle.build(
        n,
        derive_stream(seed, n, rep, "path1"),
        derive_stream(seed, n, rep, "path2"),
        t=t,
        depth=depth,
    )


def _force_zero_bridge(bundle):
    bundle.w_nn = 0.0
    bundle.w_n = lambda z: np.zeros(np.asarray(z, dtype=float).shape)


def test_weight_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(lam=0.0).validate()
    with pytest.raises(ValueError):
        WeightConfig(eta=0.5).validate()
    with pytest.raises(ValueError):
        WeightConfig(nu=0.25).validate()
    with pytest.raises(ValueError):
        WeightConfig(t=1.0).validate()
    with pytest.raises(ValueError):
        WeightConfig(lam=3.0).validate(n=2)


def test_single_point_sup():
    # numerator nonzero only at its step jump s = 1/2; symmetric weight
    # (s(1-s))^{1/2}
    b = ProcessBundle.synthetic(4, [0.2, 0.4, 0.6, 0.8])
    delta0 = 0.37

    def num(s_piece, index=None):
        return lambda s: np.where(np.asarray(s, dtype=float) == 0.5, delta0, 0.0)

    prob = SupProblem(0.25, 0.75, True, None, [0.5], num, 0.5, "sym", 1.0)
    res = solve(b, prob)
    assert res.value == pytest.approx(2.0 * delta0)
    assert res.arg_s == 0.5


def test_zero_when_bridge_equals_quantile_process():
    # force W_n so the bridge reproduces the quantile process exactly
    b = _bundle(16, seed=4)
    n = b.n
    b.w_nn = float(n)

    def fake_w_n(z):
        s = np.asarray(z, dtype=float) / n
        idx = b.lattice_index(s)
        return s * n - n * (s - b.U[idx])

    fake_w_lookups(b, fake_w_n)
    res = stat_quantile_full(b, WeightConfig(eta=0.25))
    assert res.value == 0.0


def test_zero_when_bridge_equals_empirical_process():
    # the bridge jumps where the ECDF does, so the order statistics are
    # moved onto the dyadic grid, as every jump of a W_n bridge lies there
    b = _bundle(16, seed=5)
    n = b.n
    b.U = on_grid(b, b.U)
    b.w_nn = -float(n)

    def fake_w_n(z):
        s = np.asarray(z, dtype=float) / n
        cnt = b.ecdf_count(s)
        return -s * n - n * (cnt / n - s)

    fake_w_lookups(b, fake_w_n)
    res = stat_empirical_full(b, WeightConfig(nu=0.1))
    assert res.value == 0.0


def test_increment_numerator_hand_case():
    # n=2, U={0.25,0.75}, zero bridge, t=0.9, s=0.5:
    # floor convention gives beta(0.9) - beta(0.4) = sqrt(2) * 0.25
    b = ProcessBundle.synthetic(2, [0.25, 0.75], t=0.9)
    _force_zero_bridge(b)
    num = _beta_increment_minus_bridge(b, 0.9)
    val = num(np.asarray([0.5]))(np.asarray([0.5]))[0]
    assert val == pytest.approx(math.sqrt(2.0) * 0.25)


_STAT_PROBLEMS = {
    "approx1": problem_quantile_full,
    "approx2": problem_empirical_full,
    "approx3": problem_quantile_increment,
    "approx4": problem_empirical_increment,
    "restricted": problem_restricted,
}

_PROBLEM_BUILDERS = list(_STAT_PROBLEMS.values())


@pytest.mark.parametrize("builder", _PROBLEM_BUILDERS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_equality(builder, seed):
    b = _bundle(32, seed=seed, depth=4)
    cfg = WeightConfig(eta=0.25, nu=0.1)
    prob = builder(b, cfg)
    res = solve(b, prob)
    assert res.value == naive_sup(b, prob)


def _anchored_bundles_with_small_blocks():
    """n = 4 bundles whose lower or upper block holds 0 or 1 points."""
    found = {}
    for rep in range(100):
        b = AnchoredBundle.build(4, derive_stream(8, 4, rep, "anchored"), depth=4)
        for side, size in (("below", b.count), ("above", 4 - b.count)):
            if size < 2:
                found.setdefault((side, size), b)
    assert set(found) == {("below", 0), ("below", 1), ("above", 0), ("above", 1)}
    return list(found.values())


@pytest.mark.parametrize("builder", _PROBLEM_BUILDERS)
def test_anchored_oracle_equality(builder):
    cfg = WeightConfig(eta=0.25, nu=0.1)
    bundles = [
        AnchoredBundle.build(32, derive_stream(seed, 32, 0, "anchored"), depth=4)
        for seed in range(3)
    ]
    for b in bundles + _anchored_bundles_with_small_blocks():
        prob = builder(b, cfg)
        assert solve(b, prob).value == naive_sup(b, prob)


@pytest.mark.parametrize("side", ["left", "right"])
def test_tail_oracle_equality(side):
    b = _bundle(32, seed=3, depth=4)
    prob = problem_tail(b, 8.0, side)
    res = solve(b, prob)
    assert res.value == naive_sup(b, prob)


# Off the (lam, t) = (1, 1/2) defaults the closed lower endpoint lam/n and
# the step jumps t - k/n fall off any k/(8n) sampling grid.  The first pair
# is the weight setting of the ladder benchmark's endpoint probe.
_OFF_GRID = [
    WeightConfig(lam=1.2, t=0.3),
    WeightConfig(lam=1.7, eta=0.25, nu=0.1, t=0.37),
]

def _harness_problem(req, seed, n, rep):
    """The bundle and sup problem the harness evaluates ``req`` on."""
    bundle = replicate_bundle(req, seed, n, rep)
    if req.statistic in ("cens-h0", "cens-h1"):
        model = CensoringModel(req.rate_c)
        sample = sample_from_bundle(model, bundle, derive_stream(seed, n, rep, "shuffle"))
        problems = censored_sup_problems(sample, model, bundle, req.xi_exp, req.weights.lam)
        return bundle, problems[req.statistic]
    if req.statistic == "ineq1-tail":
        return bundle, problem_tail(bundle, req.d, req.side)
    return bundle, _STAT_PROBLEMS[req.statistic](bundle, req.weights)


@pytest.mark.parametrize("cfg", _OFF_GRID)
@pytest.mark.parametrize("seed,n,rep", [(5, 64, 9), (5, 64, 0), (3, 16, 1), (7, 33, 2)])
def test_off_grid_oracle_equality(cfg, seed, n, rep):
    # all eight statistics, through the harness, on the bundles it builds;
    # theta = 0.4 puts the censored pair off the grid too
    requests = [
        StatRequest(stat, stat, cfg, d=8.0, side=side, rate_c=1.5, xi_exp=0.1)
        for stat in STATISTIC_IDS
        for side in (("left", "right") if stat == "ineq1-tail" else ("left",))
    ]
    rows = evaluate_requests(requests, seed, n, rep)
    for req, row in zip(requests, rows):
        bundle, prob = _harness_problem(req, seed, n, rep)
        assert row.value == naive_sup_fast(bundle, prob), (req, row)


def test_closed_lower_endpoint_point_value():
    # The endpoint probe's worst case: approx3 at lam = 1.2, t = 0.3, n = 64
    # attains its sup at s = lam/n, a step jump of U_[n(t-s)], where the
    # point value exceeds both one-sided limits (by 20% here).
    cfg = _OFF_GRID[0]
    req = StatRequest("approx3", "approx3", cfg)
    bundle, prob = _harness_problem(req, 5, 64, 9)
    res = stat_quantile_increment(bundle, cfg)
    lo = np.asarray([prob.lo])
    at_lo = prob.weighted(lo, lo)[0]
    limit = prob.weighted(lo, lo + 1e-9)[0]
    assert at_lo > 1.1 * limit
    assert (res.value, res.arg_s, res.side) == (at_lo, prob.lo, "point")


@pytest.mark.parametrize("builder,stat", [
    (problem_quantile_full, stat_quantile_full),
    (problem_empirical_full, stat_empirical_full),
    (problem_quantile_increment, stat_quantile_increment),
    (problem_empirical_increment, stat_empirical_increment),
    (problem_restricted, stat_restricted),
])
def test_arg_reevaluation(builder, stat):
    b = _bundle(24, seed=7)
    cfg = WeightConfig(eta=0.1, nu=0.05)
    res = stat(b, cfg)
    prob = builder(b, cfg)
    assert reevaluate(b, prob, res.arg_s, res.side) == pytest.approx(res.value, rel=1e-12)
    assert prob.lo <= res.arg_s <= prob.hi


def test_monotone_in_lambda():
    b = _bundle(40, seed=9)
    vals = [
        stat_quantile_full(b, WeightConfig(lam=lam)).value for lam in (1.0, 2.0, 4.0)
    ]
    assert vals[0] >= vals[1] >= vals[2]
    vals = [
        stat_empirical_full(b, WeightConfig(lam=lam)).value for lam in (1.0, 2.0, 4.0)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_scale_equivariance():
    b = _bundle(20, seed=11)
    cfg = WeightConfig(eta=0.2)
    prob = problem_quantile_full(b, cfg)
    base = solve(b, prob)
    scaled = SupProblem(
        prob.lo, prob.hi, prob.closed_hi, prob.anchor, prob.step_jumps,
        lambda p, index=None: lambda s: 3.0 * prob.numerator(p, index)(s),
        prob.weight_exp, prob.weight_kind, prob.scale,
    )
    res = solve(b, scaled)
    assert res.value == pytest.approx(3.0 * base.value, rel=1e-13)
    assert res.arg_s == base.arg_s


def test_restricted_requires_enough_mass():
    b = _bundle(16, seed=0, t=0.05)  # t_n = 0
    with pytest.raises(ValueError):
        stat_restricted(b, WeightConfig(t=0.05))


def test_restricted_window_at_cfg_t():
    # [U_1, U_[nt]) takes t from the config, as its anchor does, not from the
    # t the bundle was built at
    b = _bundle(16, seed=1, t=0.5, depth=4)
    prob = problem_restricted(b, WeightConfig(t=0.3))
    assert (prob.lo, prob.hi, prob.anchor) == (b.U[1], b.U[4], 0.3)
    b = _bundle(8, seed=1, t=0.1, depth=4)
    prob = problem_restricted(b, WeightConfig(t=0.5))
    assert (prob.lo, prob.hi) == (b.U[1], b.U[4])
    assert stat_restricted(b, WeightConfig(t=0.5)).value >= 0.0


def test_restricted_nested_in_increment():
    # when [U_1, U_{t_n}) lies inside [lam/n, t) the restricted sup cannot win
    cfg = WeightConfig(nu=0.1)
    checked = 0
    for seed in range(10):
        b = _bundle(32, seed=seed)
        if b.U[1] >= cfg.lam / b.n and b.U[b.t_n] <= cfg.t:
            full = stat_empirical_increment(b, cfg).value
            restricted = stat_restricted(b, cfg).value
            assert restricted <= full + 1e-12
            checked += 1
    assert checked > 0


def test_tail_sup_domain_checks():
    b = _bundle(16, seed=1)
    with pytest.raises(ValueError):
        tail_sup_discrepancy(b, 0.5)
    with pytest.raises(ValueError):
        tail_sup_discrepancy(b, 17.0)
    with pytest.raises(ValueError):
        tail_sup_discrepancy(b, 4.0, side="middle")


def test_tail_sup_full_domain_degeneracy():
    # d = n covers [0, 1]; both sides then bound the one-sided variants
    b = _bundle(16, seed=2)
    full = tail_sup_discrepancy(b, 16.0, side="left").value
    assert full >= tail_sup_discrepancy(b, 4.0, side="left").value - 1e-12
    assert full >= 0.0


def test_result_metadata():
    b = _bundle(16, seed=6)
    res = stat_quantile_full(b, WeightConfig())
    assert res.value >= 0.0
    assert res.side in ("left", "right", "point")
    assert res.grid_points > 0


class _LookupCounter:
    """Counts the elements passed to the lookups of every bundle: the W_n
    lookups by float (``w_n``) and by cell index (``w_cells``) together as
    "w_n", and ``ecdf_count``."""

    def __init__(self, monkeypatch):
        self.counts = {"w_n": 0, "ecdf_count": 0}
        for owner, name, kind in (
            (ProcessBundle, "w_n", "w_n"),
            (ProcessBundle, "w_cells", "w_n"),
            (_SampleProcesses, "ecdf_count", "ecdf_count"),
        ):
            monkeypatch.setattr(owner, name, self._counted(kind, getattr(owner, name)))

    def _counted(self, kind, fn):
        def wrapped(bundle, s, *args, **kwargs):
            self.counts[kind] += np.size(s)
            return fn(bundle, s, *args, **kwargs)

        return wrapped

    def during(self, fn, *args):
        before = dict(self.counts)
        out = fn(*args)
        return out, {k: self.counts[k] - before[k] for k in self.counts}


@pytest.mark.parametrize("builder", _PROBLEM_BUILDERS)
@pytest.mark.parametrize("anchored", [False, True])
def test_each_lookup_once_per_piece(monkeypatch, builder, anchored):
    # one lookup per piece (shared by its two one-sided limits) plus one per
    # point value, for each lookup kind
    n, cfg = 48, WeightConfig(lam=1.2, eta=0.25, nu=0.1, t=0.3)
    if anchored:
        b = AnchoredBundle.build(n, derive_stream(2, n, 0, "anchored"), t=cfg.t, depth=4)
    else:
        b = _bundle(n, seed=2, t=cfg.t, depth=4)
    prob = builder(b, cfg)
    limit = len(_breakpoints(b, prob)) - 1 + prob.point_abscissae().size
    counter = _LookupCounter(monkeypatch)
    res, counts = counter.during(solve, b, prob)
    assert res.value == naive_sup_fast(b, prob)
    assert counts["w_n"] > 0
    for kind, count in counts.items():
        assert count <= limit, (kind, count, limit)


@pytest.mark.parametrize(
    "stat,field", [("approx1", "eta"), ("approx4", "nu"), ("cens-h1", "xi_exp")]
)
def test_weight_variants_share_lookups(monkeypatch, stat, field):
    # the three weight variants of a statistic cost the lookups of one
    counter = _LookupCounter(monkeypatch)
    variants = [
        StatRequest(f"{stat}-{x}", stat, xi_exp=x) if field == "xi_exp"
        else StatRequest(f"{stat}-{x}", stat, WeightConfig(**{field: x}))
        for x in (0.0, 0.1, 0.2)
    ]
    one, counts_one = counter.during(evaluate_requests, variants[:1], 3, 64, 1)
    three, counts_three = counter.during(evaluate_requests, variants, 3, 64, 1)
    assert counts_three == counts_one
    assert three[0] == one[0]


def test_cens_h1_shares_approx4_lookups(monkeypatch):
    # cens-h1 at c = 1 is approx4's sup problem at t = theta = 1/2: together
    # they cost the lookups of approx4 alone, and each row is its solo row
    counter = _LookupCounter(monkeypatch)
    approx4 = StatRequest("approx4-nu0.1", "approx4", WeightConfig(nu=0.1))
    cens = StatRequest("cens-h1", "cens-h1", rate_c=1.0, xi_exp=0.1)
    solo_approx4, counts_approx4 = counter.during(evaluate_requests, [approx4], 3, 64, 1)
    solo_cens, _ = counter.during(evaluate_requests, [cens], 3, 64, 1)
    both, counts_both = counter.during(evaluate_requests, [approx4, cens], 3, 64, 1)
    assert counts_both == counts_approx4
    assert both == solo_approx4 + solo_cens


def _every_problem(lam, t, n, seed=4):
    """(bundle, problem) for every builder on both bundle kinds, both tail
    sides, and the censored pair."""
    cfg = WeightConfig(lam=lam, eta=0.25, nu=0.1, t=t)
    lattice = _bundle(n, seed=seed, t=t)
    out = []
    for b in (lattice, AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=t)):
        out += [(b, builder(b, cfg)) for builder in _PROBLEM_BUILDERS]
        out += [(b, problem_tail(b, 16.0, side)) for side in ("left", "right")]
    model = CensoringModel(1.5)
    at_theta = AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=model.theta)
    for b in (lattice, at_theta):
        sample = sample_from_bundle(model, b, derive_stream(seed, n, 0, "shuffle"))
        out += [(b, prob) for prob in censored_sup_problems(sample, model, b, 0.1, lam).values()]
    return out


@pytest.mark.parametrize("lam,t", [(1.0, 0.5), (1.2, 0.3), (1.7, 0.37)])
@pytest.mark.parametrize("n", [64, 100])
def test_block_size_changes_no_bit(monkeypatch, lam, t, n):
    # one block at the default size; at 64 grid points per block every
    # solve runs over many blocks, and value, arg_s, side and grid_points
    # stay the same to the bit
    problems = _every_problem(lam, t, n)
    default = [solve(b, prob) for b, prob in problems]
    monkeypatch.setattr(supstats, "_BLOCK_POINTS", 64)
    for (b, prob), expected in zip(problems, default):
        assert supstats._block_edges(b, prob, np.unique(prob.step_jumps)).size > 8
        assert solve(b, prob) == expected, prob.__dict__


_MEMORY_CASES = [("approx1", False), ("approx2", False), ("approx3", False), ("approx4", True)]


@pytest.mark.parametrize("stat,anchored,depth", [
    *(pytest.param(stat, anchored, 6, id=f"{stat}-{anchored}") for stat, anchored in _MEMORY_CASES),
    *(pytest.param(stat, anchored, 8, id=f"{stat}-{anchored}-depth8")
      for stat, anchored in _MEMORY_CASES),
])
def test_solve_memory_bounded(stat, anchored, depth):
    # working memory beyond the bundle is O(block + n), not O(n 2^depth):
    # the grid at n = 2^15 alone is 16 MB at depth 6 and 64 MB at depth 8,
    # its sort several times that; a spliced copy of W_n on it is as large
    n = 1 << 15
    if anchored:
        b = AnchoredBundle.build(n, derive_stream(1, n, 0, "anchored"), depth=depth)
    else:
        b = _bundle(n, seed=1, depth=depth)
    tracemalloc.start()
    try:
        solve(b, _STAT_PROBLEMS[stat](b, WeightConfig()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


# Anchors and lam/n on dyadic points, one ulp off them, and off any grid.
_ANCHORS = st.builds(
    _nudged, st.sampled_from([0.5, 0.25, 0.75, 0.375, 0.3, 0.37, 0.61]), st.integers(-1, 1)
)


def _lookup_problems(b, lam, t):
    """Every numerator kind on bundle b: both full and increment sups, the
    restricted and tail sups and the censored part's range."""
    cfg = WeightConfig(lam=lam, eta=0.25, nu=0.1, t=t)
    out = [problem_tail(b, min(b.n, 3.0), "left"), problem_tail(b, min(b.n, 3.0), "right")]
    for builder in _PROBLEM_BUILDERS:
        try:
            out.append(builder(b, cfg))
        except ValueError:  # empty domain at this (lam, t, n)
            pass
    out.append(supstats.empirical_range_problem(b, t, 1.0 - lam / b.n, 0.2, "one-minus-s", 1.0))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 300),
    depth=st.integers(0, 8),
    lam_n=_ANCHORS.map(lambda x: x / 4),
    t=_ANCHORS,
    anchored=st.booleans(),
    seed=st.integers(0, 1000),
    block_points=st.sampled_from([supstats._BLOCK_POINTS, 64]),
)
def test_index_lookups_match_float_lookups(n, depth, lam_n, t, anchored, seed, block_points):
    # On every piece of every block, the limits the kernel takes from run
    # counts (the W_n cell, lattice index and ECDF count) equal those of the
    # numerator's float lookups at the piece's midpoint, bit for bit; and the
    # merged runs are the sorted distinct breakpoints of the block.
    if anchored:
        b = AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=t, depth=depth)
    else:
        b = _bundle(n, seed=seed, t=t, depth=depth)
    with mock.patch.object(supstats, "_BLOCK_POINTS", block_points):
        for prob in _lookup_problems(b, lam_n * n, t):
            if not prob.lo < prob.hi:
                continue
            grids = [b.jump_grid()]
            if prob.anchor is not None:
                grids.append(b.increment_jump_grid(prob.anchor))
            grid = np.concatenate(grids)
            grid = np.sort(grid[(grid >= prob.lo) & (grid <= prob.hi)])
            pieces = 0
            for pts, index in supstats._blocks(b, prob):
                a, z = pts[0], pts[-1]
                inside = grid[np.searchsorted(grid, a) : np.searchsorted(grid, z, "right")]
                every = np.concatenate([[a, z], inside, prob.step_jumps])
                assert np.array_equal(pts, np.unique(every[(every >= a) & (every <= z)]))
                p, q = pts[:-1], pts[1:]
                limits = prob.numerator(0.5 * (p + q))
                right, left = supstats._abs_limits(prob, pts, index)
                assert np.array_equal(right, np.abs(limits(p))), prob.__dict__
                assert np.array_equal(left, np.abs(limits(q))), prob.__dict__
                pieces += p.size
            assert pieces > 0
