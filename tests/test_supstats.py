"""Weighted sup engine: exactness, trivial cases, and oracle equality."""

import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empcouple.censored import CensoringModel, problem_censored_part
from empcouple.harness import STATISTIC_IDS, StatRequest, evaluate_requests, replicate_bundle
from empcouple.processes import AnchoredBundle, ProcessBundle, _SampleProcesses
from empcouple import processes, supstats
from empcouple.rng import derive_stream
from empcouple.supstats import (
    Index,
    SupProblem,
    WeightConfig,
    _beta_increment_minus_bridge,
    power_weight,
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
    increment_grid,
    lookups,
    merge_runs,
    naive_sup,
    naive_sup_fast,
    on_grid,
    pathless_bundle,
    reevaluate,
    weighted,
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
    b = pathless_bundle(4, [0.2, 0.4, 0.6, 0.8])
    delta0 = 0.37

    def num(s_piece, index=None):
        return lambda s: np.where(np.asarray(s, dtype=float) == 0.5, delta0, 0.0)

    prob = SupProblem(0.25, 0.75, True, None, [0.5], num, 0.5, "sym", 1.0)
    res = solve(b, prob)
    assert res.value == pytest.approx(2.0 * delta0)
    assert res.arg_s == 0.5


def test_zero_when_bridge_equals_quantile_process():
    # force W_n so the bridge reproduces the quantile process on every piece:
    # every one-sided limit is zero.  W_n is left-continuous, so at each jump
    # k/n the bridge keeps its value from the left, and the sup is the point
    # value of the largest weighted jump sqrt(n) (U_k - U_(k-1))
    b = _bundle(16, seed=4)
    n = b.n
    b.w_nn = float(n)

    def fake_w_n(z):
        s = np.asarray(z, dtype=float) / n
        idx = b.lattice_index(s)
        return s * n - n * (s - b.U[idx])

    fake_w_lookups(b, fake_w_n)
    res = stat_quantile_full(b, WeightConfig(eta=0.25))
    s = np.arange(1, n) / n
    jumps = n**0.25 * math.sqrt(n) * np.diff(b.U)[: n - 1] / (s * (1 - s)) ** 0.25
    assert res.side == "point" and res.arg_s == s[np.argmax(jumps)]
    assert res.value == pytest.approx(jumps.max(), rel=1e-12)


def test_zero_when_bridge_equals_empirical_process():
    # the bridge jumps where the ECDF does, so the order statistics are
    # moved onto the dyadic grid, as every jump of a W_n bridge lies there.
    # Every one-sided limit is zero; at each U_k the left-continuous bridge
    # keeps its value from the left, so the sup is the point value of the
    # largest weighted jump 1 / sqrt(n)
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
    u = b.U[(b.U >= 1 / n) & (b.U <= 1 - 1 / n)]
    jumps = n**0.1 / math.sqrt(n) / (u * (1 - u)) ** 0.4
    assert res.side == "point" and res.arg_s == u[np.argmax(jumps)]
    assert res.value == pytest.approx(jumps.max(), rel=1e-12)


def test_increment_numerator_hand_case():
    # n=2, U={0.25,0.75}, zero bridge, t=0.9, s=0.5:
    # floor convention gives beta(0.9) - beta(0.4) = sqrt(2) * 0.25
    b = pathless_bundle(2, [0.25, 0.75], t=0.9)
    _force_zero_bridge(b)
    num = _beta_increment_minus_bridge(b, 0.9)
    # the jumps 0.9 - k/2 below s = 0.5 are -0.1 and 0.4, and W_n is 0
    val = num(np.asarray([0.5]), Index(np.array([2]), np.zeros(1)))(np.asarray([0.5]))[0]
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
    model = CensoringModel(req.rate_c)
    if req.statistic == "cens-h0":
        return bundle, problem_censored_part(bundle, model, req.xi_exp, req.weights.lam)
    if req.statistic == "cens-h1":
        at_theta = WeightConfig(lam=req.weights.lam, nu=req.xi_exp, t=model.theta)
        return bundle, problem_empirical_increment(bundle, at_theta)
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
    at_lo = weighted(bundle, prob, lo, lo)[0]
    limit = weighted(bundle, prob, lo, lo + 1e-9)[0]
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
        if b.U[1] >= cfg.lam / b.n and b.U[supstats.restricted_count(b.n, cfg.t)] <= cfg.t:
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
    steps = np.sort(prob.step_jumps)
    limit = len(_breakpoints(b, prob)) - 1 + prob.point_abscissae(steps, b.point_breaks(prob.anchor)).size
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
    cens_h1 = WeightConfig(lam=lam, nu=0.1, t=model.theta)
    for b in (lattice, at_theta):
        out += [(b, problem_censored_part(b, model, 0.1, lam))]
        out += [(b, problem_empirical_increment(b, cens_h1))]
    return out


@pytest.mark.parametrize("lam,t", [(1.0, 0.5), (1.2, 0.3), (1.7, 0.37)])
@pytest.mark.parametrize("n", [64, 100])
def test_block_size_changes_no_bit(monkeypatch, lam, t, n):
    # one block at the default size; at 64 grid run points per block every
    # solve carries its best limits over many blocks, and value, arg_s, side
    # and grid_points stay the same to the bit
    problems = _every_problem(lam, t, n)
    default = [solve(b, prob) for b, prob in problems]
    monkeypatch.setattr(supstats, "_BLOCK_POINTS", 64)
    carry, carried = supstats._carry, []
    monkeypatch.setattr(supstats, "_carry", lambda *args: carried.append(carry(*args)))
    for (b, prob), expected in zip(problems, default):
        carried.clear()
        assert solve(b, prob) == expected, prob.__dict__
        assert len(carried) > 8


def _read_all_paths(b):
    """b, with every path refined through its public grid read."""
    for block in (b.below, b.above) if isinstance(b, AnchoredBundle) else (b,):
        block.path1.grid(block.depth), block.path2.grid(block.depth)
    return b


def _outcome(res):
    return res.value, res.arg_s, res.side, res.grid_points


@pytest.mark.parametrize("n", [64, 100, 513])
def test_solves_refine_only_the_paths_they_read(n):
    # a tail sup reads one path of a lattice bundle, and approx4 only the
    # below block of a count-anchored one; the other paths stay unrefined,
    # and each result equals the one on a bundle whose paths were all read
    for side, unread in (("left", "path2"), ("right", "path1")):
        b = _bundle(n, seed=2)
        res = solve(b, problem_tail(b, 16.0, side))
        assert getattr(b, unread)._fine is None, side
        ref = _read_all_paths(_bundle(n, seed=2))
        assert _outcome(res) == _outcome(solve(ref, problem_tail(ref, 16.0, side)))
    cfg, stream = WeightConfig(t=0.3), derive_stream(2, n, 0, "anchored")
    a = AnchoredBundle.build(n, stream, t=cfg.t)
    res = solve(a, problem_empirical_increment(a, cfg))
    assert a.above.path1._fine is None and a.above.path2._fine is None
    ref = _read_all_paths(AnchoredBundle.build(n, stream, t=cfg.t))
    assert _outcome(res) == _outcome(solve(ref, problem_empirical_increment(ref, cfg)))


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
    for block in (b.below, b.above) if anchored else (b,):
        block.path1.grid(depth), block.path2.grid(depth)
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


def _blocks(b, prob):
    """(a, z, run) of each block [a, z] of ``prob``, with the grid run of the
    block alone: each stretch (``_runs``) cut at every ``_BLOCK_POINTS``-th
    point of its run, as ``solve_weights`` cuts it."""
    for e, f, run in supstats._runs(b, prob):
        cuts = run.at(np.arange(supstats._BLOCK_POINTS, run.size - 1, supstats._BLOCK_POINTS))
        edges = np.concatenate([[e], cuts, [f]])
        for a, z in zip(edges[:-1], edges[1:]):
            yield a, z, b.grid_runs(prob.anchor, a, z)


def _whole_blocks(b, prob):
    """(pts, p, q, index) of every block of ``prob``, merged whole: its
    breakpoints, the ends of its pieces and their lookups."""
    steps = np.sort(prob.step_jumps)
    for a, z, run in _blocks(b, prob):
        pts, take, index = supstats._pieces(steps, run, np.array([a]), np.array([z]))
        yield pts, pts[:-1][take], pts[1:][take], index


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


# The float W_n lookup (``w_n``) rounds s n and snaps it to an integer within
# a few dozen ulp of 1 in s.  On a piece a few ulp wide, such as one between a step jump
# t - k / n and an increment grid point t x that rounds next to it, the float
# midpoint may so land in a neighbouring cell, so the float lookups are
# compared only on pieces at least this wide.
_FLOAT_WIDE = 2.0**-36


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
    # The merged runs are the sorted distinct breakpoints of the block: its
    # ends, the step jumps and the one grid the bridge lookup reads.  On every
    # piece at least _FLOAT_WIDE wide, the limits the kernel takes from run
    # counts (the W_n cell, lattice index and ECDF count) equal those of the
    # float lookups at the piece's midpoint (``oracles.lookups``: the public
    # ``w_n`` and a count of the step jumps), bit for bit.
    if anchored:
        b = AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=t, depth=depth)
    else:
        b = _bundle(n, seed=seed, t=t, depth=depth)
    with mock.patch.object(supstats, "_BLOCK_POINTS", block_points):
        for prob in _lookup_problems(b, lam_n * n, t):
            if not prob.lo < prob.hi:
                continue
            if prob.anchor is None:
                grid = b.jump_grid()
            else:
                grid = increment_grid(b, prob.anchor)
            grid = np.sort(grid[(grid >= prob.lo) & (grid <= prob.hi)])
            pieces = 0
            for pts, p, q, index in _whole_blocks(b, prob):
                a, z = pts[0], pts[-1]
                inside = grid[np.searchsorted(grid, a) : np.searchsorted(grid, z, "right")]
                every = np.concatenate([[a, z], inside, prob.step_jumps])
                assert np.array_equal(pts, np.unique(every[(every >= a) & (every <= z)]))
                mid = 0.5 * (p + q)
                limits = prob.numerator(mid, lookups(b, prob, mid))
                right, left = supstats._abs_limits(prob, p, q, index)
                wide = q - p >= _FLOAT_WIDE
                assert np.array_equal(right[wide], np.abs(limits(p))[wide]), prob.__dict__
                assert np.array_equal(left[wide], np.abs(limits(q))[wide]), prob.__dict__
                pieces += p.size
            assert pieces > 0


def test_sub_block_bound_covers_limits():
    # On every block of random problems of every builder, both bundle kinds,
    # tails and the censored range, at off-lattice lam and t, each sub-block's
    # bound (``_sub_block_bounds``) is at least every |right limit| and |left
    # limit| the full evaluation computes on its pieces.  Sub-blocks past a
    # window increment's anchor are never skipped, so they are not checked.
    # The draws hold sub-blocks on which a numerator crosses zero.
    crossings = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 300),
        depth=st.integers(0, 8),
        lam_n=_ANCHORS.map(lambda x: x / 4),
        t=_ANCHORS,
        anchored=st.booleans(),
        seed=st.integers(0, 1000),
        block_points=st.sampled_from([supstats._BLOCK_POINTS, 64]),
        sub_block=st.sampled_from([4, 64]),
    )
    def check(n, depth, lam_n, t, anchored, seed, block_points, sub_block):
        if anchored:
            b = AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=t, depth=depth)
        else:
            b = _bundle(n, seed=seed, t=t, depth=depth)
        with mock.patch.object(supstats, "_BLOCK_POINTS", block_points), \
                mock.patch.object(processes, "_SUB_BLOCK", sub_block):
            for prob in _lookup_problems(b, lam_n * n, t):
                if not prob.lo < prob.hi:
                    continue
                steps = np.sort(prob.step_jumps)
                for a, z, run in _blocks(b, prob):
                    if run.size < 2:
                        continue
                    lo, hi, bound = supstats._Nodes(b, prob, steps, a, z, run).bounds(0)
                    pts, take, index = supstats._pieces(steps, run, np.array([a]), np.array([z]))
                    p, q = pts[:-1][take], pts[1:][take]
                    limits = prob.numerator(0.5 * (p + q), index)
                    right, left = limits(p), limits(q)
                    sub = np.searchsorted(lo, p, "right") - 1
                    checked = hi[sub] <= (math.inf if prob.anchor is None else prob.anchor)
                    assert np.all((np.abs(right) <= bound[sub])[checked]), prob.__dict__
                    assert np.all((np.abs(left) <= bound[sub])[checked]), prob.__dict__
                    signs = [np.bincount(sub, (right < 0) & checked, lo.size),
                             np.bincount(sub, (right > 0) & checked, lo.size)]
                    crossings.append(np.count_nonzero((signs[0] > 0) & (signs[1] > 0)))

    check()
    assert sum(crossings) > 0


def test_node_bounds_cover_limits():
    # Over the draws of ``test_sub_block_bound_covers_limits``, on every
    # stretch of the domain (``_runs``), the nodes of each level of the
    # descent (``_Nodes``, coarsened here down to a few nodes) tile the
    # stretch, none crosses the splice t of a count-anchored full range, and
    # each node's bound is at least every |right limit| and |left limit| the
    # full evaluation computes on its pieces.  Nodes past a window
    # increment's anchor are never skipped, so they are not checked.
    tops = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 300),
        depth=st.integers(0, 8),
        lam_n=_ANCHORS.map(lambda x: x / 4),
        t=_ANCHORS,
        anchored=st.booleans(),
        seed=st.integers(0, 1000),
        block_points=st.sampled_from([supstats._BLOCK_POINTS, 64]),
        sub_block=st.sampled_from([4, 64]),
    )
    def check(n, depth, lam_n, t, anchored, seed, block_points, sub_block):
        if anchored:
            b = AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=t, depth=depth)
        else:
            b = _bundle(n, seed=seed, t=t, depth=depth)
        with mock.patch.object(supstats, "_BLOCK_POINTS", block_points), \
                mock.patch.object(processes, "_SUB_BLOCK", sub_block), \
                mock.patch.object(supstats, "_TOP_NODES", 1):
            for prob in _lookup_problems(b, lam_n * n, t):
                if not prob.lo < prob.hi:
                    continue
                steps = np.sort(prob.step_jumps)
                for a, z, run in supstats._runs(b, prob):
                    if run.size < 2:
                        continue
                    nodes = supstats._Nodes(b, prob, steps, a, z, run)
                    tops.append(nodes.top)
                    pts, take, index = supstats._pieces(steps, run, np.array([a]), np.array([z]))
                    p, q = pts[:-1][take], pts[1:][take]
                    limits = prob.numerator(0.5 * (p + q), index)
                    right, left = np.abs(limits(p)), np.abs(limits(q))
                    for level in range(nodes.top + 1):
                        lo, hi, bound = nodes.bounds(level)
                        assert lo[0] == a and hi[-1] == z and np.array_equal(hi[:-1], lo[1:])
                        assert np.all(lo < hi), (level, prob.__dict__)
                        if anchored and prob.anchor is None:
                            assert not np.any((lo < t) & (t < hi)), (level, t)
                        node = np.searchsorted(lo, p, "right") - 1
                        checked = hi[node] <= (math.inf if prob.anchor is None else prob.anchor)
                        assert np.all((right <= bound[node])[checked]), (level, prob.__dict__)
                        assert np.all((left <= bound[node])[checked]), (level, prob.__dict__)

    check()
    assert max(tops) >= 3


@pytest.mark.parametrize("builder", [problem_quantile_full, problem_quantile_increment])
def test_descent_bounds_few_nodes(monkeypatch, builder):
    # approx1 and approx3 at n = 2^15, depth 6, seed 1: the descent bounds
    # fewer than 3/5 as many nodes, so corner numerators (8 a node), as a
    # flat pass over every sub-block (0.37 and 0.52 of them when written),
    # and its results equal, field for field, those of a run in which every
    # node reaches the floor and so is kept
    n = 1 << 15
    b = _bundle(n, seed=1, depth=6)
    prob = builder(b, WeightConfig(eta=0.25))
    weights = [power_weight(n, x, prob.weight_kind) for x in (0.0, 0.1, 0.25)]
    bounds, kept = supstats._Nodes.bounds, supstats._kept
    bounded = {}

    def counted(nodes, level, i=None):
        out = bounds(nodes, level, i)
        bounded[level] = bounded.get(level, 0) + out[0].size
        return out

    def every(*args):
        lo, hi, reach = kept(*args[:7], [-math.inf] * len(weights))
        return lo, hi, np.full_like(reach, math.inf)

    monkeypatch.setattr(supstats._Nodes, "bounds", counted)
    got = supstats.solve_weights(b, prob, weights)
    descent = sum(bounded.values())
    bounded.clear()
    monkeypatch.setattr(supstats, "_kept", every)
    want = supstats.solve_weights(b, prob, weights)
    assert [vars(r) for r in got] == [vars(r) for r in want]
    assert 5 * descent < 3 * bounded[0], (descent, bounded)


@pytest.mark.parametrize("sub_block", [4, 64])
@pytest.mark.parametrize("lam,t", [(1.0, 0.5), (1.7, 0.37)])
@pytest.mark.parametrize("n", [100, 513])
def test_deep_descent_changes_no_result(monkeypatch, sub_block, lam, t, n):
    # a descent from a single top node down to the sub-blocks, on every
    # stretch, gives the results of a run in which every node reaches the
    # floor and so is kept, field for field, on the problems of
    # ``test_sub_block_skip_changes_no_result``; and some sub-blocks, but not
    # all, are kept
    monkeypatch.setattr(supstats, "_BOUND_CELLS", 0)
    monkeypatch.setattr(supstats, "_TOP_NODES", 1)
    monkeypatch.setattr(processes, "_SUB_BLOCK", sub_block)
    problems = _skip_problems(lam, t, n)
    kinds = ("sym", "s", "one-minus-s", None)
    weights = [power_weight(n, x, kind) for kind in kinds for x in (0.0, 0.25, 0.45)]
    kept, tops, sub_blocks = supstats._kept, [], []

    def counted(bundle, prob, steps, a, b, run, weights, floors):
        tops.append(supstats._Nodes(bundle, prob, steps, a, b, run).top)
        lo, hi, reach = kept(bundle, prob, steps, a, b, run, weights, floors)
        every = supstats._Nodes(bundle, prob, steps, a, b, run).bounds(0)[0]
        inside = sum(np.count_nonzero((every >= e) & (every < f)) for e, f in zip(lo, hi))
        sub_blocks.append((every.size, inside))
        return lo, hi, reach

    def every(*args):
        lo, hi, reach = kept(*args[:7], [-math.inf] * len(weights))
        return lo, hi, np.full_like(reach, math.inf)

    monkeypatch.setattr(supstats, "_kept", counted)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        descending = [supstats.solve_weights(b, prob, weights) for b, prob in problems]
        monkeypatch.setattr(supstats, "_kept", every)
        for (b, prob), got in zip(problems, descending):
            want = supstats.solve_weights(b, prob, weights)
            assert [vars(r) for r in got] == [vars(r) for r in want], prob.__dict__
    total, inside = np.sum(sub_blocks, axis=0)
    assert 0 < inside < total, (inside, total)
    assert max(tops) >= 3


@pytest.mark.parametrize(
    "anchored,n,depth,seed,t,sub_block",
    [(False, 6, 2, 20, 0.5, 4), (False, 8, 2, 26, 0.3, 16),
     (True, 8, 6, 37, 0.5, 16), (True, 10, 6, 33, 0.45, 4)],
)
def test_descent_keeps_nodes_past_the_anchor(monkeypatch, anchored, n, depth, seed, t, sub_block):
    # the restricted domain [U_1, U_[nt]) here reaches past the anchor t,
    # where the window increment stops following the bridge, so the corners
    # of a node across t, all on one side of it, do not bound its limits; a
    # descent from a single top node still gives the results of a full
    # evaluation, field for field
    monkeypatch.setattr(supstats, "_BOUND_CELLS", 0)
    monkeypatch.setattr(supstats, "_TOP_NODES", 1)
    monkeypatch.setattr(processes, "_SUB_BLOCK", sub_block)
    if anchored:
        b = AnchoredBundle.build(n, derive_stream(seed, n, 0, "anchored"), t=t, depth=depth)
    else:
        b = _bundle(n, seed=seed, t=t, depth=depth)
    prob = problem_restricted(b, WeightConfig(nu=0.1, t=t))
    assert prob.hi > t
    weights = [power_weight(n, x, "s") for x in (0.0, 0.1, 0.25)]
    got = supstats.solve_weights(b, prob, weights)
    monkeypatch.setattr(
        supstats, "_kept", lambda bundle, prob, steps, a, b, *rest: (
            np.array([a]), np.array([b]), np.full((len(weights), 1), np.inf)
        )
    )
    want = supstats.solve_weights(b, prob, weights)
    assert [vars(r) for r in got] == [vars(r) for r in want]


# (lam / n, t) near 0 and near 1.
_EDGE_LAM_T = [(1e-3, 2e-3), (1e-3, 0.999), (0.25, 0.5), (0.99, 0.995)]


def _in_one_cell(b, prob):
    """``prob`` on the inside of the first grid cell of its domain: a
    stretch that holds no grid point, so its block merges no grid run."""
    x = next(supstats._runs(b, prob))[2].at([0, 1])
    return SupProblem(np.nextafter(x[0], 1.0), np.nextafter(x[1], 0.0), prob.closed_hi,
                      prob.anchor, prob.step_jumps, prob.numerator, *prob.weight)


def test_block_kernel_matches_general_merge():
    # Every block's breakpoints and counts equal those of the general merge of
    # its sorted runs (ends, step jumps, grid run), array for array and bit
    # for bit, on both bundle kinds, every problem builder, tail sides and
    # the censored range, repeated step jumps and domains inside one grid
    # cell (``_in_one_cell``) included; the kernel's
    # precondition, a strictly ascending grid run, holds on every block.  No
    # block of a count-anchored full-range problem straddles the splice t,
    # and some end at it or start from it.
    kernel = supstats._merge
    seen = dict.fromkeys(("at t", "no grid", "jump on grid", "repeated jump"), 0)

    def checked(a, b, steps, grid):
        assert np.all(grid[1:] > grid[:-1])
        pts, before, count = kernel(a, b, steps, grid)
        want_pts, want_counts = merge_runs([np.array([a, b]), steps, grid])
        assert np.array_equal(pts, want_pts)
        for got, want in zip((before, count), want_counts, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        seen["no grid"] += grid.size == 0
        seen["jump on grid"] += bool(np.isin(steps, grid).any())
        seen["repeated jump"] += bool(np.any(steps[1:] == steps[:-1]))
        return pts, before, count

    for n, depth, (lam_n, t), anchored in itertools.product(
        (9, 64), (0, 3, 6), _EDGE_LAM_T, (False, True)
    ):
        if anchored:
            b = AnchoredBundle.build(n, derive_stream(2, n, 0, "anchored"), t=t, depth=depth)
        else:
            b = _bundle(n, seed=2, t=t, depth=depth)
        problems = [p for p in _lookup_problems(b, lam_n * n, t) if p.lo < p.hi]
        problems += [
            _in_one_cell(b, p) for p in problems if next(supstats._runs(b, p))[2].size > 1
        ]
        problems += [
            SupProblem(p.lo, p.hi, p.closed_hi, p.anchor,
                       np.concatenate([p.step_jumps, p.step_jumps[::3]]), p.numerator, *p.weight)
            for p in problems
        ]
        for block_points in (supstats._BLOCK_POINTS, 64, 4):
            with mock.patch.object(supstats, "_BLOCK_POINTS", block_points), \
                    mock.patch.object(supstats, "_merge", checked):
                for prob in problems:
                    for pts, *_ in _whole_blocks(b, prob):
                        if anchored and prob.anchor is None:
                            assert not pts[0] < t < pts[-1], (pts[0], pts[-1])
                            seen["at t"] += t in (pts[0], pts[-1])
    assert all(seen.values()), seen


def test_piece_count_matches_merge():
    # the piece count of a stretch or block, from its ends and step jumps
    # placed in the run by index (``_piece_count``), is the size of the general
    # merge (``merge_runs``) less one, on every block of every problem of both bundle kinds,
    # with step jumps and block ends on grid points, one ulp off them and off
    # the grid, and on a stretch inside one grid cell, whose run is empty
    seen = dict.fromkeys(("end on grid", "end off grid", "jump on grid", "jump in a cell"), 0)
    for n, depth, anchored in itertools.product((64, 513), (0, 3, 6), (False, True)):
        if anchored:
            b = AnchoredBundle.build(n, derive_stream(2, n, 0, "anchored"), t=0.37, depth=depth)
        else:
            b = _bundle(n, seed=2, t=0.37, depth=depth)
        for prob in _lookup_problems(b, 1.2, 0.37):
            if not prob.lo < prob.hi:
                continue
            steps = np.sort(prob.step_jumps)
            cell = _in_one_cell(b, prob)
            r = b.grid_runs(prob.anchor, cell.lo, cell.hi)
            inside = steps[(steps >= cell.lo) & (steps <= cell.hi)]
            want = merge_runs([np.array([cell.lo, cell.hi]), inside, r.points(0, r.size)])[0].size - 1
            assert r.size == 0 and supstats._piece_count(cell.lo, cell.hi, steps, r) == want
            seen["jump in a cell"] += inside.size > 0
            for a, z, run in _blocks(b, prob):
                x = run.points(0, run.size)
                if x.size < 4:
                    continue
                jumps = np.sort(np.concatenate([
                    steps, x[::7], np.nextafter(x[3::11], -math.inf), np.nextafter(x[5::11], math.inf)
                ]))
                inner = (x[1], x[-2])
                for lo, hi in (
                    (a, z), inner,
                    (np.nextafter(x[1], -math.inf), np.nextafter(x[-2], math.inf)),
                    (np.nextafter(x[1], math.inf), np.nextafter(x[-2], -math.inf)),
                ):
                    r = b.grid_runs(prob.anchor, lo, hi)
                    for jump in (steps, jumps):
                        inside = jump[(jump >= lo) & (jump <= hi)]
                        want = merge_runs([np.array([lo, hi]), inside, r.points(0, r.size)])[0].size - 1
                        assert supstats._piece_count(lo, hi, jump, r) == want, (lo, hi)
                    seen["end on grid" if lo in x else "end off grid"] += 1
                seen["jump on grid"] += bool(np.isin(steps, x).any())
    assert all(seen.values()), seen


def _rising(rate):
    """A numerator that grows like exp(rate s), so its sup lies in the last block."""
    return lambda s_piece, index=None: lambda s: np.exp(rate * np.asarray(s, dtype=float))


@pytest.mark.parametrize("lam,t,n", [(1.0, 0.5, 64), (1.2, 0.3, 100)])
def test_weight_skip_changes_no_result(monkeypatch, lam, t, n):
    # skipping a weight on a block that cannot beat its best (``_cannot_win``)
    # gives the results of applying every weight on every block, field by
    # field, for the eta and nu variants of all eight statistics, every
    # weight kind with c = 0 among the exponents, a domain starting at the
    # zero base s = 0, and sups in the last block
    monkeypatch.setattr(supstats, "_BLOCK_POINTS", 64)
    problems = _every_problem(lam, t, n)
    lattice = problems[0][0]
    anchored = next(b for b, _ in problems if isinstance(b, AnchoredBundle))
    problems += [
        (anchored, supstats.empirical_window_problem(anchored, t, 0.0, t, 0.5, "s", 1.0)),
        (lattice, supstats.empirical_range_problem(lattice, 0.0, 0.5, 0.45, "sym", 1.0)),
        *((lattice, SupProblem(0.1, 0.9, True, None, lattice.U[1:], _rising(rate), 0.0, None, 1.0))
          for rate in (8.0, 1e-9)),
    ]
    kinds = ("sym", "s", "one-minus-s", None)
    weights = [power_weight(n, x, kind) for kind in kinds for x in (0.0, 0.1, 0.2, 0.25, 0.45)]
    weights += [(0.0, kind, 1.0) for kind in kinds]
    skips = []
    cannot_win = supstats._cannot_win

    def counted(*args):
        skips.append(cannot_win(*args))
        return skips[-1]

    monkeypatch.setattr(supstats, "_cannot_win", counted)
    with np.errstate(divide="ignore", invalid="ignore"):  # the zero base at s = 0
        skipping = [supstats.solve_weights(b, prob, weights) for b, prob in problems]
        monkeypatch.setattr(supstats, "_cannot_win", lambda *args: False)
        for (b, prob), got in zip(problems, skipping):
            want = supstats.solve_weights(b, prob, weights)
            assert [vars(r) for r in got] == [vars(r) for r in want], prob.__dict__
    # a block beats the one before it by 1e-11 relative when the rate is 1e-9
    for results in skipping[-2:]:
        assert [r.arg_s for r, w in zip(results, weights) if w[1] is None] == [0.9] * 6
    assert any(skips) and not all(skips)


def _wobbling(s_piece, index=None):
    """A numerator that is 0 in exact arithmetic, but whose float values
    are off by an ulp of 1, up or down, on some pieces."""
    return lambda s: (3.0 * np.asarray(s, dtype=float) + 1.0) - 3.0 * np.asarray(s, dtype=float) - 1.0


def _skip_problems(lam, t, n):
    """``_every_problem`` and the extra problems of ``test_weight_skip_changes_no_result``:
    a window and a range from the zero base s = 0, and two numerators that
    rise over the domain, one so slowly that neighbouring pieces all but tie.
    Two more numerators tie a sub-block's bound with the floor: one that
    overflows to +inf past s = 0.71, where bound and floor are both +inf,
    and ``_wobbling``, whose values above 0 only the bound's absolute margin
    covers."""
    problems = _every_problem(lam, t, n)
    lattice = problems[0][0]
    anchored = next(b for b, _ in problems if isinstance(b, AnchoredBundle))
    return problems + [
        (anchored, supstats.empirical_window_problem(anchored, t, 0.0, t, 0.5, "s", 1.0)),
        (lattice, supstats.empirical_range_problem(lattice, 0.0, 0.5, 0.45, "sym", 1.0)),
        *((lattice, SupProblem(0.1, 0.9, True, None, lattice.U[1:], num, 0.0, None, 1.0))
          for num in (_rising(8.0), _rising(1e-9), _rising(1e3), _wobbling)),
    ]


@pytest.mark.parametrize("sub_block", [4, 64])
@pytest.mark.parametrize("lam,t", [(1.0, 0.5), (1.2, 0.3), (1.7, 0.37)])
@pytest.mark.parametrize("n", [64, 100, 513])
def test_sub_block_skip_changes_no_result(monkeypatch, sub_block, lam, t, n):
    # bounding every block by sub-blocks and evaluating only those that may
    # reach a weight's floor (``_kept``) gives the results of a run whose
    # bound keeps every sub-block, field by field, for every weight kind on
    # every problem builder, both bundle kinds, the tails and the censored
    # pair, zero bases and near-ties; and some sub-blocks, but not all, are
    # skipped
    monkeypatch.setattr(supstats, "_BOUND_CELLS", 0)
    monkeypatch.setattr(processes, "_SUB_BLOCK", sub_block)
    problems = _skip_problems(lam, t, n)
    kinds = ("sym", "s", "one-minus-s", None)
    weights = [power_weight(n, x, kind) for kind in kinds for x in (0.0, 0.25, 0.45)]
    kept = supstats._kept
    counts = []

    def counted(*args):
        lo, hi, reach = kept(*args)
        every = supstats._Nodes(*args[:6]).bounds(0)[0]
        inside = sum(np.count_nonzero((every >= a) & (every < b)) for a, b in zip(lo, hi))
        counts.append((every.size, inside))
        return lo, hi, reach

    monkeypatch.setattr(supstats, "_kept", counted)
    # the zero base at s = 0, and the overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        skipping = [supstats.solve_weights(b, prob, weights) for b, prob in problems]
        monkeypatch.setattr(
            supstats, "_kept", lambda bundle, prob, steps, a, b, *rest: (
                np.array([a]), np.array([b]), np.full((len(weights), 1), np.inf)
            )
        )
        for (b, prob), got in zip(problems, skipping):
            want = supstats.solve_weights(b, prob, weights)
            assert [vars(r) for r in got] == [vars(r) for r in want], prob.__dict__
    total, inside = np.sum(counts, axis=0)
    assert 0 < inside < total, (inside, total)


def _anchored_full_range_solves(lam, t):
    """(value, arg_s, side, grid_points) of every full-range sup over a range
    that contains the splice t on count-anchored bundles, one line per solve:
    approx1 and approx2 and the empirical range problem with each weight kind
    but 'sym', at n = 9, 100, 513, depths 0, 3, 6 and two block sizes."""
    cfg = WeightConfig(lam=lam, eta=0.25, nu=0.1, t=t)
    lines = []
    for n, depth in itertools.product((9, 100, 513), (0, 3, 6)):
        b = AnchoredBundle.build(n, derive_stream(6, n, 0, "anchored"), t=t, depth=depth)
        lo, hi = 0.5 * t, 0.5 * (1.0 + t)
        problems = [problem_quantile_full(b, cfg), problem_empirical_full(b, cfg)] + [
            supstats.empirical_range_problem(b, lo, hi, exp, kind, 1.0)
            for exp, kind in ((0.3, "s"), (0.3, "one-minus-s"), (0.0, None))
        ]
        for block_points in (supstats._BLOCK_POINTS, 64):
            with mock.patch.object(supstats, "_BLOCK_POINTS", block_points):
                for prob in problems:
                    r = solve(b, prob)
                    lines.append(f"{r.value!r} {r.arg_s!r} {r.side} {r.grid_points}")
    return "\n".join(lines)


# sha256 of ``_anchored_full_range_solves`` at (lam, t).  Recorded with numpy
# 2.4.6 and scipy 1.17.1.  The sweep digests hold no such solve: the harness
# solves no full-range problem on a count-anchored bundle whose range holds t.
# (1.7, 0.37) was re-recorded when point values came to be read by index: at
# n = 9, depth 3, the range [0.185, 0.685] ends on the float of the mapped
# grid point t + (1 - t)/2, and its point value there now reads the cell
# below that grid point, as every piece of the range does, not the cell past
# it (rows 14 and 19).
_ANCHORED_FULL_RANGE_DIGESTS = {
    (1.0, 0.5): "6671a30273d4ba72b926afbb2872ab9010c506c434490fbbaf3c775304d0e084",
    (1.2, 0.3): "f33a2649d3e80077617df4348daad0f3859ecfe13b4e5c745d562e06f0bb851b",
    (1.7, 0.37): "6beec9186cbb5b1d586c1c8871ed352a96824aa897327ac4cf73826955449ab0",
}


@pytest.mark.parametrize("lam,t", sorted(_ANCHORED_FULL_RANGE_DIGESTS))
def test_anchored_full_range_solves_unchanged(lam, t):
    # every solve over the splice t stays bit-identical across changes to
    # the sup engine
    digest = hashlib.sha256(_anchored_full_range_solves(lam, t).encode()).hexdigest()
    assert digest == _ANCHORED_FULL_RANGE_DIGESTS[(lam, t)], (lam, t, np.__version__)


def _bounded_size_solves(lam, t):
    """(value, arg_s, side, grid_points) of ``_every_problem`` at n = 1024 and
    4099, depth 6, with the weights x = 0, 0.1 and 0.2 of each problem's
    kind, one line per solve.  Their full-range and window blocks hold more
    than ``_BOUND_CELLS`` grid cells, so they are bounded by sub-blocks."""
    lines = []
    for n in (1024, 4099):
        for b, prob in _every_problem(lam, t, n):
            weights = [power_weight(n, x, prob.weight_kind) for x in (0.0, 0.1, 0.2)]
            for r in supstats.solve_weights(b, prob, weights):
                lines.append(f"{r.value!r} {r.arg_s!r} {r.side} {r.grid_points}")
    return "\n".join(lines)


# sha256 of ``_bounded_size_solves`` at (lam, t), recorded before the
# sub-block bound, with numpy 2.4.6 and scipy 1.17.1.  No other digest but
# criterion 5's reaches a bounded block.
_BOUNDED_SIZE_DIGESTS = {
    (1.0, 0.5): "f878a058d2d606b1fdf00e6628315ad9add4e4049f0347a07b520061a355b2b5",
    (1.2, 0.3): "4ed70a172e92bf25325cca5f5a37a20c00a5f86197fa6c12d7f1ed44dd389143",
    (1.7, 0.37): "cd3a6c81881aed9f01661fef571a8c0b303e7fb1e1e13fc406da0b07a0a255dc",
}


@pytest.mark.parametrize("lam,t", [(1.0, 0.5), (1.2, 0.3), (1.7, 0.37)])
def test_bounded_size_solves_unchanged(lam, t):
    # solves over blocks that the sub-block bound skips through stay
    # bit-identical to full evaluation
    digest = hashlib.sha256(_bounded_size_solves(lam, t).encode()).hexdigest()
    assert digest == _BOUNDED_SIZE_DIGESTS[(lam, t)], (lam, t, np.__version__)


def _view_problems(n, t):
    """(bundle, problem, views) with views whose inner ends are step jumps or
    the splice t, on both bundle kinds: approx1 with lattice ends, approx2
    with order statistics as ends, and a full range over the splice."""
    cfg = WeightConfig(lam=1.0, eta=0.25, nu=0.1, t=t)
    lattice = _bundle(n, seed=3, t=t)
    anchored = AnchoredBundle.build(n, derive_stream(3, n, 0, "anchored"), t=t)
    out = []
    for b in (lattice, anchored):
        prob = problem_quantile_full(b, cfg)
        k = np.arange(n + 1)
        inner = k[(k / n > prob.lo) & (k / n < prob.hi)] / n
        out.append((b, prob, [(prob.lo, prob.hi), (inner[0], inner[-1]), (prob.lo, inner[n // 3]),
                              (inner[n // 2], prob.hi), (inner[4], inner[5])]))
        prob = problem_empirical_full(b, cfg)
        u = np.sort(prob.step_jumps)
        u = u[(u > prob.lo) & (u < prob.hi)]
        out.append((b, prob, [(u[1], u[-2]), (prob.lo, u[n // 4]), (u[n // 4], prob.hi)]))
    spliced = problem_quantile_full(anchored, cfg)
    out.append((anchored, spliced, [(spliced.lo, t), (t, spliced.hi), (1.0 / n, t)]))
    return out


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("n,t", [(64, 0.5), (100, 0.37)])
def test_views_equal_own_solves(monkeypatch, n, t, bounded):
    # every (weight, view) row of one pass equals the solve of the problem
    # over its view alone: value, arg_s, side and grid_points; with every
    # stretch bounded by a descent of several levels too
    if bounded:
        monkeypatch.setattr(supstats, "_BOUND_CELLS", 0)
        monkeypatch.setattr(supstats, "_TOP_NODES", 1)
        monkeypatch.setattr(processes, "_SUB_BLOCK", 4)
    for b, prob, views in _view_problems(n, t):
        weights = [power_weight(n, x, prob.weight_kind) for x in (0.0, 0.25)]
        rows = [(w, v) for v in views for w in weights]
        got = supstats.solve_weights(b, prob, [w for w, _ in rows], [v for _, v in rows])
        for (weight, (lo, hi)), res in zip(rows, got):
            own = SupProblem(lo, hi, prob.closed_hi, prob.anchor, prob.step_jumps,
                             prob.numerator, *weight)
            assert res == solve(b, own), (prob.__dict__, lo, hi, weight)


def test_views_must_be_sub_domains():
    # a view's inner ends are point abscissae of the problem, inside its
    # domain, and an inner upper end needs a domain closed at hi
    b = _bundle(64)
    prob = problem_tail(b, 16.0, "left")
    weights = [prob.weight]
    supstats.solve_weights(b, prob, weights, [(0.0, 4 / 64)])
    for view in ((0.0, 4.5 / 64), (1 / 128, 0.25), (0.0, 17 / 64), (4 / 64, 4 / 64)):
        with pytest.raises(ValueError, match="view"):
            supstats.solve_weights(b, prob, weights, [view])
    with pytest.raises(ValueError, match="views"):
        supstats.solve_weights(b, prob, weights * 2, [(0.0, 4 / 64)])
    increment = problem_quantile_increment(b, WeightConfig())
    with pytest.raises(ValueError, match="view"):
        supstats.solve_weights(b, increment, [increment.weight], [(increment.lo, 0.25)])


def test_view_grid_points_count_its_cells():
    # a tail view [0, d/n] at depth 6 holds d << 6 grid cells, each one
    # piece, and the d + 1 lattice points 0, 1/n, ..., d/n, both ends included
    b = _bundle(64)
    prob = problem_tail(b, 16.0, "left")
    got = supstats.solve_weights(b, prob, [prob.weight] * 2, [(0.0, 4 / 64), (0.0, 16 / 64)])
    assert [res.grid_points for res in got] == [2 * (4 << 6) + 5, 2 * (16 << 6) + 17]
    assert all(type(res.grid_points) is int for res in got)
