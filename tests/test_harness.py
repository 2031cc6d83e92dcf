"""Experiment harness: determinism, aggregation, estimators, exact laws."""

import dataclasses
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy import stats

from empcouple.harness import (
    MAX_RUN_BYTES,
    StatRequest,
    build_anchored_bundle,
    build_bundle,
    check_floor_bound,
    check_gamma2_tail,
    check_min_ratio_law,
    default_requests,
    estimate_ineq1,
    evaluate_requests,
    replicate_bundle,
    report_to_json,
    rows_to_csv,
    run_requests,
    sanity_global_sup,
    summarize,
    verify_exact_laws,
    wilson_interval,
)
from empcouple import harness, processes, supstats
from empcouple.censored import CensoringModel, censored_weighted_stats, sample_from_bundle
from empcouple.cli import main
from empcouple.coupling import MAX_REFINE_DEPTH
from empcouple.coupling import CoupledPath
from empcouple.numerics import std_normal_quantile
from empcouple.processes import AnchoredBundle, ProcessBundle, bundle_bytes
from empcouple.rng import RngStream, derive_stream
from empcouple.supstats import (
    WeightConfig,
    solve_weights,
    stat_empirical_full,
    stat_empirical_increment,
    stat_quantile_full,
    stat_quantile_increment,
    stat_restricted,
    tail_sup_discrepancy,
)


_REQ = StatRequest("approx1", "approx1")


def _no_scheduling(*args):
    raise AssertionError("replicates scheduled before the run was checked")


def test_config_validation(monkeypatch):
    # every bad run is rejected before any replicate is scheduled
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    bad_runs = [
        dict(reps=0),
        dict(threads=0),
        dict(n_ladder=()),
        dict(n_ladder=(1, 4)),
        dict(n_ladder=(8, 4)),
        dict(n_ladder=(64, 64)),
        dict(n_ladder=(64.0,)),
        dict(n_ladder=("64",)),
        dict(reps=2.0),
        dict(threads=2.0),
    ]
    for kw in bad_runs:
        run = dict(n_ladder=(4,), reps=1, threads=1) | kw
        with pytest.raises(ValueError):
            run_requests([_REQ], run["n_ladder"], run["reps"], 0, threads=run["threads"])
        with pytest.raises(ValueError):
            sanity_global_sup(run["n_ladder"], run["reps"], 0, threads=run["threads"])
    with pytest.raises(ValueError, match="unknown statistic"):
        run_requests([StatRequest("z", "nope")], (4,), 1, 0)
    with pytest.raises(ValueError):
        estimate_ineq1(64, [16.0], [1.0], reps=0, seed=0)


@pytest.mark.parametrize("req,ladder", [
    (StatRequest("tail", "ineq1-tail", d=math.inf), (64,)),
    (StatRequest("tail", "ineq1-tail", d=100.0), (64, 128)),
    (StatRequest("approx1", "approx1", WeightConfig(lam=40.0)), (64, 128)),
    (StatRequest("approx3", "approx3", WeightConfig(lam=40.0, t=0.3)), (64, 1024)),
    (StatRequest("approx4", "approx4", WeightConfig(lam=40.0, t=0.3)), (64, 1024)),
    (StatRequest("restricted", "restricted", WeightConfig(t=0.02)), (64, 1024)),
    (StatRequest("cens-h0", "cens-h0", WeightConfig(lam=16.0), rate_c=0.25), (64, 1024)),
    (StatRequest("cens-h1", "cens-h1", WeightConfig(lam=16.0), rate_c=4.0), (64, 1024)),
])
def test_empty_domains_rejected_before_scheduling(monkeypatch, req, ladder):
    # a sup domain that is empty at some ladder size (here the first) fails
    # the run check, naming the request and the size
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    with pytest.raises(ValueError, match=f"request {req.name!r} at n={ladder[0]}"):
        run_requests([req], ladder, 1, seed=1)
    # the same rule the problem builder applies to the bundle
    with pytest.raises(ValueError):
        evaluate_requests([req], 1, ladder[0], 0)
    if len(ladder) > 1:
        assert evaluate_requests([req], 1, ladder[-1], 0)


def test_repeated_request_names_rejected(monkeypatch):
    # rows are keyed by name: a repeated request would count each value
    # twice, and two requests sharing a name would mix their values
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    other = StatRequest("approx1", "approx2")
    for reqs in ([_REQ, _REQ], [_REQ, other]):
        with pytest.raises(ValueError, match="repeated request names"):
            run_requests(reqs, (64,), 2, seed=1)
    with pytest.raises(ValueError, match="repeated request names"):
        estimate_ineq1(64, [4.0, 4.0], [1.0], reps=5, seed=0)


def _nbytes(obj) -> int:
    """Bytes of the arrays a bundle holds, its paths' and blocks' included."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):  # a path's cached extremes
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
        elif isinstance(value, (ProcessBundle, AnchoredBundle, CoupledPath)):
            total += _nbytes(value)
    return total


def _read_paths(bundle) -> None:
    """Refine every path of a bundle through its public grid read, and
    cache its W extremes as a bounded block reads them."""
    for block in (bundle.below, bundle.above) if isinstance(bundle, AnchoredBundle) else (bundle,):
        block.path1.grid(block.depth), block.path2.grid(block.depth)
        for path in (block.path1, block.path2):
            path.extremes(block.depth, processes._SUB_BLOCK)


def test_bundle_bytes_equal_built_bundles():
    # the estimate from the path layout is what the built bundles hold: a
    # lattice bundle bundle_bytes(n), a count-anchored one U and blocks of
    # sizes max(N, 2) and max(n - N, 2), within the run check's bound
    counts = set()
    for n in (2, 3, 17, 100):
        for depth in (0, 2, 6):
            lattice = build_bundle(3, n, 0, 0.5, depth)
            _read_paths(lattice)
            assert _nbytes(lattice) == bundle_bytes(n, depth)
            for seed in range(4):
                b = build_anchored_bundle(seed, n, 0, 0.3, depth)
                _read_paths(b)
                blocks = bundle_bytes(max(b.count, 2), depth) + bundle_bytes(
                    max(n - b.count, 2), depth
                )
                assert _nbytes(b) == blocks + 8 * (n + 1)
                assert _nbytes(b) <= harness._replicate_bytes({0.3}, n, depth)
                counts.add(min(b.count, n - b.count))
    assert {0, 1} < counts


def test_oversized_run_rejected_before_scheduling(monkeypatch):
    # a run whose bundles would not fit is rejected with n, the depth, the
    # bytes and the workers named, before any replicate or bundle is made
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n=4194304 .* depth 12 .* bytes over 1 worker"):
            run_requests([_REQ], [1 << 22], 1, seed=0, refine_depth=12)
        with pytest.raises(ValueError, match=r"n=4194304 .* depth 12 .* bytes over 1 worker"):
            sanity_global_sup([1 << 22], 1, seed=0, refine_depth=12)
        # one replicate's bundles fit, those of two concurrent workers do not
        n = 3 << 16
        assert bundle_bytes(n, 12) <= MAX_RUN_BYTES < 2 * bundle_bytes(n, 12)
        with pytest.raises(ValueError, match=r"bytes over 2 worker"):
            run_requests([_REQ], [n], 2, seed=0, threads=2, refine_depth=12)
        with pytest.raises(AssertionError, match="replicates scheduled"):
            run_requests([_REQ], [n], 2, seed=0, threads=1, refine_depth=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # n << depth stays below 2^31, which the sup engine's int32 counts need
    for depth in range(MAX_REFINE_DEPTH + 1):
        with pytest.raises(ValueError, match="bytes"):
            run_requests([_REQ], [1 << (31 - depth)], 1, seed=0, refine_depth=depth)


def test_sanity_global_sup_rejects_t_outside_unit_interval(monkeypatch):
    # the anchor t is checked before any replicate is scheduled
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    for t in (1.5, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\)"):
            sanity_global_sup([16, 32], 2, seed=3, t=t)


def test_request_names_that_break_the_csv_rejected(monkeypatch):
    # a comma or line break in a name would split its CSV row
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    for name in ("approx1,eta=0.25", "approx1\n", "approx1\r"):
        with pytest.raises(ValueError, match="CSV"):
            run_requests([StatRequest(name, "approx1")], (64,), 2, seed=1)


def test_numpy_integer_ladder_accepted():
    # numpy integers are taken as Python ints, so the CSV bytes stay those of
    # a list ladder (float sizes and reps: ``test_config_validation``)
    ladder = np.array([16, 32])
    assert rows_to_csv(run_requests([_REQ], ladder, np.int64(2), 1)) == rows_to_csv(
        run_requests([_REQ], [16, 32], 2, 1)
    )
    report = sanity_global_sup(ladder, np.int64(2), 3)
    assert report == sanity_global_sup([16, 32], 2, 3)
    assert all(type(n) is int for n in report.n_ladder)


def test_estimate_ineq1_close_tail_widths():
    # d = 16 and 16.000001 are two tail widths with a row each, not one name
    est = estimate_ineq1(64, [16.0, 16.000001], [0.0, 1.0], reps=10, seed=1)
    assert est.probs.shape == (2, 2)
    assert np.all((est.probs >= 0) & (est.probs <= 1))


def _estimate_digest(est) -> str:
    fields = {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in dataclasses.asdict(est).items()
    }
    return hashlib.sha256(repr(sorted(fields.items())).encode()).hexdigest()


# sha256 of every field of ``estimate_ineq1(n, (4, 16, 64), _INEQ1_X, 40,
# 20261021, side=side)``, and of the CSV of its tail rows, by (n, side).
# Recorded with numpy 2.4.6 and scipy 1.17.1.
_INEQ1_X = (0.0, 0.5, 1.0, 1.5, 2.0)
_INEQ1_DIGESTS = {
    (256, "left"): (
        "bf405492be6ec67c9822dfa140c001c72983809a7b98cb4ca40ea430f32a9915",
        "61757e88f30d40c78a0e3f6fa72c34400024b62c82b7ed6c555377f3cd8e16b7",
    ),
    (256, "right"): (
        "b70d55a2ef50f2529c117748f676207a28383741496f71aa40f00c9f0061ba5e",
        "08a02be7347ae3464e432960f95f210be9e9ac9a44dbc183eb5abe1e4a5d506a",
    ),
    (271, "left"): (
        "80989b92944dd669787c8ca639abbf8d5c35d90174ae6f20f16402bf35da4ae6",
        "1e6eb98a4cf93314e791b949bc2fd74e9affc0b9f2d4922a91204ab3a72ab3fc",
    ),
    (271, "right"): (
        "0b654037aac1fdf94598dafd31ac3b64cac77f0f963effb58ba97352636168d2",
        "a752b32ffa88679eabad36d8aa7b76f80d01c2edd76aabe7d4d363c56536dc8c",
    ),
}


@pytest.mark.parametrize("n,side", sorted(_INEQ1_DIGESTS))
def test_estimate_ineq1_bytes_unchanged(n, side):
    # several tail widths of one side on each replicate; n = 271 is no power
    # of two, so not every end 1 - d/n is the float of a lattice point
    d_grid = (4.0, 16.0, 64.0)
    est = estimate_ineq1(n, d_grid, _INEQ1_X, reps=40, seed=20261021, side=side)
    reqs = [StatRequest(repr(d), "ineq1-tail", d=d, side=side) for d in d_grid]
    csv = rows_to_csv(run_requests(reqs, [n], 40, 20261021))
    want_est, want_csv = _INEQ1_DIGESTS[(n, side)]
    assert hashlib.sha256(csv.encode()).hexdigest() == want_csv
    assert _estimate_digest(est) == want_est


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("n", [256, 271])
def test_nested_tail_rows_equal_own_solves(monkeypatch, n, bounded):
    # tails of one side whose inner end is a lattice point share one solve of
    # the widest; each of its rows equals the tail's own solve: value, arg_s,
    # side and grid_points.  1 - 92/271 is one ulp below 179/271, and
    # 16.000001 / n no lattice point, so those tails are solved alone.
    if bounded:
        monkeypatch.setattr(supstats, "_BOUND_CELLS", 0)
        monkeypatch.setattr(supstats, "_TOP_NODES", 1)
        monkeypatch.setattr(processes, "_SUB_BLOCK", 16)
    ds = (1.0, 4.0, 16.0, 16.000001, 64.0, 92.0, 16.0, float(n))
    reqs = [
        StatRequest(f"{side}{i}", "ineq1-tail", d=d, side=side)
        for side in ("left", "right") for i, d in enumerate(ds)
    ]
    alone = {("left", 16.000001), ("right", 16.000001)}
    if n == 271:
        alone.add(("right", 92.0))
    calls = []

    def recorded(bundle, prob, weights, *views):
        calls.append((bundle, *views, solve_weights(bundle, prob, weights, *views)))
        return calls[-1][-1]

    monkeypatch.setattr(harness, "solve_weights", recorded)
    for rep in (0, 1):
        calls.clear()
        rows = evaluate_requests(reqs, 545, n, rep)
        nested = [call for call in calls if len(call) == 3]
        assert len(nested) == 2 and len(calls) == 2 + len(alone)
        bundle = nested[0][0]
        for side, (_, views, results) in zip(("left", "right"), nested):
            joined = [req for req in reqs if req.side == side and (side, req.d) not in alone]
            assert views == [harness.tail_domain(n, req.d, side) for req in joined]
            for req, res in zip(joined, results):
                assert res == tail_sup_discrepancy(bundle, req.d, side), req
        for req, row in zip(reqs, rows):
            own = tail_sup_discrepancy(bundle, req.d, req.side)
            assert (row.value, row.arg_s) == (own.value, own.arg_s), req


def test_repeated_ladder_size_rejected():
    # a repeated size would return every (n, rep) row twice
    with pytest.raises(ValueError, match="repeated"):
        run_requests([_REQ], (64, 64), 3, seed=1)
    with pytest.raises(ValueError, match="repeated"):
        sanity_global_sup([16, 32, 16], reps=1, seed=3)


@pytest.mark.parametrize("depth", [-1, MAX_REFINE_DEPTH + 1])
def test_bad_refine_depth_rejected(monkeypatch, capsys, depth):
    # rejected up front with the admissible range, not when (or inside the
    # worker where) the first replicate builds its bundle
    names_range = pytest.raises(ValueError, match=rf"\[0, {MAX_REFINE_DEPTH}\]")
    with names_range:
        ProcessBundle.build(8, RngStream(1), RngStream(2), depth=depth)
    with names_range:
        AnchoredBundle.build(8, RngStream(3), depth=depth)

    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    with names_range:
        run_requests([_REQ], (64,), 2, seed=1, threads=2, refine_depth=depth)
    with names_range:
        sanity_global_sup([16], reps=2, seed=1, threads=2, refine_depth=depth)
    assert main(["stats", "--n", "16", "--refine-depth", str(depth)]) == 1
    assert f"[0, {MAX_REFINE_DEPTH}]" in capsys.readouterr().err


@pytest.mark.parametrize("stat,field,value", [
    ("ineq1-tail", "side", "middle"),
    ("ineq1-tail", "d", 0.5),
    ("ineq1-tail", "d", float("nan")),
    ("cens-h0", "rate_c", 0.0),
    ("cens-h1", "xi_exp", 0.25),
    ("cens-h1", "xi_exp", -0.1),
])
def test_bad_request_rejected(monkeypatch, stat, field, value):
    # a field out of range at every n is rejected by validate, before any
    # replicate is scheduled, not inside one
    monkeypatch.setattr(harness, "_map_tasks", _no_scheduling)
    req = StatRequest("bad", stat, **{field: value})
    for reject in (
        req.validate,
        lambda: run_requests([req], (64,), 2, seed=1, threads=2),
        lambda: evaluate_requests([req], 1, 16, 0),
    ):
        with pytest.raises(ValueError):
            reject()


def test_unknown_statistic_rejected():
    with pytest.raises(ValueError, match="unknown statistic"):
        evaluate_requests([StatRequest("z", "nope")], 1, 16, 0)


def test_single_row_reproducible():
    a = summarize(run_requests([_REQ], (4,), 1, seed=0))
    b = summarize(run_requests([_REQ], (4,), 1, seed=0))
    assert len(a.rows) == 1
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)


def test_row_count_and_order():
    rows = run_requests([_REQ], [4, 8], 3, seed=5)
    assert len(rows) == 6
    assert [(r.n, r.rep) for r in rows] == [(4, 0), (4, 1), (4, 2), (8, 0), (8, 1), (8, 2)]


def test_thread_count_does_not_change_csv():
    reqs = [StatRequest("approx2", "approx2", WeightConfig(nu=0.1))]
    serial = run_requests(reqs, [8, 16], 3, seed=3, threads=1)
    parallel = run_requests(reqs, [8, 16], 3, seed=3, threads=3)
    assert rows_to_csv(serial) == rows_to_csv(parallel)


def test_shared_bundle_additivity():
    # adding a second request must not perturb the first one's values
    r1 = StatRequest("approx1", "approx1", WeightConfig())
    r2 = StatRequest("approx2", "approx2", WeightConfig())
    alone = run_requests([r1], [16], 4, seed=9)
    joint = [r for r in run_requests([r1, r2], [16], 4, seed=9) if r.statistic == "approx1"]
    assert rows_to_csv(alone) == rows_to_csv(joint)


def test_mixed_t_rows_equal_solo_rows():
    # requests at t = 1/2 and t = 0.3 share the lattice-anchored bundle, and
    # each row equals the row of evaluating its request alone
    reqs = [
        StatRequest(f"{stat}-t{t}", stat, WeightConfig(eta=0.25, nu=0.1, t=t))
        for t in (0.5, 0.3)
        for stat in ("approx1", "approx3", "approx4", "restricted")
    ]
    for n, rep in [(64, 0), (100, 3)]:
        solo = [row for req in reqs for row in evaluate_requests([req], 5, n, rep)]
        assert evaluate_requests(reqs, 5, n, rep) == solo


def test_summarize_order_independent():
    rows = run_requests([_REQ], [8, 16, 32], 5, seed=7)
    shuffled = rows[:]
    random.Random(0).shuffle(shuffled)
    a = summarize(rows)
    b = summarize(shuffled)
    assert a.quantiles == b.quantiles
    assert a.slopes == b.slopes
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)


def test_quantiles_nondecreasing_in_level():
    report = summarize(run_requests([_REQ], [16], 30, seed=1))
    q = report.quantiles["approx1"][16]
    assert q["q50"] <= q["q90"] <= q["q95"] <= q["q99"]


def test_csv_format():
    rows = run_requests([_REQ], [4], 1, seed=2)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "statistic,n,rep,value,arg_s,seed"
    fields = lines[1].split(",")
    assert fields[0] == "approx1" and fields[1] == "4" and fields[2] == "0"
    assert float(fields[3]) == rows[0].value  # repr round-trips exactly
    assert text.endswith("\n")


def test_report_to_json_structure():
    report = summarize(run_requests([_REQ], (8, 16), 3, seed=0))
    import json

    doc = json.loads(report_to_json(report, config={"seed": 0}))
    assert "quantiles" in doc and "regression" in doc and "config" in doc
    assert doc["config"]["seed"] == 0
    assert set(doc["quantiles"]["approx1"]) == {"8", "16"}
    assert "q95_slope_vs_log_n" in doc["regression"]["approx1"]


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo <= 0.5 <= hi
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 <= hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert 0.9 < lo < 1.0 and hi == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_line_fit_is_scipy_linregress():
    # estimate_ineq1's fit must keep c_hat, b_hat and fit_r2 to the bit
    rng = np.random.default_rng(20261019)
    cases = [
        ([0.0, 1.0], [-0.5, -2.25]),  # two points
        ([0.0, 0.5, 1.0, 2.0], [-1.5, -1.5, -1.5, -1.5]),  # constant y
        ([0.0, 1.0, 2.0, 0.0, 1.0, 2.0], [-0.1, -0.9, -2.3, -0.2, -1.1, -2.0]),
        ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]),  # exact line, r at 1
    ]
    for size in (3, 7, 40):
        x = rng.choice(np.arange(0.0, 4.0, 0.25), size)
        x[:2] = (0.0, 1.0)
        cases.append((list(x), list(np.log(rng.random(size)))))
    for x, y in cases:
        fit = stats.linregress(x, y)
        expected = np.array([fit.slope, fit.intercept, fit.rvalue])
        assert np.array(harness._line_fit(x, y)).tobytes() == expected.tobytes(), (x, y)


def test_verdict_z_is_scipy_norm_ppf():
    for m in range(1, 500):
        q = 1.0 - harness.FAMILY_ALPHA / m
        assert float(std_normal_quantile(q)) == float(stats.norm.ppf(q)), m


def test_estimate_ineq1_contracts():
    with pytest.raises(ValueError):
        estimate_ineq1(16, [32.0], [1.0], reps=5, seed=0)  # d > n
    with pytest.raises(ValueError):
        estimate_ineq1(64, [4.0], [3.0], reps=5, seed=0)  # x > sqrt(d)
    with pytest.raises(ValueError):
        estimate_ineq1(64, [], [1.0], reps=5, seed=0)


def test_estimate_ineq1_monotone_and_empty_tail():
    est = estimate_ineq1(64, [16.0], [0.0, 1.0, 2.0, 4.0], reps=60, seed=4)
    probs = est.probs[0]
    assert np.all(np.diff(probs) <= 1e-12)  # nested events
    assert np.all((probs >= 0) & (probs <= 1))
    assert np.all(est.wilson_low <= est.probs + 1e-12)
    assert np.all(est.probs <= est.wilson_high + 1e-12)
    # a threshold beyond every replicate gives the zero estimate with a valid interval
    big = estimate_ineq1(64, [16.0], [4.0], reps=30, seed=4)
    assert big.probs[0, 0] == 0.0
    assert big.wilson_high[0, 0] > 0.0


def test_min_ratio_law_small():
    report = check_min_ratio_law([0.1, 0.25], 30, 20000, RngStream(6).child("mr"))
    assert report.passed, report.details


def test_gamma2_tail_small():
    report = check_gamma2_tail([0.5, 1.0, 2.0], 20000, RngStream(7).child("g2"))
    assert report.passed, report.details


def test_floor_bound_scan():
    report = check_floor_bound(n_max=20, grid_points=50)
    assert report.passed
    assert -2 <= report.details["min"] and report.details["max"] <= 1


def test_verify_exact_laws_contract():
    with pytest.raises(ValueError):
        verify_exact_laws(0, reps=100)


def test_sanity_global_sup_single_n():
    report = sanity_global_sup([32], reps=1, seed=3)
    assert report.ratio == 1.0
    assert report.passed
    assert report.low_confidence


def test_sanity_global_sup_small_ladder():
    report = sanity_global_sup([16, 32, 64], reps=20, seed=8)
    assert len(report.medians) == 3
    assert all(m > 0 for m in report.medians)
    assert math.isfinite(report.ratio)


def test_default_requests_cover_parameter_sweep():
    reqs = default_requests()
    assert len(reqs) == 12
    assert len({r.name for r in reqs}) == 12
    assert {r.statistic for r in reqs} == {"approx1", "approx2", "approx3", "approx4"}


def test_replicate_bundle_by_coupling_anchor():
    # window increments of the empirical process (and the censored pair, at
    # theta) are coupled on the count-anchored bundle, the rest on the lattice one
    for stat in ("approx1", "approx2", "approx3", "ineq1-tail"):
        b = replicate_bundle(StatRequest(stat, stat, WeightConfig(t=0.3)), 1, 16, 0)
        assert isinstance(b, ProcessBundle) and b.t == 0.3
    for stat in ("approx4", "restricted"):
        b = replicate_bundle(StatRequest(stat, stat, WeightConfig(t=0.3)), 1, 16, 0)
        assert isinstance(b, AnchoredBundle) and b.t == 0.3
    for stat in ("cens-h0", "cens-h1"):
        b = replicate_bundle(StatRequest(stat, stat, WeightConfig(t=0.3), rate_c=3.0), 1, 16, 0)
        assert isinstance(b, AnchoredBundle) and b.t == 0.25


def _window_increment_correlations(n, ks, reps, seed):
    """corr over replicates of alpha(t) - alpha(t - k/n) with B(t) - B(t - k/n)."""
    req = StatRequest("approx4", "approx4", WeightConfig(nu=0.1))
    t = req.weights.t
    s = t - np.asarray(ks, dtype=float) / n
    inc = np.empty((2, reps, len(ks)))
    for rep in range(reps):
        b = replicate_bundle(req, seed, n, rep)
        inc[0, rep] = b.empirical_process(np.asarray([t])) - b.empirical_process(s)
        inc[1, rep] = b.bridge(np.asarray([t])) - b.bridge(s)
    return [float(np.corrcoef(inc[0, :, i], inc[1, :, i])[0, 1]) for i in range(len(ks))]


def test_approx4_window_increments_stay_coupled():
    # On the lattice-anchored bundle these correlations fall from about
    # 0.15/0.18/0.48 at n = 512 to 0.06/0.12/0.10 at n = 8192 (the window
    # count is driven by spacings O(sqrt(n)) indices from [tn]); on the
    # bundle the harness uses for approx4 they must not fall with n, and at
    # n = 8192 they stay near 0.67/0.81/0.92, far above the lattice bundle's.
    ks = (1, 4, 16)
    small = _window_increment_correlations(512, ks, 150, seed=11)
    large = _window_increment_correlations(8192, ks, 150, seed=11)
    for k, c_small, c_large in zip(ks, small, large):
        assert c_large >= c_small - 0.15, (k, small, large)
        assert c_large >= 0.5, (k, small, large)


def _sweep_requests(lam, t):
    """The 14 criterion-5 requests, plus restricted and both tail sides."""
    cfg = WeightConfig(lam=lam, t=t)
    reqs = default_requests(lam, t) + [
        StatRequest(s, s, cfg, rate_c=1.0, xi_exp=0.1) for s in ("cens-h0", "cens-h1")
    ]
    reqs.append(StatRequest("restricted", "restricted", WeightConfig(lam=lam, nu=0.1, t=t)))
    reqs += [
        StatRequest(f"ineq1-tail-{side}", "ineq1-tail", cfg, d=16.0, side=side)
        for side in ("left", "right")
    ]
    return reqs


def _public_result(req, seed, n, rep):
    """(value, arg_s) of one request through its own public call."""
    bundle = replicate_bundle(req, seed, n, rep)
    if req.statistic in ("cens-h0", "cens-h1"):
        model = CensoringModel(req.rate_c)
        sample = sample_from_bundle(model, bundle, derive_stream(seed, n, rep, "shuffle"))
        res = censored_weighted_stats(sample, model, bundle, req.xi_exp, req.weights.lam)
        res = res[req.statistic]
    elif req.statistic == "ineq1-tail":
        res = tail_sup_discrepancy(bundle, req.d, req.side)
    else:
        stat = {
            "approx1": stat_quantile_full,
            "approx2": stat_empirical_full,
            "approx3": stat_quantile_increment,
            "approx4": stat_empirical_increment,
            "restricted": stat_restricted,
        }[req.statistic]
        res = stat(bundle, req.weights)
    return res.value, res.arg_s


@pytest.mark.parametrize("lam,t", [(1.0, 0.5), (1.2, 0.3), (1.7, 0.37)])
def test_grouped_evaluation_matches_public_calls(lam, t):
    # requests sharing a sup problem are solved in one pass; every row still
    # equals its request's own public call bit for bit, in any order and
    # with repeats
    reqs = _sweep_requests(lam, t)
    shuffled = reqs + reqs[::3]
    random.Random(7).shuffle(shuffled)
    for seed, n, rep in ((5, 64, 9), (11, 96, 2)):
        expected = {req: _public_result(req, seed, n, rep) for req in reqs}
        for order in (reqs, shuffled):
            rows = evaluate_requests(order, seed, n, rep)
            assert [r.statistic for r in rows] == [req.name for req in order]
            for req, row in zip(order, rows):
                assert (row.value, row.arg_s) == expected[req], req


@pytest.mark.parametrize("lam,t,solves", [(1.0, 0.5, 5), (1.2, 0.3, 6)])
def test_one_solve_per_sup_problem(monkeypatch, lam, t, solves):
    # the 14 criterion-5 requests build six sup problems, one per statistic,
    # but cens-h1 is approx4's problem at t = theta = 1/(1 + c): at c = 1
    # and t = 1/2 the two are solved once
    calls = []

    def counted(bundle, prob, weights):
        calls.append(len(weights))
        return solve_weights(bundle, prob, weights)

    monkeypatch.setattr(harness, "solve_weights", counted)
    requests = _sweep_requests(lam, t)[:14]
    evaluate_requests(requests, 3, 64, 1)
    assert len(calls) == solves
    assert sum(calls) == len(requests)


# sha256 of rows_to_csv of ``_sweep_requests`` at (lam, t), by (ladder, reps),
# seed 20260824.  Recorded with numpy 2.4.6 and scipy 1.17.1; a change of
# either may move the last bits of a sup.  n = 100 has paths whose lengths are
# not powers of two, so both are refined over part of their length only;
# n = 2048 is solved in several blocks.
_SWEEP_DIGESTS = {
    (1.0, 0.5): {
        ((64, 128, 256), 3): "f11118ab093969606707f885e00b2d113be7b5868ed16eb99d0564d693f75a53",
        ((100,), 3): "c77a261b1b58a60e7ab33bc94f897dd5b45c35007062672729395b4d7fb2a93d",
        ((2048,), 1): "377ae662973fcf0441323ed9a1da17da2b00900a9d5bd3e5ede9253a03e72811",
    },
    (1.2, 0.3): {
        ((64, 128, 256), 3): "b6188fd1f0660d0b9e020c8cc6e5d14934515f83370af1da4731dd4a49baa5a5",
        ((100,), 3): "f45c911e702334c6812ef72f3fbccd345665e318546004702db2c7718c964662",
        ((2048,), 1): "40518a45323f29531fe7503043c01dbf08719b2453f69c09ee17cd23eb62a90d",
    },
}


@pytest.mark.parametrize("lam,t", sorted(_SWEEP_DIGESTS))
def test_sweep_csv_bytes_unchanged(lam, t):
    # every value and arg_s of the sweep stays bit-identical across changes
    # to the sup engine
    for (ladder, reps), expected in _SWEEP_DIGESTS[(lam, t)].items():
        rows = run_requests(_sweep_requests(lam, t), ladder, reps, 20260824)
        digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
        assert digest == expected, (ladder, np.__version__, scipy.__version__)
