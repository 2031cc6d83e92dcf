"""Experiment harness: determinism, aggregation, estimators, exact laws."""

import math
import random

import numpy as np
import pytest

from empcouple.harness import (
    ExperimentConfig,
    StatRequest,
    check_floor_bound,
    check_gamma2_tail,
    check_min_ratio_law,
    default_requests,
    estimate_ineq1,
    replicate_bundle,
    report_to_json,
    rows_to_csv,
    run_ladder,
    run_requests,
    sanity_global_sup,
    summarize,
    verify_exact_laws,
    wilson_interval,
)
from empcouple.processes import AnchoredBundle, ProcessBundle
from empcouple.rng import RngStream
from empcouple.supstats import WeightConfig


def _cfg(**kw):
    base = dict(
        statistic="approx1",
        weights=WeightConfig(),
        n_ladder=(4,),
        reps=1,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(reps=0).validate()
    with pytest.raises(ValueError):
        _cfg(n_ladder=(8, 4)).validate()
    with pytest.raises(ValueError):
        _cfg(n_ladder=(1, 4)).validate()
    with pytest.raises(ValueError):
        _cfg(statistic="nope").validate()
    with pytest.raises(ValueError):
        _cfg(n_ladder=()).validate()
    with pytest.raises(ValueError, match="repeated"):
        _cfg(n_ladder=(64, 64)).validate()
    _cfg().validate()


def test_repeated_ladder_size_rejected():
    # a repeated size would return every (n, rep) row twice
    with pytest.raises(ValueError, match="repeated"):
        run_requests([_cfg().request()], (64, 64), 3, seed=1)
    with pytest.raises(ValueError, match="repeated"):
        sanity_global_sup([16, 32, 16], reps=1, seed=3)


def test_single_row_reproducible():
    a = run_ladder(_cfg())
    b = run_ladder(_cfg())
    assert len(a.rows) == 1
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)


def test_row_count_and_order():
    rows = run_requests([_cfg().request()], [4, 8], 3, seed=5)
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


def test_mixed_anchors_rejected():
    reqs = [
        StatRequest("a", "approx3", WeightConfig(t=0.5)),
        StatRequest("b", "approx3", WeightConfig(t=0.6)),
    ]
    with pytest.raises(ValueError):
        run_requests(reqs, [8], 1, seed=0)


def test_summarize_order_independent():
    rows = run_requests([_cfg().request()], [8, 16, 32], 5, seed=7)
    shuffled = rows[:]
    random.Random(0).shuffle(shuffled)
    a = summarize(rows)
    b = summarize(shuffled)
    assert a.quantiles == b.quantiles
    assert a.slopes == b.slopes
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)


def test_quantiles_nondecreasing_in_level():
    report = summarize(run_requests([_cfg().request()], [16], 30, seed=1))
    q = report.quantiles["approx1"][16]
    assert q["q50"] <= q["q90"] <= q["q95"] <= q["q99"]


def test_csv_format():
    rows = run_requests([_cfg().request()], [4], 1, seed=2)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "statistic,n,rep,value,arg_s,seed"
    fields = lines[1].split(",")
    assert fields[0] == "approx1" and fields[1] == "4" and fields[2] == "0"
    assert float(fields[3]) == rows[0].value  # repr round-trips exactly
    assert text.endswith("\n")


def test_report_to_json_structure():
    cfg = _cfg(n_ladder=(8, 16), reps=3)
    report = run_ladder(cfg)
    import json

    doc = json.loads(report_to_json(report, cfg))
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
