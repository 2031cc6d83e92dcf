"""Replicated Monte Carlo experiments over the coupled statistics.

The harness owns experiment plumbing: per-replicate RNG stream derivation,
parallel scheduling with deterministic output, CSV/JSON serialization,
quantile summaries with the q95-versus-log n trend and its bootstrap error,
the rate-normalized tightness verdict, the exceedance-tail estimator, and
the exact-law verification suite.

Determinism contract: a run is fully described by (seed, ladder, reps,
statistic config).  Worker processes receive (n, rep) tasks whose streams
depend only on (seed, n, rep, role), and results are re-sorted before any
aggregation, so the emitted CSV is byte-identical at any thread count.

Each replicate evaluates every statistic on the bundle that couples it (see
``coupling_anchor``): the quantile statistics and approx2 on the
lattice-anchored ``ProcessBundle``, the empirical window statistics on the
count-anchored ``AnchoredBundle`` at their anchor.
"""

from __future__ import annotations

import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .censored import CensoringModel, censored_domain, problem_censored_part
from .coupling import check_refine_depth, snap_to_integer
from .numerics import gamma2_tail, std_normal_quantile
from .processes import (
    DEFAULT_REFINE_DEPTH,
    AnchoredBundle,
    Bundle,
    ProcessBundle,
    bundle_bytes,
)
from .rng import RngStream, derive_stream
from .supstats import (
    WeightConfig,
    empirical_window_problem,
    full_domain,
    increment_domain,
    power_weight,
    problem_empirical_full,
    problem_empirical_increment,
    problem_quantile_full,
    problem_quantile_increment,
    problem_restricted,
    problem_tail,
    restricted_count,
    solve,
    solve_weights,
    tail_domain,
)

CSV_HEADER = "statistic,n,rep,value,arg_s,seed"


def _kmt_rate(n: np.ndarray, x: float) -> np.ndarray:
    return n ** (x - 0.5) * np.log(n)


def _kiefer_rate(n: np.ndarray, x: float) -> np.ndarray:
    log_n = np.log(n)
    return n ** (x - 0.25) * np.sqrt(log_n) * np.log(log_n) ** 0.25


class _Statistic(NamedTuple):
    """A statistic's registry row; ``anchor``, ``problem`` and ``exponent`` read the request."""

    anchor: Callable | None  # count-anchored bundle's anchor; None: the lattice bundle
    problem: Callable  # req -> (builder, *args): the sup problem builder(bundle, *args)
    exponent: Callable  # x of the weight n^x / w(s)^{1/2 - x} (see ``power_weight``)
    rate: Callable  # (n, x) -> documented approach rate r(n) (see ``rate_normalizer``)


def _built_by(builder) -> Callable:
    # Only the weight reads eta and nu; zeroed, they leave one key per sup problem.
    return lambda req: (builder, replace(req.weights, eta=0.0, nu=0.0))


def _censored_part(req) -> tuple:
    return problem_censored_part, CensoringModel(req.rate_c), 0.0, req.weights.lam


def _uncensored_part(req) -> tuple:
    # 'cens-h1' is approx4's window increment at t = theta.
    return problem_empirical_increment, WeightConfig(lam=req.weights.lam, t=_at_theta(req))


def _tail(req) -> tuple:
    return problem_tail, req.d, req.side


def _at_theta(req) -> float:
    return CensoringModel(req.rate_c).theta


# The tail sup's weight kind is None: x = 0 leaves it unweighted (scale n^0 = 1).
_AT_T, _UNWEIGHTED = attrgetter("weights.t"), lambda req: 0.0
_ETA, _NU, _XI = attrgetter("weights.eta"), attrgetter("weights.nu"), attrgetter("xi_exp")

_PROBLEMS = {
    "approx1": _Statistic(None, _built_by(problem_quantile_full), _ETA, _kmt_rate),
    "approx2": _Statistic(None, _built_by(problem_empirical_full), _NU, _kiefer_rate),
    "approx3": _Statistic(None, _built_by(problem_quantile_increment), _ETA, _kmt_rate),
    "approx4": _Statistic(_AT_T, _built_by(problem_empirical_increment), _NU, _kiefer_rate),
    "restricted": _Statistic(_AT_T, _built_by(problem_restricted), _NU, _kiefer_rate),
    "ineq1-tail": _Statistic(None, _tail, _UNWEIGHTED, _kmt_rate),
    "cens-h0": _Statistic(_at_theta, _censored_part, _XI, _kiefer_rate),
    "cens-h1": _Statistic(_at_theta, _uncensored_part, _XI, _kiefer_rate),
}

STATISTIC_IDS = tuple(_PROBLEMS)

# Each problem builder's domain rule, on n and the builder's arguments (see
# ``_check_run``).
_DOMAINS = {
    problem_quantile_full: lambda n, cfg: full_domain(n, cfg.lam),
    problem_empirical_full: lambda n, cfg: full_domain(n, cfg.lam),
    problem_quantile_increment: lambda n, cfg: increment_domain(n, cfg.lam, cfg.t),
    problem_empirical_increment: lambda n, cfg: increment_domain(n, cfg.lam, cfg.t),
    problem_restricted: lambda n, cfg: restricted_count(n, cfg.t),
    problem_tail: tail_domain,
    problem_censored_part: lambda n, model, xi_exp, lam: censored_domain(n, model, lam),
}


@dataclass(frozen=True)
class StatRequest:
    """One named statistic to evaluate on each replicate bundle."""

    name: str
    statistic: str
    weights: WeightConfig = WeightConfig()
    d: float = 64.0
    side: str = "left"
    rate_c: float = 1.0
    xi_exp: float = 0.1

    def validate(self) -> None:
        """Reject every field that is out of range whatever n is."""
        if self.statistic not in STATISTIC_IDS:
            raise ValueError(f"unknown statistic id {self.statistic!r}")
        if any(c in self.name for c in ",\r\n"):
            raise ValueError(f"request name {self.name!r} would break its CSV row")
        self.weights.validate()
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if not self.d >= 1.0:
            raise ValueError(f"d must be >= 1, got {self.d}")
        CensoringModel(self.rate_c)  # rejects rate_c <= 0
        if not 0.0 <= self.xi_exp < 0.25:
            raise ValueError("xi exponent must lie in [0, 1/4)")


@dataclass(frozen=True)
class ResultRow:
    statistic: str
    n: int
    rep: int
    value: float
    arg_s: float
    seed: int


@dataclass
class LadderReport:
    rows: list[ResultRow]
    quantiles: dict[str, dict[int, dict[str, float]]]
    slopes: dict[str, tuple[float, float]]  # statistic -> (q95 slope, bootstrap stderr)


def build_bundle(seed: int, n: int, rep: int, t: float, depth: int) -> ProcessBundle:
    """The replicate's bundle; streams depend only on (seed, n, rep, role)."""
    return ProcessBundle.build(
        n,
        derive_stream(seed, n, rep, "path1"),
        derive_stream(seed, n, rep, "path2"),
        t=t,
        depth=depth,
    )


def build_anchored_bundle(
    seed: int, n: int, rep: int, anchor: float, depth: int
) -> AnchoredBundle:
    """The replicate's count-anchored bundle at ``anchor``.

    Its streams descend from (seed, n, rep, "anchored") alone, so bundles at
    different anchors reuse the same draws.
    """
    return AnchoredBundle.build(
        n, derive_stream(seed, n, rep, "anchored"), t=anchor, depth=depth
    )


def coupling_anchor(req: StatRequest) -> float | None:
    """Anchor of the count-anchored bundle that couples a statistic.

    The empirical window statistics (approx4, restricted) are coupled at t
    and the censored pair at theta = 1/(1+c), where 'cens-h1' is a window
    increment; None selects the lattice-anchored bundle, which couples the
    quantile statistics, approx2 and the tail sup.
    """
    anchor = _PROBLEMS[req.statistic].anchor
    return None if anchor is None else anchor(req)


def replicate_bundle(
    req: StatRequest, seed: int, n: int, rep: int, depth: int = DEFAULT_REFINE_DEPTH
) -> Bundle:
    """The bundle ``req`` is evaluated on for replicate (n, rep)."""
    anchor = coupling_anchor(req)
    if anchor is None:
        return build_bundle(seed, n, rep, req.weights.t, depth)
    return build_anchored_bundle(seed, n, rep, anchor, depth)


def _on_lattice(x: float, n: int) -> bool:
    """Whether x is the float of a lattice point k / n."""
    return round(x * n) / n == x


def _solve_key(req: StatRequest, anchor, n: int) -> tuple:
    """The solve a request shares: its bundle and sup problem (its registry
    row's ``problem``), or for a tail whose inner end, d/n on the left and
    1 - d/n on the right, is the float of a lattice point, the nested tails
    of its side, with d left out."""
    builder, *args = _PROBLEMS[req.statistic].problem(req)
    if builder is problem_tail:
        lo, hi = tail_domain(n, req.d, req.side)
        if _on_lattice(hi if req.side == "left" else lo, n):
            return anchor, _nested_tails, req.side
    return (anchor, builder, *args)


def _nested_tails(bundle: Bundle, side: str, reqs) -> tuple:
    """The widest of the tails ``reqs`` of one side, and each one's domain as a view of it.

    Tail domains of one side are nested, and each inner end here is a step
    jump of the widest tail's problem (``_solve_key``), so each view's
    ``solve_weights`` row equals its own ``problem_tail`` solve, to the bit.
    """
    prob = problem_tail(bundle, max(req.d for req in reqs), side)
    return prob, [tail_domain(bundle.n, req.d, side) for req in reqs]


def evaluate_requests(
    requests: list[StatRequest],
    seed: int,
    n: int,
    rep: int,
    depth: int = DEFAULT_REFINE_DEPTH,
) -> list[ResultRow]:
    """All requested statistics on one replicate (one row each, in request order).

    Statistics that share a coupling anchor share one bundle, built at most
    once (see ``replicate_bundle``); the lattice-anchored bundle reads no t,
    so requests at different t share it.
    Requests that build the same sup problem on it (their registry rows'
    ``problem``, which leaves out the weight exponent) share one evaluation
    pass, whatever their statistic: 'cens-h1' is approx4's problem at
    t = theta.  So do the tails of one side whose inner ends are lattice
    points, whatever their width: each is a view of the widest
    (``_nested_tails``).  Each row equals the request's own ``stat_*`` /
    ``tail_sup_discrepancy`` / ``censored_weighted_stats`` result bit for bit.
    The depth and the bundles' bytes are checked before any bundle is built,
    as in ``run_requests``.
    """
    for req in requests:
        req.validate()
        req.weights.validate(n)
    anchors = [coupling_anchor(req) for req in requests]
    check_refine_depth(depth)
    _check_bytes(set(anchors), n, depth, 1)
    bundles: dict = {}
    groups: dict = {}
    for i, (req, anchor) in enumerate(zip(requests, anchors)):
        if anchor not in bundles:
            bundles[anchor] = replicate_bundle(req, seed, n, rep, depth)
        groups.setdefault(_solve_key(req, anchor, n), []).append(i)
    results: dict = {}
    for (anchor, builder, *args), members in groups.items():
        if builder is _nested_tails:  # the views follow the weights
            prob, *views = _nested_tails(bundles[anchor], *args, [requests[i] for i in members])
        else:
            prob, views = builder(bundles[anchor], *args), []
        xs = (_PROBLEMS[requests[i].statistic].exponent(requests[i]) for i in members)
        weights = [power_weight(n, x, prob.weight_kind) for x in xs]
        results.update(zip(members, solve_weights(bundles[anchor], prob, weights, *views)))
    return [
        ResultRow(
            statistic=req.name, n=n, rep=rep, value=results[i].value,
            arg_s=results[i].arg_s, seed=seed,
        )
        for i, req in enumerate(requests)
    ]


def _replicate_task(args) -> list[ResultRow]:
    # Looked up by name on every call, so a replaced ``evaluate_requests``
    # takes effect.
    return evaluate_requests(*args)


def _map_tasks(fn, tasks: list, threads: int) -> list:
    """[fn(task) for task in tasks], on a pool of ``threads`` worker processes if > 1."""
    if threads > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks, chunksize=chunk))
    return [fn(task) for task in tasks]


# Most bytes the bundles of a run's concurrent replicates may hold.  A
# bundle of size n holds more than 8 (n << depth) bytes, so this also keeps
# n << depth below 2^31, as the sup engine's int32 grid counts need.
MAX_RUN_BYTES = 8 << 30


def _replicate_bytes(anchors, n: int, depth: int) -> int:
    """Bytes of the bundles one replicate at size n builds for ``anchors``, at most.

    The lattice-anchored bundle (anchor None) holds at most ``bundle_bytes(n, depth)``.
    A count-anchored one holds U and blocks of sizes a <= b with
    a + b <= n + 2, so a <= n // 2 + 1 and b <= n; ``bundle_bytes`` rises with n.
    """
    lattice = bundle_bytes(n, depth)
    anchored = lattice + bundle_bytes(n // 2 + 1, depth) + 8 * (n + 1)
    return sum(lattice if anchor is None else anchored for anchor in anchors)


def _check_bytes(anchors, n: int, depth: int, workers: int) -> None:
    """Reject ``workers`` concurrent replicates at size n whose bundles for
    ``anchors`` (``_replicate_bytes``) would exceed ``MAX_RUN_BYTES``."""
    need = workers * _replicate_bytes(anchors, n, depth)
    if need > MAX_RUN_BYTES:
        raise ValueError(
            f"bundles at n={n} and refinement depth {depth} need up to {need} bytes "
            f"over {workers} worker(s), more than {MAX_RUN_BYTES}"
        )


def _check_run(requests, n_ladder, reps, threads: int, refine_depth: int, anchors=()) -> tuple:
    """Reject a ladder run before any replicate is scheduled; (ladder, reps) as ints.

    Every request must validate and carry its own name: rows are keyed by
    name, so a repeated one would mix two requests' values.  A repeated
    ladder size would evaluate the same replicates twice.  Sizes and reps
    come back as ints; a size, reps or threads that is no integer is rejected.
    The bundles that the workers' replicates at the largest size hold at
    once, those of the requests' coupling anchors and of ``anchors``, must
    fit in ``MAX_RUN_BYTES``.  Every request's sup domain must be nonempty
    at every ladder size.
    """
    try:
        n_ladder = [operator.index(n) for n in n_ladder]
        reps = operator.index(reps)
        operator.index(threads)
    except TypeError:
        raise ValueError(
            f"ladder sizes {n_ladder}, reps {reps!r} and threads {threads!r} must be integers"
        ) from None
    for req in requests:
        req.validate()
    names = [req.name for req in requests]
    if len(set(names)) != len(names):
        raise ValueError(f"repeated request names in {names}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not n_ladder:
        raise ValueError("n_ladder must be nonempty")
    if len(set(n_ladder)) != len(n_ladder):
        raise ValueError(f"repeated ladder sizes in {n_ladder}")
    if n_ladder != sorted(n_ladder):
        raise ValueError("n_ladder must be sorted ascending")
    if min(n_ladder) < 2:
        raise ValueError("all ladder sizes must be >= 2")
    check_refine_depth(refine_depth)
    anchors = {coupling_anchor(req) for req in requests} | set(anchors)
    _check_bytes(anchors, n_ladder[-1], refine_depth, min(threads, len(n_ladder) * reps))
    for req in requests:
        builder, *args = _PROBLEMS[req.statistic].problem(req)
        for n in n_ladder:
            try:
                req.weights.validate(n)
                _DOMAINS[builder](n, *args)
            except ValueError as err:
                raise ValueError(f"request {req.name!r} at n={n}: {err}") from None
    return n_ladder, reps


def run_requests(
    requests: list[StatRequest],
    n_ladder,
    reps: int,
    seed: int,
    threads: int = 1,
    refine_depth: int = DEFAULT_REFINE_DEPTH,
) -> list[ResultRow]:
    """Evaluate several statistics on shared bundles across the ladder.

    Per (n, rep), one bundle is built for each coupling anchor in use (the
    lattice-anchored bundle, and the count-anchored one at t or theta) and
    shared by every request coupled there.  Bundle streams depend only on
    (seed, n, rep, role), so adding statistics to a run never changes the
    draws of the others.  The whole run is checked before any replicate
    runs (see ``_check_run``).
    """
    n_ladder, reps = _check_run(requests, n_ladder, reps, threads, refine_depth)
    tasks = [(requests, seed, n, rep, refine_depth) for n in n_ladder for rep in range(reps)]
    chunks = _map_tasks(_replicate_task, tasks, threads)
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.statistic, r.n, r.rep))
    return rows


# Tightness trends: bootstrap draws per ladder size, and the family-wise
# error level of the tightness verdict.
BOOTSTRAP_DRAWS = 1000
FAMILY_ALPHA = 0.05


def _values_by_stat(rows: list[ResultRow]) -> dict[str, dict[int, np.ndarray]]:
    """Row values grouped by statistic and n, in replicate order."""
    grouped: dict[str, dict[int, list[float]]] = {}
    for r in sorted(rows, key=lambda r: (r.statistic, r.n, r.rep)):
        grouped.setdefault(r.statistic, {}).setdefault(r.n, []).append(r.value)
    return {
        stat: {n: np.asarray(vals) for n, vals in per_n.items()}
        for stat, per_n in grouped.items()
    }


def _bootstrap_stream(rows: list[ResultRow]) -> RngStream:
    """Bootstrap stream of a run, keyed by its seed."""
    seeds = {r.seed for r in rows}
    if len(seeds) > 1:
        raise ValueError(f"rows from several seeds {sorted(seeds)}; summarize one run")
    return RngStream(seeds.pop() if seeds else 0).child("bootstrap")


def _q95_trend(
    per_n: dict[int, np.ndarray], stream: RngStream, name: str, rho=1.0
) -> tuple[float, float, float]:
    """(raw slope, slope, stderr) of the q95-versus-log n trend.

    The slopes are those of q95(n) and of q95(n) / rho(n) on log n.  stderr
    is the bootstrap standard error of the latter, resampling the replicates
    within each n from the keyed sub-stream (name, n) of ``stream``: the
    regression stderr of a few q95 points measures their scatter about a
    line, not their Monte Carlo error.  NaN for a single ladder size.
    """
    ns = sorted(per_n)
    if len(ns) < 2:
        return float("nan"), float("nan"), float("nan")
    x = np.log(ns) - np.mean(np.log(ns))
    q95 = np.empty(len(ns))
    boot = np.empty((BOOTSTRAP_DRAWS, len(ns)))
    for j, n in enumerate(ns):
        vals = per_n[n]
        q95[j] = np.quantile(vals, 0.95)
        idx = stream.child(name, n).generator().integers(
            0, vals.size, (BOOTSTRAP_DRAWS, vals.size)
        )
        boot[:, j] = np.quantile(vals[idx], 0.95, axis=1)
    return (
        float(x @ q95 / (x @ x)),
        float(x @ (q95 / rho) / (x @ x)),
        float(np.std((boot / rho) @ x / (x @ x), ddof=1)),
    )


def summarize(rows: list[ResultRow]) -> LadderReport:
    """Quantile tables and the q95-vs-log n trend, per statistic.

    The slope comes with its bootstrap standard error (see ``_q95_trend``).
    Aggregation is order-independent: rows are grouped and sorted
    internally.  All rows must come from one seed.
    """
    stream = _bootstrap_stream(rows)
    quantiles: dict[str, dict[int, dict[str, float]]] = {}
    slopes: dict[str, tuple[float, float]] = {}
    for stat, per_n in _values_by_stat(rows).items():
        quantiles[stat] = {
            n: {f"q{q}": float(np.quantile(per_n[n], q / 100.0)) for q in (50, 90, 95, 99)}
            for n in sorted(per_n)
        }
        _, slope, stderr = _q95_trend(per_n, stream, stat)
        slopes[stat] = (slope, stderr)
    return LadderReport(rows=sorted(rows, key=lambda r: (r.statistic, r.n, r.rep)),
                        quantiles=quantiles, slopes=slopes)


# -- rate-normalized tightness verdict ----------------------------------------


def rate_normalizer(req: StatRequest, n_ladder) -> np.ndarray:
    """rho(n): running maximum of r(n) / r(n_0) over the sorted ladder, floored at 1.

    r(n) is the documented approach rate of the statistic's weighted sup
    (its registry row): the KMT rate n^{eta-1/2} log n for the quantile
    statistics (approx1, approx3, and ineq1-tail at eta = 0, as it is
    unweighted), and Kiefer's Bahadur-Kiefer rate
    n^{nu-1/4} (log n)^{1/2} (log log n)^{1/4} for the empirical ones
    (approx2, approx4, restricted, and the censored pair with xi for nu).
    The weighted sups are stochastically bounded for eta < 1/2 and
    nu < 1/4 (Csorgo, Csorgo, Horvath & Mason 1986), but near those limits
    r(n) still rises over desk-scale n and the sups' upper quantiles rise
    with it.  rho is identically 1 unless r rises from the first ladder
    size.  Needs n >= 3, where log log n > 0.
    """
    ns = np.asarray(sorted(n_ladder), dtype=float)
    if ns[0] < 3:
        raise ValueError(f"rate normalization needs ladder sizes >= 3, got {ns.tolist()}")
    stat = _PROBLEMS[req.statistic]
    rate = stat.rate(ns, stat.exponent(req))
    return np.maximum.accumulate(np.maximum(rate / rate[0], 1.0))


@dataclass(frozen=True)
class TightnessVerdict:
    """Outcome of the rate-normalized q95-vs-log n check for one statistic."""

    raw_slope: float  # slope of q95(n) on log n
    slope: float  # slope of q95(n) / rho(n) on log n
    stderr: float  # bootstrap standard error of ``slope``
    bound: float  # family-wise bound z * stderr
    passed: bool


def tightness_verdicts(
    rows: list[ResultRow], requests: list[StatRequest]
) -> dict[str, TightnessVerdict]:
    """Rate-normalized tightness check for every request over its ladder rows.

    q95(n) / rho(n) (see ``rate_normalizer``) is regressed on log n, and a
    statistic passes when the slope is at most z times its bootstrap
    standard error (``_q95_trend``, drawn from the run's seed), with the
    Bonferroni bound z = Phi^{-1}(1 - FAMILY_ALPHA / m) over the m requests.
    """
    values = _values_by_stat(rows)
    stream = _bootstrap_stream(rows)
    z = float(std_normal_quantile(1.0 - FAMILY_ALPHA / len(requests)))
    verdicts = {}
    for req in requests:
        per_n = values[req.name]
        if len(per_n) < 2:
            raise ValueError(f"{req.name}: tightness needs at least two ladder sizes")
        raw_slope, slope, stderr = _q95_trend(
            per_n, stream, req.name, rate_normalizer(req, sorted(per_n))
        )
        verdicts[req.name] = TightnessVerdict(
            raw_slope=raw_slope,
            slope=slope,
            stderr=stderr,
            bound=z * stderr,
            passed=slope <= z * stderr,
        )
    return verdicts


# -- serialization ----------------------------------------------------------


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Canonical CSV text (LF, repr-exact floats); byte-stable across runs."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.statistic},{r.n},{r.rep},{r.value!r},{r.arg_s!r},{r.seed}")
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


def report_to_json(report: LadderReport, **extra) -> str:
    """The JSON summary of ``report``; ``extra`` adds top-level keys (a config echo, say)."""
    doc = {
        "quantiles": {
            stat: {str(n): q for n, q in per_n.items()}
            for stat, per_n in report.quantiles.items()
        },
        "regression": {
            stat: {"q95_slope_vs_log_n": s, "stderr": se}
            for stat, (s, se) in report.slopes.items()
        },
        "rows": len(report.rows),
        **extra,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- exceedance tail estimator ----------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; valid at 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y), x not constant: (slope, intercept, r).

    The formulas and operation order of scipy 1.17's ``stats.linregress``,
    so the three agree with it bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xmean = np.mean(x)
    ymean = np.mean(y)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    return slope, ymean - slope * xmean, r


@dataclass
class Ineq1Estimate:
    """Empirical exceedance surface of the tail-interval discrepancy."""

    n: int
    a_used: float
    d_grid: list[float]
    x_grid: list[float]
    probs: np.ndarray  # shape (len(d_grid), len(x_grid))
    wilson_low: np.ndarray
    wilson_high: np.ndarray
    c_hat: float
    b_hat: float
    fit_r2: float
    fit_points: int
    reps: int
    side: str = "left"


def estimate_ineq1(
    n: int,
    d_grid,
    x_grid,
    reps: int,
    seed: int,
    a: float = 1.0,
    side: str = "left",
    threads: int = 1,
) -> Ineq1Estimate:
    """Exceedance of the tail sup beyond n^{-1/2}(a log d + x), with decay fit.

    For each replicate one bundle is built and the unweighted tail sup is
    computed at every d.  The exceedance probability is then estimated per
    (d, x), and log p is fitted linearly in x over the nonzero estimates of
    the first d (pooled fit when several d are given), giving the decay rate
    c_hat.  An all-zero grid leaves the fit as NaN.
    """
    d_grid = [float(d) for d in d_grid]
    x_grid = [float(x) for x in x_grid]
    if not d_grid or not x_grid:
        raise ValueError("d_grid and x_grid must be nonempty")
    for d in d_grid:
        for x in x_grid:
            if not 0.0 <= x <= math.sqrt(d):
                raise ValueError(f"x={x} outside [0, sqrt(d)] for d={d}")
    requests = [
        StatRequest(name=repr(d), statistic="ineq1-tail", d=d, side=side)
        for d in d_grid
    ]
    sups = _values_by_stat(run_requests(requests, [n], reps, seed, threads=threads))
    probs = np.empty((len(d_grid), len(x_grid)))
    lo = np.empty_like(probs)
    hi = np.empty_like(probs)
    for i, req in enumerate(requests):
        vals = sups[req.name][n]
        for j, x in enumerate(x_grid):
            thresh = (a * math.log(req.d) + x) / math.sqrt(n)
            k = int(np.count_nonzero(vals >= thresh))
            probs[i, j] = k / reps
            lo[i, j], hi[i, j] = wilson_interval(k, reps)
    xs, logs = [], []
    for i in range(len(d_grid)):
        for j, x in enumerate(x_grid):
            if probs[i, j] > 0:
                xs.append(x)
                logs.append(math.log(probs[i, j]))
    if len(set(xs)) >= 2:
        slope, intercept, r = _line_fit(xs, logs)
        c_hat, b_hat = float(-slope), float(math.exp(intercept))
        fit_r2 = float(r**2)
    else:
        c_hat = b_hat = fit_r2 = float("nan")
    return Ineq1Estimate(
        n=n,
        a_used=a,
        d_grid=d_grid,
        x_grid=x_grid,
        probs=probs,
        wilson_low=lo,
        wilson_high=hi,
        c_hat=c_hat,
        b_hat=b_hat,
        fit_r2=fit_r2,
        fit_points=len(xs),
        reps=reps,
        side=side,
    )


# -- exact-law verification --------------------------------------------------


@dataclass
class LawReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _order_stat_batches(n: int, reps: int, stream: RngStream, batch: int = 20000):
    """Yield (batch_size, U) arrays of uniform order statistics via gamma sums."""
    rng = stream.generator()
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        e = rng.exponential(1.0, size=(b, n + 1))
        s = np.cumsum(e, axis=1)
        yield b, s[:, :n] / s[:, n:]
        done += b


def check_min_ratio_law(
    taus, n: int, reps: int, stream: RngStream, sigmas: float = 3.0
) -> LawReport:
    """P{min_k n U_{(k)} / k <= tau} = tau, checked to a binomial tolerance."""
    taus = np.asarray(taus, dtype=float)
    k = np.arange(1, n + 1)
    counts = np.zeros(taus.size)
    for b, u in _order_stat_batches(n, reps, stream):
        m = np.min(n * u / k, axis=1)
        counts += (m[:, None] <= taus[None, :]).sum(axis=0)
    p_hat = counts / reps
    tol = sigmas * np.sqrt(taus * (1 - taus) / reps)
    err = np.abs(p_hat - taus)
    return LawReport(
        name="min-ratio",
        passed=bool(np.all(err <= tol)),
        details={
            "tau": taus.tolist(),
            "p_hat": p_hat.tolist(),
            "tolerance": tol.tolist(),
            "n": n,
            "reps": reps,
        },
    )


def check_gamma2_tail(us, reps: int, stream: RngStream, sigmas: float = 3.0) -> LawReport:
    """P{E1 + E2 > u} = (u + 1) e^{-u}, checked to a binomial tolerance."""
    us = np.asarray(us, dtype=float)
    rng = stream.generator()
    s2 = rng.exponential(1.0, size=(reps, 2)).sum(axis=1)
    p_hat = np.asarray([np.mean(s2 > u) for u in us])
    target = gamma2_tail(us)
    tol = sigmas * np.sqrt(target * (1 - target) / reps)
    return LawReport(
        name="gamma2-tail",
        passed=bool(np.all(np.abs(p_hat - target) <= tol)),
        details={"u": us.tolist(), "p_hat": p_hat.tolist(), "target": target.tolist(),
                 "tolerance": tol.tolist(), "reps": reps},
    )


def check_floor_bound(n_max: int = 50, grid_points: int = 200) -> LawReport:
    """[nt] - [n(t-s)] - [ns] stays in [-2, 1] over exhaustive s < t grids."""
    g = np.arange(1, grid_points + 1) / (grid_points + 1)
    lo_seen, hi_seen = 0, 0
    for n in range(2, n_max + 1):
        t = g[None, :]
        s = g[:, None]
        mask = s < t
        a = np.floor(snap_to_integer(n * t))
        c = np.floor(snap_to_integer(n * s))
        b = np.floor(snap_to_integer(n * (t - s)))
        comb = (a - b - c)[mask]
        lo_seen = min(lo_seen, int(comb.min()))
        hi_seen = max(hi_seen, int(comb.max()))
    return LawReport(
        name="floor-bound",
        passed=(-2 <= lo_seen and hi_seen <= 1),
        details={"min": lo_seen, "max": hi_seen, "n_max": n_max, "grid_points": grid_points},
    )


def check_bridge_modulus(
    stream: RngStream,
    reps: int = 20000,
    m: int = 512,
    a: float = 0.5,
    h: float = 1.0 / 16.0,
) -> LawReport:
    """Local bridge oscillation tail decays at a Gaussian-type rate in u.

    Estimates p(u) = P{sup_{|s-a|<=h} |B(a) - B(s)| >= u sqrt(h)} on a grid of
    u and requires log p(u) to be decreasing and (up to Monte Carlo slack)
    concave over the nonzero-estimate range.
    """
    rng = stream.generator()
    i_a = int(round(a * m))
    i_lo, i_hi = int(round((a - h) * m)), int(round((a + h) * m))
    u_grid = np.arange(0.5, 3.01, 0.5)
    counts = np.zeros(u_grid.size)
    done = 0
    while done < reps:
        b = min(4000, reps - done)
        w = np.cumsum(rng.standard_normal((b, m)) / np.sqrt(m), axis=1)
        w = np.concatenate([np.zeros((b, 1)), w], axis=1)
        bridge = w - np.linspace(0.0, 1.0, m + 1)[None, :] * w[:, -1:]
        osc = np.max(
            np.abs(bridge[:, i_a : i_a + 1] - bridge[:, i_lo : i_hi + 1]), axis=1
        )
        counts += (osc[:, None] >= u_grid[None, :] * math.sqrt(h)).sum(axis=0)
        done += b
    p = counts / reps
    keep = p > 0
    logs = np.log(p[keep])
    decreasing = bool(np.all(np.diff(logs) < 0))
    concave = True
    if logs.size >= 3:
        concave = bool(np.all(np.diff(logs, 2) <= 0.2))
    return LawReport(
        name="bridge-modulus",
        passed=decreasing and concave,
        details={"u": u_grid.tolist(), "p_hat": p.tolist(), "reps": reps,
                 "decreasing": decreasing, "log_concave": concave},
    )


def verify_exact_laws(seed: int, reps: int = 100000) -> list[LawReport]:
    """The full exact-law suite; each report carries effect sizes."""
    if reps < 10000:
        raise ValueError("exact-law verification needs reps >= 10^4")
    root = RngStream(seed).child("verify")
    return [
        check_min_ratio_law([0.05, 0.1, 0.25], 50, reps, root.child("min-ratio")),
        check_gamma2_tail([0.5, 1.0, 2.0], reps, root.child("gamma2")),
        check_floor_bound(),
        check_bridge_modulus(root.child("bridge"), reps=min(reps, 20000)),
    ]


# -- global sup sanity check -------------------------------------------------


@dataclass
class GlobalSupReport:
    n_ladder: list[int]
    medians: list[float]
    normalized: list[float]
    ratio: float
    passed: bool
    low_confidence: bool


def _global_sup_task(args) -> float:
    seed, n, rep, t, depth = args
    bundle = build_anchored_bundle(seed, n, rep, t, depth)
    return solve(bundle, empirical_window_problem(bundle, t, 0.0, t, 0.0, None, 1.0)).value


def sanity_global_sup(
    n_ladder,
    reps: int,
    seed: int,
    t: float = 0.5,
    threads: int = 1,
    refine_depth: int = DEFAULT_REFINE_DEPTH,
) -> GlobalSupReport:
    """Normalized unweighted sup discrepancy stays bounded across the ladder.

    The median of n^{1/4} sup / ((log n)^{1/2} (log log n)^{1/4}) should be
    flat in n; the pass condition is max/min median ratio <= 3.  The ladder,
    reps, threads, depth and bundle memory are checked up front, as in
    ``run_requests``, and so is t, which must lie in (0, 1).
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"anchor t must lie in (0, 1), got {t}")
    n_ladder, reps = _check_run([], n_ladder, reps, threads, refine_depth, anchors=[t])
    tasks = [(seed, n, rep, t, refine_depth) for n in n_ladder for rep in range(reps)]
    vals = _map_tasks(_global_sup_task, tasks, threads)
    medians, normalized = [], []
    for i, n in enumerate(n_ladder):
        med = float(np.median(vals[i * reps : (i + 1) * reps]))
        medians.append(med)
        norm = n**0.25 / (math.log(n) ** 0.5 * math.log(math.log(n)) ** 0.25)
        normalized.append(med * norm)
    ratio = max(normalized) / min(normalized) if min(normalized) > 0 else float("inf")
    return GlobalSupReport(
        n_ladder=n_ladder,
        medians=medians,
        normalized=normalized,
        ratio=float(ratio),
        passed=bool(ratio <= 3.0),
        low_confidence=reps < 10,
    )


def default_requests(lam: float = 1.0, t: float = 0.5) -> list[StatRequest]:
    """The default parameter sweep: every statistic at its stated exponents."""
    reqs = []
    for eta in (0.0, 0.25, 0.45):
        cfg = WeightConfig(lam=lam, eta=eta, t=t)
        reqs.append(StatRequest(f"approx1-eta{eta:g}", "approx1", cfg))
        reqs.append(StatRequest(f"approx3-eta{eta:g}", "approx3", cfg))
    for nu in (0.0, 0.1, 0.2):
        cfg = WeightConfig(lam=lam, nu=nu, t=t)
        reqs.append(StatRequest(f"approx2-nu{nu:g}", "approx2", cfg))
        reqs.append(StatRequest(f"approx4-nu{nu:g}", "approx4", cfg))
    return reqs
