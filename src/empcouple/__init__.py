"""Coupled simulation of uniform empirical/quantile processes and bridges.

The package builds iid Exp(1) partial sums jointly with a Brownian motion so
their gap grows only logarithmically, assembles from two such paths the order
statistics of a uniform sample together with a coupled Brownian bridge, and
evaluates weighted sup discrepancies between the empirical/quantile processes
and that bridge — plus the right-censored extension where both sub-empirical
processes become increments of a single uniform empirical process.
"""

from .censored import (
    CensoredSample,
    CensoringModel,
    SubEmpiricals,
    censored_weighted_stats,
    generate,
    representation_check,
    sample_from_bundle,
    survival_representation_check,
    uniformize,
)
from .coupling import (
    CoupledPath,
    KmtTailFit,
    couple_batch,
    couple_exponential_sums,
    fit_kmt_tail,
    max_discrepancy,
    snap_to_integer,
)
from .harness import (
    Ineq1Estimate,
    LadderReport,
    ResultRow,
    StatRequest,
    TightnessVerdict,
    build_anchored_bundle,
    build_bundle,
    default_requests,
    estimate_ineq1,
    evaluate_requests,
    rows_to_csv,
    run_requests,
    summarize,
    tightness_verdicts,
    verify_exact_laws,
    wilson_interval,
    write_csv,
)
from .processes import (
    DEFAULT_REFINE_DEPTH,
    AnchoredBundle,
    ProcessBundle,
    interleave,
    next_power_of_two,
)
from .rng import RngStream, derive_stream, mix_to_id
from .supstats import (
    WeightConfig,
    WeightedSupResult,
    stat_empirical_full,
    stat_empirical_increment,
    stat_quantile_full,
    stat_quantile_increment,
    stat_restricted,
    tail_sup_discrepancy,
)

__version__ = "0.1.0"

__all__ = [
    "AnchoredBundle",
    "CensoredSample",
    "CensoringModel",
    "CoupledPath",
    "DEFAULT_REFINE_DEPTH",
    "Ineq1Estimate",
    "KmtTailFit",
    "LadderReport",
    "ProcessBundle",
    "ResultRow",
    "RngStream",
    "StatRequest",
    "SubEmpiricals",
    "TightnessVerdict",
    "WeightConfig",
    "WeightedSupResult",
    "build_anchored_bundle",
    "build_bundle",
    "censored_weighted_stats",
    "couple_batch",
    "couple_exponential_sums",
    "default_requests",
    "derive_stream",
    "estimate_ineq1",
    "evaluate_requests",
    "fit_kmt_tail",
    "generate",
    "interleave",
    "max_discrepancy",
    "mix_to_id",
    "next_power_of_two",
    "representation_check",
    "rows_to_csv",
    "run_requests",
    "sample_from_bundle",
    "snap_to_integer",
    "stat_empirical_full",
    "stat_empirical_increment",
    "stat_quantile_full",
    "stat_quantile_increment",
    "stat_restricted",
    "summarize",
    "survival_representation_check",
    "tail_sup_discrepancy",
    "tightness_verdicts",
    "uniformize",
    "verify_exact_laws",
    "wilson_interval",
    "write_csv",
]
