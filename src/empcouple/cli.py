"""Command-line front end.

Subcommands:

  couple    build one coupled path and dump it as ``k,S_k,W_k`` lines
  stats     evaluate one statistic on one replicate and print the result
  mc        ladder experiment -> CSV rows plus a JSON summary
  verify    exact-law verification suite (exit code 2 on any failure)
  censored  ladder experiment for the censored statistics + identity report

Exit codes: 0 success, 2 verification failure, 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .censored import (
    CensoringModel,
    default_check_grid,
    generate,
    representation_check,
    survival_representation_check,
)
from .coupling import couple_exponential_sums, max_discrepancy
from .harness import (
    STATISTIC_IDS,
    StatRequest,
    check_run,
    evaluate_requests,
    report_to_json,
    run_requests,
    summarize,
    verify_exact_laws,
    write_csv,
)
from .processes import DEFAULT_REFINE_DEPTH
from .rng import RngStream, derive_stream
from .supstats import WeightConfig

STAT_CHOICES = list(STATISTIC_IDS)


def _parse_ladder(text: str) -> tuple[int, ...]:
    try:
        ladder = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}: {exc}") from exc
    if not ladder:
        raise argparse.ArgumentTypeError("empty ladder")
    return ladder


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine-depth", type=int, default=DEFAULT_REFINE_DEPTH)
    p.add_argument(
        "--threads", type=int, default=None,
        help="worker processes for the replicates (default: the CPUs this process "
        "may run on, at most the replicates and as many as fit in memory)",
    )
    p.add_argument("--out", type=str, default=None)


def _add_weights(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stat", choices=STAT_CHOICES, default="approx1")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--d", type=float, default=64.0)
    p.add_argument("--side", choices=["left", "right"], default="left")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="empcouple")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("couple", help="dump one coupled path")
    p.add_argument("--m", type=int, default=256, help="path length (power of two)")
    _add_common(p)

    p = sub.add_parser("stats", help="one replicate of one statistic")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--rep", type=int, default=0)
    _add_weights(p)
    _add_common(p)

    p = sub.add_parser("mc", help="ladder experiment")
    p.add_argument("--n-ladder", type=_parse_ladder, default=(512, 1024, 2048, 4096, 8192))
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--json-out", type=str, default=None)
    _add_weights(p)
    _add_common(p)

    p = sub.add_parser("verify", help="exact-law verification suite")
    p.add_argument("--reps", type=int, default=100000)
    _add_common(p)

    p = sub.add_parser("censored", help="censored-statistic ladder experiment")
    p.add_argument("--c", dest="rate_c", type=float, default=1.0)
    p.add_argument("--xi", dest="xi_exp", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--n-ladder", type=_parse_ladder, default=(512, 1024, 2048, 4096, 8192))
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--json-out", type=str, default=None)
    _add_common(p)
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_couple(args) -> int:
    path = couple_exponential_sums(args.m, RngStream(args.seed))
    gap, at = max_discrepancy(path)
    lines = ["k,S_k,W_k"]
    for k in range(args.m + 1):
        lines.append(f"{k},{float(path.S[k])!r},{float(path.W[k])!r}")
    _emit("\n".join(lines) + "\n", args.out)
    sys.stderr.write(f"max |S_k - k - W(k)| = {gap:.6f} at k = {at}\n")
    return 0


def cmd_stats(args) -> int:
    cfg = WeightConfig(lam=args.lam, eta=args.eta, nu=args.nu, t=args.t)
    req = StatRequest(
        name=args.stat, statistic=args.stat, weights=cfg, d=args.d, side=args.side
    )
    row = evaluate_requests([req], args.seed, args.n, args.rep, args.refine_depth)[0]
    doc = dataclasses.asdict(row)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _run_and_report(args, requests: list[StatRequest], extra=dict) -> int:
    """Run ``requests`` over the ladder; write the CSV rows and the JSON summary.

    The run is checked, and its worker count taken, by ``check_run``; the
    JSON ``config.threads`` is that count.  ``extra()`` gives further
    top-level JSON keys, once the ladder has run.
    """
    _, _, workers = check_run(
        requests, args.n_ladder, args.reps, args.threads, args.refine_depth
    )
    rows = run_requests(
        requests,
        args.n_ladder,
        args.reps,
        args.seed,
        threads=workers,
        refine_depth=args.refine_depth,
    )
    if args.out is not None:
        write_csv(rows, args.out)
    config = {
        "requests": [dataclasses.asdict(req) for req in requests],
        "n_ladder": list(args.n_ladder),
        "reps": args.reps,
        "seed": args.seed,
        "threads": workers,
        "refine_depth": args.refine_depth,
    }
    _emit(report_to_json(summarize(rows), config=config, **extra()), args.json_out)
    return 0


def cmd_mc(args) -> int:
    weights = WeightConfig(lam=args.lam, eta=args.eta, nu=args.nu, t=args.t)
    req = StatRequest(args.stat, args.stat, weights, d=args.d, side=args.side)
    return _run_and_report(args, [req])


def cmd_verify(args) -> int:
    reports = verify_exact_laws(args.seed, args.reps)
    doc = {r.name: {"passed": r.passed, **r.details} for r in reports}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if all(r.passed for r in reports) else 2


def _identity_checks(args, model: CensoringModel) -> dict:
    """Identity checks on one freshly generated replicate per ladder size."""
    identity = {}
    for n in args.n_ladder:
        sample = generate(model, n, derive_stream(args.seed, n, 0, "identity"))
        grid = default_check_grid(sample, model)
        checks = representation_check(sample, model, grid) + survival_representation_check(
            sample, model, grid
        )
        identity[str(n)] = {
            c.name: {"passed": c.passed, "n_failures": c.n_failures} for c in checks
        }
    return identity


def cmd_censored(args) -> int:
    weights = WeightConfig(lam=args.lam)
    requests = [
        StatRequest(
            name=stat, statistic=stat, weights=weights,
            rate_c=args.rate_c, xi_exp=args.xi_exp,
        )
        for stat in ("cens-h0", "cens-h1")
    ]
    model = CensoringModel(args.rate_c)
    return _run_and_report(args, requests, lambda: {
        "identity_checks": _identity_checks(args, model),
        "model": {"rate_c": args.rate_c, "theta": model.theta, "xi_exp": args.xi_exp},
    })


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    handlers = {
        "couple": cmd_couple,
        "stats": cmd_stats,
        "mc": cmd_mc,
        "verify": cmd_verify,
        "censored": cmd_censored,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
