"""Per-solve dump of the sup engine, to compare two versions of it byte for byte.

For every problem builder on both bundle kinds, both tail sides and the
censored problems (on the lattice bundle and on a count-anchored one at
theta), at n in {3, 64, 100, 513, 2048, 8193, 20000}, depth in {0, 3, 6, 8}
and (lam, t) in {(1, 1/2), (1.3, 0.37), (1.7, 0.75)}, it solves each problem
with the weights x = 0, 0.25 and 0.45 of its kind and prints one line per
result, ``value arg_s side grid_points`` (floats as ``repr``), or one
``error`` line where the domain is empty.  The last line is the sha256 of
the lines before it, with their count.

Usage, with the package to dump on the path:

    PYTHONPATH=src python tests/solve_dump.py [--bound-all] [--sub-block N] [--block-points N]
        [--pair-threads-all]

``--bound-all`` sets ``_BOUND_CELLS`` to 0, so that every stretch is
bounded, ``--sub-block N`` sets the grid cells per sub-block
(``_SUB_BLOCK``), ``--block-points N`` the grid run points per block
(``_BLOCK_POINTS``), so that the best limits are carried across many
blocks, and ``--pair-threads-all`` sets ``_PAIR_THREADS`` to 0, so that
every bundle couples and refines its two paths on two threads where the
process has two cores.  To compare two checkouts, run it once with each
checkout's ``src`` on the path and compare the outputs byte for byte.  The
file is no test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools

import numpy as np

from empcouple import processes, supstats
from empcouple.censored import CensoringModel, problem_censored_part
from empcouple.processes import AnchoredBundle, ProcessBundle
from empcouple.rng import derive_stream
from empcouple.supstats import (
    WeightConfig,
    power_weight,
    problem_empirical_full,
    problem_empirical_increment,
    problem_quantile_full,
    problem_quantile_increment,
    problem_restricted,
    problem_tail,
)

SEED = 4
SIZES = (3, 64, 100, 513, 2048, 8193, 20000)
DEPTHS = (0, 3, 6, 8)
LAM_T = ((1.0, 0.5), (1.3, 0.37), (1.7, 0.75))
WEIGHT_X = (0.0, 0.25, 0.45)
BUILDERS = (
    problem_quantile_full,
    problem_empirical_full,
    problem_quantile_increment,
    problem_empirical_increment,
    problem_restricted,
)


def _problems(lam: float, t: float, n: int, depth: int):
    """Callables that build each problem of one grid point, in a fixed order."""
    cfg = WeightConfig(lam=lam, eta=0.25, nu=0.1, t=t)
    lattice = ProcessBundle.build(
        n, derive_stream(SEED, n, 0, "path1"), derive_stream(SEED, n, 0, "path2"), t=t, depth=depth
    )
    anchored = AnchoredBundle.build(n, derive_stream(SEED, n, 0, "anchored"), t=t, depth=depth)
    for b in (lattice, anchored):
        for builder in BUILDERS:
            yield b, lambda b=b, builder=builder: builder(b, cfg)
        for side in ("left", "right"):
            yield b, lambda b=b, side=side: problem_tail(b, 16.0, side)
    model = CensoringModel(1.5)
    at_theta = AnchoredBundle.build(
        n, derive_stream(SEED, n, 0, "anchored"), t=model.theta, depth=depth
    )
    for b in (lattice, at_theta):
        for i in (0, 1):
            yield b, lambda b=b, i=i: _censored_pair(b, model, lam)[i]


def _censored_pair(b, model: CensoringModel, lam: float) -> tuple:
    """The problems 'cens-h0' and 'cens-h1' at xi = 0.1, built together:
    where either domain is empty, both lines print ``error``."""
    return (
        problem_censored_part(b, model, 0.1, lam),
        problem_empirical_increment(b, WeightConfig(lam=lam, nu=0.1, t=model.theta)),
    )


def lines():
    """One line per result, or per empty domain, over the whole grid."""
    for (lam, t), n, depth in itertools.product(LAM_T, SIZES, DEPTHS):
        for b, build in _problems(lam, t, n, depth):
            try:
                prob = build()
            except ValueError:
                yield "error"
                continue
            weights = [power_weight(n, x, prob.weight_kind) for x in WEIGHT_X]
            with np.errstate(divide="ignore", invalid="ignore"):
                for r in supstats.solve_weights(b, prob, weights):
                    yield f"{r.value!r} {r.arg_s!r} {r.side} {r.grid_points}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound-all", action="store_true", help="bound every stretch")
    parser.add_argument("--sub-block", type=int, help="grid cells per sub-block")
    parser.add_argument("--block-points", type=int, help="grid run points per block")
    parser.add_argument(
        "--pair-threads-all", action="store_true", help="pair every bundle's paths on two threads"
    )
    args = parser.parse_args()
    if args.bound_all:
        supstats._BOUND_CELLS = 0
    if args.sub_block is not None:
        processes._SUB_BLOCK = args.sub_block
    if args.block_points is not None:
        supstats._BLOCK_POINTS = args.block_points
    if args.pair_threads_all:
        processes._PAIR_THREADS = 0
    digest, count = hashlib.sha256(), 0
    for line in lines():
        print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"sha256 {digest.hexdigest()} over {count} lines")


if __name__ == "__main__":
    main()
