"""The benchmark's workloads: inputs made from the seed, the timed work, the checks.

One round of a workload is its fixed work, done once.  A run repeats rounds
on the same inputs, so every round attempts the same operations and every
round's output must be the same bytes.  An operation is one (n, rep)
replicate, or one solve of the endpoint probe.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys

import numpy as np

import empcouple as ec
from empcouple import harness

import bench_checks as bc
import bench_trace as bt

DEPTH = 6
CENSORED_C, CENSORED_XI, CENSORED_LAM = 1.0, 0.1, 1.0


def censored_requests() -> list:
    weights = ec.WeightConfig(lam=CENSORED_LAM)
    return [
        ec.StatRequest(s, s, weights, rate_c=CENSORED_C, xi_exp=CENSORED_XI)
        for s in ("cens-h0", "cens-h1")
    ]


def replicate_bundles(requests, seed: int, n: int, rep: int) -> dict:
    """The bundles a replicate's statistics are evaluated on, keyed by anchor."""
    out = {}
    for req in requests:
        anchor = bt.anchor_of(req)
        if anchor not in out:
            out[anchor] = (
                ec.build_bundle(seed, n, rep, req.weights.t, DEPTH)
                if anchor is None
                else ec.build_anchored_bundle(seed, n, rep, anchor, DEPTH)
            )
    return out


def check_rows(requests, rows, seed: int, bundles_in_run: int) -> tuple[set, list]:
    """Failed replicates, with notes: sups that miss their integrand, non-uniform samples."""
    by_name = {req.name: req for req in requests}
    by_rep: dict = {}
    for row in rows:
        by_rep.setdefault((row.n, row.rep), []).append(row)
    failed, notes = set(), []
    for (n, rep), rep_rows in sorted(by_rep.items()):
        rng = np.random.default_rng([seed & (2**63 - 1), n, rep])
        bundles = replicate_bundles(requests, seed, n, rep)
        found = []
        for bundle in bundles.values():
            found += bc.uniform_problems(bundle, bundles_in_run)
        for row in rep_rows:
            req = by_name[row.statistic]
            found += bc.sup_problems(req, bundles[bt.anchor_of(req)], row.value, row.arg_s, rng)
        if found:
            failed.add((n, rep))
            notes += [f"rep {rep}: {p}" for p in found]
    return failed, notes


def _span(tracer):
    return tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())


def _instrumented(tracer):
    return bt.instrumented(tracer) if tracer is not None else contextlib.nullcontext()


class Workload:
    ops = 0  # replicates attempted per round

    def __init__(self, seed: int, root, out_dir):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir

    def work(self, tracer=None):
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, out) -> tuple[set, list, list]:
        """(operations that failed a check, notes on them, problems of the whole run).

        A failed operation counts in ``failed``; a problem makes the run incorrect.
        """
        raise NotImplementedError

    def probe(self) -> tuple[int, int, list]:
        """Untimed per-round probe: (solves attempted, solves failed, problems)."""
        return 0, 0, []

    def traced_extra(self, tracer, out) -> tuple[dict, list]:
        """Untimed traced work beyond the round: (metrics, problems)."""
        return {}, []

    def peak_rss_kb(self, out):
        """Peak RSS of the process that did the work, if not this one."""
        return None


class SweepLadder(Workload):
    """The 14 criterion-5 statistics over 512..8192, with the endpoint probe."""

    LADDER = (512, 1024, 2048, 4096, 8192)
    REPS = 2
    ops = len(LADDER) * REPS
    PROBE = dict(seed=5, n=64, reps=200, lam=1.2, t=0.3)

    def __init__(self, *args):
        super().__init__(*args)
        self.requests = ec.default_requests() + censored_requests()

    def work(self, tracer=None):
        span = _span(tracer)
        with _instrumented(tracer):
            rows = harness.run_requests(
                self.requests, self.LADDER, self.REPS, self.seed, threads=1, refine_depth=DEPTH
            )
            with span("harness.summarize"):
                report = harness.summarize(rows)
            with span("harness.verdicts"):
                verdicts = harness.tightness_verdicts(rows, self.requests)
            with span("harness.csv"):
                text = harness.rows_to_csv(rows)
        return {"rows": rows, "csv": text, "report": report, "verdicts": verdicts}

    def digest(self, out) -> str:
        return out["csv"] + repr(sorted(out["verdicts"].items())) + repr(out["report"].quantiles)

    def check(self, out):
        problems = []
        if len(out["rows"]) != len(self.requests) * self.ops:
            problems.append(f"{len(out['rows'])} rows for {len(self.requests)} x {self.ops}")
        if set(out["verdicts"]) != {r.name for r in self.requests}:
            problems.append(f"verdicts for {sorted(out['verdicts'])}")
        failed, notes = check_rows(self.requests, out["rows"], self.seed, 2 * self.ops)
        return failed, notes, problems

    def probe(self):
        """approx3/approx4 at a lambda and t whose lower endpoint no grid point hits.

        Every sup must dominate its integrand at the closed endpoint s = lo.
        """
        p = self.PROBE
        weights = ec.WeightConfig(lam=p["lam"], t=p["t"])
        reqs = [ec.StatRequest(s, s, weights) for s in ("approx3", "approx4")]
        lo = p["lam"] / p["n"]
        attempted, failed, problems = 0, 0, []
        for rep in range(p["reps"]):
            rows = harness.evaluate_requests(reqs, p["seed"], p["n"], rep, DEPTH)
            bundles = replicate_bundles(reqs, p["seed"], p["n"], rep)
            for req, row in zip(reqs, rows):
                attempted += 1
                at_lo = bc.integrand(req, bundles[bt.anchor_of(req)], np.asarray([lo]))[0]
                if not (at_lo <= row.value * (1 + bc.REL_TOL) and lo <= row.arg_s <= p["t"]):
                    failed += 1
                    problems.append(
                        f"probe {req.name} rep {rep}: integrand at lo {at_lo!r} > sup {row.value!r}"
                    )
        return attempted, failed, problems


class TailExceedance(Workload):
    """Exceedance of the unweighted tail sup at n = 4096 over three tail widths."""

    N = 4096
    D_GRID = (16.0, 64.0, 256.0)
    X_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    REPS = 300
    ops = REPS
    SUP_SAMPLE_EVERY = 10

    def work(self, tracer=None):
        span = _span(tracer)
        with _instrumented(tracer), span("harness.ineq1"):
            return harness.estimate_ineq1(self.N, self.D_GRID, self.X_GRID, self.REPS, self.seed)

    def digest(self, est) -> str:
        return repr((est.probs.tolist(), est.wilson_low.tolist(), est.wilson_high.tolist(),
                     est.c_hat, est.b_hat, est.fit_r2, est.fit_points))

    def check(self, est):
        problems = bc.law_shape_problems(est)
        failed, notes = set(), []
        for rep in range(self.REPS):
            rng = np.random.default_rng([self.seed & (2**63 - 1), rep])
            bundle = ec.build_bundle(self.seed, self.N, rep, 0.5, DEPTH)
            found = bc.uniform_problems(bundle, self.REPS)
            if rep % self.SUP_SAMPLE_EVERY == 0:
                for d in self.D_GRID:
                    req = ec.StatRequest(f"ineq1-tail-d{d:g}", "ineq1-tail", d=d)
                    res = ec.tail_sup_discrepancy(bundle, d, "left")
                    found += bc.sup_problems(req, bundle, res.value, res.arg_s, rng)
            if found:
                failed.add(rep)
                notes += [f"rep {rep}: {p}" for p in found]
        return failed, notes, problems


class LargeN(Workload):
    """approx1-3 on the lattice bundle and approx4 on the count-anchored one at n = 2^17."""

    N = 2**17
    REP = 0
    ops = 1

    def __init__(self, *args):
        super().__init__(*args)
        w = ec.WeightConfig(eta=0.25, nu=0.1)
        self.requests = [
            ec.StatRequest("approx1-eta0.25", "approx1", w),
            ec.StatRequest("approx2-nu0.1", "approx2", w),
            ec.StatRequest("approx3-eta0.25", "approx3", w),
            ec.StatRequest("approx4-nu0.1", "approx4", w),
        ]

    def work(self, tracer=None):
        with _instrumented(tracer):
            rows = harness.evaluate_requests(self.requests, self.seed, self.N, self.REP, DEPTH)
        return rows

    def digest(self, rows) -> str:
        return harness.rows_to_csv(rows)

    def check(self, rows):
        failed, notes = check_rows(self.requests, rows, self.seed, 2)
        return failed, notes, []


class CensoredCli(Workload):
    """``empcouple censored --threads 2`` as a subprocess over a ladder."""

    LADDER = (512, 1024, 2048, 4096)
    SUB_LADDER = (512, 1024)
    REPS = 32
    THREADS = 2
    ops = len(LADDER) * REPS

    def __init__(self, *args):
        super().__init__(*args)
        self.csv = self.out_dir / f"censored-{os.getpid()}.csv"
        self.json = self.out_dir / f"censored-{os.getpid()}.json"
        self.spans = self.out_dir / f"censored-{os.getpid()}-spans.json"
        self.argv = [
            "censored", "--c", repr(CENSORED_C), "--xi", repr(CENSORED_XI),
            "--lambda", repr(CENSORED_LAM), "--n-ladder", ",".join(map(str, self.LADDER)),
            "--reps", str(self.REPS), "--seed", str(self.seed), "--threads", str(self.THREADS),
            "--refine-depth", str(DEPTH), "--out", str(self.csv), "--json-out", str(self.json),
        ]
        self.requests = censored_requests()

    def _run(self, command):
        for path in (self.csv, self.json):
            path.unlink(missing_ok=True)
        proc = subprocess.Popen(command, cwd=self.root, env=child_env(self.root),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"rc": proc.returncode, "stderr": stderr.decode(errors="replace"),
               "maxrss_kb": usage.ru_maxrss, "csv": b"", "json": b""}
        if proc.returncode == 0:
            out["csv"] = self.csv.read_bytes()
            out["json"] = self.json.read_bytes()
        for path in (self.csv, self.json):
            path.unlink(missing_ok=True)
        return out

    def work(self, tracer=None):
        if tracer is None:
            return self._run([sys.executable, "-m", "empcouple.cli", *self.argv])
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
        out = self._run([sys.executable, script, str(self.spans), *self.argv])
        if out["rc"] == 0:
            with open(self.spans, encoding="utf-8") as fh:
                tracer.extend(json.load(fh))
        self.spans.unlink(missing_ok=True)
        return out

    def traced_extra(self, tracer, out):
        """The same ladder with 1 worker in this process, for the scaling base."""
        with bt.instrumented(tracer):
            rows = harness.run_requests(
                self.requests, self.LADDER, self.REPS, self.seed, threads=1, refine_depth=DEPTH
            )
        one = [s for s in tracer.spans if s["name"] == "harness.run_requests" and s["parent"] is None]
        two = [s for s in tracer.spans if s["name"] == "harness.run_requests" and s["parent"] is not None]
        t1 = one[-1]["end"] - one[-1]["start"]
        t2 = two[-1]["end"] - two[-1]["start"] if two else float("nan")
        problems = []
        if harness.rows_to_csv(rows).encode() != out["csv"]:
            problems.append("1-worker rows differ from the CLI's 2-worker CSV")
        return {
            "harness.ladder_1w_s": t1,
            "harness.ladder_2w_s": t2,
            "harness.scaling_efficiency": t1 / (self.THREADS * t2),
            "cli.output_bytes": len(out["csv"]) + len(out["json"]),
        }, problems

    def peak_rss_kb(self, out):
        return out["maxrss_kb"]

    def digest(self, out) -> str:
        return repr((out["rc"], out["csv"], out["json"]))

    def check(self, out):
        if out["rc"] != 0:
            return set(), [], [f"exit code {out['rc']}: {out['stderr'][-2000:]}"]
        problems = []
        doc = json.loads(out["json"])
        for n, checks in sorted(doc.get("identity_checks", {}).items()):
            for name, res in sorted(checks.items()):
                if not res.get("passed"):
                    problems.append(f"identity check {name} failed at n={n}: {res}")
        if sorted(doc.get("identity_checks", {})) != sorted(map(str, self.LADDER)):
            problems.append(f"identity checks for n in {sorted(doc.get('identity_checks', {}))}")
        lines = out["csv"].decode().splitlines()
        if len(lines) != 1 + len(self.requests) * self.ops:
            problems.append(f"{len(lines) - 1} CSV rows for {len(self.requests)} x {self.ops}")
        cli_rows = {tuple(line.split(",")[:3]): line for line in lines[1:]}
        ref = harness.run_requests(self.requests, self.SUB_LADDER, self.REPS, self.seed,
                                   threads=1, refine_depth=DEPTH)
        failed, notes = check_rows(self.requests, ref, self.seed, len(self.SUB_LADDER) * self.REPS)
        for line in harness.rows_to_csv(ref).splitlines()[1:]:
            stat, n, rep = line.split(",")[:3]
            if cli_rows.get((stat, n, rep)) != line:
                failed.add((int(n), int(rep)))
                notes.append(f"CLI row {cli_rows.get((stat, n, rep))!r} != 1-worker row {line!r}")
        return failed, notes, problems


def child_env(root) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update(THREAD_PINS)
    return env


THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

WORKLOADS = {
    "sweep-ladder": SweepLadder,
    "tail-exceedance": TailExceedance,
    "large-n": LargeN,
    "censored-cli-2w": CensoredCli,
}
