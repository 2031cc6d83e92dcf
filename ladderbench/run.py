"""Ladder benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 ladderbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src``; without it the run
fails.  A run sets up several times (a fresh interpreter importing the
package and running one tiny replicate) and reports the median as
``setup_s``.  It then repeats rounds of the workload's fixed work on the
inputs made from ``--seed`` until ``--seconds`` have passed, checks the
outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds.  With ``--trace 1`` untraced and traced rounds alternate; the
metrics are the per-layer ones from the traced rounds' spans, and the
spans are written to ``.ladderbench-out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median as med  # noqa: E402

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sweep-ladder", "tail-exceedance", "large-n", "censored-cli-2w")
OUT_DIR = ".ladderbench-out"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(root: Path, env: dict) -> list[dict]:
    """Time SETUP_REPEATS fresh set-ups: interpreter, import, one tiny replicate."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(probe)], cwd=root, env=env,
                              capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t0
        out.append({"setup_s": wall, **json.loads(done.stdout.splitlines()[-1])})
    return out


def run_rounds(wl, seconds: float, trace: bool, bt):
    """Rounds of the workload until `seconds` have passed; traced ones alternate."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        tracer = bt.Tracer() if traced else None
        cpu0, t0 = _cpu_s(), time.perf_counter()
        out = wl.work(tracer)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        rec = {"traced": traced, "wall": wall, "cpu": cpu, "out": out,
               "digest": wl.digest(out), "rss_kb": wl.peak_rss_kb(out), "problems": []}
        if traced:
            extra, rec["problems"] = wl.traced_extra(tracer, out)
            rec["layers"] = {**bt.round_metrics(tracer.spans), **extra}
            rec["spans"] = tracer.spans
        rec["probe"] = wl.probe()
        rounds.append(rec)
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "empcouple" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'empcouple'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import empcouple

    if Path(empcouple.__file__).resolve().parent != (src / "empcouple").resolve():
        print(f"error: empcouple imported from {empcouple.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench_trace as bt
    import bench_workloads as bw

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    setups = measure_setup(root, bw.child_env(root))

    wl = bw.WORKLOADS[args.workload](args.seed, root, out_dir)
    rounds = run_rounds(wl, args.seconds, bool(args.trace), bt)
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("outputs differ between rounds on the same inputs")
    failed_ops, notes, run_problems = wl.check(rounds[0]["out"])
    problems += run_problems
    probe_notes = rounds[0]["probe"][2]
    for note in (notes + probe_notes)[:20] + problems:
        print(note, file=sys.stderr)
    attempted = sum(wl.ops + r["probe"][0] for r in rounds)
    failed = sum(len(failed_ops) + r["probe"][1] for r in rounds)

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        layers = {name: med([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        layers.update(bt.replicate_percentiles([s for r in traced for s in r["spans"]], len(traced)))
        layers["setup.import_s"] = med([s["import_s"] for s in setups])
        layers["setup.warmup_s"] = med([s["warmup_s"] for s in setups])
        # The first round runs cold; leave it out of the comparison when another is left.
        plain = plain[1:] or plain
        layers["trace.overhead_s"] = med([r["wall"] for r in traced]) - med([r["wall"] for r in plain])
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, (unit, _) in bt.LAYER_METRICS.items()}
        spans = [dict(s, round=i) for i, r in enumerate(rounds) if r["traced"] for s in r["spans"]]
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(spans, fh)
    else:
        peaks = [r["rss_kb"] for r in rounds if r["rss_kb"] is not None]
        metrics = {
            "wall_s": {"value": med([r["wall"] for r in rounds]), "unit": "s"},
            "cpu_s": {"value": med([r["cpu"] for r in rounds]), "unit": "s"},
            "peak_rss_mb": {"value": (max(peaks) if peaks else own_peak_kb) / 1024, "unit": "MB"},
            "setup_s": {"value": med([s["setup_s"] for s in setups]), "unit": "s"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
