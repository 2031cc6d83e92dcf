"""Spans around calls into each layer, and the per-layer metrics derived from them.

Spans are recorded in the benchmark's own code, never inside the package:
the layers' public functions are wrapped at run time where another layer
reaches them through a module-level name, and restored afterwards.  One
exception keeps the package untouched: the harness evaluates statistics
through a private registry, so ``traced_evaluate`` makes the public calls
of ``evaluate_requests`` itself, in its order, and every traced run checks
that its rows are bit-identical to the untraced rows.

A span is (name, start, end, parent, replicate, counts).  Spans stay in
memory until the run ends; then ``run.py`` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import empcouple as ec
from empcouple import cli, coupling, harness, processes

STAT_FUNCS = {
    "approx1": ec.stat_quantile_full,
    "approx2": ec.stat_empirical_full,
    "approx3": ec.stat_quantile_increment,
    "approx4": ec.stat_empirical_increment,
    "restricted": ec.stat_restricted,
}
CENSORED = ("cens-h0", "cens-h1")
COUPLING_SPANS = ("coupling.couple", "coupling.freeze")


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, replicate: str | None = None, **counts):
        parent = self._open[-1] if self._open else None
        if replicate is None and parent is not None:
            replicate = self.spans[parent]["replicate"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "replicate": replicate, "counts": dict(counts)}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def open_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]]["name"] if self._open else None

    def extend(self, spans: list[dict]) -> None:
        """Adopt spans recorded elsewhere (a traced child process)."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec)
            if rec["parent"] is not None:
                rec["parent"] += base
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# -- wrapping ------------------------------------------------------------------


@contextlib.contextmanager
def _patched(patches):
    """For each (owner, name, make) whose name exists, set it to make(original).

    The originals come back on exit.  A name a later version no longer has is
    left alone, and the metrics of its span read 0.
    """
    saved = []
    try:
        for owner, name, make in patches:
            if name in vars(owner):
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _fine_values(m: int, depth: int) -> int:
    return (m << depth) + 1


def _bundle_bytes(bundle) -> int:
    """Computed bytes of the arrays a bundle holds, frozen paths included."""
    if isinstance(bundle, processes.AnchoredBundle):
        return bundle.U.nbytes + _bundle_bytes(bundle.below) + _bundle_bytes(bundle.above)
    total = bundle.Y.nbytes + bundle.S.nbytes + bundle.U.nbytes
    for path in (bundle.path1, bundle.path2):
        if path is not None:
            total += path.S.nbytes + path.W.nbytes
            total += 8 * _fine_values(path.m, path.refinement_depth)
    return total


def anchor_of(req):
    """The count-anchored bundle's anchor for a request; None for the lattice bundle."""
    if req.statistic in CENSORED:
        return ec.CensoringModel(req.rate_c).theta
    if req.statistic in ("approx4", "restricted"):
        return req.weights.t
    return None


def traced_evaluate(tracer: Tracer, requests, seed, n, rep, depth=ec.DEFAULT_REFINE_DEPTH, *_):
    """``evaluate_requests`` made of its public calls, each inside a span."""
    rows = []
    with tracer.span("harness.replicate", replicate=f"{seed}:{n}:{rep}", n=n):
        bundles: dict = {}
        censored: dict = {}
        for req in requests:
            anchor = anchor_of(req)
            if anchor not in bundles:
                if anchor is None:
                    bundle = ec.build_bundle(seed, n, rep, req.weights.t, depth)
                else:
                    bundle = ec.build_anchored_bundle(seed, n, rep, anchor, depth)
                with tracer.span("trace.bookkeeping"):
                    bundles[anchor] = (bundle, bundle.jump_grid().size)
            bundle, grid = bundles[anchor]
            if req.statistic in CENSORED:
                key = (req.rate_c, req.xi_exp, req.weights.lam)
                if key not in censored:
                    model = ec.CensoringModel(req.rate_c)
                    with tracer.span("censored.sample") as c:
                        sample = ec.sample_from_bundle(
                            model, bundle, ec.derive_stream(seed, n, rep, "shuffle")
                        )
                        c["redraws"] = sample.redraws
                    with tracer.span("censored.solve") as c:
                        censored[key] = ec.censored_weighted_stats(
                            sample, model, bundle, req.xi_exp, req.weights.lam
                        )
                        c["evals"] = sum(r.grid_points for r in censored[key].values())
                        c["grid_built"] = grid * len(censored[key])
                res = censored[key][req.statistic]
            else:
                with tracer.span(f"supstats.{req.statistic}") as c:
                    if req.statistic == "ineq1-tail":
                        res = ec.tail_sup_discrepancy(bundle, req.d, req.side)
                    else:
                        res = STAT_FUNCS[req.statistic](bundle, req.weights)
                    c["evals"] = res.grid_points
                    c["grid_built"] = grid
            rows.append(ec.ResultRow(req.name, n, rep, res.value, res.arg_s, seed))
    return rows


def _span_around(tracer, name, after=None):
    """make(original) for ``_patched``: call original inside a span named name."""

    def make(fn):
        def wrapped(*args, **kwargs):
            with tracer.span(name) as counts:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(counts, out)
                return out

        return wrapped

    return make


def _count_clamps(counts, path):
    counts["summands"] = path.m
    counts["clamps"] = path.clamp_count


def _count_bytes(counts, bundle):
    counts["bytes"] = _bundle_bytes(bundle)


def _count_redraws(counts, sample):
    counts["redraws"] = sample.redraws


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Spans around the coupling, bundle, evaluation and ladder layers."""

    def traced_freeze(freeze):
        def wrapped(path, depth):
            before = path.refinement_depth
            with tracer.span("coupling.freeze") as c:
                freeze(path, depth)
                new = _fine_values(path.m, path.refinement_depth)
                if before:
                    new -= _fine_values(path.m, before)
                c["grid_values"] = new
                c["bytes"] = 8 * new

        return wrapped

    def traced_lattice(build):
        # A lattice bundle built inside a count-anchored build is one of its
        # blocks: its self time belongs to the anchored build.
        top = _span_around(tracer, "processes.lattice_build", _count_bytes)(build.__func__)
        block = _span_around(tracer, "processes.block_build", _count_bytes)(build.__func__)

        def wrapped(cls, *args, **kwargs):
            inside = tracer.open_name() == "processes.anchored_build"
            return (block if inside else top)(cls, *args, **kwargs)

        return classmethod(wrapped)

    def traced_anchored(build):
        return classmethod(
            _span_around(tracer, "processes.anchored_build", _count_bytes)(build.__func__)
        )

    patches = [
        (processes, "couple_exponential_sums", _span_around(tracer, "coupling.couple", _count_clamps)),
        (coupling.CoupledPath, "freeze", traced_freeze),
        (processes.ProcessBundle, "build", traced_lattice),
        (processes.AnchoredBundle, "build", traced_anchored),
        (harness, "evaluate_requests", lambda _: lambda *a: traced_evaluate(tracer, *a)),
        (harness, "run_requests", _span_around(tracer, "harness.run_requests")),
    ]
    with _patched(patches):
        yield


@contextlib.contextmanager
def instrumented_cli(tracer: Tracer):
    """Spans around the names the command-line front end calls into."""
    patches = [
        (cli, "run_requests", _span_around(tracer, "harness.run_requests")),
        (cli, "summarize", _span_around(tracer, "harness.summarize")),
        (cli, "generate", _span_around(tracer, "censored.identity", _count_redraws)),
    ]
    for name in ("default_check_grid", "representation_check", "survival_representation_check"):
        patches.append((cli, name, _span_around(tracer, "censored.identity")))
    with _patched(patches):
        yield


# -- per-layer metrics ---------------------------------------------------------

LAYER_METRICS = {
    # name: (unit, better)
    "coupling.couple.busy_s": ("s", "lower"),
    "coupling.couple.summands": ("count", "lower"),
    "coupling.freeze.busy_s": ("s", "lower"),
    "coupling.freeze.grid_values": ("count", "lower"),
    "coupling.freeze.bytes": ("bytes", "lower"),
    "coupling.clamps": ("count", "lower"),
    "processes.lattice_build.busy_s": ("s", "lower"),
    "processes.anchored_build.busy_s": ("s", "lower"),
    "processes.bundles": ("count", "lower"),
    "processes.bundle.bytes": ("bytes", "lower"),
    "supstats.approx1.busy_s": ("s", "lower"),
    "supstats.approx2.busy_s": ("s", "lower"),
    "supstats.approx3.busy_s": ("s", "lower"),
    "supstats.approx4.busy_s": ("s", "lower"),
    "supstats.restricted.busy_s": ("s", "lower"),
    "supstats.ineq1-tail.busy_s": ("s", "lower"),
    "supstats.evals": ("count", "lower"),
    "supstats.evals_per_s": ("1/s", "higher"),
    "supstats.grid_kept_ratio": ("ratio", "higher"),
    "supstats.grid_built": ("count", "lower"),
    "censored.sample.busy_s": ("s", "lower"),
    "censored.solve.busy_s": ("s", "lower"),
    "censored.identity.busy_s": ("s", "lower"),
    "censored.redraws": ("count", "lower"),
    "harness.replicate_ms_p50": ("ms", "lower"),
    "harness.replicate_ms_p90": ("ms", "lower"),
    "harness.evaluate.self_s": ("s", "lower"),
    "harness.summarize.busy_s": ("s", "lower"),
    "harness.verdicts.busy_s": ("s", "lower"),
    "harness.csv.busy_s": ("s", "lower"),
    "harness.ineq1_fit.busy_s": ("s", "lower"),
    "harness.tasks": ("count", "lower"),
    "harness.scaling_efficiency": ("ratio", "higher"),
    "harness.ladder_1w_s": ("s", "lower"),
    "harness.ladder_2w_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Replicates at the largest n needed before a p90 is more than a maximum.
P90_MIN_REPLICATES = 100


def _duration(rec) -> float:
    return rec["end"] - rec["start"]


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round's spans (busy times in seconds)."""
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(i)

    def descendants(i):
        for j in children.get(i, []):
            yield j
            yield from descendants(j)

    def coupling_free(i):
        return _duration(spans[i]) - sum(
            _duration(spans[j]) for j in descendants(i) if spans[j]["name"] in COUPLING_SPANS
        )

    m = {name: 0.0 for name in LAYER_METRICS}
    evals = grid = solve_s = 0.0
    for i, rec in enumerate(spans):
        name, c, dur = rec["name"], rec["counts"], _duration(rec)
        if name == "coupling.couple":
            m["coupling.couple.busy_s"] += dur
            m["coupling.couple.summands"] += c["summands"]
            m["coupling.clamps"] += c["clamps"]
        elif name == "coupling.freeze":
            m["coupling.freeze.busy_s"] += dur
            m["coupling.freeze.grid_values"] += c["grid_values"]
            m["coupling.freeze.bytes"] += c["bytes"]
        elif name in ("processes.lattice_build", "processes.anchored_build"):
            m[f"{name}.busy_s"] += coupling_free(i)
            m["processes.bundles"] += 1
            m["processes.bundle.bytes"] += c["bytes"]
        elif name.startswith("supstats.") or name == "censored.solve":
            evals += c["evals"]
            grid += c["grid_built"]
            solve_s += dur
            m[f"{name}.busy_s"] += dur
        elif name in ("censored.sample", "censored.identity"):
            m[f"{name}.busy_s"] += dur
            m["censored.redraws"] += c.get("redraws", 0)
        elif name == "harness.replicate":
            m["harness.tasks"] += 1
            m["harness.evaluate.self_s"] += dur - sum(_duration(spans[j]) for j in children.get(i, []))
        elif name in ("harness.summarize", "harness.verdicts", "harness.csv"):
            m[f"{name}.busy_s"] += dur
        elif name == "harness.ineq1":
            m["harness.ineq1_fit.busy_s"] += dur - sum(_duration(spans[j]) for j in children.get(i, []))
        elif name == "cli.main":
            m["cli.self_s"] += dur - sum(_duration(spans[j]) for j in children.get(i, []))
    m["supstats.evals"] = evals
    m["supstats.grid_built"] = grid
    m["supstats.evals_per_s"] = evals / solve_s if solve_s else 0.0
    # Both one-sided limits could be taken at every jump-grid point built.
    m["supstats.grid_kept_ratio"] = evals / (2 * grid) if grid else 0.0
    return m


def replicate_percentiles(spans: list[dict], rounds: int) -> dict[str, float]:
    """p50 (and p90 with enough replicates per round) of replicate time at the largest n, in ms."""
    reps = [s for s in spans if s["name"] == "harness.replicate"]
    if not reps:
        return {"harness.replicate_ms_p50": 0.0, "harness.replicate_ms_p90": 0.0}
    top = max(s["counts"]["n"] for s in reps)
    ms = [1000 * _duration(s) for s in reps if s["counts"]["n"] == top]
    out = {"harness.replicate_ms_p50": statistics.median(ms), "harness.replicate_ms_p90": 0.0}
    if len(ms) >= P90_MIN_REPLICATES * rounds:
        out["harness.replicate_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return out
