"""Seeded benchmark of it2mabac: three closed-loop workloads, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 40 --trace 0

Each workload runs in its own process: one client, one thread, the next op
starting when the previous one returns. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs every op twice on the same input, untraced and
then through call-site wrappers, and prints the per-layer metrics. Every
op's output is compared with the references in ``perfbench/reference/``.
The last line of standard output is one JSON object; the lines before it
are a readable report. Results and span dumps go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import calibrate
import gate
import gen
import spans
import workloads
from checkout import BENCH_DIR, OUT, ROOT, SRC, import_package

#: Import-time samples per run: one every run_seconds / SETUP_SAMPLES, at least the minimum.
SETUP_SAMPLES = 24
SETUP_MIN_SAMPLES = 5

CALIBRATION_INTERVAL_S = 0.25

#: Counts are totals over the first COUNT_OPS[workload] traced ops, so they
#: repeat exactly for a seed however many ops the time allows.
COUNT_OPS = {"cli-small": 120, "scale-bonferroni": 2, "sweep-geomean": 3}

SELF_TIMES = {
    "problem.parse_problem_s": "problem.parse_problem",
    "problem.run_self_s": "problem.run",
    "aggregation.average_weights_s": "aggregation.average_weights",
    "aggregation.average_ratings_s": "aggregation.average_ratings",
    "pipeline.normalize_s": "pipeline.normalize",
    "pipeline.weight_s": "pipeline.weight",
    "pipeline.baa_s": "pipeline.baa",
    "pipeline.crisp_matrices_s": "pipeline.crisp_matrices",
    "pipeline.classify_and_score_s": "pipeline.classify_and_score",
}

#: Layers only some workloads call; reported in the text lines, not gated.
WORKLOAD_SELF_TIMES = {
    "cli.main_self_s": "cli.main",
    "render.render_text_s": "render.render_text",
    "render.render_machine_s": "render.render_machine",
    "render.render_section_s": "render.render_section",
    "render.render_section_machine_s": "render.render_section_machine",
}

COUNTS = (
    "problem.doc_bytes", "problem.entries_resolved", "aggregation.bonferroni_pair_terms",
    "pipeline.normalize_calls", "render.bytes_out", "cli.exit_1", "cli.exit_2", "cli.uncaught",
)

STEPS_1_4 = ("aggregation.average_weights", "aggregation.average_ratings",
             "pipeline.normalize", "pipeline.weight")


@dataclass
class LoopResult:
    durations: list[float] = field(default_factory=list)  # measured, per op
    factors: list[float] = field(default_factory=list)  # speed normalization, per op
    cells: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def normalized(self) -> list[float]:
        return [d * f for d, f in zip(self.durations, self.factors)]


class Speed:
    """The latest calibration, re-measured when older than CALIBRATION_INTERVAL_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._at = -math.inf

    def kernel_s(self) -> float:
        if perf_counter() - self._at >= CALIBRATION_INTERVAL_S:
            self.samples.append(calibrate.measure())
            self._at = perf_counter()
        return self.samples[-1]


def _factor(before: float, after: float) -> float:
    """Speed normalization of an op bracketed by two calibrations."""
    return 2 * calibrate.REFERENCE_S / (before + after)


def _one_op(workload, prep, n: int, res: LoopResult, tracer=None, first_op=None) -> None:
    outcome, error = None, None
    if tracer is not None:
        tracer.op = n
    with tracer.span("op") if tracer is not None else nullcontext() as root:
        start = perf_counter()
        try:
            outcome = workload.execute(prep, tracer)
        except Exception as exc:  # a failed op is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        res.durations.append(perf_counter() - start)
        if root is not None and outcome is not None:
            root.counts["render.bytes_out"] = outcome.bytes_out
    try:
        problems = [error] if error else workload.check(prep, outcome)
        if first_op is not None and not error:
            problems += first_op(outcome)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        res.failed += 1
        res.problems += [f"op {n}: {p}" for p in problems[:3]]
    else:
        res.cells += outcome.cells


def run_loop(workload, seconds: float, speed: Speed, first_op=None, tracer=None, min_ops: int = 0,
             between=None):
    """Closed loop: run ops while the next one fits in ``seconds``, and at least ``min_ops``.

    With a tracer, every op runs twice on the same input, untraced and
    traced in alternating order, and the loop returns both results;
    otherwise it returns one.
    ``between`` is called after each op, outside the timed region.
    """
    plain, traced = LoopResult(), LoopResult()
    deadline = perf_counter() + seconds
    n, last = 0, 0.0
    while n < min_ops or perf_counter() + last < deadline:
        started = perf_counter()
        prep = workload.prepare(n)
        runs = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        if n % 2:
            runs.reverse()  # the second run of an input finds the allocator warm
        for res, active in runs:
            before = speed.kernel_s()
            with active.patched() if active is not None else nullcontext():
                check_first = first_op if n == 0 and active is None else None
                _one_op(workload, prep, n, res, active, check_first)
            res.factors.append(_factor(before, speed.kernel_s()))
        if between is not None:
            between()
        last = perf_counter() - started
        n += 1
    return (plain, traced) if tracer is not None else plain


class SetupSampler:
    """Import time of a module in fresh interpreters, sampled every ``interval`` seconds.

    Samples are spread over the whole run, between ops, so that one slow
    moment of a shared machine does not decide the median. Each child times
    the import, then calibrates; the first import, which may compile
    bytecode, is dropped.
    """

    def __init__(self, module: str, interval: float) -> None:
        self.code = (
            "import sys, time\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "t = time.perf_counter()\n"
            f"import {module}\n"
            "t = time.perf_counter() - t\n"
            "import calibrate\n"
            "print(t, calibrate.measure())\n"
        )
        self.module = module
        self.interval = interval
        self.raw: list[float] = []
        self.normalized: list[float] = []
        self._spawn()
        self.due = perf_counter()

    def _spawn(self) -> tuple[float, float]:
        proc = subprocess.run(
            [sys.executable, "-c", self.code, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing {self.module} failed:\n{proc.stderr}")
        seconds, kernel = map(float, proc.stdout.split())
        return seconds, seconds * calibrate.REFERENCE_S / kernel

    def sample(self) -> None:
        raw, normalized = self._spawn()
        self.raw.append(raw)
        self.normalized.append(normalized)

    def __call__(self) -> None:
        if perf_counter() >= self.due:
            self.sample()
            self.due = perf_counter() + self.interval

    def finish(self) -> None:
        while len(self.raw) < SETUP_MIN_SAMPLES:
            self.sample()


def _sampled(seed: int, label: str, n: int) -> int:
    return gen.pick(random.Random(f"{label}:{seed}"), n)


def run_checks(workload, seed: int, workdir) -> tuple[list[str], list[str]]:
    """Once-per-run checks outside the timed region: (problems, known defects seen)."""
    import it2mabac
    import it2mabac.cli
    from it2mabac.problem import PipelineParams

    problems = workloads.verify_templates(workload.name, workload.reference)
    ranking = it2mabac.run(it2mabac.load_example_problem()).ranking()
    if ranking != ["A2", "A3", "A1"]:
        problems.append(f"bundled example ranks {' > '.join(ranking)}, expected A2 > A3 > A1")

    index = _sampled(seed, "oracle-template", gen.TEMPLATE_COUNTS["cli-small"])
    inst = gen.instance(gen.template("cli-small", index), index, random.Random(f"oracle:{seed}"))
    trace = it2mabac.run(it2mabac.parse_problem(gen.emit(inst.doc)), PipelineParams(r=2.0, s=1.0))
    j = _sampled(seed, "oracle-criterion", len(trace.baa))
    problems += gate.check_baa(trace.weighted, trace.baa, j, "bonferroni", 2.0, 1.0)

    defects = []
    path = workdir / "reproducer.problem"
    example = it2mabac.example_problem_text()
    for name, data in gen.reproducers(example).items():
        if data == example.encode():
            problems.append(f"reproducer {name}: the bundled example lacks the text it edits")
            continue
        path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = it2mabac.cli.main(["solve", str(path)])
            except Exception as exc:
                code = f"uncaught {type(exc).__name__}"
        if code != 1 or not err.getvalue().startswith("validation error: "):
            defects.append(f"{name} (exit {code})")
    return problems, defects


def oracle_on_first_op(workload, seed: int):
    """Check the BAA of one sampled criterion of op 0 against the fsum-of-logs oracle."""
    def check(outcome) -> list[str]:
        trace, operator = workload.oracle_trace(outcome)
        j = _sampled(seed, "oracle-criterion", len(trace.baa))
        return gate.check_baa(trace.weighted, trace.baa, j, operator, trace.params.r, trace.params.s)

    return check if hasattr(workload, "oracle_trace") else None


def p50(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order statistics.

    At the 15-40 samples a 40 s run gives for 1-2 s ops it varies less from
    run to run than the sample median; for large samples the two agree. The
    weights are Beta((n+1)/2, (n+1)/2) masses of the n equal slices of [0, 1].
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 16  # midpoint rule per slice
    h = 1 / (n * steps)
    weights = [
        h * sum(math.exp((a - 1) * math.log(t * (1 - t)) - log_norm)
                for t in ((i * steps + k + 0.5) * h for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(durations: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) for the highest listed percentile with >= 10 beyond."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(math.ceil(n * pct / 100), 1)  # nearest rank
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def span_trees(recorded) -> list[str]:
    """Span trees of op 0 and of the first op that renders one machine section."""
    ops = [0]
    sections = [s.op for s in recorded if s.name == "render.render_section_machine"]
    if sections and sections[0] != 0:
        ops.append(sections[0])
    lines = []
    for op in ops:
        lines += [f"op {op}:"] + spans.tree(recorded, op)
    return lines


def environment() -> dict:
    import yaml

    try:
        numpy_version = importlib.metadata.version("numpy")  # not imported: it would add to RSS
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "yaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(tracer, untraced: LoopResult, traced: LoopResult, count_ops: int, defects: int):
    """Per-layer metrics of a traced run; times are speed-normalized medians per op."""
    rows = [
        {name: value * traced.factors[op] for name, value in row.items()}
        for op, row in spans.per_op(tracer.spans).items()
    ]

    def med(fn) -> float:
        return statistics.median(fn(row) for row in rows)

    def render_self(row) -> float:
        return sum(v for k, v in row.items() if k.startswith("render."))

    def share(part):
        return med(lambda row: part(row) / row[spans.OP_TOTAL]), "ratio"

    metrics = {key: (med(lambda r, s=span: r.get(s, 0.0)), "s") for key, span in SELF_TIMES.items()}
    metrics["render.self_s"] = (med(render_self), "s")
    metrics["pipeline.baa_share"] = share(lambda r: r.get("pipeline.baa", 0.0))
    metrics["problem.parse_problem_share"] = share(lambda r: r.get("problem.parse_problem", 0.0))
    metrics["steps1_4_share"] = share(lambda r: sum(r.get(s, 0.0) for s in STEPS_1_4))
    metrics["render_share"] = share(render_self)
    totals = spans.count_totals(tracer.spans, set(range(count_ops)))
    for key in COUNTS:
        metrics[key] = (totals.get(key, 0), "count")
    metrics["cli.known_defects"] = (defects, "count")
    # each op ran untraced and traced back to back, so compare them in pairs
    paired = statistics.median(t / u for t, u in zip(traced.durations, untraced.durations))
    metrics["trace.overhead_ratio"] = (paired - 1.0, "ratio")

    # median over the ops that call the layer at all
    extra = {
        key: (statistics.median(row[span] for row in rows if span in row), "s")
        for key, span in WORKLOAD_SELF_TIMES.items()
        if any(span in row for row in rows)
    }
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.TEMPLATE_COUNTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_package()
    reference = workloads.load_reference(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, reference: dict, workdir) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, reference)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    try:
        problems, defects = run_checks(workload, args.seed, workdir)
    except Exception as exc:  # report a broken check as a failure, still measure
        problems, defects = [f"once-per-run checks raised {type(exc).__name__}: {exc}"], []
    first_op = oracle_on_first_op(workload, args.seed)
    speed = Speed()

    if args.trace:
        tracer = spans.Tracer()
        count_ops = COUNT_OPS[args.workload]
        untraced, traced = run_loop(workload, args.seconds, speed, first_op, tracer, count_ops)
        loops = [untraced, traced]
        metrics, extra = layer_metrics(tracer, untraced, traced, count_ops, len(defects))
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        report["span_trees"] = span_trees(tracer.spans)
        report["count_ops"] = count_ops
    else:
        sampler = SetupSampler(workload.entry_module, args.seconds / SETUP_SAMPLES)
        loop = run_loop(workload, args.seconds, speed, first_op, between=sampler)
        sampler.finish()
        loops = [loop]
        normalized = loop.normalized
        metrics = {
            "setup_s": (p50(sampler.normalized), "s"),
            "op_p50_s": (p50(normalized), "s"),
            "cells_per_s": (loop.cells / sum(normalized), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "raw_setup_s": (p50(sampler.raw), "s"),
            "raw_op_p50_s": (p50(loop.durations), "s"),
            "raw_cells_per_s": (loop.cells / sum(loop.durations), "1/s"),
        }
        found = tail(normalized)
        if found:
            extra["op_tail_s"] = (found[1], "s")
            extra["raw_op_tail_s"] = (tail(loop.durations)[1], "s")
        report["op_tail"] = (
            {"percentile": found[0], "samples": len(normalized), "beyond": found[2]}
            if found else {"omitted": f"{len(normalized)} samples, fewer than 10 beyond p50"}
        )
        report["setup_s_raw"] = sampler.raw
        report["setup_s_normalized"] = sampler.normalized
        report["op_s_raw"] = loop.durations
        report["op_speed_factors"] = loop.factors

    attempted = sum(len(lp.durations) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        problems += lp.problems
    extra["error_rate"] = (failed / attempted, "ratio")
    extra["calibration_s"] = (statistics.median(speed.samples), "s")
    report.update(
        attempted=attempted, failed=failed, known_defects=defects, problems=problems[:50],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  env {json.dumps(report['environment'])}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:34s} {value:.6g} {unit}")
    if "op_tail" in report:
        print(f"  op_tail: {json.dumps(report['op_tail'])}")
    for line in report.get("span_trees", []):
        print(f"  | {line}")
    print(f"  known defects (reproducers not rejected with exit 1): {len(defects)} {defects}")
    for problem in problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
