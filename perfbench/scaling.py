"""Per-stage scaling table (not gated): parse -> run -> render_machine at growing p.

Usage, from the repository root:

    python3 perfbench/scaling.py            # p = 3, 30, 100, 300
    python3 perfbench/scaling.py --p1000    # also p = 1000 (a bonferroni op takes minutes)

Every size uses q=10 criteria and k=5 experts with random builtin-scale
terms, as in the ROADMAP's Baseline table. Each cell is the median self time
of the stage over the repeats, measured through the same call-site wrappers
as the traced benchmark run. The table goes to standard output as Markdown,
and with the calibration kernel's time to ``.perfbench-out/scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

import calibrate
import gate
import gen
import spans
from checkout import OUT, import_package

REPEATS = {3: 30, 30: 10, 100: 5, 300: 3, 1000: 1}

COLUMNS = (
    ("parse", "problem.parse_problem"),
    ("avg weights", "aggregation.average_weights"),
    ("avg ratings", "aggregation.average_ratings"),
    ("normalize", "pipeline.normalize"),
    ("weight", "pipeline.weight"),
    ("BAA (bonferroni)", "pipeline.baa"),
    ("crisp", "pipeline.crisp_matrices"),
    ("rank", "pipeline.classify_and_score"),
    ("render machine", "render.render_machine"),
    ("op", spans.OP_TOTAL),
)


def _fmt(seconds: float) -> str:
    return f"{seconds:.3g} s" if seconds >= 1 else f"{seconds * 1e3:.3g} ms"


def measure(p: int) -> tuple[dict[str, float], float]:
    import it2mabac.problem as problem

    render = sys.modules["it2mabac.render"]
    tracer = spans.Tracer()
    worst = 0.0  # largest relative BAA error against the fsum-of-logs oracle
    for n in range(REPEATS[p]):
        tpl = gen.template("scale-bonferroni", n, (p, 10, 5))
        text = gen.emit(gen.instance(tpl, n, random.Random(f"scaling:{p}:{n}")).doc)
        with tracer.patched():
            tracer.op = n
            with tracer.span("op"):
                trace = problem.run(problem.parse_problem(text))
                render.render_machine(trace)
        errors = gate.baa_errors(trace.weighted, trace.baa, n % 10, "bonferroni", 1.0, 1.0)
        worst = max(worst, max(error for _, _, error in errors.values()))
    rows = list(spans.per_op(tracer.spans).values())
    medians = {span: statistics.median(row.get(span, 0.0) for row in rows) for _, span in COLUMNS}
    return medians, worst


def main() -> None:
    parser = argparse.ArgumentParser(description="Per-stage medians at p = 3, 30, 100, 300.")
    parser.add_argument("--p1000", action="store_true", help="also measure p = 1000")
    args = parser.parse_args()
    import_package()

    sizes = [3, 30, 100, 300] + ([1000] if args.p1000 else [])
    kernel = calibrate.measure()
    results = {p: measure(p) for p in sizes}
    kernel = statistics.median([kernel, calibrate.measure()])

    print("| p alternatives | " + " | ".join(name for name, _ in COLUMNS) + " | BAA rel. error |")
    print("| --- " * (len(COLUMNS) + 2) + "|")
    for p in sizes:
        medians, worst = results[p]
        cells = [_fmt(medians[span]) for _, span in COLUMNS] + [f"{worst:.1e}"]
        print(f"| {p} | " + " | ".join(cells) + " |")
    print(f"\nq=10, k=5; median of {', '.join(f'{REPEATS[p]} (p={p})' for p in sizes)} ops; "
          f"calibration kernel {kernel * 1e3:.1f} ms (reference {calibrate.REFERENCE_S * 1e3:.0f} ms)")
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(
        {"calibration_s": kernel, "repeats": {str(p): REPEATS[p] for p in sizes},
         "median_self_s": {str(p): results[p][0] for p in sizes},
         "baa_max_relative_error": {str(p): results[p][1] for p in sizes}}, indent=2) + "\n")


if __name__ == "__main__":
    main()
