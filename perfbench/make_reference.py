"""Write the stored reference scores under ``perfbench/reference/``.

Usage: ``python3 perfbench/make_reference.py`` from the repository root.

The references pin the results of the commit they were made from; the
benchmark compares every later commit against them. Regenerate them only on
purpose, for a change that is meant to alter results, and say so.
Scores and BAA distances are rounded to 12 significant digits, far below
the comparison tolerance in ``gate.py``.
"""

from __future__ import annotations

import json

import gen
from checkout import import_package

DIGITS = 12


def _round(values) -> list[float]:
    return [float(f"{v:.{DIGITS}g}") for v in values]


def _entry(workload: str, index: int, runs) -> dict:
    return {"sha256": gen.template_digest(workload, index), **runs}


def main() -> None:
    it2mabac = import_package()
    from it2mabac.problem import PipelineParams, parse_problem, run
    from workloads import REFERENCE_DIR

    def solved(text: str, params=None):
        trace = run(parse_problem(text), params)
        return _round(trace.scores), _round(trace.g)

    out = {}
    example_scores, example_g = solved(it2mabac.example_problem_text())
    for workload in ("cli-small", "scale-bonferroni"):
        templates = []
        for i in range(gen.TEMPLATE_COUNTS[workload]):
            scores, g = solved(gen.emit(gen.template(workload, i)))
            templates.append(_entry(workload, i, {"scores": scores, "g": g}))
        out[workload] = {"templates": templates}
    out["cli-small"]["example"] = {"scores": example_scores, "g": example_g}

    templates = []
    for i in range(gen.TEMPLATE_COUNTS["sweep-geomean"]):
        problem = parse_problem(gen.emit(gen.template("sweep-geomean", i)))
        sweep = [run(problem, PipelineParams(lam=lam, baa_operator="geomean")) for lam in gen.SWEEP_LAMBDAS]
        templates.append(_entry("sweep-geomean", i, {
            "scores": [_round(t.scores) for t in sweep],
            "g": [_round(t.g) for t in sweep],
        }))
    out["sweep-geomean"] = {"lambdas": list(gen.SWEEP_LAMBDAS), "templates": templates}

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, data in out.items():
        (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote reference/{workload}.json")


if __name__ == "__main__":
    main()
