"""Tests of the benchmark itself: counts, generator, correctness gate, wrappers."""

from __future__ import annotations

import hashlib
import random

import pytest

from checkout import import_package

import_package()

import gate  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Speed, p50, run_loop  # noqa: E402

import it2mabac  # noqa: E402
from it2mabac.problem import PipelineParams  # noqa: E402


def _small_prepared(workload: str, sizes=(9, 4, 3)) -> workloads.PoolPrepared:
    tpl = gen.template(workload, 0, sizes)
    inst = gen.instance(tpl, 0, random.Random("test"))
    return workloads.PoolPrepared(inst, gen.emit(inst.doc))


def _traced_counts(workload, prep) -> dict[str, int]:
    tracer = spans.Tracer()
    with tracer.patched():
        tracer.op = 0
        with tracer.span("op") as root:
            outcome = workload.execute(prep, tracer)
            root.counts["render.bytes_out"] = outcome.bytes_out
    return spans.count_totals(tracer.spans, {0})


@pytest.mark.parametrize("name", ["scale-bonferroni", "sweep-geomean"])
def test_counts_match_closed_forms_and_repeat(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path, {})
    prep = _small_prepared(name)
    p, q, k = prep.inst.doc.sizes
    first = _traced_counts(workload, prep)
    assert first == _traced_counts(workload, prep)
    assert first["problem.doc_bytes"] == len(prep.text.encode())
    assert first["problem.entries_resolved"] == k * p * q + k * q
    if name == "scale-bonferroni":
        assert first["pipeline.normalize_calls"] == 1
        assert first["aggregation.bonferroni_pair_terms"] == q * 8 * p * (p - 1)
        assert first["render.bytes_out"] == len(workload.execute(prep, None).result[1])
    else:
        assert first["pipeline.normalize_calls"] == len(gen.SWEEP_LAMBDAS)
        assert "aggregation.bonferroni_pair_terms" not in first


def test_cli_counts_repeat_across_runs(tmp_path):
    reference = workloads.load_reference("cli-small")
    totals = []
    for _ in range(2):
        workload = workloads.CliSmall(3, tmp_path, reference)
        tracer = spans.Tracer()
        plain, traced = run_loop(workload, 0, Speed(), tracer=tracer, min_ops=gen.CLI_BLOCK)
        assert plain.failed == traced.failed == 0, plain.problems + traced.problems
        totals.append(spans.count_totals(tracer.spans, set(range(gen.CLI_BLOCK))))
    assert totals[0] == totals[1]
    # one block holds one unknown-term and one row-width document, each exit 1
    assert totals[0]["cli.exit_1"] == 2
    assert totals[0].get("cli.uncaught", 0) == 0
    assert all(getattr(m, a).__module__.startswith("it2mabac") for m, a, _, _ in spans.targets())


def test_generator_is_byte_stable():
    example = it2mabac.example_problem_text()
    tables = ("weights", "scores")

    def digest() -> str:
        h = hashlib.sha256()
        for n in range(2 * gen.CLI_BLOCK):
            h.update(gen.cli_op(5, n, example, tables).text)
        for name in ("scale-bonferroni", "sweep-geomean"):
            h.update(gen.emit(gen.pooled_instance(name, 5, 0).doc).encode())
        return h.hexdigest()

    assert digest() == digest()
    assert digest() == "45fca23fc1ab4869e320cd7c1f1d1944a536d651b830497ada79f491d986dfd7"
    for name in gen.TEMPLATE_COUNTS:
        assert workloads.verify_templates(name, workloads.load_reference(name)) == []


def test_gate_rejects_perturbed_scores():
    ref = workloads.load_reference("cli-small")["example"]["scores"]
    order = sorted(range(len(ref)), key=lambda i: -ref[i])
    assert gate.compare_scores(ref, order, ref) == []
    # a 1e-12 change per cell, summed over the five criteria, still passes
    assert gate.compare_scores([s + 5e-12 for s in ref], order, ref) == []
    bumped = list(ref)
    bumped[0] += 1e-7
    assert gate.compare_scores(bumped, order, ref)
    assert gate.compare_scores(ref, list(reversed(order)), ref)


def test_gate_accepts_reordered_near_ties():
    ref = [0.5, 0.5 + 1e-12, 0.1]
    assert gate.compare_scores(ref, [0, 1, 2], ref) == []
    assert gate.compare_scores(ref, [1, 0, 2], ref) == []


@pytest.mark.parametrize("params", [PipelineParams(lam=0.6), PipelineParams(baa_operator="geomean")])
def test_gate_rejects_wrong_lambda_or_operator(params):
    ref = workloads.load_reference("cli-small")["example"]["scores"]
    trace = it2mabac.run(it2mabac.load_example_problem(), params)
    assert gate.compare_scores(trace.scores, trace.order, ref)


def test_baa_oracle_agrees_and_detects_error():
    trace = it2mabac.run(it2mabac.parse_problem(gen.emit(gen.template("cli-small", 7))),
                         PipelineParams(r=2.0, s=1.0))
    assert gate.check_baa(trace.weighted, trace.baa, 0, "bonferroni", 2.0, 1.0) == []
    assert gate.check_baa(trace.weighted, trace.baa, 0, "bonferroni", 1.0, 1.0)
    geo = it2mabac.run(it2mabac.load_example_problem(), PipelineParams(baa_operator="geomean"))
    assert gate.check_baa(geo.weighted, geo.baa, 1, "geomean", 1.0, 1.0) == []


def test_p50_estimates_the_median():
    assert p50([0.7]) == 0.7
    assert abs(p50([1.0, 2.0, 3.0]) - 2.0) < 1e-12
    assert abs(p50([float(i) for i in range(101)]) - 50.0) < 1e-9
    skewed = [1.0] * 10 + [2.0] * 9
    assert 1.0 <= p50(skewed) < 1.5


def test_wrappers_are_restored(tmp_path):
    before = [(m, a, getattr(m, a)) for m, a, _, _ in spans.targets()]
    run = it2mabac.problem.run
    workload = workloads.ScaleBonferroni(0, tmp_path, {})
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert it2mabac.problem.run is not run
            workload.execute(_small_prepared("scale-bonferroni"), tracer)
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is original for m, a, original in before)
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
