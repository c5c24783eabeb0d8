"""Tests for text and machine rendering of traces."""

import dataclasses
import json

import pytest

from it2mabac import (
    PipelineParams,
    example_problem_text,
    parse_problem,
    render,
    render_machine,
    render_section,
    render_text,
    run,
    trace_from_json,
)
from it2mabac.errors import InvalidParams, ProblemSyntaxError
from it2mabac.render import TABLES, render_section_machine
from test_problem import _generated_document


def test_text_report_has_expected_section_headers(example_trace):
    report = render_text(example_trace)
    assert "== Aggregated weights (cf. Table 4) ==" in report
    assert "== Aggregated decision matrix (cf. Table 6) ==" in report
    assert "== Weighted decision matrix (cf. Table 7) ==" in report
    assert "== Border approximation areas (cf. Table 8) ==" in report
    assert "== Scores and ranking (cf. Table 11) ==" in report
    assert "ranking: A2 > A3 > A1" in report


def test_text_report_prints_two_decimals(example_trace):
    report = render_text(example_trace)
    assert "[(0.70, 0.87, 0.87, 0.97; 1.00), " in report


def test_every_table_renders(example_trace):
    for table in TABLES:
        section = render_section(example_trace, table)
        assert section.startswith("==")
        assert len(section.splitlines()) > 1


# the document's own params (geomean, r=2), then bonferroni and geomean with other lambdas
ROUNDTRIP_PARAMS = [None, PipelineParams(lam=0.9, r=2.0, s=0.5),
                    PipelineParams(lam=0.2, baa_operator="geomean")]


def test_machine_roundtrip_reproduces_scores_bit_exactly(example_trace):
    # generated problems add cost criteria and inline values
    traces = [example_trace] + [
        run(parse_problem(_generated_document(seed)), params)
        for seed in (1, 3, 5) for params in ROUNDTRIP_PARAMS
    ]
    for trace in traces:
        text = render_machine(trace)
        back = trace_from_json(text)
        assert back.scores == trace.scores
        assert back.q == trace.q
        assert back.order == trace.order
        assert back == trace
        assert render_machine(back) == text


def test_machine_rendering_is_deterministic():
    def once():
        problem = parse_problem(example_problem_text())
        return render_machine(run(problem))

    assert once() == once()


def test_machine_document_carries_full_precision(example_trace):
    doc = json.loads(render_machine(example_trace))
    value = doc["aggregated_weights"][0]["upper"]
    assert value[1] == pytest.approx(0.8666666666666667, abs=1e-15)
    assert doc["ranking"] == ["A2", "A3", "A1"]
    assert doc["params"]["lambda"] == 0.5


def test_section_machine_selects_single_table(example_trace):
    doc = json.loads(render_section_machine(example_trace, "q"))
    assert set(doc) == {"q"}
    scores = json.loads(render_section_machine(example_trace, "scores"))
    assert set(scores) == {"scores", "order", "ranking"}


def test_section_machine_is_its_keys_of_the_whole_document():
    problem = parse_problem(_generated_document(3))
    assert any(c.sense == "cost" for c in problem.criteria)
    trace = run(problem)
    whole = json.loads(render_machine(trace))
    for table in TABLES:
        section = render_section_machine(trace, table)
        keys = list(json.loads(section))
        assert keys and section == json.dumps({k: whole[k] for k in keys}, indent=2) + "\n", table


def test_trace_from_json_checks_params_as_documents_do(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["params"]["r"] = True
    with pytest.raises(InvalidParams, match="param 'r' must be a number, got True"):
        trace_from_json(json.dumps(doc))


def test_unknown_format_rejected(example_trace):
    with pytest.raises(ProblemSyntaxError):
        render(example_trace, "csv")


def test_trace_from_json_rejects_garbage():
    with pytest.raises(ProblemSyntaxError):
        trace_from_json("{not json")
    with pytest.raises(ProblemSyntaxError, match="missing"):
        trace_from_json("{}")


def test_trace_from_json_rejects_an_integer_beyond_float_range(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["baa"][0]["lower"][3] = 10**400
    with pytest.raises(ProblemSyntaxError, match="lower trapezoid: 10{400} is not a finite number"):
        trace_from_json(json.dumps(doc))


def test_trace_from_json_rejects_an_integer_too_long_to_convert(example_trace):
    text = render_machine(example_trace).replace('"scores": [', '"scores": [' + "1" * 5000 + ", ", 1)
    with pytest.raises(ProblemSyntaxError, match="^not a valid machine trace: Exceeds the limit"):
        trace_from_json(text)


def test_trace_from_json_rejects_deep_nesting():
    with pytest.raises(ProblemSyntaxError) as info:
        trace_from_json("[" * 100_000)
    assert str(info.value) == "not a valid machine trace: nested too deeply"


@pytest.mark.parametrize(
    "order", [[7, 0, 1], [0, 0, 0], [1, 2], ["1", 0, 2], [1.0, 0, 2], [True, 0, 2]],
    ids=["out-of-range", "repeated", "too-short", "string", "float", "bool"],
)
def test_trace_from_json_requires_order_to_rank_each_alternative_once(example_trace, order):
    doc = json.loads(render_machine(example_trace))
    doc["order"] = order
    with pytest.raises(ProblemSyntaxError) as info:
        trace_from_json(json.dumps(doc))
    assert str(info.value) == (
        f"machine trace: 'order' must list each alternative's index once, got {order!r}"
    )


def test_scores_table_prints_each_score_beside_its_alternative(example_trace):
    reordered = dataclasses.replace(example_trace, order=[2, 0, 1])
    assert render_section(reordered, "scores").splitlines()[1:] == [
        f"  1. A3  S = {example_trace.scores[2]:.2f}",
        f"  2. A1  S = {example_trace.scores[0]:.2f}",
        f"  3. A2  S = {example_trace.scores[1]:.2f}",
        "  ranking: A3 > A1 > A2",
    ]


def test_trace_from_json_rejects_wrong_shapes(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["normalized"][0] = 5
    for text in ["[]", "3", "null", json.dumps(doc)]:
        with pytest.raises(ProblemSyntaxError, match="^machine trace"):
            trace_from_json(text)


def test_machine_rendering_refuses_non_finite_numbers(example_trace):
    broken = dataclasses.replace(example_trace, scores=[float("nan")] * 3)
    with pytest.raises(ValueError):
        render_machine(broken)
    with pytest.raises(ValueError):
        render_section_machine(broken, "scores")
