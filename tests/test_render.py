"""Tests for text and machine rendering of traces."""

import contextlib
import importlib
import json
import math
import random
import typing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite, it2trfns
from it2mabac import (
    CriterionSpec,
    GeneralizedTrapezoid,
    IT2TrFN,
    PipelineParams,
    PipelineTrace,
    crisp,
    example_problem_text,
    parse_problem,
    render,
    render_machine,
    render_section,
    render_text,
    run,
    trace_from_json,
)
from it2mabac.errors import DimensionMismatch, InvalidParams, MabacError, ProblemSyntaxError
from it2mabac.fuzzy import Matrix
from it2mabac.render import TABLES, render_section_machine
from test_oracle import _GEN
from test_problem import _generated_document

render_module = importlib.import_module("it2mabac.render")  # the package attribute is the function


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


FUZZY_MATRICES = ("aggregated_ratings", "normalized", "weighted")


def test_machine_keys_are_the_trace_fields_in_order(example_trace):
    # the emitter dispatches on the type hints of the fields, so the two orders must agree
    assert tuple(typing.get_type_hints(PipelineTrace)) == PipelineTrace._fields
    assert [*json.loads(render_machine(example_trace))] == [*PipelineTrace._fields, "ranking"]


def test_a_trace_holds_matrices_that_read_and_compare_as_rows(example_trace):
    trace = example_trace
    assert trace_from_json(render_machine(trace)) == trace
    for field in FUZZY_MATRICES:
        matrix = getattr(trace, field)
        rows = [list(row) for row in matrix]
        assert matrix == rows and rows == matrix and not matrix != rows
        assert matrix == Matrix.of(rows, 5, "criteria")  # the columns of the stage and of the rows
        with pytest.raises(TypeError):
            matrix.columns[0][0] = ()
        assert len(matrix) == 3 and len(matrix[0]) == 5
        assert matrix[-1] == matrix[2] and matrix[1:] == [matrix[1], matrix[2]]
        assert all(isinstance(cell, IT2TrFN) for row in matrix for cell in row)
        assert matrix != rows[:2] and matrix != [*rows[:2], rows[0]]
        assert matrix != [1, 2, 3] and not matrix == [None, rows[1], rows[2]]
    assert trace.weighted != trace.normalized


@pytest.mark.parametrize("fields", [("weighted",), FUZZY_MATRICES], ids=["weighted", "all"])
def test_a_trace_of_plain_rows_renders_as_the_run_does(example_trace, fields):
    rows = example_trace._replace(
        **{field: [list(row) for row in getattr(example_trace, field)] for field in fields}
    )
    assert type(rows.weighted) is list
    assert render_text(rows) == render_text(example_trace)
    assert render_machine(rows) == render_machine(example_trace)
    for table in TABLES:
        assert render_section(rows, table) == render_section(example_trace, table)
        assert render_section_machine(rows, table) == render_section_machine(example_trace, table)


def test_a_trace_of_ragged_plain_rows_is_refused(example_trace):
    rows = [list(row) for row in example_trace.weighted]
    ragged = example_trace._replace(weighted=[rows[0], rows[1][:4], rows[2]])
    for render_fn in (render_text, render_machine):
        with pytest.raises(DimensionMismatch) as info:
            render_fn(ragged)
        assert str(info.value) == "matrix rows have widths [4, 5], expected 5 entries"


def test_trace_from_json_checks_params_as_documents_do(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["params"]["r"] = True
    with pytest.raises(InvalidParams, match="param 'r' must be a finite number, got True"):
        trace_from_json(json.dumps(doc))


def test_unknown_format_rejected(example_trace):
    with pytest.raises(ProblemSyntaxError):
        render(example_trace, "csv")
    for render_fn in (render_section, render_section_machine):
        with pytest.raises(ProblemSyntaxError) as info:
            render_fn(example_trace, "bogus")
        assert str(info.value) == f"unknown table 'bogus'; choose from {TABLES}"


def test_trace_from_json_rejects_garbage():
    with pytest.raises(ProblemSyntaxError):
        trace_from_json("{not json")
    with pytest.raises(ProblemSyntaxError, match="missing"):
        trace_from_json("{}")


def test_trace_from_json_rejects_an_integer_beyond_float_range(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["aggregated_weights"][0]["lower"][3] = 10**400
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
    assert str(info.value) == "machine trace: 'order' is not what a run of its inputs writes"


def test_trace_from_json_requires_the_ranking_of_its_order(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["ranking"] = ["A1", "A1", "ZZ"]
    with pytest.raises(ProblemSyntaxError) as info:
        trace_from_json(json.dumps(doc))
    assert str(info.value) == "machine trace: 'ranking' is not what a run of its inputs writes"


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


#: Edits of the example's machine JSON that the loader once accepted: the
#: path edited, the value put there, and the field the refusal names.
NOT_WRITTEN_BY_A_RUN = {
    "normalized-cell": (["normalized", 0, 0, "upper", 0], 0.123, "normalized"),
    "params-baa": (["params", "baa"], "geomean", "baa"),
    "top-level-key": (["extra"], 1, "extra"),
    "params-key": (["params", "extra"], 1, "params"),
    "criterion-key": (["criteria", 0, "extra"], 1, "criteria"),
    "fuzzy-value-key": (["aggregated_weights", 0, "extra"], 1, "aggregated_weights"),
    "list-name": (["name"], [1, 2], None),
}


@pytest.mark.parametrize("case", list(NOT_WRITTEN_BY_A_RUN))
def test_trace_from_json_refuses_what_a_run_does_not_write(example_trace, case):
    path, value, field = NOT_WRITTEN_BY_A_RUN[case]
    doc = json.loads(render_machine(example_trace))
    _set(doc, path, value)
    with pytest.raises(MabacError) as info:
        trace_from_json(json.dumps(doc))
    assert str(info.value) == (f"machine trace: {field!r} is not what a run of its inputs writes"
                               if field else "'name' must be a string, got [1, 2]")


@pytest.mark.parametrize("params", [
    PipelineParams(lam=lam, **operator) for lam in (0.0, 0.3, 1.0)
    for operator in ({}, {"r": 2.0, "s": 0.5}, {"baa_operator": "geomean"})
], ids=lambda params: f"lam={params.lam}-r={params.r}-s={params.s}-{params.baa_operator}")
def test_example_trace_round_trips_byte_identically(params):
    # the example's criteria are all benefits; the benchmark template has a cost criterion
    for document in (example_problem_text(), _GEN.emit(_GEN.template("cli-small", 0))):
        text = render_machine(run(parse_problem(document), params))
        assert render_machine(trace_from_json(text)) == text


def test_trace_from_json_ignores_key_order_only(example_trace):
    text = render_machine(example_trace)
    doc = json.loads(text)
    doc["params"] = dict(reversed(doc["params"].items()))
    doc["baa"][0] = dict(reversed(doc["baa"][0].items()))
    assert render_machine(trace_from_json(json.dumps(dict(reversed(doc.items()))))) == text
    # 1 is not 1.0, and -0.0 is not 0.0
    column = [row[0]["upper"][0] for row in json.loads(text)["normalized"]]
    for path, value in [(["params", "r"], 1), (["normalized", column.index(0.0), 0, "upper", 0], -0.0)]:
        doc = json.loads(text)
        _set(doc, path, value)
        with pytest.raises(ProblemSyntaxError, match=f"^machine trace: '{path[0]}' is not what"):
            trace_from_json(json.dumps(doc))


def test_scores_table_prints_each_score_beside_its_alternative(example_trace):
    reordered = example_trace._replace(order=[2, 0, 1])
    assert render_section(reordered, "scores").splitlines()[1:] == [
        f"  1. A3  S = {example_trace.scores[2]:.2f}",
        f"  2. A1  S = {example_trace.scores[0]:.2f}",
        f"  3. A2  S = {example_trace.scores[1]:.2f}",
        "  ranking: A3 > A1 > A2",
    ]


def test_trace_from_json_applies_the_name_rule(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["criteria"][1]["name"] = "C1"
    with pytest.raises(ProblemSyntaxError) as info:
        trace_from_json(json.dumps(doc))
    assert str(info.value) == "'criteria' entries must be unique, got ['C1', 'C1', 'C3', 'C4', 'C5']"
    # the example has 3 alternatives and 5 criteria: its 3-long lists run over the alternatives
    doc = {key: [] if isinstance(value, list) and len(value) == 3 else value
           for key, value in json.loads(render_machine(example_trace)).items()}
    with pytest.raises(ProblemSyntaxError) as info:
        trace_from_json(json.dumps(doc))
    assert str(info.value) == "'alternatives' must be a non-empty list of names"


#: Shape faults in the aggregates of the example's machine JSON, as the one
#: expert ``aggregated`` of a problem: the edit and the refusal it gives.
AGGREGATE_SHAPES = {
    "weights-short": (lambda doc: doc["aggregated_weights"].pop(),
                      "weights[aggregated]: expected 5 entries (one per criterion), got 4"),
    "ratings-row-short": (lambda doc: doc["aggregated_ratings"][1].pop(),
                          "ratings[aggregated] row 1 ('A2'): expected 5 entries, got 4"),
    "ratings-row-missing": (lambda doc: doc["aggregated_ratings"].pop(),
                            "ratings[aggregated]: expected 3 rows (one per alternative), got 2"),
}


@pytest.mark.parametrize("case", list(AGGREGATE_SHAPES))
def test_trace_from_json_applies_the_expert_shape_rule(example_trace, case):
    edit, message = AGGREGATE_SHAPES[case]
    doc = json.loads(render_machine(example_trace))
    edit(doc)
    with pytest.raises(DimensionMismatch) as info:
        trace_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_trace_from_json_rejects_wrong_shapes(example_trace):
    doc = json.loads(render_machine(example_trace))
    doc["normalized"][0] = 5
    for text in ["[]", "3", "null", json.dumps(doc)]:
        with pytest.raises(ProblemSyntaxError, match="^machine trace"):
            trace_from_json(text)


#: A number no test trace holds, written over with one that is not finite by ``_with_number``.
_STAND_IN = 0.123456789


def _with_number(rows, number):
    """``rows`` as a Matrix built from its columns, with ``number`` in place of each
    ``_STAND_IN``: an IT2TrFN cannot hold a number that is not finite, a column can."""
    m = Matrix.of(rows)
    return Matrix([[tuple(number if x == _STAND_IN else x for x in c) for c in ten] for ten in m.columns],
                  len(m))


def test_machine_rendering_refuses_non_finite_numbers(example_trace):
    weighted = [list(row) for row in example_trace.weighted]
    weighted[1][2] = crisp(_STAND_IN)
    for value in (math.nan, math.inf, -math.inf):
        for field, table, broken in [
            ("weighted", "weighted", _with_number(weighted, value)),
            ("g", "g", [0.5, value, 0.25]),
            ("scores", "scores", [0.1, 0.2, value]),
        ]:
            trace = example_trace._replace(**{field: broken})
            with pytest.raises(ValueError):
                render_machine(trace)
            with pytest.raises(ValueError):
                render_section_machine(trace, table)


def _fuzzy_document(v):
    return {"upper": [*v.upper.endpoints, v.upper.h], "lower": [*v.lower.endpoints, v.lower.h]}


def _json_dumps_document(trace):
    """The machine document as plain JSON values, for ``json.dumps`` to write."""
    return {
        "name": trace.name,
        "alternatives": trace.alternatives,
        "criteria": [{"name": c.name, "sense": c.sense} for c in trace.criteria],
        "params": {"lambda": trace.params.lam, "r": trace.params.r, "s": trace.params.s,
                   "baa": trace.params.baa_operator},
        "aggregated_weights": [_fuzzy_document(v) for v in trace.aggregated_weights],
        **{key: [[_fuzzy_document(v) for v in row] for row in getattr(trace, key)]
           for key in ("aggregated_ratings", "normalized", "weighted")},
        "baa": [_fuzzy_document(v) for v in trace.baa],
        **{key: getattr(trace, key)
           for key in ("q", "g", "delta", "classification", "scores", "order")},
        "ranking": trace.ranking(),
    }


def _assert_written_as_json_dumps(trace):
    doc = _json_dumps_document(trace)
    assert render_machine(trace) == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    for table in TABLES:
        section = render_section_machine(trace, table)
        keys = list(json.loads(section))
        expected = json.dumps({k: doc[k] for k in keys}, indent=2, allow_nan=False) + "\n"
        assert keys and section == expected, table


def test_machine_json_is_what_json_dumps_writes(example_trace):
    traces = [example_trace] + [
        run(parse_problem(_generated_document(seed)), params)
        for seed in (1, 2, 3, 4, 5) for params in ROUNDTRIP_PARAMS
    ]
    for trace in traces:
        _assert_written_as_json_dumps(trace)


def test_machine_json_writes_names_and_numbers_as_json_dumps_does(example_trace):
    extremes = (-0.0, 5e-324, 1.7976931348623157e308)
    upper = example_trace.baa[0].upper._replace(a1=-0.0, a4=extremes[2])
    lower = example_trace.baa[0].lower._replace(a1=-0.0, a2=extremes[1], h=5e-324)
    odd = example_trace.baa[0]._replace(upper=upper, lower=lower)
    int_params = PipelineParams(r=2)  # read as the float 2.0
    object.__setattr__(int_params, "s", 3)  # an int, as json.dumps writes one
    _assert_written_as_json_dumps(example_trace._replace(
        name='Crit\u00e8re "\u0394" \\ tab\t nul\x00 \ud83d\ude00 \u2028',
        alternatives=["\u00c9cole", 'quo"te', "back\\slash"],
        criteria=[c._replace(name=n)
                  for c, n in zip(example_trace.criteria, ["\x1f", "\u4e2d", "\n", "'", "\x7f"])],
        params=int_params,
        baa=[odd, *example_trace.baa[1:]],
        g=[*extremes, *example_trace.g[3:]],
        scores=list(extremes),
        q=[list(extremes) * 2, *example_trace.q[1:]],
        # what a directly built trace may hold where labels belong; a loaded one recomputes them
        classification=[[True, False, None, 7, -0.0], *example_trace.classification[1:]],
    ))
    params = render_machine(example_trace._replace(params=int_params))
    assert '"r": 2.0,\n    "s": 3,\n' in params


_names = st.text(max_size=6)
_numbers = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _pooled_it2trfns(draw, pool):
    """An IT2TrFN whose endpoints are drawn from ``pool``; heights 1, and 1 or 0.5."""
    upper, lower = (sorted(draw(st.lists(st.sampled_from(pool), min_size=4, max_size=4)))
                    for _ in range(2))
    return IT2TrFN(GeneralizedTrapezoid(*upper, 1.0),
                   GeneralizedTrapezoid(*lower, draw(st.sampled_from([1.0, 0.5]))))


@st.composite
def _traces(draw, pooled=False):
    """Small traces of arbitrary names and finite numbers (not a pipeline's output). With
    ``pooled``, the fuzzy matrices' endpoints come from at most 4 values, zeros of either
    sign among them, so that most of a matrix's numbers repeat."""
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if pooled:
        pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | finite(-1e6, 1e6),
                             min_size=1, max_size=4))
        cells = _pooled_it2trfns(pool)
    else:
        cells = it2trfns(-1e6, 1e6)
    fuzzy_rows = st.lists(st.lists(cells, min_size=q, max_size=q), min_size=p, max_size=p)
    crisp_rows = st.lists(st.lists(_numbers, min_size=q, max_size=q), min_size=p, max_size=p)
    return PipelineTrace(
        name=draw(_names),
        alternatives=draw(st.lists(_names, min_size=p, max_size=p)),
        criteria=[CriterionSpec(f"C{j}{name}", draw(st.sampled_from(["benefit", "cost"])))
                  for j, name in enumerate(draw(st.lists(_names, min_size=q, max_size=q)))],
        params=PipelineParams(lam=draw(st.floats(0, 1)), r=draw(st.floats(0.5, 1e9)),
                              s=draw(st.integers(0, 10**6)),
                              baa_operator=draw(st.sampled_from(["bonferroni", "geomean"]))),
        aggregated_weights=draw(st.lists(it2trfns(), min_size=q, max_size=q)),
        aggregated_ratings=draw(fuzzy_rows),
        normalized=draw(fuzzy_rows),
        weighted=draw(fuzzy_rows),
        baa=draw(st.lists(it2trfns(), min_size=q, max_size=q)),
        q=draw(crisp_rows),
        g=draw(st.lists(_numbers, min_size=q, max_size=q)),
        delta=draw(crisp_rows),
        classification=draw(st.lists(st.lists(_names, min_size=q, max_size=q),
                                     min_size=p, max_size=p)),
        scores=draw(st.lists(_numbers, min_size=p, max_size=p)),
        order=draw(st.permutations(range(p))),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trace=_traces())
def test_machine_json_of_any_trace_is_what_json_dumps_writes(trace):
    _assert_written_as_json_dumps(trace)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trace=_traces(pooled=True))
def test_machine_json_of_any_trace_of_repeated_numbers_is_what_json_dumps_writes(trace):
    _assert_written_as_json_dumps(trace)


EXAMPLE_MACHINE = render_machine(run(parse_problem(example_problem_text())))
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
                         st.text(max_size=3), st.lists(st.integers(0, 3), max_size=4))


def _retyped(value):
    """``value`` spelled as JSON values of other types."""
    forms = [str(value), [value], {"value": value}]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        forms += [int(value), float(value), bool(value)]
    return forms


@st.composite
def mutated_machine_documents(draw):
    """The bundled example's machine JSON with a few values replaced, retyped, dropped or appended."""
    doc = json.loads(EXAMPLE_MACHINE)
    for _ in range(draw(st.integers(1, 3))):
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (list, dict)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(["replace", "retype", "drop", "append"]))
        if kind == "replace":
            parent[key] = draw(_JSON_VALUES)
        elif kind == "retype":
            parent[key] = draw(st.sampled_from(_retyped(parent[key])))
        elif kind == "drop":
            del parent[key]
        elif isinstance(parent[key], list):
            parent[key].append(draw(_JSON_VALUES))
        elif isinstance(parent, list):
            parent.append(draw(_JSON_VALUES))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=mutated_machine_documents())
def test_mutated_machine_trace_loads_and_renders_or_is_refused(text):
    try:
        trace = trace_from_json(text)
    except MabacError:
        return
    render_text(trace)
    render_machine(trace)


#: Two cells with zeros of both signs, as an inline rating endpoint of -0.0 puts beside 0.0.
SIGNED_ZEROS = [
    IT2TrFN(GeneralizedTrapezoid(-0.0, 0.5, 0.5, 1.0, 1.0), GeneralizedTrapezoid(-0.0, 0.5, 0.5, 0.75, 0.8)),
    IT2TrFN(GeneralizedTrapezoid(0.0, -0.0, 0.5, 1.0, 1.0), GeneralizedTrapezoid(0.0, 0.25, 0.5, 0.75, 0.8)),
]


def _pooled_rows(cells, p, q, seed):
    """p rows of q cells drawn from ``cells``, each cell at least once."""
    rng = random.Random(seed)
    drawn = list(cells) + [rng.choice(cells) for _ in range(p * q - len(cells))]
    rng.shuffle(drawn)
    return [drawn[i * q:(i + 1) * q] for i in range(p)]


def _pooled_trace(trace, cells, fields=("aggregated_ratings", "normalized", "weighted"), p=60):
    """``trace`` with p alternatives, and the fuzzy matrices ``fields`` drawn from ``cells``."""
    q = len(trace.criteria)
    return trace._replace(
        alternatives=[f"A{i}" for i in range(p)],
        **{field: _pooled_rows(cells, p, q, seed) for seed, field in enumerate(fields)},
    )


@contextlib.contextmanager
def _memos():
    """A list that gets, for each fuzzy matrix written inside, whether a memo of its
    distinct floats wrote it."""
    texts_of, memos = render_module._float_texts, []

    def spy(numbers):
        texts = texts_of(numbers)
        memos.append(texts is not None)
        return texts

    with mock.patch.object(render_module, "_float_texts", spy):
        yield memos


def test_machine_json_of_repeated_signed_zeros_is_what_json_dumps_writes(example_trace):
    trace = _pooled_trace(example_trace, [*SIGNED_ZEROS, *example_trace.weighted[0]])
    with _memos() as memos:
        _assert_written_as_json_dumps(trace)
    assert memos == [True] * 6  # the three matrices, in the whole document and in their sections
    text = render_machine(trace)
    assert " -0.0," in text and " 0.0," in text


def test_machine_json_of_repeated_ints_beside_equal_floats_is_what_json_dumps_writes(example_trace):
    # 1 == 1.0 and they hash alike: a memo of distinct floats would write the int as 1.0.
    ints = IT2TrFN(GeneralizedTrapezoid(0, 1, 1, 2, 1), GeneralizedTrapezoid(0, 1, 1, 2, 1))
    floats = IT2TrFN(GeneralizedTrapezoid(0.0, 1.0, 1.0, 2.0, 1.0),
                     GeneralizedTrapezoid(0.0, 1.0, 1.0, 2.0, 1.0))
    for cells in ([floats, ints], [ints, floats]):
        _assert_written_as_json_dumps(_pooled_trace(example_trace, cells))


def test_machine_rendering_refuses_non_finite_numbers_in_a_repeated_matrix(example_trace):
    for value in (math.nan, math.inf, -math.inf):
        for field, table in [("aggregated_ratings", "ratings"), ("normalized", "normalized"),
                             ("weighted", "weighted")]:
            pooled = _pooled_trace(example_trace, [*SIGNED_ZEROS, crisp(_STAND_IN)], fields=[field])
            trace = pooled._replace(**{field: _with_number(getattr(pooled, field), value)})
            for render_fn in (render_machine, lambda t: render_section_machine(t, table)):
                with _memos() as memos, pytest.raises(ValueError, match="^Out of range float"):
                    render_fn(trace)
                assert memos[-1]  # the matrix at fault went through the memo
