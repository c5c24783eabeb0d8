"""Tests for problem parsing, validation, and pipeline orchestration."""

import math
import random
from collections.abc import Mapping

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import it2mabac.problem
from it2mabac import (
    CriterionSpec,
    GeneralizedTrapezoid,
    IT2TrFN,
    PipelineParams,
    builtin_rating_scale,
    builtin_weight_scale,
    example_problem_text,
    load_example_problem,
    make,
    parse_problem,
    render_machine,
    resolve,
    run,
)
from it2mabac.errors import (
    DegenerateRange,
    DimensionMismatch,
    EndpointOrderViolation,
    HeightOutOfRange,
    InvalidParams,
    MabacError,
    NegativeOperand,
    ProblemSyntaxError,
    UnknownTerm,
)
from test_oracle import _GEN
from worked_example import EXPECTED_RANKING, EXPECTED_SCORES, EXPECTED_SCORES_GEOMEAN


def _doc():
    return yaml.safe_load(example_problem_text())


def _dump(doc):
    return yaml.safe_dump(doc)


_EXAMPLE = load_example_problem()


def _replaced(node, path, value):
    """``node`` with the item at ``path`` (expert names and indices) replaced by ``value``."""
    if not path:
        return value
    key, *rest = path
    if isinstance(node, Mapping):
        return {**node, key: _replaced(node[key], rest, value)}
    return (*node[:key], _replaced(node[key], rest, value), *node[key + 1:])


class TestParse:
    def test_bundled_example_shape(self, example_problem):
        assert example_problem.name == "system-analyst"
        assert list(example_problem.alternatives) == ["A1", "A2", "A3"]
        assert [c.name for c in example_problem.criteria] == ["C1", "C2", "C3", "C4", "C5"]
        assert all(c.sense == "benefit" for c in example_problem.criteria)
        assert list(example_problem.experts) == ["DM1", "DM2", "DM3"]
        assert example_problem.params == PipelineParams()

    def test_terms_resolved_against_scales(self, example_problem):
        good = resolve(example_problem.rating_scale, "G")
        assert example_problem.expert_ratings["DM1"][1][0] == good

    def test_wrong_column_count_names_expert_and_row(self):
        doc = _doc()
        doc["ratings"]["DM2"][1] = ["G", "G", "G", "G"]
        with pytest.raises(DimensionMismatch, match=r"DM2.*row 1.*'A2'.*expected 5"):
            parse_problem(_dump(doc))

    def test_missing_expert_block(self):
        doc = _doc()
        del doc["weights"]["DM3"]
        with pytest.raises(DimensionMismatch, match="DM3"):
            parse_problem(_dump(doc))

    @pytest.mark.parametrize("key", ["lambda", "r", "s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_params_must_be_finite_numbers(self, key, value):
        doc = _doc()
        doc["params"][key] = value
        with pytest.raises(InvalidParams, match=rf"\b{key}\b"):
            parse_problem(_dump(doc))

    @pytest.mark.parametrize("spelling, number", [("1e-1", 0.1), ("1.0e0", 1.0), ("5E-1", 0.5)])
    def test_params_read_exponent_spellings(self, yaml_loader, spelling, number):
        # YAML 1.1 leaves these as strings; inline endpoints and --r read them.
        text = example_problem_text()
        for key in ("lambda", "r", "s"):
            text = text.replace(f"  {key}: ", f"  {key}: {spelling} #")
        assert parse_problem(text).params == PipelineParams(lam=number, r=number, s=number)

    def test_params_read_large_exponent(self):
        text = example_problem_text().replace("  r: 1.0", "  r: 1e3")
        assert parse_problem(text).params.r == 1000.0

    @pytest.mark.parametrize(
        "spelling, message",
        [
            (".inf", "param 'r' must be a finite number, got inf"),
            ("inf", "param 'r' must be a finite number, got 'inf'"),
            ("abc", "param 'r' must be a finite number, got 'abc'"),
            ("true", "param 'r' must be a finite number, got True"),
            ("1" + "0" * 400, "param 'r' must be a finite number, got 1000"),
        ],
        ids=[".inf", "inf", "abc", "true", "int-beyond-float"],
    )
    def test_params_reject_what_is_not_a_finite_number(self, yaml_loader, spelling, message):
        text = example_problem_text().replace("  r: 1.0", f"  r: {spelling}")
        with pytest.raises(InvalidParams, match=message):
            parse_problem(text)

    def test_params_built_directly_read_numbers_as_documents_do(self):
        assert PipelineParams(lam="0.5").lam == 0.5
        assert PipelineParams(s="1e-1").s == 0.1
        r = PipelineParams(r=2).r
        assert r == 2.0 and type(r) is float

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("r", True, "param 'r' must be a finite number, got True"),
            ("lam", None, "param 'lambda' must be a finite number, got None"),
            ("r", 10**400, "param 'r' must be a finite number, got 1000"),
            ("r", 10**5000, "param 'r' must be a finite number, got an int of 16610 bits"),
            ("s", "abc", "param 's' must be a finite number, got 'abc'"),
            ("r", float("inf"), "param 'r' must be a finite number, got inf"),
            ("baa_operator", 10**5000, "baa operator must be one of .*, got an int of 16610 bits"),
        ],
        ids=["bool", "none", "int-beyond-float", "int-too-long-to-print", "word", "inf",
             "operator-too-long-to-print"],
    )
    def test_params_built_directly_reject_what_is_not_a_number(self, field, value, message):
        with pytest.raises(InvalidParams, match=message):
            PipelineParams(**{field: value})

    def test_directly_built_problem_is_checked(self, example_problem):
        ratings = dict(example_problem.expert_ratings)
        del ratings["DM3"]
        with pytest.raises(DimensionMismatch, match="'ratings' is missing experts"):
            example_problem._replace(expert_ratings=ratings)

    def test_directly_built_problem_needs_an_expert(self, example_problem):
        with pytest.raises(ProblemSyntaxError) as info:
            example_problem._replace(experts=())
        assert str(info.value) == "'experts' must be a non-empty list of names"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alternatives", [1, 2, 3], "'alternatives' entries must be non-empty strings, got 1"),
            ("alternatives", ["A1", "A1", "A3"],
             "'alternatives' entries must be unique, got ['A1', 'A1', 'A3']"),
            ("experts", ("DM1", "DM2", "DM1"),
             "'experts' entries must be unique, got ['DM1', 'DM2', 'DM1']"),
            ("criteria", [CriterionSpec(name) for name in ["C1", "C2", "C3", "C2", "C5"]],
             "'criteria' entries must be unique, got ['C1', 'C2', 'C3', 'C2', 'C5']"),
            ("criteria", ["C1", "C2", "C3", "C4", "C5"],
             "'criteria' entries must be CriterionSpec values, got 'C1'"),
            ("alternatives", "XYZ", "'alternatives' must be a non-empty list of names"),
            ("experts", "DM1", "'experts' must be a non-empty list of names"),
            ("criteria", 5, "'criteria' must be a non-empty list"),
            ("expert_weights", 5, "'weights' must map each expert to a list of entries"),
            ("expert_ratings", 5, "'ratings' must map each expert to a matrix of entries"),
            ("expert_ratings", _replaced(_EXAMPLE.expert_ratings, ["DM2", 1], 5),
             "ratings[DM2] row 1: expected a list, got a int"),
            ("expert_weights", _replaced(_EXAMPLE.expert_weights, ["DM1", 4], 0.7),
             "weights[DM1][4]: an inline value must be two 5-tuples "
             "[[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], got 0.7"),
            ("expert_ratings", _replaced(_EXAMPLE.expert_ratings, ["DM3", 0, 2], 7),
             "ratings[DM3][A1][2]: an inline value must be two 5-tuples "
             "[[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], got 7"),
            ("params", None, "'params' must be a PipelineParams, got a NoneType"),
            ("rating_scale", "builtin", "'rating_scale' must be a LinguisticScale, got a str"),
            ("criteria", (), "'criteria' must be a non-empty list"),
            ("alternatives", ["A1", "A2", 10**5000],
             "'alternatives' entries must be non-empty strings, got an int of 16610 bits"),
            ("criteria", [*_EXAMPLE.criteria[:4], 10**5000],
             "'criteria' entries must be CriterionSpec values, got an int of 16610 bits"),
            ("expert_weights", _replaced(_EXAMPLE.expert_weights, ["DM1", 4], [10**5000]),
             "weights[DM1][4]: an inline value must be two 5-tuples "
             "[[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], got a list holding an int too long to print"),
            ("expert_ratings", _replaced(_EXAMPLE.expert_ratings, ["DM3", 0, 2], 10**5000),
             "ratings[DM3][A1][2]: an inline value must be two 5-tuples "
             "[[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], got an int of 16610 bits"),
            ("name", 5, "'name' must be a string, got 5"),
            ("name", 10**5000, "'name' must be a string, got an int of 16610 bits"),
        ],
        ids=["int-alternatives", "duplicate-alternatives", "duplicate-experts", "duplicate-criteria",
             "str-criteria", "bare-string-alternatives", "bare-string-experts", "int-criteria",
             "int-weights", "int-ratings", "int-row", "number-weight-cell", "number-rating-cell",
             "none-params", "str-scale", "empty-criteria", "alternative-too-long-to-print",
             "criteria-entry-too-long-to-print", "weight-cell-holding-an-int-too-long-to-print",
             "rating-cell-too-long-to-print", "int-name", "name-too-long-to-print"],
    )
    def test_directly_built_problem_checks_names(self, example_problem, field, value, message):
        with pytest.raises(ProblemSyntaxError) as info:
            example_problem._replace(**{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "extra, message",
        [
            ([5, "x"], "'weights' names unknown experts [5, 'x']"),
            (['x"', "x'"], """'weights' names unknown experts ['x"', "x'"]"""),
            ([10**5000], "'weights' names unknown experts [an int of 16610 bits]"),
        ],
        ids=["int-and-str", "sorted-by-str-not-repr", "too-long-to-print"],
    )
    def test_directly_built_problem_names_unknown_experts(self, example_problem, extra, message):
        weights = example_problem.expert_weights
        with pytest.raises(DimensionMismatch) as info:
            example_problem._replace(expert_weights={**weights, **{k: weights["DM1"] for k in extra}})
        assert str(info.value) == message

    def test_problem_built_from_the_raw_nodes_equals_the_parsed_one(self, example_problem):
        doc = _doc()
        built = example_problem._replace(expert_weights=doc["weights"], expert_ratings=doc["ratings"])
        assert built == example_problem

    def test_directly_built_problem_reports_a_shape_fault_before_an_unknown_term(
        self, example_problem
    ):
        ratings = _replaced(example_problem.expert_ratings, ["DM1", 0, 2], "XX")
        ratings = _replaced(ratings, ["DM2", 1], example_problem.expert_ratings["DM2"][1][:4])
        with pytest.raises(DimensionMismatch) as info:
            example_problem._replace(expert_ratings=ratings)
        assert str(info.value) == "ratings[DM2] row 1 ('A2'): expected 5 entries, got 4"

    @pytest.mark.parametrize(
        "upper, lower, shown",
        [
            ((math.nan, 0.5, 0.6, 0.9, 1.0), (0.5, 0.5, 0.6, 0.8, 0.9), "upper trapezoid: nan"),
            ((0.3, 0.5, 0.6, math.inf, 1.0), (0.5, 0.5, 0.6, 0.8, 0.9), "upper trapezoid: inf"),
            ((0.3, 0.5, 0.6, 0.9, 1.0), (-math.inf, 0.5, 0.6, 0.8, 0.9), "lower trapezoid: -inf"),
        ],
        ids=["nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize(
        "field, path, where",
        [("expert_ratings", ["DM2", 1, 3], "ratings[DM2][A2][3]"),
         ("expert_weights", ["DM3", 0], "weights[DM3][0]")],
        ids=["rating", "weight"],
    )
    def test_directly_built_cell_must_be_finite(
        self, example_problem, upper, lower, shown, field, path, where
    ):
        # The trapezoid refuses the number, so no such IT2TrFN reaches a problem; the
        # same numbers as an inline value are refused at their cell, as in a document
        with pytest.raises(ProblemSyntaxError, match="^a[1-4]=-?(nan|inf) is not a finite number$"):
            IT2TrFN(GeneralizedTrapezoid(*upper), GeneralizedTrapezoid(*lower))
        entries = _replaced(getattr(example_problem, field), path, [list(upper), list(lower)])
        with pytest.raises(ProblemSyntaxError) as info:
            example_problem._replace(**{field: entries})
        assert str(info.value) == f"{where}: {shown} is not a finite number"

    def test_lambda_out_of_range(self):
        doc = _doc()
        doc["params"]["lambda"] = 1.5
        with pytest.raises(InvalidParams, match="lambda"):
            parse_problem(_dump(doc))

    def test_unknown_term_names_cell(self):
        doc = _doc()
        doc["ratings"]["DM1"][0][2] = "XX"
        with pytest.raises(UnknownTerm, match=r"ratings\[DM1\]\[A1\]\[2\]"):
            parse_problem(_dump(doc))

    def test_shape_fault_is_reported_before_an_unknown_term(self):
        doc = _doc()
        doc["ratings"]["DM1"][0][2] = "XX"
        doc["ratings"]["DM2"][1] = ["G", "G", "G", "G"]
        with pytest.raises(DimensionMismatch) as info:
            parse_problem(_dump(doc))
        assert str(info.value) == "ratings[DM2] row 1 ('A2'): expected 5 entries, got 4"

    def test_inline_value_accepted(self):
        doc = _doc()
        doc["ratings"]["DM1"][0][0] = [[5, 7, 7, 9, 1.0], [6, 7, 7, 8, 0.9]]
        problem = parse_problem(_dump(doc))
        mg = resolve(problem.rating_scale, "MG")
        assert problem.expert_ratings["DM1"][0][0] == mg

    def test_inline_scale(self):
        doc = _doc()
        doc["rating_scale"] = {
            "name": "tiny",
            "terms": {
                "BAD": [[0, 0, 0, 2, 1.0], [0, 0, 0, 1, 0.9]],
                "OK": [[4, 5, 5, 6, 1.0], [4.5, 5, 5, 5.5, 0.9]],
                "TOP": [[8, 10, 10, 10, 1.0], [9, 10, 10, 10, 0.9]],
            },
        }
        doc["ratings"] = {
            e: [["BAD", "OK", "TOP", "OK", "BAD"],
                ["OK", "TOP", "OK", "BAD", "TOP"],
                ["TOP", "BAD", "BAD", "TOP", "OK"]]
            for e in ["DM1", "DM2", "DM3"]
        }
        problem = parse_problem(_dump(doc))
        assert problem.rating_scale.name == "tiny"
        assert run(problem).ranking()

    def test_scale_file_reference(self, tmp_path):
        scale_doc = {
            "name": "filed",
            "terms": {"LO": [[0, 1, 1, 2, 1.0], [0.5, 1, 1, 1.5, 0.9]],
                      "HI": [[8, 9, 9, 10, 1.0], [8.5, 9, 9, 9.5, 0.9]]},
        }
        (tmp_path / "my.scale").write_text(yaml.safe_dump(scale_doc))
        doc = _doc()
        doc["rating_scale"] = "my.scale"
        doc["ratings"] = {
            e: [["LO"] * 5, ["HI"] * 5, ["LO", "HI", "LO", "HI", "LO"]]
            for e in ["DM1", "DM2", "DM3"]
        }
        problem = parse_problem(_dump(doc), base_dir=tmp_path)
        assert problem.rating_scale.name == "filed"

    def test_yaml_syntax_error(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("alternatives: [A1\ncriteria")

    def test_lone_surrogate_is_syntax_error(self, yaml_loader):
        # libyaml fails encoding the text to UTF-8, SafeLoader in its reader
        with pytest.raises(ProblemSyntaxError, match="not a valid problem document"):
            parse_problem("name: \ud800 x")

    def test_non_mapping_document(self):
        with pytest.raises(ProblemSyntaxError, match="mapping"):
            parse_problem("- just\n- a\n- list\n")

    def test_unknown_top_level_key(self):
        doc = _doc()
        doc["alternates"] = doc.pop("alternatives")
        with pytest.raises(ProblemSyntaxError, match="alternates"):
            parse_problem(_dump(doc))

    def test_duplicate_alternative_names(self):
        doc = _doc()
        doc["alternatives"] = ["A1", "A1", "A3"]
        with pytest.raises(ProblemSyntaxError, match="unique"):
            parse_problem(_dump(doc))


_DELETE = object()

# id -> (keys down to the replaced node, new node or _DELETE, error class, message);
# each edit of the bundled example breaks one rule of the input boundary
BOUNDARY_FAULTS = {
    "alternatives-not-a-list": (
        ["alternatives"], "A1", ProblemSyntaxError,
        "'alternatives' must be a non-empty list of names",
    ),
    "experts-empty": (
        ["experts"], [], ProblemSyntaxError, "'experts' must be a non-empty list of names",
    ),
    "criteria-not-a-list": (
        ["criteria"], {"C1": "benefit"}, ProblemSyntaxError, "'criteria' must be a non-empty list",
    ),
    "criteria-entry": (
        ["criteria", 4], {"name": "C5", "weight": 1}, ProblemSyntaxError,
        "criteria[4]: expected a name or a {name, sense} mapping, got {'name': 'C5', 'weight': 1}",
    ),
    "alternative-name": (
        ["alternatives", 1], 5, ProblemSyntaxError,
        "'alternatives' entries must be non-empty strings, got 5",
    ),
    "expert-name": (
        ["experts", 2], "", ProblemSyntaxError, "'experts' entries must be non-empty strings, got ''",
    ),
    "criterion-name": (
        ["criteria", 4], "", ProblemSyntaxError, "'criteria' entries must be non-empty strings, got ''",
    ),
    "duplicate-experts": (
        ["experts", 2], "DM1", ProblemSyntaxError,
        "'experts' entries must be unique, got ['DM1', 'DM2', 'DM1']",
    ),
    "duplicate-criteria": (
        ["criteria", 4], "C1", ProblemSyntaxError,
        "'criteria' entries must be unique, got ['C1', 'C2', 'C3', 'C4', 'C1']",
    ),
    "scale-file-not-a-mapping": (
        ["rating_scale"], "list.scale", ProblemSyntaxError,
        "rating_scale (list.scale): a scale must be a mapping with a 'terms' entry",
    ),
    "scale-without-terms": (
        ["rating_scale"], {"name": "x"}, ProblemSyntaxError,
        "rating_scale: a scale must be a mapping with a 'terms' entry",
    ),
    "scale-empty-terms": (
        ["weight_scale"], {"terms": {}}, ProblemSyntaxError,
        "weight_scale: 'terms' must be a non-empty mapping of term -> two 5-tuples",
    ),
    "scale-node": (
        ["rating_scale"], 5, ProblemSyntaxError,
        "rating_scale: expected 'builtin', an inline scale mapping, or a file path, got 5",
    ),
    "inline-value": (
        ["weights", "DM1", 4], [1, 2], ProblemSyntaxError,
        "weights[DM1][4]: an inline value must be two 5-tuples "
        "[[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], got [1, 2]",
    ),
    "inline-value-of-a-scale-term": (
        ["rating_scale"], {"terms": {"OK": [[4, 5, 5, 6, 1.0]]}}, ProblemSyntaxError,
        "rating_scale: scale term 'OK': an inline value must be two 5-tuples "
        "[[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], got [[4, 5, 5, 6, 1.0]]",
    ),
    "missing-keys": (
        ["ratings"], _DELETE, ProblemSyntaxError, "missing required keys: ['ratings']",
    ),
    "params-not-a-mapping": (
        ["params"], [0.5], ProblemSyntaxError, "'params' must be a mapping, got [0.5]",
    ),
    "unknown-param": (
        ["params", "t"], 1, ProblemSyntaxError,
        "unknown params ['t']; expected a subset of ['baa', 'lambda', 'r', 's']",
    ),
    "weights-not-a-mapping": (
        ["weights"], ["H"], ProblemSyntaxError,
        "'weights' must map each expert to a list of entries",
    ),
    "ratings-not-a-mapping": (
        ["ratings"], "MG", ProblemSyntaxError,
        "'ratings' must map each expert to a matrix of entries",
    ),
    "weights-row-not-a-list": (
        ["weights", "DM2"], "VH", ProblemSyntaxError, "weights[DM2]: expected a list, got a str",
    ),
    "ratings-matrix-not-a-list": (
        ["ratings", "DM2"], 5, ProblemSyntaxError, "ratings[DM2]: expected a list, got a int",
    ),
    "ratings-row-not-a-list": (
        ["ratings", "DM2", 1], "G", ProblemSyntaxError,
        "ratings[DM2] row 1: expected a list, got a str",
    ),
    "ratings-too-few-rows": (
        ["ratings", "DM2", 2], _DELETE, DimensionMismatch,
        "ratings[DM2]: expected 3 rows (one per alternative), got 2",
    ),
    "inline-endpoint-order": (
        ["weights", "DM1", 4], [[0.3, 0.7, 0.5, 0.9, 1.0], [0.4, 0.5, 0.5, 0.6, 0.9]],
        EndpointOrderViolation,
        "weights[DM1][4]: upper trapezoid: a2=0.7 exceeds a3=0.5; "
        "endpoints must satisfy a1 <= a2 <= a3 <= a4",
    ),
    "inline-height": (
        ["weights", "DM1", 4], [[0.3, 0.5, 0.5, 0.7, 1.5], [0.4, 0.5, 0.5, 0.6, 0.9]],
        HeightOutOfRange, "weights[DM1][4]: upper trapezoid: height h=1.5 must lie in (0, 1]",
    ),
    "scale-term-name": (
        ["rating_scale"], {"terms": {1: [[0, 1, 1, 2, 1.0], [0.5, 1, 1, 1.5, 0.9]]}},
        ProblemSyntaxError, "rating_scale: 'terms' entries must be non-empty strings, got 1",
    ),
    "criterion-sense": (
        ["criteria", 4], {"name": "C5", "sense": "maximize"}, InvalidParams,
        "criterion 'C5': sense must be 'benefit' or 'cost', got 'maximize'",
    ),
    "problem-name": (["name"], [1, 2], ProblemSyntaxError, "'name' must be a string, got [1, 2]"),
    "scale-name": (
        ["rating_scale"], {"name": ["x"], "terms": {"OK": [[0, 1, 1, 2, 1.0], [0.5, 1, 1, 1.5, 0.9]]}},
        ProblemSyntaxError, "rating_scale: a scale's 'name' must be a string, got ['x']",
    ),
}


@pytest.mark.parametrize("fault", list(BOUNDARY_FAULTS))
def test_boundary_messages(fault, tmp_path):
    keys, node, error, message = BOUNDARY_FAULTS[fault]
    doc = _doc()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if node is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = node
    (tmp_path / "list.scale").write_text("- a\n- b\n")
    with pytest.raises(error) as info:
        parse_problem(_dump(doc), base_dir=tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message


# id -> (a line of the bundled example, its replacement, the first line of the message);
# a YAML dump of a parsed document writes none of these
TEXT_FAULTS = {
    "name-too-long-to-print": ("name: system-analyst", "name: 0x" + "f" * 4000,
                               "'name' must be a string, got an int of 16000 bits"),
    "bool-tag": ("name: system-analyst", "name: system-analyst\nx: !!bool maybe",
                 "not a valid problem document: cannot read 'maybe' as 'tag:yaml.org,2002:bool'"),
    "int-tag": ("name: system-analyst", "name: system-analyst\nx: !!int ''",
                "not a valid problem document: cannot read '' as 'tag:yaml.org,2002:int'"),
    "timestamp-tag": ("name: system-analyst", "name: system-analyst\nx: !!timestamp x",
                      "not a valid problem document: cannot read 'x' as 'tag:yaml.org,2002:timestamp'"),
}


@pytest.mark.parametrize("fault", list(TEXT_FAULTS))
def test_boundary_messages_of_text_edits(fault, yaml_loader):
    old, new, message = TEXT_FAULTS[fault]
    text = example_problem_text()
    assert old in text
    with pytest.raises(ProblemSyntaxError) as info:
        parse_problem(text.replace(old, new, 1))
    assert type(info.value) is ProblemSyntaxError
    assert str(info.value).splitlines()[0] == message


@st.composite
def edited_fields(draw):
    """One example field, whole or with one expert entry, row or cell replaced by a drawn value."""
    field = draw(st.sampled_from(_EXAMPLE._fields))
    path, node = [], getattr(_EXAMPLE, field)
    while field.startswith("expert_") and not isinstance(node, IT2TrFN) and draw(st.booleans()):
        path.append(draw(st.sampled_from(sorted(node) if isinstance(node, Mapping)
                                         else range(len(node)))))
        node = node[path[-1]]
    items = tuple(node) if isinstance(node, (list, tuple)) else (node,)
    value = draw(st.one_of(
        st.integers(), st.none(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=4),
        st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
        st.sampled_from([items[:-1], items + items[:1]]),  # a tuple of the wrong length
        st.sampled_from(["H", "G", 10**5000]),  # a known term of each scale, an int too long to print
        st.just((*items[:-1], 10**5000)),  # the last item an int too long to print
    ))
    return {field: _replaced(getattr(_EXAMPLE, field), path, value)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fields=edited_fields())
def test_edited_problem_builds_and_runs_or_is_refused(fields):
    try:
        run(_EXAMPLE._replace(**fields))
    except MabacError:
        pass


def _generated_document(seed: int) -> str:
    """A random document in the benchmark generator's style, with a few variations."""
    rng = random.Random(seed)
    p, q, k = rng.randint(3, 12), rng.randint(3, 8), rng.randint(2, 5)
    weights, ratings = builtin_weight_scale().terms(), builtin_rating_scale().terms()
    criteria = [f"{{name: 'C{j}', sense: {rng.choice(['benefit', 'cost'])}}}" for j in range(q)]
    lines = [
        f"name: \"generated {seed}\"  # a comment",
        f"alternatives: [{', '.join(f'A{i}' for i in range(p))}]",
        f"criteria: [{', '.join(criteria)}]",
        "experts:",
        *(f"  - E{e}" for e in range(k)),
        "weights:",
        *(f"  E{e}: [{', '.join(rng.choice(weights) for _ in range(q))}]" for e in range(k)),
        "ratings:",
    ]
    for e in range(k):
        lines.append(f"  E{e}:")
        for _ in range(p):
            row = [rng.choice(ratings) for _ in range(q)]
            row[0] = f"'{row[0]}'"
            row[-1] = "[[5, 6, 7.5, 9, 1.0], [6, 6.5, 7, 8, .9]]"
            lines.append(f"    - [{', '.join(row)}]")
    lines += ["params:", f"  lambda: {rng.random()!r}", "  r: 2", "  s: 1.0e+0", "  baa: geomean"]
    return "\n".join(lines) + "\n"


#: The BAA settings whose orders must agree: Bonferroni (r, s) pairs, then geomean.
BAA_SETTINGS = [{"r": 1.0, "s": 1.0}, {"r": 2.0, "s": 0.5}, {"r": 0.1, "s": 3.0},
                {"baa_operator": "geomean"}]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_order_does_not_depend_on_the_baa(seed):
    # score_i = sum_j q_ij - sum_j g_j: the BAA shifts every score by one offset.
    problem = parse_problem(_generated_document(seed))
    for lam in (0.0, 0.3, 0.7, 1.0):
        reference, *others = [run(problem, PipelineParams(lam=lam, **baa)) for baa in BAA_SETTINGS]
        scores = reference.scores
        for trace in others:
            # a swap is allowed only between near-ties, at perfbench's gate tolerance
            for a, b in zip(trace.order, trace.order[1:]):
                assert scores[a] >= scores[b] - 1e-9 * max(1.0, abs(scores[b]))
            offsets = [x - y for x, y in zip(trace.scores, scores)]
            # largest spread measured over seeds 0..399 at these settings: 6.7e-16
            assert max(offsets) - min(offsets) <= 2e-15


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_both_loaders_parse_to_equal_problems(seed, monkeypatch):
    text = example_problem_text() if seed is None else _generated_document(seed)
    problem = parse_problem(text)
    monkeypatch.setattr(it2mabac.problem, "_Loader", yaml.SafeLoader)
    assert parse_problem(text) == problem


def _parse_outcome(text: str):
    """The parsed problem, or the class name of the package error it raised."""
    try:
        return parse_problem(text)
    except MabacError as exc:
        return type(exc).__name__


def test_tabs_parse_alike_under_both_loaders(monkeypatch):
    # libyaml alone accepts a tab after `name:` or a flow-sequence comma;
    # each mutation turns one space outside the comment lines into a tab
    lines = example_problem_text().splitlines(keepends=True)
    mutated = [
        "".join(lines[:n]) + line[:i] + "\t" + line[i + 1:] + "".join(lines[n + 1:])
        for n, line in enumerate(lines) if not line.lstrip().startswith("#")
        for i, c in enumerate(line) if c == " "
    ]
    module_loader = [_parse_outcome(t) for t in mutated]
    monkeypatch.setattr(it2mabac.problem, "_Loader", yaml.SafeLoader)
    safe_loader = [_parse_outcome(t) for t in mutated]
    differ = [t for t, a, b in zip(mutated, module_loader, safe_loader) if a != b]
    assert differ == []
    assert "ProblemSyntaxError" in module_loader


class TestRun:
    def test_bundled_example_ranking(self, example_trace):
        assert example_trace.ranking() == EXPECTED_RANKING
        assert example_trace.order == [1, 2, 0]

    def test_bundled_example_scores(self, example_trace):
        assert example_trace.scores == pytest.approx(EXPECTED_SCORES, abs=1e-6)

    def test_geomean_variant_scores(self, example_problem):
        trace = run(example_problem, PipelineParams(baa_operator="geomean"))
        assert trace.scores == pytest.approx(EXPECTED_SCORES_GEOMEAN, abs=1e-6)
        assert trace.ranking() == EXPECTED_RANKING

    def test_one_expert_copy_aggregates_to_itself(self):
        doc = _doc()
        doc["experts"] = ["DM1"]
        doc["weights"] = {"DM1": doc["weights"]["DM1"]}
        doc["ratings"] = {"DM1": doc["ratings"]["DM1"]}
        problem = parse_problem(_dump(doc))
        trace = run(problem)
        assert trace.aggregated_weights == list(problem.expert_weights["DM1"])
        assert trace.aggregated_ratings == list(map(list, problem.expert_ratings["DM1"]))

    @pytest.mark.parametrize(
        "document, huge, ranking",
        [(example_problem_text, 1e307, EXPECTED_RANKING),
         (lambda: _GEN.emit(_GEN.template("scale-bonferroni", 0)), 1e306, None)],
        ids=["example", "p150"],
    )
    def test_finite_numbers_summing_past_the_float_range_locate_no_fault(
        self, locate_calls, document, huge, ranking
    ):
        # every weight's endpoints are finite, but stages hold numbers whose sum overflows:
        # the scans still pass every cell
        doc = yaml.safe_load(document())
        value = [[huge] * 4 + [1.0], [huge] * 4 + [0.9]]
        doc["weights"] = {e: [value] * len(doc["criteria"]) for e in doc["experts"]}
        trace = run(parse_problem(_dump(doc)))
        assert ranking is None or trace.ranking() == ranking
        assert locate_calls == []

    def test_identical_alternatives_tie_stably(self):
        doc = _doc()
        doc["alternatives"] = ["A1", "A1bis", "A2"]
        for expert in doc["ratings"]:
            rows = doc["ratings"][expert]
            doc["ratings"][expert] = [rows[0], list(rows[0]), rows[1]]
        problem = parse_problem(_dump(doc))
        trace = run(problem)
        assert trace.scores[0] == pytest.approx(trace.scores[1], abs=1e-12)
        assert trace.order.index(0) < trace.order.index(1)

    def test_constant_crisp_column_fails_with_stage_label(self):
        doc = _doc()
        for expert in doc["ratings"]:
            for row in doc["ratings"][expert]:
                row[2] = [[5, 5, 5, 5, 1.0], [5, 5, 5, 5, 1.0]]
        problem = parse_problem(_dump(doc))
        message = r"^step 3 \(normalization\): criterion C3: all upper endpoints coincide"
        with pytest.raises(DegenerateRange, match=message):
            run(problem)

    def test_value_tolerated_in_order_can_break_it_once_scaled(self):
        # a1 exceeds a2 by 9e-10, inside EPS; scaled by the column range 1e-3
        # the excess is 9e-7, which step 3 must refuse.
        t = GeneralizedTrapezoid(5e-4 + 9e-10, 5e-4, 5e-4, 1e-3, 1.0)
        tolerated, low = IT2TrFN(t, t), make((0, 0, 0, 1e-3, 1.0), (0, 0, 0, 1e-3, 1.0))
        ratings = {
            e: [[tolerated if i == 0 else low, *row[1:]] for i, row in enumerate(rows)]
            for e, rows in _EXAMPLE.expert_ratings.items()
        }
        problem = _EXAMPLE._replace(expert_ratings=ratings)
        message = r"^step 3 \(normalization\): alternative A1, criterion C1: a1=\S+ exceeds a2="
        with pytest.raises(EndpointOrderViolation, match=message):
            run(problem)

    def test_negative_baa_input_names_its_criterion(self):
        # -1e-9 passes step 4's check of the weight, but not once multiplied by n + 1 > 1
        w = make((-1e-9, 0, 0, 0.1, 1), (-1e-9, 0, 0, 0.05, 0.9))
        weights = {e: (w, *row[1:]) for e, row in _EXAMPLE.expert_weights.items()}
        with pytest.raises(NegativeOperand) as info:
            run(_EXAMPLE._replace(expert_weights=weights))
        assert str(info.value) == (
            "step 5 (border approximation area): BAA of C1: the Bonferroni mean is only defined "
            "for non-negative values, got endpoints down to -1.25e-09"
        )

    def test_cli_style_params_override(self, example_problem):
        base = run(example_problem)
        other = run(example_problem, PipelineParams(lam=0.0))
        assert base.q != other.q


# lambda = 0, 0.1, ..., 1 under each (operator, r, s); r and s do not enter geomean
SWEEP_PARAMS = [
    PipelineParams(lam=i / 10, r=r, s=s, baa_operator=operator)
    for i in range(11)
    for operator, r, s in [
        ("geomean", 1.0, 1.0),
        ("bonferroni", 1.0, 1.0),
        ("bonferroni", 2.0, 1.0),
        ("bonferroni", 0.0, 1.5),
    ]
]


@pytest.mark.parametrize("seed", [None, 1, 3, 5])
def test_a_sweep_over_one_problem_matches_fresh_parses(seed):
    text = example_problem_text() if seed is None else _generated_document(seed)
    shared = parse_problem(text)
    for params in SWEEP_PARAMS:
        fresh = render_machine(run(parse_problem(text), params))
        assert render_machine(run(shared, params)) == fresh, params


class TestFrozenProblem:
    def test_fields_cannot_be_assigned(self):
        problem = load_example_problem()
        with pytest.raises(AttributeError, match="cannot assign"):
            problem.name = "other"
        with pytest.raises(AttributeError, match="cannot assign"):
            problem.alternatives = ["A1"]

    def test_scale_entries_are_read_only(self):
        problem = load_example_problem()
        with pytest.raises(TypeError):
            problem.rating_scale.entries["G"] = None
        with pytest.raises(TypeError):
            del problem.weight_scale.entries["VH"]

    def test_expert_entries_are_read_only(self):
        problem = load_example_problem()
        with pytest.raises(TypeError):
            problem.expert_ratings["DM1"] = problem.expert_ratings["DM2"]
        with pytest.raises(TypeError):
            problem.expert_weights["DM1"][0] = problem.expert_weights["DM2"][0]

    def test_mutating_a_trace_leaves_the_next_run_unchanged(self):
        problem = load_example_problem()
        trace = run(problem)
        before = render_machine(trace)
        for matrix in (trace.aggregated_ratings, trace.normalized, trace.weighted):
            with pytest.raises(TypeError):  # a fuzzy matrix is read-only, row and cell
                matrix[0][0] = trace.aggregated_ratings[1][1]
            with pytest.raises(TypeError):
                matrix[0] = matrix[1]
            with pytest.raises(TypeError):
                matrix.columns[0] = matrix.columns[1]
            for name in ("columns", "_p", "_memo"):  # and so are its attributes
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(matrix, name, getattr(trace.aggregated_ratings, name))
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(matrix, name)
        trace.aggregated_weights[0] = trace.aggregated_weights[1]
        trace.baa[0] = trace.baa[1]
        trace.baa.append(trace.baa[0])
        trace.name = "other"  # a trace is the one assignable record, so it has no hash
        assert trace.name == "other"
        with pytest.raises(TypeError, match="unhashable"):
            hash(trace)
        assert render_machine(run(problem)) == before

    def test_replaced_ratings_get_new_averages(self):
        problem = load_example_problem()
        run(problem)
        copies = {e: problem.expert_ratings["DM1"] for e in problem.experts}
        replaced = problem._replace(expert_ratings=copies)
        expected = list(map(list, problem.expert_ratings["DM1"]))
        assert run(replaced).aggregated_ratings == expected
        assert run(problem).aggregated_ratings != expected

    def test_a_step_3_failure_is_labelled_on_every_run(self):
        doc = _doc()
        for expert in doc["ratings"]:
            for row in doc["ratings"][expert]:
                row[2] = [[5, 5, 5, 5, 1.0], [5, 5, 5, 5, 1.0]]
        problem = parse_problem(_dump(doc))
        messages = []
        for _ in range(2):
            with pytest.raises(DegenerateRange) as info:
                run(problem)
            messages.append(str(info.value))
        assert "step 3 (normalization)" in messages[0]
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("low, message", [
        (-1, "step 4 (weighting): weight of C1: multiplication is only defined for non-negative "
             "values, got endpoints down to -1.0"),
        (-1e-9, "step 5 (border approximation area): BAA of C1: the Bonferroni mean is only "
                "defined for non-negative values, got endpoints down to -1.25e-09"),
    ], ids=["step-4", "step-5"])
    def test_a_step_4_or_5_failure_is_labelled_on_every_run(self, low, message):
        w = make((low, 0, 0, 0.1, 1), (low, 0, 0, 0.05, 0.9))
        weights = {e: (w, *row[1:]) for e, row in _EXAMPLE.expert_weights.items()}
        problem = _EXAMPLE._replace(expert_weights=weights)
        for params in (None, PipelineParams(lam=0.0), None):
            with pytest.raises(NegativeOperand) as info:
                run(problem, params)
            assert str(info.value) == message


SWEEP_LAMBDAS = [i / 10 for i in range(11)]


def _sweep(problem):
    return [run(problem, PipelineParams(lam=lam, baa_operator="geomean")) for lam in SWEEP_LAMBDAS]


def test_a_sweep_shares_the_fuzzy_matrices_and_scores_as_fresh_runs():
    traces = _sweep(load_example_problem())
    for trace, lam in zip(traces, SWEEP_LAMBDAS):
        assert trace.normalized is traces[0].normalized and trace.weighted is traces[0].weighted
        assert trace.baa == traces[0].baa
        fresh = run(load_example_problem(), PipelineParams(lam=lam, baa_operator="geomean"))
        assert list(map(float.hex, trace.scores)) == list(map(float.hex, fresh.scores))
    assert len({id(trace.baa) for trace in traces}) == len(traces)


def test_run_calls_every_stage_through_the_module_on_every_run(monkeypatch):
    # a benchmark wraps these module attributes to time each stage and count its calls
    expected = _sweep(load_example_problem())
    calls = {}

    def counted(name, stage):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return stage(*args, **kwargs)
        return wrapper

    for name in ("normalize", "weight", "baa"):
        monkeypatch.setattr(it2mabac.problem, name, counted(name, getattr(it2mabac.problem, name)))
    assert _sweep(load_example_problem()) == expected
    assert calls == {"normalize": 11, "weight": 11, "baa": 11}
