"""Tests for the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import it2mabac.problem
from it2mabac import builtin_weight_scale, example_problem_text, parse_problem
from it2mabac.cli import main
from it2mabac.errors import MabacError
from it2mabac.problem import PARAM_KEYS


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "example.problem"
    path.write_text(example_problem_text())
    return str(path)


def test_example_prints_bundled_document(capsys):
    assert main(["example"]) == 0
    assert capsys.readouterr().out == example_problem_text()


def test_validate_ok(problem_file, capsys):
    assert main(["validate", problem_file]) == 0
    out = capsys.readouterr().out
    assert "3 alternatives" in out and "5 criteria" in out


def test_solve_text_report(problem_file, capsys):
    assert main(["solve", problem_file]) == 0
    out = capsys.readouterr().out
    assert "ranking: A2 > A3 > A1" in out


def test_solve_machine_report(problem_file, capsys):
    assert main(["solve", problem_file, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ranking"] == ["A2", "A3", "A1"]


def test_trace_single_table(problem_file, capsys):
    assert main(["trace", problem_file, "baa"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== Border approximation areas")
    assert "C5" in out


def test_trace_machine_table(problem_file, capsys):
    assert main(["trace", problem_file, "g", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"g"} and len(doc["g"]) == 5


def test_flag_overrides_change_the_result(problem_file, capsys):
    main(["solve", problem_file, "--format", "machine"])
    base = json.loads(capsys.readouterr().out)
    main(["solve", problem_file, "--baa", "geomean", "--format", "machine"])
    geo = json.loads(capsys.readouterr().out)
    assert base["scores"] != geo["scores"]
    main(["solve", problem_file, "--lambda", "0.0", "--format", "machine"])
    lam0 = json.loads(capsys.readouterr().out)
    assert lam0["params"]["lambda"] == 0.0
    assert lam0["q"] != base["q"]


def test_flags_set_the_params_they_name(problem_file, capsys):
    argv = ["--lambda", "0.3", "--r", "2", "--s", "0.5", "--baa", "geomean", "--format", "machine"]
    assert main(["solve", problem_file, *argv]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params == {"lambda": 0.3, "r": 2.0, "s": 0.5, "baa": "geomean"}
    assert list(params) == list(PARAM_KEYS)


@pytest.mark.parametrize(
    "argv",
    [["solve", "PATH", "--r", "abc"], ["solve", "PATH", "--baa", "foo"], ["solve"],
     ["trace", "PATH", "nope"], []],
    ids=["word-flag", "unknown-operator", "no-path", "unknown-table", "no-command"],
)
def test_usage_error_is_validation_failure(argv, problem_file, capsys):
    with pytest.raises(SystemExit) as info:
        main([problem_file if arg == "PATH" else arg for arg in argv])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: it2mabac") and "error: " in err


def test_missing_file_is_validation_failure(capsys):
    assert main(["solve", "/does/not/exist.problem"]) == 1
    assert "validation error" in capsys.readouterr().err


def test_invalid_document_is_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    doc = yaml.safe_load(example_problem_text())
    doc["ratings"]["DM1"][0] = ["G", "G"]
    bad.write_text(yaml.safe_dump(doc))
    assert main(["solve", str(bad)]) == 1
    assert "DM1" in capsys.readouterr().err


def test_bad_flag_value_is_validation_failure(problem_file, capsys):
    assert main(["solve", problem_file, "--lambda", "1.5"]) == 1
    assert "lambda" in capsys.readouterr().err


def test_computation_failure_exits_two(tmp_path, capsys):
    doc = yaml.safe_load(example_problem_text())
    for expert in doc["ratings"]:
        for row in doc["ratings"][expert]:
            row[0] = [[5, 5, 5, 5, 1.0], [5, 5, 5, 5, 1.0]]
    flat = tmp_path / "flat.problem"
    flat.write_text(yaml.safe_dump(doc))
    assert main(["solve", str(flat)]) == 2
    err = capsys.readouterr().err
    assert "computation error" in err and "step 3" in err


def _solve_edited_doc(edit, tmp_path):
    """Write the example with ``edit(doc)`` applied and solve it; return the exit code."""
    doc = yaml.safe_load(example_problem_text())
    edit(doc)
    path = tmp_path / "edited.problem"
    path.write_text(yaml.safe_dump(doc))
    return main(["solve", str(path)])


def test_negative_weight_term_fails_at_weighting(tmp_path, capsys):
    def edit(doc):
        terms = {t: [[*v.upper.endpoints, v.upper.h], [*v.lower.endpoints, v.lower.h]]
                 for t, v in builtin_weight_scale().entries.items()}
        terms["NEG"] = [[-0.5, 0.5, 0.5, 0.7, 1.0], [0.4, 0.5, 0.5, 0.6, 0.9]]
        doc["weight_scale"] = {"name": "with-negative", "terms": terms}
        for row in doc["weights"].values():
            row[0] = "NEG"

    assert _solve_edited_doc(edit, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation error: step 4 (weighting): weight of C1: ")
    assert "-0.5" in err


def test_rating_normalized_below_minus_one_fails_at_weighting(tmp_path, capsys):
    # valid, as a lower trapezoid may start below its upper one, but (A1, C1)
    # normalizes to endpoints below -1
    for rating, lowest in [([[5, 7, 7, 9, 1.0], [-100, 7, 7, 8, 0.9]], "-21.500000000000004"),
                           ([[5, 6, 7, 8, 1], [-10, 6, 7, 8, 0.9]], "-2.214285714285715")]:
        def edit(doc):
            for matrix in doc["ratings"].values():
                matrix[0][0] = rating

        assert _solve_edited_doc(edit, tmp_path) == 2
        assert capsys.readouterr().err == (
            "computation error: step 4 (weighting): alternative A1, criterion C1: multiplication is "
            f"only defined for non-negative values, got endpoints down to {lowest}\n"
        )


#: Heights on ratings of the example, and where step 6 refuses them: the
#: divisor 2*hu*hl underflows to 0 at 1e-200 and is subnormal at 1e-155. The
#: BAA takes the least of each height down its column, so two cells whose
#: own divisors are normal can give a BAA whose divisor underflows.
TINY_HEIGHTS = {
    "underflow": ({(0, 0): (1e-200, 1e-200)}, "alternative A1, criterion C1", "1e-200 and 1e-200"),
    "subnormal": ({(1, 2): (1e-155, 1e-155)}, "alternative A2, criterion C3", "1e-155 and 1e-155"),
    "baa": ({(0, 3): (1.0, 1e-200), (2, 3): (1e-150, 1e-150)}, "BAA of C4", "1e-150 and 1e-200"),
}


@pytest.mark.parametrize("case", list(TINY_HEIGHTS))
def test_heights_too_small_to_divide_by_fail_at_step_6_naming_the_cell(case, tmp_path, capsys):
    cells, where, heights = TINY_HEIGHTS[case]

    def edit(doc):
        for (i, j), (hu, hl) in cells.items():
            doc["ratings"]["DM1"][i][j] = [[5, 6, 7, 8, hu], [5, 6, 7, 8, hl]]

    assert _solve_edited_doc(edit, tmp_path) == 2
    assert capsys.readouterr().err == (
        f"computation error: step 6 (distance matrices): {where}: membership heights {heights} "
        "are too small to divide by\n"
    )


def test_small_heights_with_a_normal_divisor_are_solved(tmp_path, capsys):
    def edit(doc):
        doc["ratings"]["DM1"][0][0] = [[5, 6, 7, 8, 1e-100], [5, 6, 7, 8, 1e-100]]

    assert _solve_edited_doc(edit, tmp_path) == 0
    assert "ranking:" in capsys.readouterr().out


def test_experts_sharing_a_tolerated_value_average_cleanly(tmp_path, capsys):
    # a1 exceeds a2 by 8e-10 (inside EPS); the sum of two copies exceeds it
    # by 1.6e-9, which must not be validated on its way to the mean.
    def edit(doc):
        for expert in ("DM1", "DM2"):
            doc["ratings"][expert][0][0] = [[1 + 8e-10, 1, 2, 3, 1.0], [1.2 + 8e-10, 1.2, 2, 2.5, 0.9]]

    assert _solve_edited_doc(edit, tmp_path) == 0
    assert "ranking:" in capsys.readouterr().out


def _edited(old, new):
    text = example_problem_text()
    assert old in text
    return text.replace(old, new)


def _weight_upper(upper):
    entry = f"[{upper}, [0.4, 0.5, 0.5, 0.6, 0.9]]"
    return _edited("DM1: [H, VH, VH, VH, M]", f"DM1: [H, VH, VH, VH, {entry}]").encode()


# name -> (document bytes, text the error message must contain)
REPRODUCERS = {
    "nan_endpoint": (_weight_upper("[.nan, 0.5, 0.5, 0.7, 1]"), "weights[DM1][4]"),
    "inf_endpoint": (_weight_upper("[0.3, 0.5, 0.5, .inf, 1]"), "weights[DM1][4]"),
    "bool_height": (_weight_upper("[0.3, 0.5, 0.5, 0.7, true]"), "weights[DM1][4]"),
    "abc_endpoint": (_weight_upper("[abc, 0.5, 0.5, 0.7, 1]"), "weights[DM1][4]"),
    "nested_list": (_weight_upper("[[0.3], 0.5, 0.5, 0.7, 1]"), "weights[DM1][4]"),
    "r_inf": (_edited("  r: 1.0", "  r: .inf").encode(), "finite"),
    "lambda_bool": (_edited("  lambda: 0.5", "  lambda: true").encode(), "lambda"),
    "nan_criterion_name": (_edited("{name: C5,", "{name: .nan,").encode(), "criteria"),
    "list_criterion_name": (_edited("{name: C5,", "{name: [C5],").encode(), "criteria"),
    "nul_in_scale_path": (
        _edited("rating_scale: builtin", 'rating_scale: "a\\0b"').encode(),
        "scale file",
    ),
    "mixed_top_level_keys": ((example_problem_text() + "1: one\nfoo: two\n").encode(), "foo"),
    "mixed_param_keys": (_edited("  s: 1.0", "  s: 1.0\n  1: one\n  foo: two").encode(), "foo"),
    "mixed_expert_keys": (
        _edited("  DM1: [H, VH, VH, VH, M]", "  DM1: [H, VH, VH, VH, M]\n  5: [H]\n  x: [H]").encode(),
        "unknown experts",
    ),
    "non_utf8": (
        _edited("name: system-analyst", "name: syst\xe9m").encode("latin-1"),
        "utf-8",
    ),
}


@pytest.mark.parametrize("name", list(REPRODUCERS))
def test_malformed_input_is_validation_failure(name, tmp_path, capsys):
    data, named = REPRODUCERS[name]
    path = tmp_path / "bad.problem"
    path.write_bytes(data)
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert named in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("name", ["nan_endpoint", "r_inf", "abc_endpoint", "lambda_bool", "non_utf8"])
def test_reproducers_raise_the_same_error_under_both_loaders(name, monkeypatch):
    # surrogateescape carries the non-UTF-8 bytes into the text as lone surrogates
    text = REPRODUCERS[name][0].decode("utf-8", errors="surrogateescape")

    def error_class():
        with pytest.raises(MabacError) as info:
            parse_problem(text)
        return type(info.value)

    libyaml = error_class()
    monkeypatch.setattr(it2mabac.problem, "_Loader", yaml.SafeLoader)
    assert error_class() is libyaml


# Deep enough to exhaust the Python composer's recursion; a parser that
# recursed on the C stack instead would crash the test process.
DEEP_DOCUMENTS = {
    "flow": "name: " + "[" * 3000 + "]" * 3000 + "\n",
    "block": "name:\n" + "- " * 100_000 + "x\n",
}


@pytest.mark.parametrize("shape", list(DEEP_DOCUMENTS))
def test_deeply_nested_document_is_validation_failure(shape, yaml_loader, tmp_path, capsys):
    path = tmp_path / "deep.problem"
    path.write_text(DEEP_DOCUMENTS[shape])
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: not a valid problem document")


# PyYAML's safe constructor raises a bare ValueError for these scalars.
CONSTRUCTOR_VALUE_ERRORS = {
    "timestamp_not_a_date": ("name: system-analyst", "name: 2001-02-30"),
    "integer_too_long": ("  r: 1.0", "  r: 1" + "0" * 5000),
}


@pytest.mark.parametrize("name", list(CONSTRUCTOR_VALUE_ERRORS))
def test_scalar_the_constructor_refuses_is_validation_failure(name, yaml_loader, tmp_path, capsys):
    path = tmp_path / "bad.problem"
    path.write_text(_edited(*CONSTRUCTOR_VALUE_ERRORS[name]))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: not a valid problem document:")


def test_validation_error_raised_while_computing_exits_two(tmp_path, capsys):
    # a1 exceeds a2 by 9e-10, inside the tolerance of the parser but not
    # once normalization divides the column by its 2e-9 range.
    path = tmp_path / "order.problem"
    path.write_text(
        "alternatives: [A1, A2]\n"
        "criteria: [C1]\n"
        "experts: [E1]\n"
        "weights: {E1: [VH]}\n"
        "ratings:\n"
        "  E1:\n"
        "    - [[[9e-10, 0, 1e-9, 2e-9, 1], [9e-10, 0, 1e-9, 2e-9, 0.9]]]\n"
        "    - [[[0, 0, 1e-9, 2e-9, 1], [0, 0, 1e-9, 2e-9, 0.9]]]\n"
    )
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "computation error: step 3 (normalization): a1=0.44999999999999996 exceeds a2=0.0; "
    )


def test_cli_import_leaves_numpy_and_hypothesis_unloaded():
    src = str(Path(it2mabac.problem.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, it2mabac.cli; print(sorted({'numpy', 'hypothesis'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


EXAMPLE_BYTES = example_problem_text().encode()
FUZZ_TOKENS = [b"[", b"{", b"- ", b":", b"\t", b"\0", b"\xff", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def mutated_examples(draw):
    """The bundled example with a few insertions, deletions and replacements."""
    data = EXAMPLE_BYTES
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        start = draw(st.integers(0, len(data)))
        end = start if kind == "insert" else min(len(data), start + draw(st.integers(1, 8)))
        token = b"" if kind == "delete" else draw(st.sampled_from(FUZZ_TOKENS))
        data = data[:start] + token + data[end:]
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=mutated_examples())
def test_mutated_example_exits_cleanly(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.problem"
    path.write_bytes(data)
    assert main(["solve", str(path)]) in (0, 1, 2)


def test_non_finite_flag_is_validation_failure(problem_file, capsys):
    for flag, key, value in [("--r", "r", "inf"), ("--lambda", "lambda", "nan")]:
        assert main(["solve", problem_file, flag, value]) == 1
        assert capsys.readouterr().err == (
            f"validation error: param '{key}' must be a finite number, got {value}\n"
        )


@pytest.mark.parametrize("value, shown", [("1e-310", "1e-310"), ("1e308", "1e+308")])
def test_exponents_with_a_subnormal_or_infinite_sum_are_validation_failures(
    value, shown, problem_file, capsys
):
    assert main(["solve", problem_file, "--r", value, "--s", value]) == 1
    assert capsys.readouterr().err == (
        "validation error: Bonferroni exponents must be non-negative with a finite, "
        f"normal sum r + s, got r={shown}, s={shown}\n"
    )


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_overflowing_average_exits_two_naming_the_alternative(fmt, tmp_path, capsys):
    doc = yaml.safe_load(example_problem_text())
    for expert in doc["ratings"]:
        doc["ratings"][expert][0][0] = [[-1.7e308, 0, 0, 1.7e308, 1.0], [0, 0, 0, 1, 0.9]]
    path = tmp_path / "huge.problem"
    path.write_text(yaml.safe_dump(doc))
    assert main(["solve", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("computation error: step 7")
    assert "alternative A1" in captured.err


BEYOND_FLOAT = "1" + "0" * 400  # a YAML integer that float() cannot hold


@pytest.mark.parametrize(
    "upper",
    [f"[0, 0.1, 0.1, {BEYOND_FLOAT}, 1.0]", f"[0, 0.1, 0.1, 0.3, {BEYOND_FLOAT}]"],
    ids=["endpoint", "height"],
)
def test_integer_beyond_float_range_is_validation_failure(upper, yaml_loader, tmp_path, capsys):
    entry = f"[{upper}, [0.05, 0.1, 0.1, 0.2, 0.9]]"
    path = tmp_path / "huge.problem"
    path.write_text(_edited("DM1: [H, VH, VH, VH, M]", f"DM1: [{entry}, VH, VH, VH, M]"))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"validation error: weights[DM1][0]: upper trapezoid: {BEYOND_FLOAT} is not a finite number\n"
    )
