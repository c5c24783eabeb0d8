"""Tests for the MABAC stages on matrices of fuzzy values."""

import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, finite, it2trfns
from it2mabac import (
    BAA,
    EPS,
    LAA,
    UAA,
    CriterionSpec,
    DecisionProblem,
    GeneralizedTrapezoid,
    IT2TrFN,
    PipelineParams,
    add,
    average_ratings,
    average_weights,
    builtin_rating_scale,
    builtin_weight_scale,
    baa,
    classify_and_score,
    crisp,
    crisp_matrices,
    distance,
    geometric_mean,
    load_example_problem,
    make,
    mean,
    mul,
    normalize,
    rank_to_one,
    run,
    scale,
    tit2fgbm,
    weight,
)
from it2mabac import aggregation, pipeline
from it2mabac.errors import (
    ComputationError,
    DegenerateRange,
    DimensionMismatch,
    EmptyInput,
    EndpointOrderViolation,
    InvalidParams,
    MabacError,
    NegativeOperand,
    ProblemSyntaxError,
    TooFewValues,
    ZeroHeight,
)
from it2mabac.fuzzy import Matrix
from it2mabac.pipeline import BAA_OPERATORS, _range
from worked_example import CRITERIA, TABLE11_A2_DELTAS, table6_matrix

BENEFIT = [CriterionSpec(name) for name in CRITERIA]


@pytest.fixture(scope="module")
def aggregated():
    return [[make(*cell) for cell in row] for row in table6_matrix()]


def _reference(matrix, j, name):
    """The reference endpoints (a_minus, a_plus) of column j, as normalize takes them."""
    return _range([row[j].upper.a1 for row in matrix], [row[j].upper.a4 for row in matrix], name)


class TestColumnRange:
    def test_c1_reference_points(self, aggregated):
        assert _reference(aggregated, 0, "C1") == pytest.approx((5.67, 9.67), abs=0.01)

    def test_c2_reference_points(self, aggregated):
        assert _reference(aggregated, 1, "C2") == pytest.approx((5.00, 10.00))

    def test_single_row_column(self):
        matrix = [[make((3, 5, 5, 7, 1.0), (4, 5, 5, 6, 0.9))]]
        assert _reference(matrix, 0, "C1") == (3.0, 7.0)

    def test_degenerate_column_names_criterion(self):
        cell = crisp(2.0)
        with pytest.raises(DegenerateRange, match="flatline") as info:
            normalize([[cell], [cell]], [CriterionSpec("flatline")])
        assert str(info.value) == "criterion flatline: all upper endpoints coincide at 2, nothing to scale against"
        assert info.value._cell is None

    def test_range_that_is_not_finite_names_criterion(self):
        with pytest.raises(ComputationError) as info:
            normalize([[crisp(-1e308)], [crisp(1e308)]], [CriterionSpec("wide")])
        assert type(info.value) is ComputationError
        assert str(info.value) == "criterion wide: the range a+ - a- = 1e+308 - -1e+308 is not a finite number"
        assert info.value._cell is None


class TestNormalize:
    def test_benefit_cell_a2_c2(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        assert normalized[1][1].upper.endpoints == pytest.approx((0.8, 1.0, 1.0, 1.0), abs=1e-9)

    def test_column_min_maps_to_zero(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        assert normalized[0][0].upper.a1 == 0.0  # A1/C1 holds the column minimum

    def test_cost_reverses_endpoints(self):
        matrix = [[make((3, 5, 5, 7, 1.0), (4, 5, 5, 6, 0.9))]]
        normalized = normalize(matrix, [CriterionSpec("only", "cost")])
        assert normalized[0][0].upper.endpoints == pytest.approx((0.0, 0.5, 0.5, 1.0))
        assert normalized[0][0].lower.endpoints == pytest.approx((0.25, 0.5, 0.5, 0.75))

    def test_heights_survive(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        assert normalized[0][0].upper.h == 1.0
        assert normalized[0][0].lower.h == pytest.approx(0.9)

    def test_width_mismatch(self, aggregated):
        with pytest.raises(DimensionMismatch):
            normalize(aggregated, BENEFIT[:-1])

    def test_no_rows_are_refused_before_the_range_and_keep_nothing(self):
        rows = Matrix([[()] * 10], 0)
        for _ in range(2):
            with pytest.raises(EmptyInput, match="^normalization needs at least one alternative$") as info:
                normalize(rows, [CriterionSpec("C1")])
            assert info.value._cell is None
        assert rows._memo == {}
        with pytest.raises(EmptyInput):
            normalize([], [CriterionSpec("C1")])

    def test_rows_without_criteria_read_as_empty_rows(self):
        normalized = normalize([[], []], [])
        assert len(normalized) == 2 and list(normalized) == [(), ()]

    def test_sense_validation(self):
        with pytest.raises(InvalidParams):
            CriterionSpec("bad", "maximize")
        with pytest.raises(InvalidParams) as info:
            CriterionSpec("bad", 10**5000)
        assert str(info.value) == (
            "criterion 'bad': sense must be 'benefit' or 'cost', got an int of 16610 bits"
        )

    @pytest.mark.parametrize("name", [1.5, "", None, ["C1"]])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(ProblemSyntaxError) as info:
            CriterionSpec(name)
        assert str(info.value) == f"'criteria' entries must be non-empty strings, got {name!r}"


class TestWeight:
    def test_a2_c2_weighted_cell(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        w = make((0.9, 1, 1, 1, 1.0), (0.9, 1, 1, 1, 0.9))
        weighted = weight(normalized, [w] * 5)
        assert weighted[1][1].upper.endpoints == pytest.approx((1.62, 2.0, 2.0, 2.0), abs=1e-9)

    def test_zero_weight_zeroes_column(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        weights = [crisp(1.0)] * 4 + [crisp(0.0)]
        weighted = weight(normalized, weights)
        assert all(weighted[i][4].upper.endpoints == (0, 0, 0, 0) for i in range(3))

    def test_dimension_mismatch(self, aggregated):
        with pytest.raises(DimensionMismatch):
            weight(aggregated, [crisp(1.0)] * 4)

    def test_weights_are_checked_before_any_cell(self):
        # Cell (0, 0) plus one reaches down to -2; the weight of column 1 to -0.5.
        below = make((-3, 0, 0, 1, 1.0), (-2.5, 0, 0, 0.5, 0.9))
        negative = make((-0.5, 0.5, 0.5, 0.7, 1.0), (0.4, 0.5, 0.5, 0.6, 0.9))
        with pytest.raises(NegativeOperand, match="got endpoints down to -0.5$") as info:
            weight([[below, crisp(0.0)]], [crisp(1.0), negative])
        assert info.value._cell == (None, 1)
        with pytest.raises(NegativeOperand, match="got endpoints down to -2.0$") as info:
            weight([[crisp(0.0), crisp(0.0)], [crisp(0.0), below]], [crisp(1.0), crisp(1.0)])
        assert info.value._cell == (1, 1)


@pytest.mark.parametrize(
    "stage, message",
    [
        ("normalize", "matrix rows have widths [4, 5], expected 5 criteria"),
        ("weight", "matrix rows have widths [4, 5], expected 5 weights"),
        ("crisp_matrices", "matrix rows have widths [4, 5], expected 5 BAA entries"),
        ("baa", "matrix rows have widths [4, 5], expected 5 criteria"),
    ],
)
def test_row_width_messages(aggregated, stage, message):
    ragged = [row[:4] if i == 1 else row for i, row in enumerate(aggregated)]
    calls = {
        "normalize": lambda: normalize(ragged, BENEFIT),
        "weight": lambda: weight(ragged, [crisp(1.0)] * 5),
        "crisp_matrices": lambda: crisp_matrices(ragged, [crisp(1.0)] * 5),
        "baa": lambda: baa(ragged),
    }
    with pytest.raises(DimensionMismatch) as info:
        calls[stage]()
    assert str(info.value) == message


class TestBaa:
    def test_column_aggregation_matches_operator(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        vector = baa(normalized, operator="bonferroni")
        assert len(vector) == 5

    def test_identical_column_is_idempotent(self):
        cell = make((1, 2, 2, 3, 1.0), (1.5, 2, 2, 2.5, 0.9))
        vector = baa([[cell], [cell], [cell]])
        assert vector[0].upper.endpoints == pytest.approx(cell.upper.endpoints, abs=1e-9)

    def test_requires_two_alternatives(self):
        with pytest.raises(TooFewValues):
            baa([[crisp(1.0)]])

    def test_operator_validation(self):
        with pytest.raises(InvalidParams):
            PipelineParams(baa_operator="median")

    @pytest.mark.parametrize("rows", [[[crisp(1.0)]], [[crisp(1.0)], [crisp(2.0)]]],
                             ids=["one row", "two rows"])
    def test_an_unknown_operator_is_the_params_refusal_before_any_other(self, rows):
        with pytest.raises(InvalidParams) as by_params:
            PipelineParams(baa_operator="median")
        with pytest.raises(InvalidParams) as by_stage:  # not TooFewValues on one row
            baa(rows, operator="median")
        assert str(by_stage.value) == str(by_params.value) == (
            f"baa operator must be one of {BAA_OPERATORS}, got 'median'")
        assert by_stage.value._cell is None

    def test_a_run_reads_the_exponents_once_in_step_5(self):
        problem, params = load_example_problem(), PipelineParams(r=2.0)
        reader = mock.Mock(wraps=aggregation._check_exponents)
        # every reader of the package counts, in the BAA kernels as in the stage
        with mock.patch.object(pipeline, "_check_exponents", reader, create=True), \
                mock.patch.object(aggregation, "_check_exponents", reader):
            trace = run(problem, params)
        assert len(trace.criteria) == 5
        reader.assert_called_once_with(2.0, 1.0)

    def test_the_geometric_mean_reads_the_exponents_too(self):
        rows = [[crisp(1.0)], [crisp(2.0)]]
        with pytest.raises(InvalidParams, match=r"^Bonferroni exponents must be non-negative .* got "
                                                r"r=-1\.0, s=1\.0$") as info:
            baa(rows, operator="geomean", r=-1.0)
        assert info.value._cell is None
        assert baa(rows, operator="geomean", r=2.0) == baa(rows, operator="geomean")

    def test_the_first_of_several_faults_is_refused(self):
        # Each call mends the fault refused by the one before: the operator, then one row,
        # then a ragged row, then the exponent, then a value below the cone.
        negative = make((-1, 0, 0, 1, 1.0), (-0.5, 0, 0, 0.5, 0.9))
        one, two = crisp(1.0), crisp(2.0)
        calls = [
            (lambda: baa([[negative, one]], operator="median", r=-1.0), InvalidParams, "baa operator"),
            (lambda: baa([[negative, one]], r=-1.0), TooFewValues, "at least two alternatives"),
            (lambda: baa([[negative, one], [two]], r=-1.0), DimensionMismatch, "widths [1, 2]"),
            (lambda: baa([[negative, one], [two, one]], r=-1.0), InvalidParams, "r=-1.0, s=1.0"),
            (lambda: baa([[negative, one], [two, one]]), NegativeOperand, "down to -1"),
        ]
        for call, error, text in calls:
            with pytest.raises(MabacError) as info:
                call()
            assert type(info.value) is error and text in str(info.value)
        assert info.value._cell == (None, 0)


def _fresh(m):
    """A new matrix of the columns of ``m``, with no result kept on it."""
    return Matrix(m.columns, len(m))


class TestKeptResults:
    """Steps 3-5 keep their result on their input matrix, keyed by the argument objects."""

    W = make((0, 0.1, 0.2, 0.3, 1.0), (0, 0.1, 0.2, 0.25, 0.9))
    W_NEG_ZERO = make((-0.0, 0.1, 0.2, 0.3, 1.0), (0, 0.1, 0.2, 0.25, 0.9))

    def test_the_same_argument_objects_return_the_kept_result(self, aggregated):
        ratings = Matrix.of(aggregated)
        normalized = normalize(ratings, BENEFIT)
        assert normalize(ratings, list(BENEFIT)) is normalized
        weights = [self.W] * 5
        weighted = weight(normalized, weights)
        assert weight(normalized, tuple(weights)) is weighted
        vector = baa(weighted, operator="geomean")
        again = baa(weighted, operator="geomean")
        assert again == vector and again is not vector  # a fresh list of the kept values
        vector[0] = vector[1]
        assert baa(weighted, operator="geomean") == again

    def test_equal_but_other_specs_compute_again(self, aggregated):
        ratings = Matrix.of(aggregated)
        normalized = normalize(ratings, BENEFIT)
        other = normalize(ratings, [CriterionSpec(name) for name in CRITERIA])
        assert other is not normalized and other == normalized
        cost = [CriterionSpec(BENEFIT[0].name, "cost"), *BENEFIT[1:]]
        assert normalize(ratings, cost) == normalize(_fresh(ratings), cost) != normalized

    def test_a_weight_equal_up_to_the_sign_of_zero_computes_again(self, aggregated):
        assert self.W == self.W_NEG_ZERO
        normalized = normalize(aggregated, BENEFIT)
        first = weight(normalized, [self.W] * 5)
        second = weight(normalized, [self.W_NEG_ZERO] + [self.W] * 4)
        expected = weight(_fresh(normalized), [self.W_NEG_ZERO] + [self.W] * 4)
        assert [bits(v) for v in second[0]] == [bits(v) for v in expected[0]]
        assert bits(second[0][0]) != bits(first[0][0])  # -0.0 * (n + 1) keeps its sign

    @pytest.mark.parametrize("call", [
        {"operator": "geomean"}, {"operator": "bonferroni", "r": 2.0}, {"operator": "bonferroni", "s": 0.5},
    ], ids=["operator", "r", "s"])
    def test_another_operator_or_exponent_computes_again(self, aggregated, call):
        weighted = weight(normalize(aggregated, BENEFIT), [self.W] * 5)
        kept = baa(weighted)
        vector = baa(weighted, **call)
        assert list(map(bits, vector)) == list(map(bits, baa(_fresh(weighted), **call)))
        assert vector != kept

    def test_a_call_that_raises_keeps_nothing(self, aggregated):
        normalized = normalize(aggregated, BENEFIT)
        weighted = weight(normalized, [self.W] * 5)
        negative = make((-1, 0, 0, 0.1, 1.0), (-1, 0, 0, 0.05, 0.9))
        for _ in range(2):
            with pytest.raises(NegativeOperand):
                weight(normalized, [negative] * 5)
        assert weight(normalized, [self.W] * 5) is weighted


class TestCrispMatrices:
    def test_entry_equal_to_baa_gives_zero_delta(self):
        cell = make((1, 2, 2, 3, 1.0), (1.5, 2, 2, 2.5, 0.9))
        _, _, delta = crisp_matrices([[cell], [cell]], [cell])
        assert delta[0][0] == 0.0
        assert delta[1][0] == 0.0

    def test_crisp_one_entry_gives_zero_q(self):
        from it2mabac import CRISP_ONE

        q, _, _ = crisp_matrices([[CRISP_ONE], [crisp(2.0)]], [crisp(1.5)])
        assert q[0][0] == 0.0

    def test_rank_params_propagate(self):
        cell = make((0.5, 1, 1, 1.5, 1.0), (0.75, 1, 1, 1.25, 0.9))
        low_q, _, _ = crisp_matrices([[cell], [cell]], [cell], lam=0.0)
        high_q, _, _ = crisp_matrices([[cell], [cell]], [cell], lam=1.0)
        assert low_q != high_q

    def test_heights_too_small_to_divide_by_name_the_cell(self):
        tiny = make((1, 2, 2, 3, 1e-160), (1, 2, 2, 3, 1e-160))  # 2*hu*hl is subnormal
        cell = crisp(1.0)
        for weighted, baa_vector, at in [
            ([[cell, cell], [cell, tiny]], [cell, cell], (1, 1)),
            ([[cell, tiny], [cell, tiny]], [cell, tiny], (0, 1)),  # the first cell, not the BAA
            ([[cell], [cell]], [tiny], (None, 0)),
        ]:
            with pytest.raises(ZeroHeight, match="^membership heights 1e-160 and 1e-160 are too") as info:
                crisp_matrices(weighted, baa_vector)
            assert info.value._cell == at

    def test_a_lambda_that_is_not_finite_is_refused_by_rank_to_one(self):
        cell = crisp(1.0)
        for weighted, baa_vector in (([[cell], [cell]], [cell]), ([[cell, cell], [cell, cell]], [cell, cell])):
            with pytest.raises(InvalidParams, match="^the rank-based distance needs a finite lambda, got nan$") \
                    as info:
                crisp_matrices(weighted, baa_vector, lam=math.nan)
            assert info.value._cell is None  # the fault of a parameter names no cell

    @pytest.mark.parametrize("lam", ["x", True], ids=["str", "bool"])
    def test_lambda_is_read_by_the_rule_of_rank_to_one_before_any_cell(self, lam):
        cell = crisp(1.0)
        with pytest.raises(InvalidParams) as by_rank:
            rank_to_one(cell, lam)
        with pytest.raises(InvalidParams) as by_stage:
            crisp_matrices([[cell], [cell]], [cell], lam=lam)
        assert str(by_stage.value) == str(by_rank.value) == (
            f"the rank-based distance needs a finite lambda, got {lam!r}")
        assert by_stage.value._cell is None


class TestClassifyAndScore:
    def test_published_row_sums_to_its_parts(self):
        _, scores, _ = classify_and_score([list(TABLE11_A2_DELTAS)])
        assert scores[0] == pytest.approx(1.38, abs=1e-12)

    def test_all_zero_delta_is_border_everywhere(self):
        classification, scores, order = classify_and_score([[0.0, 0.0]] * 3)
        assert classification == [[BAA, BAA]] * 3
        assert scores == [0.0, 0.0, 0.0]
        assert order == [0, 1, 2]

    def test_sign_classification(self):
        classification, _, _ = classify_and_score([[0.2, -0.2, 0.0]])
        assert classification == [[UAA, LAA, BAA]]

    def test_stable_tie_break(self):
        _, _, order = classify_and_score([[0.5], [0.7], [0.5]])
        assert order == [1, 0, 2]

    def test_non_finite_score_names_the_alternative(self):
        delta = [[0.5], [float("inf")]]
        with pytest.raises(ComputationError, match="alternative A2"):
            classify_and_score(delta, ["A1", "A2"])
        with pytest.raises(ComputationError, match="row 1"):
            classify_and_score(delta)

    @pytest.mark.parametrize("alternatives", [["A1"], ["A1", "A2", "A3"], []],
                             ids=["too-few", "too-many", "none"])
    def test_alternatives_name_each_row_once(self, alternatives):
        with pytest.raises(DimensionMismatch) as info:
            classify_and_score([[1.0], [float("nan")]], alternatives)
        assert str(info.value) == f"2 rows of differences for {len(alternatives)} alternatives"


def _sign(x, tol=1e-9):
    if abs(x) < tol:
        return 0
    return 1 if x > 0 else -1


def test_scale_invariance_of_classification(example_trace):
    # multiplying a column and its border value by the same crisp factor
    # preserves the sign pattern while the rank stays monotone over the
    # column, which holds on the worked example for these factors
    for factor in (1.3, 1.7, 2.0, 3.0):
        k = crisp(factor)
        for j in range(len(example_trace.criteria)):
            before = [example_trace.delta[i][j] for i in range(3)]
            scaled_col = [mul(k, example_trace.weighted[i][j]) for i in range(3)]
            scaled_g = mul(k, example_trace.baa[j])
            g_val = abs(rank_to_one(scaled_g))
            after = [abs(rank_to_one(v)) - g_val for v in scaled_col]
            assert [_sign(b) for b in before] == [_sign(a) for a in after]


@given(
    rows=st.lists(
        st.lists(it2trfns(lo=0.0, hi=9.0), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    )
)
def test_normalization_idempotence(rows):
    # anchor row pins each column's reference points to (0, 10), so the
    # matrix is never degenerate and the second pass must be the identity
    anchor = [
        make((0, 2, 5, 10, 1.0), (1, 2, 5, 9, 0.9)),
        make((0, 3, 4, 10, 1.0), (2, 3, 4, 8, 0.9)),
    ]
    matrix = rows + [anchor]
    specs = [CriterionSpec("c1"), CriterionSpec("c2")]
    once = normalize(matrix, specs)
    twice = normalize(once, specs)
    assert twice == once


@given(
    rows=st.lists(st.lists(it2trfns(lo=0.0, hi=9.0), min_size=1, max_size=1),
                  min_size=2, max_size=4)
)
def test_cost_benefit_duality(rows):
    # normalizing as cost equals reflecting each value through the column's
    # reference points and normalizing as benefit
    matrix = [[row[0]] for row in rows] + [[make((0, 2, 5, 10, 1.0), (1, 2, 5, 9, 0.9))]]
    a_minus, a_plus = _reference(matrix, 0, "c")
    as_cost = normalize(matrix, [CriterionSpec("c", "cost")])

    def reflect(t):
        e = [a_plus + a_minus - x for x in reversed(t.endpoints)]
        return (*e, t.h)

    reflected = [[make(reflect(v.upper), reflect(v.lower))] for (v,) in matrix]
    as_benefit = normalize(reflected, [CriterionSpec("c", "benefit")])
    for (got,), (want,) in zip(as_cost, as_benefit):
        assert got.upper.endpoints == pytest.approx(want.upper.endpoints, abs=1e-9)
        assert got.lower.endpoints == pytest.approx(want.lower.endpoints, abs=1e-9)


@given(
    rows=st.lists(st.lists(it2trfns(lo=0.0, hi=9.0, signed_zeros=True), min_size=3, max_size=3),
                  min_size=1, max_size=3),
    senses=st.lists(st.sampled_from(["benefit", "cost"]), min_size=3, max_size=3),
)
def test_normalize_is_the_per_endpoint_formula(rows, senses):
    # the anchor row keeps every column's range at least [1, 10], and its
    # a_minus above 0 unless a drawn value reaches below 1
    matrix = rows + [[make((1, 2, 5, 10, 1.0), (1, 2, 5, 9, 0.9))] * 3]
    specs = [CriterionSpec(f"c{j}", sense) for j, sense in enumerate(senses)]
    want = [[] for _ in matrix]
    for j, spec in enumerate(specs):
        a_minus, a_plus = _reference(matrix, j, spec.name)
        rng = a_plus - a_minus
        for out, row in zip(want, matrix):
            cell = []
            for t in (row[j].upper, row[j].lower):
                if spec.sense == "benefit":
                    cell += [(x - a_minus) / rng for x in t.endpoints]
                else:
                    cell += [(a_plus - x) / rng for x in reversed(t.endpoints)]
                cell.append(t.h)
            out.append([x.hex() for x in cell])
    assert [[bits(v) for v in row] for row in normalize(matrix, specs)] == want


@given(
    rows=st.lists(st.lists(it2trfns(lo=0.0, hi=2.0, signed_zeros=True), min_size=3, max_size=3),
                  min_size=1, max_size=3),
    weights=st.lists(it2trfns(lo=0.0, hi=1.0, signed_zeros=True), min_size=3, max_size=3),
)
def test_weight_is_w_times_n_plus_one_per_endpoint(rows, weights):
    weighted = weight(rows, weights)
    for row, out in zip(rows, weighted):
        for w, n, v in zip(weights, row, out):
            want = []
            for wt, nt in ((w.upper, n.upper), (w.lower, n.lower)):
                want += [we * (ne + 1.0) for we, ne in zip(wt.endpoints, nt.endpoints)]
                want.append(min(wt.h, nt.h))
            assert bits(v) == [x.hex() for x in want]


@given(
    experts=st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.lists(it2trfns(lo=-1e300, hi=1e300, signed_zeros=True), min_size=2, max_size=2),
                 min_size=3, max_size=3),
        min_size=k, max_size=k)),
)
def test_average_ratings_is_the_mean_of_each_cell_bit_for_bit(experts):
    # the left fold (e1 + e2) + e3 ... and then * (1/k), as mean takes it; large
    # endpoints make the order of the additions show in the bits
    averaged = average_ratings(experts)
    want = [[bits(mean(cell)) for cell in zip(*rows)] for rows in zip(*experts)]
    assert [[bits(v) for v in row] for row in averaged] == want


def _rank_formula(v, lam):
    """rank_to_one of one cell, written out from its ten numbers."""
    (a1u, a2u, a3u, a4u), hu = v.upper.endpoints, v.upper.h
    (a1l, a2l, a3l, a4l), hl = v.lower.endpoints, v.lower.h
    bracket = hu * (lam * (a2l - a1l - a2u + a1u) - (a4l - a3l - a2l + a1l)) - hl * (
        a4u - a3u - a4l + a3l
    )
    return 1.0 - a4l - lam * (a1l - a1u + a4u - a4l) - bracket / (2.0 * hu * hl)


@given(
    rows=st.lists(st.lists(it2trfns(lo=-EPS, hi=9.0, signed_zeros=True), min_size=3, max_size=3),
                  min_size=1, max_size=4),
    senses=st.lists(st.sampled_from(["benefit", "cost"]), min_size=3, max_size=3),
    weights=st.lists(it2trfns(lo=0.0, hi=1.0, signed_zeros=True), min_size=3, max_size=3),
    lam=finite(0.0, 1.0),
)
def test_steps_3_4_and_6_are_the_per_cell_formulas_bit_for_bit(rows, senses, weights, lam):
    matrix = rows + [[make((1, 2, 5, 10, 1.0), (1, 2, 5, 9, 0.9))] * 3]  # no degenerate range
    specs = [CriterionSpec(f"c{j}", sense) for j, sense in enumerate(senses)]
    normalized = normalize(matrix, specs)
    want = []
    for row in matrix:
        out = []
        for j, (spec, v) in enumerate(zip(specs, row)):
            a_minus, a_plus = _reference(matrix, j, spec.name)
            rng = a_plus - a_minus
            cell = []
            for t in (v.upper, v.lower):
                if spec.sense == "benefit":
                    cell += [(x - a_minus) / rng for x in t.endpoints]
                else:
                    cell += [(a_plus - x) / rng for x in reversed(t.endpoints)]
                cell.append(t.h)
            out.append(cell)
        want.append(out)
    want = [[[x.hex() for x in cell] for cell in row] for row in want]
    assert [[bits(v) for v in row] for row in normalized] == want

    weighted = weight(normalized, weights)
    for n_row, v_row in zip(normalized, weighted):
        for w, n, v in zip(weights, n_row, v_row):
            cell = []
            for wt, nt in ((w.upper, n.upper), (w.lower, n.lower)):
                cell += [we * (ne + 1.0) for we, ne in zip(wt.endpoints, nt.endpoints)]
                cell.append(min(wt.h, nt.h))
            assert bits(v) == [x.hex() for x in cell]

    border = baa(weighted)
    q, g, delta = crisp_matrices(weighted, border, lam)
    assert [x.hex() for x in g] == [abs(_rank_formula(b, lam)).hex() for b in border]
    assert [[x.hex() for x in row] for row in q] == [
        [abs(_rank_formula(v, lam)).hex() for v in row] for row in weighted
    ]
    assert [[x.hex() for x in row] for row in delta] == [
        [(qij - gj).hex() for qij, gj in zip(row, g)] for row in q
    ]


def test_weight_refuses_an_overflow_on_finite_factors_only():
    huge = make((0, 1e308, 1e308, 1.7e308, 1.0), (0, 1e308, 1e308, 1.7e308, 0.9))
    with pytest.raises(ComputationError) as info:
        weight([[crisp(0.0), crisp(0.0)], [crisp(0.5), crisp(0.5)]], [crisp(1.0), huge])
    assert info.value._cell == (1, 1)
    assert str(info.value) == "w * (n + 1) = 1.7e+308 * (0.5 + 1.0) overflows on finite factors"


@st.composite
def delta_matrices(draw, max_rows=6, max_cols=4):
    width = draw(st.integers(1, max_cols))
    return draw(
        st.lists(
            st.lists(finite(-2.0, 2.0), min_size=width, max_size=width),
            min_size=1,
            max_size=max_rows,
        )
    )


@given(delta=delta_matrices())
def test_ranking_is_permutation_with_descending_scores(delta):
    _, scores, order = classify_and_score(delta)
    assert sorted(order) == list(range(len(delta)))
    ordered = [scores[i] for i in order]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))


def _tolerated(lo, hi):
    """A value whose a1 exceeds a2 by 9e-10: inside EPS, but not once scaled up."""
    t = GeneralizedTrapezoid(lo + 9e-10, lo, lo, hi, 1.0)
    return IT2TrFN(t, t)


_LOW = make((0, 0, 0, 1e-3, 1.0), (0, 0, 0, 1e-3, 0.9))
_BELOW = make((-3, 0, 0, 1, 1.0), (-2.5, 0, 0, 0.5, 0.9))  # plus one, down to -2
_ORDER = "a1={} exceeds a2={}; endpoints must satisfy a1 <= a2 <= a3 <= a4"
_NEGATIVE = "multiplication is only defined for non-negative values, got endpoints down to -2.0"
_TINY = "membership heights 1e-160 and 1e-160 are too small to divide by"
_BONFERRONI_BELOW = "the Bonferroni mean is only defined for non-negative values, got endpoints down to {}"


def _rounded_up(a1, a2):
    """A value whose a1 exceeds a2 by 9e-10, inside EPS; averaged with a flat value far
    above it, a1's sum rounds up by an ulp and a2's down, so the mean breaks the order."""
    t = GeneralizedTrapezoid(a1, a2, 1.0, 2.0, 1.0)
    return IT2TrFN(t, t)


#: Matrices with faults in two cells of different rows and columns, and the fault reported:
#: steps 2, 4 and 6 scan row by row, steps 3 and 5 column by column, and every fault of a
#: cell names it.
FIRST_FAULTS = {
    "step 2, two cells": (
        lambda: average_ratings([[[crisp(1.0), _rounded_up(7.85e-9, 6.95e-9)],
                                  [_rounded_up(3.02e-8, 2.93e-8), crisp(1.0)]],
                                 [[crisp(1.0), crisp(1e8)], [crisp(4e8), crisp(1.0)]]]),
        EndpointOrderViolation, (0, 1), _ORDER.format("50000000.00000001", "50000000.0"),
    ),
    "step 2, an overflow before a cell out of order": (
        lambda: average_ratings([[[crisp(1.0), crisp(1e308)], [_rounded_up(3.02e-8, 2.93e-8), crisp(1.0)]],
                                 [[crisp(1.0), crisp(1e308)], [crisp(4e8), crisp(1.0)]]]),
        ComputationError, (0, 1), "the mean overflows on finite values",
    ),
    "step 3, two columns": (
        lambda: normalize([[_LOW, _tolerated(5e-4, 1e-3)], [_tolerated(5e-4, 1e-3), _LOW], [_LOW, _LOW]],
                          [CriterionSpec("c0"), CriterionSpec("c1", "cost")]),
        EndpointOrderViolation, (1, 0), _ORDER.format("0.5000009", "0.5"),
    ),
    "step 3, a cell before a degenerate column": (
        lambda: normalize([[_tolerated(5e-4, 1e-3), crisp(2.0)], [_LOW, crisp(2.0)]],
                          [CriterionSpec("c0"), CriterionSpec("c1")]),
        EndpointOrderViolation, (0, 0), _ORDER.format("0.5000009", "0.5"),
    ),
    "step 4, two negative cells": (
        lambda: weight([[crisp(0.0), _BELOW], [_BELOW, crisp(0.0)]], [crisp(1.0)] * 2),
        NegativeOperand, (0, 1), _NEGATIVE,
    ),
    "step 4, a product out of order before a negative cell": (
        lambda: weight([[crisp(0.0), _tolerated(0.5, 1.0)], [_BELOW, crisp(0.0)]], [crisp(1000.0)] * 2),
        EndpointOrderViolation, (0, 1), _ORDER.format("1500.0000009", "1500.0"),
    ),
    "step 4, a negative cell before a product out of order": (
        lambda: weight([[crisp(0.0), _BELOW], [_tolerated(0.5, 1.0), crisp(0.0)]], [crisp(1000.0)] * 2),
        NegativeOperand, (0, 1), _NEGATIVE,
    ),
    "step 6, two cells": (
        lambda: crisp_matrices([[crisp(1.0), make((1, 2, 2, 3, 1e-160), (1, 2, 2, 3, 1e-160))],
                                [make((1, 2, 2, 3, 1e-170), (1, 2, 2, 3, 1e-170)), crisp(1.0)]],
                               [crisp(1.0)] * 2),
        ZeroHeight, (0, 1), _TINY,
    ),
    "step 3, a range that is not finite before a cell": (
        lambda: normalize([[crisp(-1e308), _tolerated(5e-4, 1e-3)], [crisp(1e308), _LOW]],
                          [CriterionSpec("c0"), CriterionSpec("c1")]),
        ComputationError, None, "criterion c0: the range a+ - a- = 1e+308 - -1e+308 is not a finite number",
    ),
    "step 3, a cell that overflows before one out of order": (
        lambda: normalize([[make((0, 0, 0, 1e-8, 1.0), (0, 0, 0, 1e305, 0.9)), _tolerated(5e-4, 1e-3)],
                           [crisp(0.0), _LOW]], [CriterionSpec("c0"), CriterionSpec("c1")]),
        ComputationError, (0, 0), "an endpoint scaled to [0.0, 1e-08] overflows on finite values",
    ),
    "step 6, a distance that overflows before a cell": (
        lambda: crisp_matrices([[make((0, 1e300, 1e300, 1e300, 1e-12), (0, 1e300, 1e300, 1e300, 1e-12))],
                                [make((1, 2, 2, 3, 1e-160), (1, 2, 2, 3, 1e-160))]], [crisp(1.0)]),
        ComputationError, (0, 0), "the rank-based distance overflows on finite endpoints",
    ),
    "step 5, two columns": (
        lambda: baa([[crisp(1.0), _BELOW], [make((-1, 0, 0, 1, 1.0), (-0.5, 0, 0, 0.5, 0.9)), crisp(1.0)]]),
        NegativeOperand, (None, 0), _BONFERRONI_BELOW.format("-1.0"),
    ),
    "step 5, an overflow before a column below the cone": (
        lambda: baa([[crisp(2.0), _BELOW], [crisp(2.0), crisp(0.5)]], r=1e308, s=1.0),
        ComputationError, (None, 0), "the bonferroni operator overflows with r=1e+308, s=1.0",
    ),
}


@pytest.mark.parametrize("case", list(FIRST_FAULTS))
def test_a_matrix_with_two_faults_reports_the_first_in_stage_order(case):
    call, error, cell, message = FIRST_FAULTS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert info.value._cell == cell
    assert str(info.value) == message


#: Endpoints out to the edge of the float range, of either sign, and heights down to 1e-12:
#: the sizes at which a stage can overflow on finite inputs. Most values stay on the unit
#: scale, so that problems also reach the later steps.
_EDGE = st.one_of(st.sampled_from([0.0, 1e-300, 1e300, 1e307, 1e308, 1.7e308]), finite(0.0, 1e308),
                  finite(-1e308, 0.0))
_HEIGHT = st.one_of(st.sampled_from([1.0, 1e-6, 1e-12]), finite(1e-12, 1.0))


@st.composite
def _trapezoids(draw, point, height, outside):
    upper = sorted(draw(st.lists(point, min_size=4, max_size=4)))
    # a lower trapezoid reaching far outside the upper one is mostly refused at step 4
    inside = finite(upper[0], upper[3])
    lower = sorted(draw(st.lists(st.one_of(inside, point) if outside else inside, min_size=4, max_size=4)))
    hu = draw(height)
    return IT2TrFN(GeneralizedTrapezoid(*upper, hu), GeneralizedTrapezoid(*lower, min(hu, draw(height))))


_edge_values = st.integers(0, 7).flatmap(
    lambda k: _trapezoids(finite(0.0, 10.0), finite(0.5, 1.0), False) if k > 1
    else _trapezoids(st.one_of(finite(0.0, 10.0), _EDGE), _HEIGHT, k))


@st.composite
def _edge_problems(draw):
    k, p, q = draw(st.integers(1, 2)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    experts = [f"DM{e}" for e in range(k)]
    values = st.lists(_edge_values, min_size=q, max_size=q)
    return DecisionProblem(
        alternatives=[f"A{i}" for i in range(p)],
        criteria=[CriterionSpec(f"C{j}", draw(st.sampled_from(["benefit", "cost"]))) for j in range(q)],
        experts=experts, weight_scale=builtin_weight_scale(), rating_scale=builtin_rating_scale(),
        expert_weights={e: draw(values) for e in experts},
        expert_ratings={e: [draw(values) for _ in range(p)] for e in experts},
        params=PipelineParams(lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
                              baa_operator=draw(st.sampled_from(["bonferroni", "geomean"]))),
    )


def _all_finite(*parts):
    """Whether every number of ``parts`` (values, numbers, and lists or matrices of them) is finite."""
    for part in parts:
        if isinstance(part, IT2TrFN):
            part = [x for t in (part.upper, part.lower) for x in (*t.endpoints, t.h)]
        if isinstance(part, (int, float)):
            if not math.isfinite(part):
                return False
        elif not isinstance(part, str) and not _all_finite(*part):
            return False
    return True


def _first_refusal(problem):
    """The label of the first stage that refuses ``problem``, or None, and the outputs of the
    stages before it, calling the stage functions one at a time; each output must be finite."""
    params, criteria, alternatives = problem.params, list(problem.criteria), list(problem.alternatives)
    stages = [
        ("step 1 (average weights)", lambda: average_weights([problem.expert_weights[e] for e in problem.experts])),
        ("step 2 (average decision matrix)",
         lambda: average_ratings([problem.expert_ratings[e] for e in problem.experts])),
        ("step 3 (normalization)", lambda: normalize(outputs[1], criteria)),
        ("step 4 (weighting)", lambda: weight(outputs[2], outputs[0])),
        ("step 5 (border approximation area)",
         lambda: baa(outputs[3], r=params.r, s=params.s, operator=params.baa_operator)),
        ("step 6 (distance matrices)", lambda: crisp_matrices(outputs[3], outputs[4], lam=params.lam)),
        ("step 7 (classification and ranking)", lambda: classify_and_score(outputs[5][2], alternatives)),
    ]
    outputs = []
    for label, stage in stages:
        try:
            outputs.append(stage())
        except MabacError:
            return label, outputs
        assert _all_finite(outputs[-1]), f"{label} wrote a number that is not finite"
    return None, outputs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problem=_edge_problems())
def test_no_nan_reaches_step_7(problem):
    # run refuses a problem at the first stage that refuses it alone, with that stage's
    # label; no stage writes a number that is not finite, so step 7 refuses only a row
    # sum of finite differences that overflows
    label, outputs = _first_refusal(problem)
    if label is None:
        trace = run(problem)
        assert _all_finite(trace.aggregated_weights, trace.aggregated_ratings, trace.normalized,
                           trace.weighted, trace.baa, trace.q, trace.g, trace.delta, trace.scores)
        return
    with pytest.raises(MabacError) as info:
        run(problem)
    assert str(info.value).startswith(label + ": ")
    if label.startswith("step 7"):
        assert _all_finite(outputs[5][2])


#: Where a public operation and its stage can part: values on the unit scale, far out to
#: 1.7e308, or of either sign (each mostly refused below the cone), with heights down to
#: 1e-160, where 2*hu*hl is no normal float; exponents at the edges of the one exponent rule
#: and past them; and, now and then, a lambda that is not finite.
_FAR = st.one_of(st.sampled_from([0.0, 1e308, 1.7e308]), finite(0.0, 1.7e308))
_far_values = st.integers(0, 5).flatmap(
    lambda k: _trapezoids(finite(0.0, 10.0), finite(0.5, 1.0), False) if k > 2
    else _trapezoids(_FAR if k else st.one_of(_FAR, finite(-1.7e308, 0.0), st.just(-1.7e308)),
                     st.one_of(finite(0.5, 1.0), st.just(1e-160)), True))
_EXPONENT = st.one_of(finite(0.0, 4.0), st.sampled_from([
    0.0, 1.0, sys.float_info.min / 2, sys.float_info.min, sys.float_info.max / 2, sys.float_info.max]))
_LAMBDA = st.integers(0, 7).flatmap(lambda k: st.sampled_from([math.nan, math.inf]) if k == 0
                                    else finite(0.0, 1.0))


def _outcome(call):
    """The bits of what ``call()`` returns (a value, or a list of floats), or the class and
    text of the package error it raises."""
    try:
        out = call()
    except MabacError as exc:
        return type(exc), str(exc)
    return [x.hex() for x in out] if isinstance(out, list) else bits(out)


def _step_6(v, lam):
    """Step 6 with ``v`` as both weighted cells and the BAA: Q's two entries, then G's."""
    q, g, _ = crisp_matrices([[v], [v]], [v], lam)
    return [*q[0], *q[1], *g]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_far_values, min_size=2, max_size=4), r=_EXPONENT, s=_EXPONENT, lam=_LAMBDA)
def test_each_public_operation_is_its_stage_on_one_value(values, r, s, lam):
    # the same bits, or the same refusal: the public operations run their stage's checks
    column, first = [[v] for v in values], values[0]
    for public, stage in [
        (lambda: tit2fgbm(values, r=r, s=s), lambda: baa(column, r=r, s=s)[0]),
        (lambda: geometric_mean(values), lambda: baa(column, r=0.0, s=1.0, operator="geomean")[0]),
        (lambda: mean(values), lambda: average_weights(column)[0]),
        (lambda: [abs(rank_to_one(first, lam))] * 3, lambda: _step_6(first, lam)),
    ]:
        assert _outcome(public) == _outcome(stage)


def _sorted_value(points, hu, hl):
    """The IT2TrFN of eight points, each trapezoid's four sorted, and heights hu and min(hu, hl)."""
    return IT2TrFN(GeneralizedTrapezoid(*sorted(points[:4]), hu),
                   GeneralizedTrapezoid(*sorted(points[4:]), min(hu, hl)))


#: Values on the unit scale, far out to 1.7e308, or of either sign; lighter to draw than ``_far_values``.
_sorted_values = st.one_of(*[
    st.builds(_sorted_value, st.lists(point, min_size=8, max_size=8), finite(0.5, 1.0), finite(0.5, 1.0))
    for point in (finite(0.0, 10.0), _FAR, st.one_of(_FAR, finite(-1.7e308, 0.0)))])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), p=st.integers(2, 4), q=st.integers(1, 3), r=_EXPONENT, s=_EXPONENT, lam=_LAMBDA,
       k=_FAR, operator=st.sampled_from(BAA_OPERATORS))
def test_finite_in_finite_out_or_a_package_error(data, p, q, r, s, lam, k, operator):
    # every value is finite by construction, so an operation writes finite numbers or refuses
    rows = data.draw(st.lists(st.lists(_sorted_values, min_size=q, max_size=q), min_size=p, max_size=p))
    weights = data.draw(st.lists(_sorted_values, min_size=q, max_size=q))
    specs = [CriterionSpec(f"C{j}", data.draw(st.sampled_from(["benefit", "cost"]))) for j in range(q)]
    column = [row[0] for row in rows]
    a, b = column[:2]
    for call in [
        lambda: add(a, b), lambda: mul(a, b), lambda: scale(a, k), lambda: mean(column),
        lambda: tit2fgbm(column, r=r, s=s), lambda: geometric_mean(column),
        lambda: rank_to_one(a, lam), lambda: distance(a, b, lam),
        lambda: normalize(rows, specs), lambda: weight(rows, weights),
        lambda: baa(rows, r=r, s=s, operator=operator), lambda: crisp_matrices(rows, weights, lam),
    ]:
        try:
            out = call()
        except MabacError:
            continue
        assert _all_finite(out)
