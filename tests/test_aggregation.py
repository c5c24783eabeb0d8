"""Tests for expert averaging and the geometric Bonferroni mean."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import finite, it2trfns
from it2mabac import (
    CriterionSpec,
    DecisionProblem,
    GeneralizedTrapezoid,
    IT2TrFN,
    PipelineParams,
    average_ratings,
    average_weights,
    builtin_rating_scale,
    builtin_weight_scale,
    geometric_mean,
    make,
    resolve,
    tit2fgbm,
)
from it2mabac.errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidParams,
    NegativeOperand,
    TooFewValues,
)
from worked_example import TABLE4_UPPER


def _weights(*terms):
    scale = builtin_weight_scale()
    return [resolve(scale, t) for t in terms]


def _ratings(*terms):
    scale = builtin_rating_scale()
    return [resolve(scale, t) for t in terms]


def _problem(weights, ratings):
    return DecisionProblem(
        alternatives=["A1", "A2"],
        criteria=[CriterionSpec("C1"), CriterionSpec("C2")],
        experts=["DM1", "DM2"],
        weight_scale=builtin_weight_scale(),
        rating_scale=builtin_rating_scale(),
        expert_weights=weights,
        expert_ratings=ratings,
    )


class TestAveraging:
    def test_average_weights_c1(self):
        (avg,) = average_weights([_weights("H"), _weights("VH"), _weights("MH")])
        assert avg.upper.endpoints == pytest.approx(TABLE4_UPPER["C1"][:4], abs=0.01)

    def test_average_weights_c2_all_vh(self):
        (avg,) = average_weights([_weights("VH")] * 3)
        assert avg.upper.endpoints == pytest.approx((0.90, 1.0, 1.0, 1.0))

    def test_single_expert_identity(self):
        vector = _weights("H", "M", "VL")
        assert average_weights([vector]) == vector

    def test_weight_dimension_mismatch_names_expert(self):
        with pytest.raises(DimensionMismatch, match="DM2"):
            _problem({"DM1": _weights("H", "M"), "DM2": _weights("H")},
                     {"DM1": [_ratings("G", "F")] * 2, "DM2": [_ratings("G", "F")] * 2})

    def test_average_ratings_cell(self):
        [[avg]] = average_ratings([[_ratings("MG")], [_ratings("G")], [_ratings("MG")]])
        assert avg.upper.endpoints == pytest.approx((5.67, 7.67, 7.67, 9.33), abs=0.01)
        assert avg.lower.endpoints == pytest.approx((6.67, 7.67, 7.67, 8.50), abs=0.01)

    def test_average_ratings_all_vg_idempotent(self):
        vg = _ratings("VG")[0]
        [[avg]] = average_ratings([[[vg]]] * 3)
        assert avg.upper.endpoints == pytest.approx(vg.upper.endpoints)
        assert avg.lower.endpoints == pytest.approx(vg.lower.endpoints)

    def test_rating_dimension_mismatch_names_row(self):
        good_matrix = [_ratings("G", "F"), _ratings("MG", "P")]
        bad_matrix = [_ratings("G", "F"), _ratings("MG")]
        with pytest.raises(DimensionMismatch, match="DM2.*row 1"):
            _problem({"DM1": _weights("H", "M"), "DM2": _weights("H", "M")},
                     {"DM1": good_matrix, "DM2": bad_matrix})


def _flat(v):
    return (
        make((v, v, v, v, 1.0), (v, v, v, v, 1.0))
        if not isinstance(v, IT2TrFN)
        else v
    )


class TestBonferroni:
    def test_matches_published_baa_first_endpoint(self):
        out = tit2fgbm([_flat(0.70), _flat(0.82), _flat(0.82)])
        assert out.upper.a1 == pytest.approx(0.78, abs=0.01)

    def test_derived_value_on_c5_column(self):
        out = tit2fgbm([_flat(0.43), _flat(0.65), _flat(0.65)])
        assert out.upper.a1 == pytest.approx(0.5744253869, abs=1e-9)

    def test_idempotency(self):
        value = make((1, 2, 3, 4, 1.0), (1.5, 2, 3, 3.5, 0.8))
        out = tit2fgbm([value, value, value], r=2.0, s=0.5)
        for got, want in zip(out.upper.endpoints, value.upper.endpoints):
            assert got == pytest.approx(want, abs=1e-9)
        assert out.lower.h == value.lower.h

    def test_heights_min_combined(self):
        a = make((1, 2, 3, 4, 1.0), (1, 2, 3, 4, 0.9))
        b = make((1, 2, 3, 4, 0.7), (1, 2, 3, 4, 0.6))
        out = tit2fgbm([a, b])
        assert out.upper.h == pytest.approx(0.7)
        assert out.lower.h == pytest.approx(0.6)

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            tit2fgbm([_flat(1.0)])

    def test_negative_operand(self):
        bad = make((-1, 0, 0, 1, 1.0), (-0.5, 0, 0, 0.5, 0.9))
        with pytest.raises(NegativeOperand):
            tit2fgbm([bad, _flat(1.0)])

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            PipelineParams(r=-1.0, s=2.0)
        with pytest.raises(InvalidParams):
            PipelineParams(r=0.0, s=0.0)


class TestGeometricMean:
    def test_matches_published_baa_first_endpoint(self):
        out = geometric_mean([_flat(0.70), _flat(0.82), _flat(0.82)])
        assert out.upper.a1 == pytest.approx(0.78, abs=0.01)

    def test_single_value_identity(self):
        value = make((1, 2, 3, 4, 1.0), (1.5, 2, 3, 3.5, 0.8))
        out = geometric_mean([value])
        assert out.upper.endpoints == pytest.approx(value.upper.endpoints)

    def test_zero_endpoint_stays_zero(self):
        out = geometric_mean([make((0, 1, 1, 2, 1.0), (0, 1, 1, 2, 0.9)), _flat(3.0)])
        assert out.upper.a1 == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            geometric_mean([])


# The operators disagree once a column has spread: on the worked example's
# weighted columns the largest gap is 0.027 (column C2), so agreement is
# asserted at 0.03, not at print precision.
def test_bonferroni_vs_geomean_on_worked_columns():
    from worked_example import ALTERNATIVES, CRITERIA, table7_matrix

    matrix = [[make(*cell) for cell in row] for row in table7_matrix()]
    worst = 0.0
    for j in range(len(CRITERIA)):
        column = [matrix[i][j] for i in range(len(ALTERNATIVES))]
        bonf = tit2fgbm(column)
        geo = geometric_mean(column)
        for a, b in zip(
            bonf.upper.endpoints + bonf.lower.endpoints,
            geo.upper.endpoints + geo.lower.endpoints,
        ):
            worst = max(worst, abs(a - b))
    assert worst < 0.03
    assert worst > 0.01  # the operators are genuinely distinguishable here


@given(values=st.lists(it2trfns(), min_size=2, max_size=5))
def test_bonferroni_with_r0_s1_is_geometric_mean(values):
    bonf = tit2fgbm(values, r=0.0, s=1.0)
    geo = geometric_mean(values)
    for a, b in zip(
        bonf.upper.endpoints + bonf.lower.endpoints,
        geo.upper.endpoints + geo.lower.endpoints,
    ):
        assert a == pytest.approx(b, abs=1e-9)


@given(
    values=st.lists(it2trfns(), min_size=2, max_size=5),
    r=finite(0.0, 3.0),
    s=finite(0.1, 3.0),
)
def test_bonferroni_matches_bruteforce_oracle(values, r, s):
    got = tit2fgbm(values, r=r, s=s)
    n = len(values)
    for level in ("upper", "lower"):
        for e in range(4):
            xs = [getattr(v, level).endpoints[e] for v in values]
            prod = 1.0
            for i in range(n):
                for j in range(n):
                    if i != j:
                        prod *= r * xs[i] + s * xs[j]
            want = prod ** (1.0 / (n * (n - 1))) / (r + s)
            assert getattr(got, level).endpoints[e] == pytest.approx(want, abs=1e-9)


@given(values=st.lists(it2trfns(), min_size=2, max_size=4), seed=st.randoms())
def test_bonferroni_symmetry(values, seed):
    shuffled = list(values)
    seed.shuffle(shuffled)
    a = tit2fgbm(values)
    b = tit2fgbm(shuffled)
    for x, y in zip(a.upper.endpoints + a.lower.endpoints,
                    b.upper.endpoints + b.lower.endpoints):
        assert x == pytest.approx(y, abs=1e-9)


@given(values=st.lists(it2trfns(), min_size=2, max_size=4), bump=finite(0.1, 5.0))
def test_bonferroni_monotonicity_and_boundedness(values, bump):
    base = tit2fgbm(values)
    # boundedness: every output endpoint within [min, max] of that position
    for level in ("upper", "lower"):
        for e in range(4):
            xs = [getattr(v, level).endpoints[e] for v in values]
            out = getattr(base, level).endpoints[e]
            assert min(xs) - 1e-9 <= out <= max(xs) + 1e-9
    # monotonicity: raising one upper fourth endpoint cannot lower the output
    first = values[0]
    raised = IT2TrFN(
        GeneralizedTrapezoid(
            first.upper.a1, first.upper.a2, first.upper.a3, first.upper.a4 + bump, first.upper.h
        ),
        first.lower,
    )
    out = tit2fgbm([raised] + values[1:])
    assert out.upper.a4 >= base.upper.a4 - 1e-9
    # untouched positions are unchanged
    assert out.upper.a1 == pytest.approx(base.upper.a1, abs=1e-12)
