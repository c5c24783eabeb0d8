"""Tests for expert averaging and the geometric Bonferroni mean."""

import math
import random
import re
import sys
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import given, settings
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
    baa,
    builtin_weight_scale,
    geometric_mean,
    make,
    mean,
    resolve,
    tit2fgbm,
)
from it2mabac import aggregation
from it2mabac.errors import (
    ComputationError,
    DimensionMismatch,
    EmptyInput,
    InvalidParams,
    NegativeOperand,
    TooFewValues,
)
from it2mabac.fuzzy import EPS
from oracle import CONTEXT, root_of_product
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

    @pytest.mark.parametrize("average", [mean, average_weights, average_ratings])
    def test_no_values_are_one_refusal(self, average):
        with pytest.raises(EmptyInput, match="^cannot average zero values$") as info:
            average([])
        assert info.value._cell is None

    def test_experts_of_unequal_shape_are_refused(self):
        # zip would cut the longer experts short: one weight, or a matrix of two rows
        # whose columns hold one
        a, b = _weights("H", "M")
        with pytest.raises(DimensionMismatch,
                           match=r"^expert matrices have row counts \[1, 2\], expected 2 weights$"):
            average_weights([[a, b], [a]])
        row = _ratings("G", "F")
        for matrices, count in (([row, row], [row]), 2), (([row], [row, row]), 1):
            with pytest.raises(DimensionMismatch, match=re.escape(
                    f"expert matrices have row counts [1, 2], expected {count} alternatives")):
                average_ratings(matrices)
        with pytest.raises(DimensionMismatch, match=r"^matrix rows have widths \[1\], expected 2 criteria$"):
            average_ratings([[row, row], [row[:1]]])

    def test_rating_dimension_mismatch_names_row(self):
        good_matrix = [_ratings("G", "F"), _ratings("MG", "P")]
        bad_matrix = [_ratings("G", "F"), _ratings("MG")]
        with pytest.raises(DimensionMismatch, match="DM2.*row 1"):
            _problem({"DM1": _weights("H", "M"), "DM2": _weights("H", "M")},
                     {"DM1": good_matrix, "DM2": bad_matrix})


def _endpoints(v):
    return v.upper.endpoints + v.lower.endpoints


#: Each endpoint up to EPS below the one before: a1 is 0.0, a4 is -2.8e-9, below -EPS.
SLIDING = make((0.0, -1e-9, -1.9e-9, -2.8e-9, 1.0), (0.0, -1e-9, -1.9e-9, -2.8e-9, 1.0))


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
        with pytest.raises(NegativeOperand, match="down to -2.8e-09$"):
            tit2fgbm([_flat(1.0), SLIDING])

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

    def test_negative_operand(self):
        bad = make((-1, 0, 0, 1, 1.0), (-0.5, 0, 0, 0.5, 0.9))
        with pytest.raises(NegativeOperand, match="the geometric mean .* down to -1.0$"):
            geometric_mean([bad, _flat(1.0)])
        with pytest.raises(NegativeOperand, match="down to -2.8e-09$"):
            geometric_mean([_flat(1.0), SLIDING])

    @pytest.mark.parametrize("copies", [500, 1000])
    def test_product_underflow_keeps_the_mean(self, copies):
        value = make((0.2, 0.3, 0.3, 0.4, 1.0), (0.25, 0.3, 0.3, 0.35, 0.9))
        out = geometric_mean([value] * copies)
        for got, want in zip(_endpoints(out), _endpoints(value)):
            assert got == pytest.approx(want, rel=1e-14)

    def test_product_overflow_keeps_the_mean(self):
        value = make((1.0, 1.5, 1.5, 1.9, 1.0), (1.2, 1.5, 1.5, 1.7, 0.9))
        out = geometric_mean([value] * 1200)
        for got, want in zip(_endpoints(out), _endpoints(value)):
            assert got == pytest.approx(want, rel=1e-14)

    def test_zero_input_after_overflow_is_zero(self):
        big = make((1.9, 1.9, 1.9, 1.9, 1.0), (1.9, 1.9, 1.9, 1.9, 1.0))
        zero = make((0.0, 1.9, 1.9, 1.9, 1.0), (0.0, 1.9, 1.9, 1.9, 1.0))
        out = geometric_mean([big] * 1200 + [zero])
        assert out.upper.a1 == out.lower.a1 == 0.0


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
    # One kernel takes both roots; the Bonferroni factors hold each x_j n-1 times (2 ulp measured).
    bonf = tit2fgbm(values, r=0.0, s=1.0)
    geo = geometric_mean(values)
    for a, b in zip(_endpoints(bonf), _endpoints(geo)):
        assert abs(a - b) <= 4 * math.ulp(b)


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


# Zeros of both signs, values in [-EPS, 0) (they take the max(., 0) clip) and
# positive floats.
def _signed_zero_endpoints(positive):
    return st.one_of(
        st.just(0.0), st.just(-0.0), st.floats(-EPS, 0.0, exclude_max=True), positive
    )


@st.composite
def _columns(draw, endpoint, min_size, max_size):
    """Values drawn from a small pool, so endpoint columns repeat entries."""

    @st.composite
    def value(draw):
        v = sorted(draw(st.lists(endpoint, min_size=5, max_size=5)))
        if draw(st.booleans()):  # a builtin term's shape: a2 = a3, shared by both levels
            upper, lower = (v[0], v[2], v[2], v[4]), (v[1], v[2], v[2], v[3])
        else:
            upper, lower = v[:4], sorted(draw(st.lists(endpoint, min_size=4, max_size=4)))
        return IT2TrFN(GeneralizedTrapezoid(*upper, 1), GeneralizedTrapezoid(*lower, 0.5))

    n = draw(st.integers(min_size, max_size))
    pool = draw(st.lists(value(), min_size=1, max_size=n))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def _bonferroni_inputs(draw):
    # int endpoints and exponents, alone or mixed with floats: int + float must still add
    floats = _signed_zero_endpoints(finite(0.0, 10.0))
    endpoint = draw(st.sampled_from([floats, st.integers(0, 10), floats | st.integers(0, 10)]))
    r = draw(st.sampled_from([0, 1, 2, 0.0, 1.0, 2.0]) | finite(0.0, 3.0))
    s = draw(st.sampled_from([1, 3, 1.0, 1.5]) | finite(0.1, 3.0))
    return draw(_columns(endpoint, 2, 20)), r, s


def _oracle_column(operator, xs, r, s):
    """The 50-digit root of the float factors ``operator`` forms from the column ``xs``, so
    only its product and root are measured; 0 if a factor is <= 0. ``tit2fgbm``'s factors are
    fl(fl(r*x_i) + fl(s*x_j)) over the pairs i != j; ``geometric_mean``'s are ``xs`` (r=0, s=1)."""
    if operator is geometric_mean:
        factors = xs
    else:
        factors = [r * xi + s * xj for i, xi in enumerate(xs) for j, xj in enumerate(xs) if i != j]
    with localcontext(CONTEXT):
        return root_of_product(list(map(Decimal, factors)), Decimal(r) + Decimal(s))


def _ulps(got, want):
    """|got - want| in units in the last place of ``want`` rounded to a float."""
    with localcontext(CONTEXT):
        return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


def _assert_near_the_oracle(operator, values, r=0.0, s=1.0, ulps=4):
    """``operator`` (``tit2fgbm`` at r, s, or ``geometric_mean``) of ``values``: every endpoint
    within ``ulps`` of the oracle, or exactly +0.0 where it is 0; heights are the min."""
    got = tit2fgbm(values, r=r, s=s) if operator is tit2fgbm else geometric_mean(values)
    oracle = {}  # one oracle per distinct column
    for x, column in zip(_endpoints(got), zip(*map(_endpoints, values))):
        if column not in oracle:
            oracle[column] = _oracle_column(operator, column, r, s)
        want = oracle[column]
        if want == 0:
            assert x == 0.0 and math.copysign(1.0, x) == 1.0
        else:
            assert _ulps(x, want) <= ulps, (column, r, s)
    assert got.upper.h == min(v.upper.h for v in values)
    assert got.lower.h == min(v.lower.h for v in values)


@settings(max_examples=300, deadline=None)
@given(inputs=_bonferroni_inputs())
def test_bonferroni_is_within_4_ulp_of_the_oracle(inputs):
    values, r, s = inputs
    _assert_near_the_oracle(tit2fgbm, values, r, s)
    _assert_near_the_oracle(geometric_mean, values)


@pytest.mark.parametrize("r, s", [(0.0, 0.1), (1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("x", [2.2250738585e-313, 5e-324, 2e-308])
def test_bonferroni_of_subnormal_inputs_is_within_4_ulp(x, r, s):
    # The mean is subnormal: 1/(r+s) must not magnify its rounding onto the subnormal grid.
    for values in ([_flat(x), _flat(x), _flat(3 * x)], [_flat(x)] * 2):
        _assert_near_the_oracle(tit2fgbm, values, r, s)
        _assert_near_the_oracle(geometric_mean, values)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 40, 150, 300])
def test_bonferroni_of_seeded_columns_is_within_4_ulp(n):
    rng = random.Random(n)
    for r, s in [(1.0, 1.0), (2.0, 0.5), (0.0, 1.0)]:
        values = [_flat(rng.uniform(0.0, 2.0)) for _ in range(n)]
        _assert_near_the_oracle(tit2fgbm, values, r, s)
        _assert_near_the_oracle(geometric_mean, values)


@pytest.mark.parametrize("n", [2, 3, 200, 300])
@pytest.mark.parametrize("r, s", [(1.0, 1.0), (2.0, 0.5)])
def test_bonferroni_of_equal_values_is_the_value(n, r, s):
    value = make((1, 2, 3, 4, 1.0), (1.5, 2, 3, 3.5, 0.8))
    out = tit2fgbm([value] * n, r=r, s=s)
    for got, want in zip(_endpoints(out), _endpoints(value)):
        assert abs(got - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 600, 1200])
def test_geometric_mean_of_equal_values_is_the_value(n):
    rng = random.Random(n)
    values = [make((1, 2, 3, 4, 1.0), (1.5, 2, 3, 3.5, 0.8)), _flat(1000.0), _flat(7e5)]
    values += [_flat(10 ** rng.uniform(-6.0, 6.0)) for _ in range(40)]
    for value in values:
        out = geometric_mean([value] * n)
        for got, want in zip(_endpoints(out), _endpoints(value)):
            assert abs(got - want) <= 2 * math.ulp(want), (value, n)


@pytest.mark.parametrize("r, s", [(1.0, 1.0), (1.0, 2.0)])
def test_bonferroni_with_negative_factors_is_zero(r, s):
    # With r != s the six negative factors multiply to a positive, in-range product.
    out = tit2fgbm([_flat(x) for x in (-1e-10, -1e-10, 0.0, 5.0)], r=r, s=s)
    assert _endpoints(out) == (0.0,) * 8


@pytest.mark.parametrize("column, r, s", [
    ([0.0, 0.0, 1.0], 1.0, 1.0), ([-0.0, -0.0, 1.0], 1.0, 1.0), ([0.0, 1.0, 2.0], 0.0, 1.0),
    ([-1e-10, 1.0, 2.0], 0.0, 1.0),
])
def test_bonferroni_with_a_zero_factor_is_positive_zero(column, r, s):
    values = [_flat(x) for x in column]
    for out in (tit2fgbm(values, r=r, s=s), geometric_mean(values)):
        assert _endpoints(out) == (0.0,) * 8
        assert all(math.copysign(1.0, x) == 1.0 for x in _endpoints(out))


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_bonferroni_keeps_blocks_that_leave_the_float_range(scale):
    # 300 factors near 2e-3 or 2e3: a block's product underflows or overflows.
    rng = random.Random(7)
    for r, s in [(1.0, 1.0), (2.0, 0.5)]:
        spread = [_flat(scale * rng.uniform(0.5, 2.0)) for _ in range(300)]
        for values in ([_flat(scale)] * 300, spread):
            _assert_near_the_oracle(tit2fgbm, values, r, s)
            _assert_near_the_oracle(geometric_mean, values)


def test_bonferroni_of_overflowing_factors_is_refused():
    # 1e308 + 1e308 overflows: the mean of finite values would be inf, as at step 5
    with pytest.raises(ComputationError, match=r"^the bonferroni operator overflows with r=1\.0, s=1\.0$"):
        tit2fgbm([_flat(1e308), _flat(1e308)])
    # 2 * (max / 2) is the largest float itself: no overflow.
    half_max = sys.float_info.max / 2
    assert _endpoints(tit2fgbm([_flat(half_max)] * 3)) == (half_max,) * 8


@pytest.mark.parametrize("values, r, s", [
    ([make([1e308] * 3 + [1.7e308, 1.0], [1e308] * 3 + [1.7e308, 0.9])] * 3, 1.0, 1.0),
    ([_flat(1.0), _flat(2.0)], 0.0, sys.float_info.max),
], ids=["factors", "exponents"])
def test_a_bonferroni_mean_that_overflows_is_refused_as_step_5_refuses_it(values, r, s):
    message = "^" + re.escape(f"the bonferroni operator overflows with r={r!r}, s={s!r}") + "$"
    with pytest.raises(ComputationError, match=message):
        tit2fgbm(values, r=r, s=s)
    with pytest.raises(ComputationError, match=message):
        baa([[v] for v in values], r=r, s=s)


def test_an_overflow_shows_the_exponents_as_read():
    # int exponents are read as the floats the mean computes with
    for call in (lambda: tit2fgbm([_flat(1e308)] * 2, r=1, s=1), lambda: baa([[_flat(1e308)]] * 2, r=1, s=1)):
        with pytest.raises(ComputationError, match=r"^the bonferroni operator overflows with r=1\.0, s=1\.0$"):
            call()


def test_a_mean_that_overflows_is_refused_as_step_1_refuses_it():
    for wide in (make((-1.7e308, 0, 0, 1.7e308, 1.0), (0, 0, 0, 1, 0.9)),
                 make((1e308, 1.5e308, 1.6e308, 1.7e308, 1), (1e308, 1.5e308, 1.6e308, 1.7e308, 1))):
        for call, cell in ((lambda: mean([wide, wide]), None),
                           (lambda: average_weights([[wide], [wide]]), (None, 0))):
            with pytest.raises(ComputationError, match="^the mean overflows on finite values$") as info:
                call()
            assert info.value._cell == cell  # one value names no cell; step 1 names the weight


#: Finite exponents outside the one rule: a negative r or s (with a normal sum too), or
#: a sum r + s that is zero, subnormal or infinite, each with r and s as shown.
OUTSIDE_THE_RULE = [
    (0.0, 0.0, "r=0.0, s=0.0"),
    (1.0, -1.0, "r=1.0, s=-1.0"),
    (-1.0, 0.5, "r=-1.0, s=0.5"),
    (0.5, -1.0, "r=0.5, s=-1.0"),
    (-0.5, 2.0, "r=-0.5, s=2.0"),
    (2.0, -0.5, "r=2.0, s=-0.5"),
    (5e-324, 5e-324, "r=5e-324, s=5e-324"),
    (1e-310, 1e-310, "r=1e-310, s=1e-310"),
    (0.0, sys.float_info.min / 2, "r=0.0, s=1.1125369292536007e-308"),
    (1e308, 1e308, "r=1e+308, s=1e+308"),
]
EXPONENT_RULE = r"^Bonferroni exponents must be non-negative with a finite, normal sum r \+ s, got "


@pytest.mark.parametrize("r, s, match", [
    *((r, s, EXPONENT_RULE + re.escape(shown) + "$") for r, s, shown in OUTSIDE_THE_RULE),
    (math.nan, 1.0, "needs a finite r, got nan$"),
    (1.0, math.inf, "needs a finite s, got inf$"),
    (1.0, -math.inf, "needs a finite s, got -inf$"),
    ("one", 1.0, "needs a finite r, got 'one'$"),
    (True, 1.0, "needs a finite r, got True$"),
])
def test_bonferroni_refuses_exponents_it_cannot_use(r, s, match):
    with pytest.raises(InvalidParams, match=match):
        tit2fgbm([_flat(1.0), _flat(2.0)], r=r, s=s)


def test_the_bonferroni_mean_reads_its_exponents_once():
    reader = mock.Mock(wraps=aggregation._check_exponents)
    with mock.patch.object(aggregation, "_check_exponents", reader):
        out = tit2fgbm([_flat(1.0), _flat(2.0), _flat(3.0)], r=2.0, s=0.5)
    reader.assert_called_once_with(2.0, 0.5)
    assert out == tit2fgbm([_flat(1.0), _flat(2.0), _flat(3.0)], r=2.0, s=0.5)
    with pytest.raises(TooFewValues):  # before the exponents are read
        tit2fgbm([_flat(1.0)], r=-1.0)


@pytest.mark.parametrize("r, s, shown", OUTSIDE_THE_RULE)
def test_params_refuse_exponents_under_the_same_rule(r, s, shown):
    with pytest.raises(InvalidParams, match=EXPONENT_RULE + re.escape(shown) + "$"):
        PipelineParams(r=r, s=s)


@pytest.mark.parametrize("r, s", [
    (sys.float_info.min / 2, sys.float_info.min / 2), (0.0, sys.float_info.min),
    (sys.float_info.max / 2, sys.float_info.max / 2), (0.0, sys.float_info.max), (-0.0, 1.0),
])
def test_exponents_at_the_edges_of_the_rule_are_admitted(r, s):
    assert PipelineParams(r=r, s=s).r == r
    if r + s <= 1.0:  # every factor r * x_i + s * x_j is at most 2 * (r + s)
        tit2fgbm([_flat(1.0), _flat(2.0)], r=r, s=s)
    else:  # admitted, but r * 1.0 + s * 2.0 or r * 2.0 + s * 1.0 overflows on finite values
        with pytest.raises(ComputationError, match=re.escape(f"overflows with r={r!r}, s={s!r}")) as caught:
            tit2fgbm([_flat(1.0), _flat(2.0)], r=r, s=s)
        assert not isinstance(caught.value, InvalidParams)


def _counts_the_column(values, r, s):
    """Whether ``tit2fgbm`` takes the counted form, the one caller of ``_distinct_factors``."""
    with mock.patch.object(aggregation, "_distinct_factors",
                           wraps=aggregation._distinct_factors) as spy:
        tit2fgbm(values, r=r, s=s)
    return spy.called


def _repeated_column(n, d, seed, lo=-6.0, hi=6.0):
    """n values that take d distinct ones, each at least once, in a shuffled order."""
    rng = random.Random(seed)
    pool = [10 ** rng.uniform(lo, hi) for _ in range(d)]
    column = pool + [rng.choice(pool) for _ in range(n - d)]
    rng.shuffle(column)
    return [_flat(x) for x in column]


COUNTED_EXPONENTS = [(1.0, 1.0), (2.0, 0.5), (0.0, 1.0)]


@pytest.mark.parametrize("r, s", COUNTED_EXPONENTS)
@pytest.mark.parametrize("d", [1, 2, 5, 40])
def test_bonferroni_of_repeated_values_is_within_4_ulp(d, r, s):
    values = _repeated_column(300, d, seed=d)
    assert _counts_the_column(values, r, s) is (r == s)
    _assert_near_the_oracle(tit2fgbm, values, r, s)


def _most_counted(n):
    """The largest d for which a column of n values takes the counted form; 0 if none."""
    if n < aggregation._LEAST_COUNTED:
        return 0
    d = 0
    while aggregation._COUNTED_COST * (d + 1) * (d + 2) < n * (n - 1):
        d += 1
    return d


@pytest.mark.parametrize("r, s", COUNTED_EXPONENTS)
def test_bonferroni_on_both_sides_of_the_switch_is_within_4_ulp(r, s):
    n = 300
    d = _most_counted(n)
    for distinct, counted in [(d, True), (d + 1, False)]:
        values = _repeated_column(n, distinct, seed=distinct, lo=-1.0, hi=1.0)
        assert _counts_the_column(values, r, s) is (counted and r == s), distinct
        _assert_near_the_oracle(tit2fgbm, values, r, s)
    # Too few values to be counted, then just enough.
    for n, counted in [(aggregation._LEAST_COUNTED - 1, False), (aggregation._LEAST_COUNTED, True)]:
        values = [_flat(0.7)] * n
        assert _counts_the_column(values, r, s) is (counted and r == s), n
        _assert_near_the_oracle(tit2fgbm, values, r, s)


@pytest.mark.parametrize("r, s", COUNTED_EXPONENTS)
def test_bonferroni_diagonal_of_a_value_seen_once_is_no_factor(r, s):
    # Three values form no zero factor with r == s: a lone 0.0 pairs only with 1.0 and 2.0.
    assert tit2fgbm([_flat(x) for x in (0.0, 1.0, 2.0)]).upper.a1 == 0.9085602964160698
    many = [_flat(1.0)] * 150 + [_flat(2.0)] * 149
    lone_zero = many + [_flat(0.0)]
    assert _counts_the_column(lone_zero, r, s) is (r == s)
    _assert_near_the_oracle(tit2fgbm, lone_zero, r, s)
    if r:  # with r = 0 the factor 0*x + 0.0 is a zero factor of weight 299
        assert tit2fgbm(lone_zero, r=r, s=s).upper.a1 > 0.0
    for zeros in ([0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]):
        values = many[:-1] + [_flat(z) for z in zeros]
        assert _counts_the_column(values, r, s) is (r == s)
        out = tit2fgbm(values, r=r, s=s)
        assert _endpoints(out) == (0.0,) * 8
        assert all(math.copysign(1.0, x) == 1.0 for x in _endpoints(out))
