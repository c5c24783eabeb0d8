"""Tests for expert averaging and the geometric Bonferroni mean."""

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
from it2mabac.fuzzy import EPS, endpointwise
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


def _endpoints(v):
    return v.upper.endpoints + v.lower.endpoints


def _bits(v):
    """Every endpoint and height of ``v``, bit for bit (the sign of zero included)."""
    return [float(x).hex() for x in _endpoints(v) + (v.upper.h, v.lower.h)]


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


def _loop_tit2fgbm(values, r=1.0, s=1.0):
    """``tit2fgbm`` as the plain double loop over ordered pairs, kept as the reference."""
    n = len(values)
    exponent = 1.0 / (n * (n - 1))

    def column(*x):
        sx = [s * xj for xj in x]
        acc = 1.0
        for i, xi in enumerate(x):
            rxi = r * xi
            for sxj in sx[:i] + sx[i + 1:]:
                acc *= max(rxi + sxj, 0.0) ** exponent
        return acc / (r + s)

    return endpointwise(column, *values)


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


@settings(max_examples=300, deadline=None)
@given(inputs=_bonferroni_inputs())
def test_bonferroni_is_bit_identical_to_the_pair_loop(inputs):
    values, r, s = inputs
    assert _bits(tit2fgbm(values, r=r, s=s)) == _bits(_loop_tit2fgbm(values, r=r, s=s))


def test_bonferroni_with_a_negative_exponent_is_the_pair_loop():
    # Outside the r, s >= 0 contract the clip still keeps pow away from negative floats.
    values = [make((1, 2, 3, 4, 1.0), (1, 2, 3, 4, 1.0)), make((2, 3, 4, 5, 1.0), (2, 3, 4, 5, 1.0))]
    assert _bits(tit2fgbm(values, r=-1.0, s=0.5)) == _bits(_loop_tit2fgbm(values, r=-1.0, s=0.5))


# 0.01 ** 30 and 2 ** 30 stay normal floats, so the product never leaves the range.
@given(values=_columns(_signed_zero_endpoints(finite(0.01, 2.0)), 1, 30))
def test_geometric_mean_in_range_gives_the_loop_bits(values):
    power = 1.0 / len(values)

    def column(*x):
        acc = 1.0
        for xi in x:
            acc *= max(xi, 0.0)
        return acc ** power

    assert _bits(geometric_mean(values)) == _bits(endpointwise(column, *values))
