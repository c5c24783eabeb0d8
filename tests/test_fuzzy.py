"""Tests for the fuzzy value type and its arithmetic."""

import copy
import math
import operator
import sys
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, finite, it2trfns
from it2mabac import (
    CRISP_ONE,
    CriterionSpec,
    GeneralizedTrapezoid,
    IT2TrFN,
    PipelineParams,
    add,
    crisp,
    fou_containment_warnings,
    make,
    mean,
    mul,
    scale,
)
from it2mabac.errors import (
    ComputationError,
    EndpointOrderViolation,
    HeightOrderViolation,
    HeightOutOfRange,
    InvalidParams,
    NegativeOperand,
    NegativeScalar,
    ProblemSyntaxError,
)
from it2mabac.fuzzy import _SHOWN_DEPTH, _SHOWN_ENTRIES, Matrix, _finite_sums, _Record, _shown, endpointwise

GOOD = make((7, 9, 9, 10, 1.0), (8, 9, 9, 9.5, 0.9))
H = make((0.7, 0.9, 0.9, 1.0, 1.0), (0.8, 0.9, 0.9, 0.95, 0.9))
VH = make((0.9, 1.0, 1.0, 1.0, 1.0), (0.95, 1.0, 1.0, 1.0, 0.9))
MH = make((0.5, 0.7, 0.7, 0.9, 1.0), (0.6, 0.7, 0.7, 0.8, 0.9))
MG = make((5, 7, 7, 9, 1.0), (6, 7, 7, 8, 0.9))


class TestConstruction:
    def test_valid_good_rating(self):
        assert GOOD.upper.endpoints == (7, 9, 9, 10)
        assert GOOD.lower.h == 0.9

    def test_degenerate_crisp_one(self):
        assert make((1, 1, 1, 1, 1.0), (1, 1, 1, 1, 1.0)) == CRISP_ONE

    def test_endpoint_order_violation_names_field(self):
        with pytest.raises(EndpointOrderViolation, match="a2"):
            GeneralizedTrapezoid(1.0, 3.0, 2.0, 4.0, 1.0)

    def test_height_out_of_range(self):
        with pytest.raises(HeightOutOfRange):
            GeneralizedTrapezoid(1, 2, 3, 4, 0.0)
        with pytest.raises(HeightOutOfRange):
            GeneralizedTrapezoid(1, 2, 3, 4, 1.2)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((2.0, 1.0, 3.0, 4.0, 1.0), EndpointOrderViolation,
             "a1=2.0 exceeds a2=1.0; endpoints must satisfy a1 <= a2 <= a3 <= a4"),
            ((1.0, 3.0, 2.0, 4.0, 1.0), EndpointOrderViolation,
             "a2=3.0 exceeds a3=2.0; endpoints must satisfy a1 <= a2 <= a3 <= a4"),
            ((1.0, 2.0, 4.0, 3.0, 1.0), EndpointOrderViolation,
             "a3=4.0 exceeds a4=3.0; endpoints must satisfy a1 <= a2 <= a3 <= a4"),
            ((1.0, 2.0, 3.0, 4.0, 0.0), HeightOutOfRange, "height h=0.0 must lie in (0, 1]"),
            ((1.0, 2.0, 3.0, 4.0, 1.2), HeightOutOfRange, "height h=1.2 must lie in (0, 1]"),
            ((2.0, 1.0, 4.0, 3.0, 0.0), EndpointOrderViolation,
             "a1=2.0 exceeds a2=1.0; endpoints must satisfy a1 <= a2 <= a3 <= a4"),
            ((1.0, 2.0, 3.0, 4.0, math.nan), HeightOutOfRange, "height h=nan must lie in (0, 1]"),
            ((1.0, 2.0, 3.0, 4.0, math.inf), HeightOutOfRange, "height h=inf must lie in (0, 1]"),
            ((2.0, 1.0, 3.0, math.nan, 1.0), ProblemSyntaxError, "a4=nan is not a finite number"),
            *[(tuple(x if k == e else float(k + 1) for k in range(4)) + (1.0,), ProblemSyntaxError,
               f"a{e + 1}={x!r} is not a finite number")
              for e in range(4) for x in (math.nan, math.inf, -math.inf)],
        ],
        ids=["a1>a2", "a2>a3", "a3>a4", "h=0", "h>1", "first-broken-pair-before-height", "nan-h",
             "inf-h", "non-finite-before-order",
             *[f"a{e + 1}={x}" for e in range(4) for x in ("nan", "inf", "-inf")]],
    )
    def test_refusal_names_the_first_broken_rule(self, args, error, message):
        with pytest.raises(error) as info:
            GeneralizedTrapezoid(*args)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_order_is_checked_within_eps(self):
        assert GeneralizedTrapezoid(1.0 + 9e-10, 1.0, 2.0, 3.0, 1.0).a1 == 1.0 + 9e-10

    def test_height_order_violation(self):
        with pytest.raises(HeightOrderViolation):
            make((1, 2, 3, 4, 0.8), (1, 2, 3, 4, 0.9))

    def test_wrong_tuple_width(self):
        with pytest.raises(EndpointOrderViolation, match="five numbers"):
            make((1, 2, 3, 4), (1, 2, 3, 4, 1.0))

    def test_int_too_long_to_print_is_named_by_its_bit_length(self):
        with pytest.raises(ProblemSyntaxError) as info:
            make([10**5000, 0, 0, 0, 1], [0, 0, 0, 0, 1])
        assert str(info.value) == "upper trapezoid: an int of 16610 bits is not a finite number"

    @pytest.mark.parametrize("args, message", [
        ((10**400, 10**400, 10**400, 10**400, 1.0), f"a1={10**400!r} is not a finite number"),
        ((0, 1, 2, 10**5000, 1.0), "a4=an int of 16610 bits is not a finite number"),
        (("a", "b", "c", "d", 1), "a1='a' is not a finite number"),
        ((0, 1, None, 3, 1.0), "a3=None is not a finite number"),
    ], ids=["int-past-float-range", "int-too-long-to-print", "str", "none"])
    def test_a_foreign_number_built_directly_is_named(self, args, message):
        # make reads its numbers through _finite; a direct build must refuse them too
        with pytest.raises(ProblemSyntaxError) as info:
            GeneralizedTrapezoid(*args)
        assert str(info.value) == message

    def test_a_foreign_height_is_out_of_range_and_a_boolean_one_is_kept(self):
        with pytest.raises(HeightOutOfRange, match=r"^height h='x' must lie in \(0, 1\]$"):
            GeneralizedTrapezoid(0, 1, 2, 3, "x")
        with pytest.raises(HeightOutOfRange, match=r"^height h=an int of 16610 bits must lie in \(0, 1\]$"):
            GeneralizedTrapezoid(0, 1, 2, 3, 10**5000)
        assert GeneralizedTrapezoid(0, 1, 2, 3, True).h is True  # refusing it costs a type test per build

    def test_value_too_large_to_print_is_named_by_its_length(self):
        def nested(depth):
            value = []
            for _ in range(depth):
                value = [value]
            return value

        cycle = []
        cycle.append(cycle)
        assert _shown([0] * _SHOWN_ENTRIES) == repr([0] * _SHOWN_ENTRIES)
        assert _shown({0: [0] * (_SHOWN_ENTRIES - 2)}) == repr({0: [0] * (_SHOWN_ENTRIES - 2)})
        assert _shown(nested(_SHOWN_DEPTH)) == repr(nested(_SHOWN_DEPTH))
        for value in ([[0] * _SHOWN_ENTRIES], (0,) * (_SHOWN_ENTRIES + 1), nested(_SHOWN_DEPTH + 1)):
            kind = type(value).__name__
            assert _shown(value) == f"a {kind} of length {len(value)}, too large to print"
        assert _shown(cycle) == "a list of length 1, too large to print"

    def test_unrepaired_low_term_is_valid_without_fou_check(self):
        # lower a4 = 2 escapes the upper support but both trapezoids are
        # individually well-formed
        v = make((0, 0.1, 0.1, 0.3, 1.0), (0.05, 0.1, 0.1, 2.0, 0.9))
        assert fou_containment_warnings(v)

    def test_contained_value_has_no_fou_warnings(self):
        assert fou_containment_warnings(GOOD) == []


class TestMembership:
    def test_umf_plateau(self):
        assert GOOD.upper.membership(9) == 1.0

    def test_umf_rising_edge_midpoint(self):
        assert GOOD.upper.membership(8) == pytest.approx(0.5)

    def test_umf_outside_support(self):
        assert GOOD.upper.membership(11) == 0.0
        assert GOOD.upper.membership(6.999) == 0.0

    def test_lmf_plateau(self):
        assert GOOD.lower.membership(9) == pytest.approx(0.9)

    def test_lmf_rising_edge(self):
        assert GOOD.lower.membership(8.5) == pytest.approx(0.45)

    def test_lmf_outside_lower_support(self):
        assert GOOD.lower.membership(7.5) == 0.0

    def test_degenerate_edges(self):
        spike = make((2, 2, 2, 2, 1.0), (2, 2, 2, 2, 0.5))
        assert spike.upper.membership(2) == 1.0
        assert spike.lower.membership(2) == 0.5
        assert spike.upper.membership(2.0001) == 0.0


class TestArithmetic:
    def test_add_componentwise(self):
        assert add(H, VH).upper.a1 == pytest.approx(1.6)

    def test_add_zero_identity(self):
        assert add(GOOD, crisp(0.0)) == GOOD

    def test_three_way_average(self):
        avg = mean([MG, GOOD, MG])
        assert avg.upper.endpoints == pytest.approx((5.67, 7.67, 7.67, 9.33), abs=0.01)

    def test_scale_identity(self):
        assert scale(GOOD, 1.0) == GOOD

    def test_scale_zero_keeps_heights(self):
        zeroed = scale(GOOD, 0.0)
        assert zeroed.upper.endpoints == (0, 0, 0, 0)
        assert zeroed.lower.h == 0.9

    def test_scale_third_of_weight_sum(self):
        avg = scale(add(add(H, VH), MH), 1 / 3)
        assert avg.upper.endpoints == pytest.approx((0.70, 0.867, 0.867, 0.967), abs=1e-3)

    def test_scale_rejects_negative(self):
        with pytest.raises(NegativeScalar):
            scale(GOOD, -0.5)

    def test_mul_identity(self):
        assert mul(GOOD, CRISP_ONE) == GOOD

    def test_mul_weighted_cell(self):
        w = make((0.9, 1, 1, 1, 1.0), (0.9, 1, 1, 1, 1.0))
        n1 = make((1.8, 2, 2, 2, 1.0), (1.8, 2, 2, 2, 1.0))
        assert mul(w, n1).upper.endpoints == pytest.approx((1.62, 2.0, 2.0, 2.0))

    def test_mul_min_combines_heights(self):
        out = mul(GOOD, MG)
        assert out.upper.h == 1.0
        assert out.lower.h == pytest.approx(0.9)

    def test_mul_rejects_negative_operand(self):
        negative = make((-2, -1, 0, 1, 1.0), (-1, 0, 0, 0.5, 0.9))
        with pytest.raises(NegativeOperand):
            mul(negative, GOOD)
        # Each endpoint up to EPS below the one before: a1 is 0.0, a4 is -2.8e-9.
        sliding = make((0.0, -1e-9, -1.9e-9, -2.8e-9, 1.0), (0.0, -1e-9, -1.9e-9, -2.8e-9, 1.0))
        with pytest.raises(NegativeOperand, match="got endpoints down to -2.8e-09$"):
            mul(sliding, GOOD)

    @pytest.mark.parametrize("operation", [
        lambda big: add(big, big), lambda big: mul(big, big), lambda big: scale(big, 2.0),
    ], ids=["add", "mul", "scale"])
    def test_an_endpoint_that_overflows_on_finite_values_is_refused(self, operation):
        with pytest.raises(ComputationError, match="^an endpoint overflows on finite values$"):
            operation(crisp(1e308))

    @pytest.mark.parametrize("k, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (True, "True"), ("two", "'two'"),
    ])
    def test_scale_reads_its_factor_by_the_number_rule(self, k, shown):
        with pytest.raises(InvalidParams, match=f"^scale factor must be a finite number, got {shown}$"):
            scale(GOOD, k)


@given(a=it2trfns(), b=it2trfns(), k=finite(0.0, 5.0))
def test_arithmetic_closure_and_commutativity(a, b, k):
    total = add(a, b)
    assert isinstance(total, IT2TrFN)
    assert add(b, a) == total
    product = mul(a, b)
    assert mul(b, a) == product
    assert isinstance(scale(a, k), IT2TrFN)


@given(a=it2trfns(), b=it2trfns(), c=it2trfns())
def test_add_associativity(a, b, c):
    left = add(add(a, b), c)
    right = add(a, add(b, c))
    for l, r in zip(left.upper.endpoints + left.lower.endpoints,
                    right.upper.endpoints + right.lower.endpoints):
        assert l == pytest.approx(r, abs=1e-12)


@given(a=it2trfns(), k1=finite(0.0, 4.0), k2=finite(0.0, 4.0))
def test_scale_composition(a, k1, k2):
    twice = scale(scale(a, k1), k2)
    once = scale(a, k1 * k2)
    for l, r in zip(twice.upper.endpoints + twice.lower.endpoints,
                    once.upper.endpoints + once.lower.endpoints):
        assert l == pytest.approx(r, abs=1e-9)


@given(v=it2trfns(), x=finite(-2.0, 12.0))
def test_membership_bounds(v, x):
    assert 0.0 <= v.lower.membership(x) <= v.lower.h + 1e-12
    assert 0.0 <= v.upper.membership(x) <= v.upper.h + 1e-12
    # maxima are attained on the plateau
    mid_u = (v.upper.a2 + v.upper.a3) / 2
    mid_l = (v.lower.a2 + v.lower.a3) / 2
    assert v.upper.membership(mid_u) == v.upper.h
    assert v.lower.membership(mid_l) == v.lower.h
    # zero outside the support
    assert v.upper.membership(v.upper.a4 + 1.0) == 0.0
    assert v.lower.membership(v.lower.a1 - 1.0) == 0.0


def test_crisp_helper():
    c = crisp(0.25)
    assert c.upper.endpoints == (0.25, 0.25, 0.25, 0.25)
    assert c.upper.h == 1.0 and c.lower.h == 1.0


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 10**400])
def test_crisp_refuses_a_number_that_is_not_finite(c):
    with pytest.raises(ProblemSyntaxError) as info:
        crisp(c)
    assert str(info.value) == f"a1={c!r} is not a finite number"


def test_a_matrix_is_read_only_at_every_depth():
    m = Matrix([[[0.0], [1.0], [2.0], [3.0], [1.0], [0.5], [1.0], [2.0], [2.5], [0.9]]], 1)
    assert m == Matrix.of([[make((0, 1, 2, 3, 1), (0.5, 1, 2, 2.5, 0.9))]])
    assert type(m.columns[0]) is tuple and all(type(c) is tuple for c in m.columns[0])
    for name in ("columns", "_p", "_memo", "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(m, name, ())
    with pytest.raises(AttributeError, match="^cannot delete field 'columns'$"):
        del m.columns


def test_a_matrix_is_unequal_to_what_is_not_a_sequence_and_prints_its_rows():
    value = make((0, 1, 2, 3, 1), (0.5, 1, 2, 2.5, 0.9))
    m = Matrix.of([[value], [value]])
    for other in (5, None, {0: [value]}, iter([[value], [value]])):
        assert m.__eq__(other) is NotImplemented
        assert m != other and not m == other
    assert repr(m) == f"Matrix({[[value], [value]]!r})"


#: Upper and lower a1 exceed a2 by 8e-10, inside the EPS order tolerance.
NEARLY_ORDERED = make((1 + 8e-10, 1, 2, 3, 1), (1.2 + 8e-10, 1.2, 2, 2.5, 0.9))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_mean_of_copies_of_a_tolerated_value_is_that_value(k):
    # The k-fold sum of a1 exceeds that of a2 by k * 8e-10; it is never
    # validated as a value of its own, only the mean is.
    avg = mean([NEARLY_ORDERED] * k)
    for got, want in ((avg.upper, NEARLY_ORDERED.upper), (avg.lower, NEARLY_ORDERED.lower)):
        assert got.endpoints == pytest.approx(want.endpoints, rel=1e-15)
        assert got.h == want.h


@given(values=st.lists(it2trfns(), min_size=1, max_size=6))
def test_mean_is_left_fold_times_reciprocal(values):
    avg = mean(values)
    factor = 1.0 / len(values)
    for level in ("upper", "lower"):
        traps = [getattr(v, level) for v in values]
        got = getattr(avg, level)
        for e, x in enumerate(got.endpoints):
            assert x == reduce(operator.add, [t.endpoints[e] for t in traps]) * factor
        assert got.h == min(t.h for t in traps)


def test_mean_rejects_empty_input():
    from it2mabac.errors import EmptyInput

    with pytest.raises(EmptyInput):
        mean([])


@pytest.mark.parametrize(
    "columns",
    [[(1e308, 1e308), (1.0,)], [(1e308,), (1e308, -1e308), (-1e308, -1e308)]],
    ids=["overflow", "inf-minus-inf"],
)
def test_finite_sums_is_finite_where_the_sum_of_finite_numbers_overflows(columns):
    assert _finite_sums(columns)
    for bad in (math.inf, -math.inf, math.nan):
        assert not _finite_sums([*columns, (1.0, bad, 2.0)])


def _map_lifted(fn, *values):
    """``bits`` of the general lifting, written out: ``map`` over each level, heights by min."""
    return [
        float(x).hex()
        for t in ("upper", "lower")
        for x in (*map(fn, *[getattr(v, t).endpoints for v in values]),
                  min(getattr(v, t).h for v in values))
    ]


@given(data=st.data(), n=st.integers(1, 3))
def test_endpointwise_is_the_map_lifting_in_the_same_order(data, n):
    values = data.draw(st.lists(it2trfns(signed_zeros=True), min_size=n, max_size=n))
    calls = []

    def product(*xs):
        calls.append([x.hex() for x in xs])
        return reduce(operator.mul, xs)

    assert bits(endpointwise(product, *values)) == _map_lifted(
        lambda *xs: reduce(operator.mul, xs), *values
    )
    assert calls == [
        [getattr(v, t).endpoints[k].hex() for v in values]
        for t in ("upper", "lower")
        for k in range(4)
    ]


class TestRecord:
    """The value types are ``_Record``s, which keep what a frozen dataclass gave them."""

    def test_repr_names_the_fields_in_order(self):
        assert repr(PipelineParams()) == "PipelineParams(lam=0.5, r=1.0, s=1.0, baa_operator='bonferroni')"
        assert repr(CriterionSpec("C1")) == "CriterionSpec(name='C1', sense='benefit')"
        assert repr(GOOD) == (
            "IT2TrFN(upper=GeneralizedTrapezoid(a1=7.0, a2=9.0, a3=9.0, a4=10.0, h=1.0), "
            "lower=GeneralizedTrapezoid(a1=8.0, a2=9.0, a3=9.0, a4=9.5, h=0.9))"
        )

    @pytest.mark.parametrize("a, b, other", [
        (GeneralizedTrapezoid(0, 1, 2, 3, 1), GeneralizedTrapezoid(0.0, 1.0, 2.0, 3.0, 1.0),
         GeneralizedTrapezoid(0, 1, 2, 3, 0.5)),
        (make((7, 9, 9, 10, 1.0), (8, 9, 9, 9.5, 0.9)), GOOD, MG),
        (CriterionSpec("C1"), CriterionSpec(sense="benefit", name="C1"), CriterionSpec("C1", "cost")),
        (PipelineParams(lam=0.5), PipelineParams(), PipelineParams(baa_operator="geomean")),
    ], ids=["trapezoid", "it2trfn", "criterion", "params"])
    def test_equal_values_hash_alike(self, a, b, other):
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and other != b

    def test_a_record_never_equals_one_of_another_class(self):
        class Named(_Record):
            name: str
            sense: str = "benefit"

        spec = CriterionSpec("C1")
        assert Named("C1") == Named("C1") and Named._fields == CriterionSpec._fields
        assert Named("C1") != spec and spec != Named("C1")
        assert spec != ("C1", "benefit")

    @pytest.mark.parametrize("build", [
        lambda: GeneralizedTrapezoid(0, 1, 2, 3),
        lambda: CriterionSpec(sense="cost"),
        lambda: CriterionSpec("C1", weight=1.0),
        lambda: PipelineParams()._replace(beta=1.0),
        lambda: PipelineParams(0.5, 1.0, 1.0, "geomean", "extra"),
        lambda: CriterionSpec("C1", name="C2"),
    ], ids=["missing", "missing-keyword", "unknown", "unknown-replaced", "too-many", "repeated"])
    def test_a_missing_unknown_or_repeated_argument_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_replace_checks_the_copy_as_any_build(self):
        with pytest.raises(InvalidParams, match=r"^lambda must lie in \[0, 1\], got 2.0$"):
            PipelineParams()._replace(lam=2.0)
        assert PipelineParams()._replace(lam=0.25) == PipelineParams(lam=0.25)
        assert PipelineParams.__replace__ is PipelineParams._replace
        if sys.version_info >= (3, 13):
            assert copy.replace(PipelineParams(), r=2) == PipelineParams(r=2.0)

    def test_a_field_cannot_be_assigned_or_deleted(self):
        with pytest.raises(AttributeError, match="^cannot assign to field 'a1'$"):
            GOOD.upper.a1 = 0.0
        with pytest.raises(AttributeError, match="^cannot delete field 'upper'$"):
            del GOOD.upper
        assert GOOD == make((7, 9, 9, 10, 1.0), (8, 9, 9, 9.5, 0.9))
