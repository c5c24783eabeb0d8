"""Tests for the rank-based distance functional."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given

from conftest import finite, it2trfns
from it2mabac import CRISP_ONE, PipelineParams, crisp, distance, make, rank_to_one
from it2mabac.errors import ComputationError, InvalidParams, ZeroHeight


def test_crisp_one_ranks_to_zero_exactly():
    assert rank_to_one(CRISP_ONE) == 0.0


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
def test_crisp_constant_ranks_to_one_minus_c(c):
    assert rank_to_one(crisp(c)) == pytest.approx(1.0 - c)
    assert rank_to_one(crisp(c), lam=0.0) == pytest.approx(1.0 - c)
    assert rank_to_one(crisp(c), lam=1.0) == pytest.approx(1.0 - c)


def test_rank_is_strictly_decreasing_in_crisp_constants():
    values = [rank_to_one(crisp(c)) for c in (0.0, 0.2, 0.4, 0.8, 1.0, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_weighted_cell_fixture_value():
    # straight-line evaluation of the fixed formula on the published A1/C1
    # weighted entry, lambda = 0.5
    cell = make((0.70, 1.30, 1.30, 2.00, 1.0), (0.88, 1.30, 1.30, 1.94, 0.9))
    assert rank_to_one(cell) == pytest.approx(-0.857777777778, abs=1e-9)


def test_lambda_validation():
    with pytest.raises(InvalidParams):
        PipelineParams(lam=1.5)
    with pytest.raises(InvalidParams):
        PipelineParams(lam=-0.1)


def test_zero_height_guard():
    # the value type forbids zero heights, so exercise the guard duck-typed
    fake = SimpleNamespace(
        upper=SimpleNamespace(h=0.0, endpoints=(1, 2, 3, 4)),
        lower=SimpleNamespace(h=0.0, endpoints=(1, 2, 3, 4)),
    )
    with pytest.raises(ZeroHeight):
        rank_to_one(fake)


def test_distance_of_crisp_pair():
    assert distance(CRISP_ONE, crisp(0.3)) == pytest.approx(0.7)
    assert distance(CRISP_ONE, crisp(2.0)) == pytest.approx(1.0)


OVERFLOW = "^the rank-based distance overflows on finite endpoints$"


def test_a_rank_that_overflows_on_finite_endpoints_is_refused():
    wide = make((-1.7e308, 0, 0, 1.7e308, 1.0), (0, 0, 0, 1, 0.9))
    with pytest.raises(ComputationError, match=OVERFLOW):
        rank_to_one(wide)
    with pytest.raises(ComputationError, match=OVERFLOW):
        distance(wide, wide)


def test_a_distance_that_overflows_on_two_finite_ranks_is_refused():
    low, high = crisp(-1.7e308), crisp(1.7e308)
    assert (rank_to_one(low), rank_to_one(high)) == (1.7e308, -1.7e308)
    with pytest.raises(ComputationError, match=OVERFLOW):
        distance(low, high)


@pytest.mark.parametrize("lam, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (True, "True"), ("half", "'half'"),
])
def test_lambda_is_read_by_the_number_rule(lam, shown):
    message = f"^the rank-based distance needs a finite lambda, got {shown}$"
    with pytest.raises(InvalidParams, match=message):
        rank_to_one(CRISP_ONE, lam)
    with pytest.raises(InvalidParams, match=message):
        distance(CRISP_ONE, CRISP_ONE, lam)


@given(a=it2trfns(), lam=finite(0.0, 1.0))
def test_distance_to_self_is_zero(a, lam):
    assert distance(a, a, lam=lam) == 0.0


@given(a=it2trfns(), b=it2trfns(), c=it2trfns(), lam=finite(0.0, 1.0))
def test_pseudometric_axioms(a, b, c, lam):
    dab = distance(a, b, lam=lam)
    assert dab >= 0.0
    assert dab == distance(b, a, lam=lam)
    assert distance(a, c, lam=lam) <= dab + distance(b, c, lam=lam) + 1e-9


@given(v=it2trfns(lo=1.0, hi=9.0), lam=finite(0.0, 1.0))
def test_rank_is_affine_in_each_endpoint(v, lam):
    # second differences of an affine map vanish; perturb the upper a4 and
    # the lower a1, the two endpoints free to move without breaking order
    step = 0.25

    def with_upper_a4(delta):
        u = v.upper
        return make((u.a1, u.a2, u.a3, u.a4 + delta, u.h), (*v.lower.endpoints, v.lower.h))

    def with_lower_a1(delta):
        lo = v.lower
        return make((*v.upper.endpoints, v.upper.h), (lo.a1 - delta, lo.a2, lo.a3, lo.a4, lo.h))

    for variant in (with_upper_a4, with_lower_a1):
        f0 = rank_to_one(variant(0.0), lam=lam)
        f1 = rank_to_one(variant(step), lam=lam)
        f2 = rank_to_one(variant(2 * step), lam=lam)
        assert f2 - 2 * f1 + f0 == pytest.approx(0.0, abs=1e-9)
