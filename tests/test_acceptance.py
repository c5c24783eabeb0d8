"""Acceptance suite: every exit criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion. Criterion 4 is implemented exactly as stated and marked as a
strict expected failure: the published weighted matrix and the published
border-approximation table are mutually inconsistent, so no operator can map
one onto the other within two hundredths (see the companion tests below for
the relations that do hold).
"""

import random
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import finite, it2trfns
from it2mabac import (
    CRISP_ONE,
    CriterionSpec,
    DecisionProblem,
    GeneralizedTrapezoid,
    IT2TrFN,
    PipelineParams,
    add,
    average_weights,
    builtin_rating_scale,
    builtin_weight_scale,
    classify_and_score,
    distance,
    geometric_mean,
    make,
    mul,
    normalize,
    rank_to_one,
    render_machine,
    resolve,
    run,
    scale,
    tit2fgbm,
)
from it2mabac.errors import DegenerateRange
from worked_example import (
    ALTERNATIVES,
    CRITERIA,
    EXPECTED_RANKING,
    TABLE4_UPPER,
    TABLE6,
    TABLE7,
    TABLE8,
    TABLE9,
)

TOLERANCE = 0.01


@contextmanager
def criterion(number, label, expect_fail=False):
    try:
        yield
    except BaseException:
        note = " (expected: source tables are inconsistent)" if expect_fail else ""
        print(f"\n[criterion {number}] {label}: FAIL{note}")
        raise
    print(f"\n[criterion {number}] {label}: PASS")


def _table7_column(j):
    return [make(*TABLE7[(a, CRITERIA[j])]) for a in ALTERNATIVES]


# ---------------------------------------------------------------------------
# criterion 1: aggregated weights reproduce the published upper trapezoids


def test_criterion_1_aggregated_weights(example_problem):
    with criterion(1, "aggregated weights match Table 4 upper rows within 0.01"):
        vectors = [example_problem.expert_weights[e] for e in example_problem.experts]
        started = time.perf_counter()
        weights = average_weights(vectors)
        elapsed = time.perf_counter() - started
        for j, name in enumerate(CRITERIA):
            expected = TABLE4_UPPER[name]
            assert weights[j].upper.endpoints == pytest.approx(expected[:4], abs=TOLERANCE)
            assert weights[j].upper.h == expected[4]
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: the full aggregated decision matrix, both trapezoids


def test_criterion_2_aggregated_decision_matrix(example_trace):
    with criterion(2, "aggregated decision matrix matches Table 6 in all 15 cells"):
        for i, alt in enumerate(ALTERNATIVES):
            for j, crit in enumerate(CRITERIA):
                upper, lower = TABLE6[(alt, crit)]
                got = example_trace.aggregated_ratings[i][j]
                assert got.upper.endpoints == pytest.approx(upper[:4], abs=TOLERANCE), (alt, crit)
                assert got.lower.endpoints == pytest.approx(lower[:4], abs=TOLERANCE), (alt, crit)
                assert got.upper.h == upper[4]
                assert got.lower.h == pytest.approx(lower[4])


# ---------------------------------------------------------------------------
# criterion 3: weighted-matrix spot checks on the consistent cells


def test_criterion_3_weighted_matrix_spot_checks(example_trace):
    with criterion(3, "weighted matrix matches Table 7 on its consistent cells"):
        weighted = example_trace.weighted
        assert weighted[1][1].upper.endpoints == pytest.approx(
            (1.62, 2.00, 2.00, 2.00), abs=TOLERANCE
        )
        assert weighted[0][0].upper.a1 == pytest.approx(0.70, abs=TOLERANCE)
        assert weighted[0][0].upper.a2 == pytest.approx(1.30, abs=TOLERANCE)
        # the published C1 fourth endpoints (2.00, 1.89, 1.89) do not recompute;
        # the equation-faithful values do
        recomputed = [weighted[i][0].upper.a4 for i in range(3)]
        assert recomputed == pytest.approx((1.86, 1.94, 1.78), abs=TOLERANCE)


# ---------------------------------------------------------------------------
# criterion 4: BAA over the published weighted matrix, exactly as stated


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Tables 7 and 8 of the worked example are mutually inconsistent: the "
        "published BAA values derive from a plain geometric mean over "
        "corrected weighted values, so the pairwise Bonferroni mean on the "
        "published Table 7 fixture misses Table 8 by up to 0.11 (C1 fourth "
        "endpoints) and 0.03 (C2 first endpoints). See the companion tests "
        "for the relations that do hold."
    ),
)
def test_criterion_4_bonferroni_baa_reproduces_table8():
    with criterion(4, "Bonferroni BAA on the Table 7 fixture matches Table 8", expect_fail=True):
        for j, name in enumerate(CRITERIA):
            got = tit2fgbm(_table7_column(j))
            upper, lower = TABLE8[name]
            assert got.upper.endpoints == pytest.approx(upper[:4], abs=TOLERANCE), name
            assert got.lower.endpoints == pytest.approx(lower[:4], abs=TOLERANCE), name


def test_criterion_4_companion_consistent_slots_hold():
    # the slots the criterion quotes as examples do reproduce
    with criterion(4, "companion: Bonferroni BAA matches Table 8 row C1 leading endpoints"):
        got = tit2fgbm(_table7_column(0))
        assert got.upper.a1 == pytest.approx(0.78, abs=TOLERANCE)
        assert got.upper.a2 == pytest.approx(1.37, abs=TOLERANCE)
        assert got.upper.a3 == pytest.approx(1.37, abs=TOLERANCE)
        assert got.lower.a1 == pytest.approx(0.94, abs=TOLERANCE)
        # column C4 reproduces in full
        got4 = tit2fgbm(_table7_column(3))
        upper, lower = TABLE8["C4"]
        assert got4.upper.endpoints == pytest.approx(upper[:4], abs=TOLERANCE)
        assert got4.lower.endpoints == pytest.approx(lower[:4], abs=TOLERANCE)


def test_criterion_4_companion_geomean_provenance():
    # a plain geometric mean on the Table 7 fixture reproduces every slot of
    # Table 8 except the two corrupted C1 fourth endpoints
    with criterion(4, "companion: geometric mean reproduces Table 8 up to two corrupt slots"):
        corrupt = {("C1", "upper", 3), ("C1", "lower", 3)}
        for j, name in enumerate(CRITERIA):
            got = geometric_mean(_table7_column(j))
            upper, lower = TABLE8[name]
            for level, want in (("upper", upper), ("lower", lower)):
                for e in range(4):
                    diff = abs(getattr(got, level).endpoints[e] - want[e])
                    if (name, level, e) in corrupt:
                        assert diff > 0.05, (name, level, e)
                    else:
                        assert diff <= 0.0105, (name, level, e, diff)


# ---------------------------------------------------------------------------
# criterion 5: end-to-end ranking and the substituted ordering checks


def test_criterion_5_end_to_end_ranking(example_trace):
    with criterion(5, "end-to-end ranking is A2 > A3 > A1 with matching Q orderings"):
        assert example_trace.ranking() == EXPECTED_RANKING

        # (a) within-column ordering of Q matches Table 9 wherever its
        # printed ordering is strict (it is, in all five columns)
        for j in range(len(CRITERIA)):
            published = [TABLE9[a][j] for a in ALTERNATIVES]
            assert len(set(published)) == 3, "expected a strict published ordering"
            want = sorted(range(3), key=lambda i: published[i])
            got = sorted(range(3), key=lambda i: example_trace.q[i][j])
            assert got == want, f"column {CRITERIA[j]}"

        # (b) the crisp unit ranks to zero exactly
        assert rank_to_one(CRISP_ONE) == 0.0

        # (c) scores equal the delta row sums exactly
        for i in range(3):
            assert example_trace.scores[i] == sum(example_trace.delta[i])


# ---------------------------------------------------------------------------
# criterion 6: property suites, >= 1000 cases each, under 30 s total

ACCEPTANCE_SETTINGS = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_WSCALE = builtin_weight_scale()
_RSCALE = builtin_rating_scale()


@ACCEPTANCE_SETTINGS
@given(a=it2trfns(), b=it2trfns(), k=finite(0.0, 5.0))
def prop_arithmetic_closure_and_commutativity(a, b, k):
    total = add(a, b)
    product = mul(a, b)
    assert isinstance(total, IT2TrFN) and isinstance(product, IT2TrFN)
    assert isinstance(scale(a, k), IT2TrFN)
    assert add(b, a) == total
    assert mul(b, a) == product


@ACCEPTANCE_SETTINGS
@given(
    values=st.lists(it2trfns(), min_size=2, max_size=4),
    r=finite(0.0, 3.0),
    s=finite(0.1, 3.0),
    bump=finite(0.1, 4.0),
    shuffler=st.randoms(),
)
def prop_bonferroni_family(values, r, s, bump, shuffler):
    base = tit2fgbm(values, r=r, s=s)

    # idempotency
    same = tit2fgbm([values[0]] * len(values), r=r, s=s)
    for got, want in zip(same.upper.endpoints, values[0].upper.endpoints):
        assert got == pytest.approx(want, abs=1e-9)

    # symmetry
    shuffled = list(values)
    shuffler.shuffle(shuffled)
    permuted = tit2fgbm(shuffled, r=r, s=s)
    for got, want in zip(
        permuted.upper.endpoints + permuted.lower.endpoints,
        base.upper.endpoints + base.lower.endpoints,
    ):
        assert got == pytest.approx(want, abs=1e-9)

    # boundedness
    for level in ("upper", "lower"):
        for e in range(4):
            xs = [getattr(v, level).endpoints[e] for v in values]
            out = getattr(base, level).endpoints[e]
            assert min(xs) - 1e-9 <= out <= max(xs) + 1e-9

    # monotonicity in a single endpoint
    first = values[0]
    raised = IT2TrFN(
        GeneralizedTrapezoid(
            first.upper.a1, first.upper.a2, first.upper.a3, first.upper.a4 + bump, first.upper.h
        ),
        first.lower,
    )
    out = tit2fgbm([raised] + values[1:], r=r, s=s)
    assert out.upper.a4 >= base.upper.a4 - 1e-9


@ACCEPTANCE_SETTINGS
@given(a=it2trfns(), b=it2trfns(), c=it2trfns(), lam=finite(0.0, 1.0))
def prop_distance_pseudometric(a, b, c, lam):
    assert distance(a, a, lam=lam) == 0.0
    dab = distance(a, b, lam=lam)
    assert dab >= 0.0
    assert dab == distance(b, a, lam=lam)
    assert distance(a, c, lam=lam) <= dab + distance(b, c, lam=lam) + 1e-9


_ANCHOR = [
    make((0, 2, 5, 10, 1.0), (1, 2, 5, 9, 0.9)),
    make((0, 3, 4, 10, 1.0), (2, 3, 4, 8, 0.9)),
]


@ACCEPTANCE_SETTINGS
@given(
    rows=st.lists(
        st.lists(it2trfns(lo=0.0, hi=9.0), min_size=2, max_size=2), min_size=1, max_size=3
    )
)
def prop_normalization_idempotence(rows):
    specs = [CriterionSpec("c1"), CriterionSpec("c2")]
    once = normalize(rows + [_ANCHOR], specs)
    assert normalize(once, specs) == once


@st.composite
def _delta_matrices(draw):
    width = draw(st.integers(1, 4))
    return draw(
        st.lists(
            st.lists(finite(-2.0, 2.0), min_size=width, max_size=width),
            min_size=1,
            max_size=5,
        )
    )


@ACCEPTANCE_SETTINGS
@given(delta=_delta_matrices())
def prop_ranking_is_permutation(delta):
    _, _, order = classify_and_score(delta)
    assert sorted(order) == list(range(len(delta)))


@st.composite
def _small_problems(draw):
    p = draw(st.integers(2, 3))
    q = draw(st.integers(1, 3))
    experts = [f"e{k}" for k in range(draw(st.integers(1, 2)))]
    wterms, rterms = _WSCALE.terms(), _RSCALE.terms()
    weights = {
        e: [resolve(_WSCALE, wterms[draw(st.integers(0, 6))]) for _ in range(q)] for e in experts
    }
    ratings = {
        e: [[resolve(_RSCALE, rterms[draw(st.integers(0, 6))]) for _ in range(q)] for _ in range(p)]
        for e in experts
    }
    params = PipelineParams(
        lam=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        r=draw(st.sampled_from([0.5, 1.0, 2.0])),
        s=draw(st.sampled_from([0.5, 1.0, 2.0])),
        baa_operator=draw(st.sampled_from(["bonferroni", "geomean"])),
    )
    return DecisionProblem(
        alternatives=[f"alt{i}" for i in range(p)],
        criteria=[
            CriterionSpec(f"c{j}", draw(st.sampled_from(["benefit", "cost"]))) for j in range(q)
        ],
        experts=experts,
        weight_scale=_WSCALE,
        rating_scale=_RSCALE,
        expert_weights=weights,
        expert_ratings=ratings,
        params=params,
    )


@ACCEPTANCE_SETTINGS
@given(problem=_small_problems())
def prop_end_to_end_determinism(problem):
    try:
        first = run(problem)
    except DegenerateRange as exc:
        with pytest.raises(DegenerateRange) as second:
            run(problem)
        assert str(second.value) == str(exc)
        return
    second = run(problem)
    assert first == second
    assert render_machine(first) == render_machine(second)


def test_criterion_6_property_suites():
    with criterion(6, "property suites, 1000 cases each, under 30 s"):
        started = time.perf_counter()
        prop_arithmetic_closure_and_commutativity()
        prop_bonferroni_family()
        prop_distance_pseudometric()
        prop_normalization_idempotence()
        prop_ranking_is_permutation()
        prop_end_to_end_determinism()
        elapsed = time.perf_counter() - started
        print(f"\n[criterion 6] property suites took {elapsed:.1f} s")
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 7: independent brute-force oracle for the Bonferroni mean


def _random_value(rng):
    upper = sorted(rng.uniform(0.0, 10.0) for _ in range(4))
    lower = sorted(rng.uniform(0.0, 10.0) for _ in range(4))
    h_upper = rng.uniform(0.1, 1.0)
    return make((*upper, h_upper), (*lower, h_upper * rng.uniform(0.1, 1.0)))


def _oracle_endpoint(xs, r, s):
    # straight transcription of the double product over ordered pairs
    n = len(xs)
    product = 1.0
    for i in range(n):
        for j in range(n):
            if i != j:
                product *= r * xs[i] + s * xs[j]
    return product ** (1.0 / (n * (n - 1))) / (r + s)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "Bonferroni mean agrees with the brute-force oracle to 1e-9"):
        rng = random.Random(20250810)
        for _ in range(250):
            n = rng.randint(3, 5)
            values = [_random_value(rng) for _ in range(n)]
            for r, s in ((1.0, 1.0), (rng.uniform(0.0, 3.0), rng.uniform(0.05, 3.0))):
                got = tit2fgbm(values, r=r, s=s)
                for level in ("upper", "lower"):
                    for e in range(4):
                        xs = [getattr(v, level).endpoints[e] for v in values]
                        want = _oracle_endpoint(xs, r, s)
                        assert getattr(got, level).endpoints[e] == pytest.approx(
                            want, abs=1e-9
                        )
