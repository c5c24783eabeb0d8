"""The float pipeline against the 50-digit oracle of ``oracle.py``, stage by stage.

The cases are the bundled example under four BAA settings and three values
of lambda, the first ``cli-small`` templates of the benchmark generator, the
``scale-bonferroni`` and ``sweep-geomean`` templates at p=12, and a small
strategy of problems built from the builtin scales' terms.
"""

import importlib.util
import math
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2mabac import (
    CriterionSpec,
    DecisionProblem,
    PipelineParams,
    builtin_rating_scale,
    builtin_weight_scale,
    load_example_problem,
    parse_problem,
    run,
)
from it2mabac.pipeline import BAA_OPERATORS
from oracle import run_oracle, stage_errors

#: The largest error of each stage over the fixed cases, as ``stage_errors``
#: measures it, rounded up at two digits. A later change may lower a bound, never
#: raise it.
BOUNDS = {
    "weights": 2.3e-16,
    "ratings": 1.5e-16,
    "normalized": 4.4e-16,
    "weighted": 3.7e-16,
    "baa": 3.5e-16,
    "q": 9.0e-16,
    "g": 6.7e-16,
    "delta": 9.1e-16,
    "scores": 1.4e-15,
}


def _gen():
    path = Path(__file__).parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


_GEN = _gen()
_SETTINGS = [{}, {"r": 2.0, "s": 0.5}, {"r": 0.0, "s": 1.0}, {"baa_operator": "geomean"}]
CASES = (
    [("example", None, PipelineParams(lam=lam, **kw)) for lam in (0.0, 0.5, 1.0) for kw in _SETTINGS]
    + [(f"cli-small-{i}", _GEN.template("cli-small", i), None) for i in range(8)]
    + [(f"scale-bonferroni-{i}", _GEN.template("scale-bonferroni", i, (12, 10, 5)), None)
       for i in range(6)]
    + [(f"sweep-geomean-{i}", _GEN.template("sweep-geomean", i, (12, 10, 5)),
        PipelineParams(lam=0.3, baa_operator="geomean")) for i in range(6)]
)


def _check(problem, params):
    """Every stage within its bound, the oracle's labels, and an order the oracle's scores keep."""
    trace, want = run(problem, params), run_oracle(problem, params)
    errors = stage_errors(trace, want)
    assert {s: e for s, e in errors.items() if e > BOUNDS[s]} == {}
    assert trace.classification == want["classification"]
    scores = want["scores"]
    for a, b in zip(trace.order, trace.order[1:]):  # a swap only between near-ties
        assert scores[a] >= scores[b] - Decimal("1e-12")


@pytest.mark.parametrize("name, doc, params", CASES, ids=[c[0] for c in CASES])
def test_stages_match_the_oracle(name, doc, params):
    problem = load_example_problem() if doc is None else parse_problem(_GEN.emit(doc))
    _check(problem, params)


@st.composite
def problems(draw):
    """A problem of 2-6 alternatives, 1-4 criteria and 1-3 experts rated with builtin terms."""
    p, q, k = draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    weight_terms, rating_terms = builtin_weight_scale().terms(), builtin_rating_scale().terms()
    experts = [f"E{e}" for e in range(k)]
    terms = lambda pool, n: draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return DecisionProblem(
        alternatives=[f"A{i}" for i in range(p)],
        criteria=[CriterionSpec(f"C{j}", draw(st.sampled_from(["benefit", "cost"]))) for j in range(q)],
        experts=experts,
        weight_scale=builtin_weight_scale(),
        rating_scale=builtin_rating_scale(),
        expert_weights={e: terms(weight_terms, q) for e in experts},
        expert_ratings={e: [terms(rating_terms, q) for _ in range(p)] for e in experts},
        params=PipelineParams(
            lam=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            r=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            s=draw(st.sampled_from([0.5, 1.0, 3.0])),
            baa_operator=draw(st.sampled_from(BAA_OPERATORS)),
        ),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=problems())
def test_small_problems_match_the_oracle(problem):
    _check(problem, None)


def test_example_baa_rounds_to_the_oracle():
    # The 160 BAA endpoints of the example at four (r, s): how many are the rounded
    # oracle, and how far the others are from it. Neither number may get worse.
    distances = []
    problem = load_example_problem()
    for r, s in [(1.0, 1.0), (2.0, 0.5), (0.0, 1.0), (1.0, 3.0)]:
        params = PipelineParams(r=r, s=s)
        got = [x for v in run(problem, params).baa for x in (*v.upper.endpoints, *v.lower.endpoints)]
        want = [float(v[e]) for v in run_oracle(problem, params)["baa"] for e in (0, 1, 2, 3, 5, 6, 7, 8)]
        distances += [abs(x - y) / math.ulp(y) for x, y in zip(got, want, strict=True)]
    assert len(distances) == 160
    assert distances.count(0.0) >= 53 and max(distances) <= 3
