"""A 50-digit reference pipeline: steps 1-7 of a DecisionProblem in ``decimal``.

Each step follows the package's own equations, in ``Decimal`` arithmetic at
50 significant digits with an exponent range wide enough that no product of
the BAA leaves it. The inputs (the resolved endpoints and heights, lambda, r
and s) are read exactly, as ``Decimal(float)``. Steps 1-4, 6 and 7 are
rational, so each of their operations is exact to 50 digits; step 5
multiplies its factors at 50 digits and takes one ``ln`` and one ``exp`` per
endpoint position. Where the published tables under-specify a step (the rank
functional behind Tables 9-11), the oracle follows ``ranking.rank_to_one``.

A fuzzy value is a 10-tuple in the order of ``conftest.bits``: upper a1-a4
and h, then lower a1-a4 and h. ``run_oracle`` returns each stage as nested
lists of ``Decimal``; ``stage_errors`` compares a ``PipelineTrace`` with it.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

from it2mabac import PipelineParams
from it2mabac.fuzzy import Matrix
from it2mabac.pipeline import BAA, CLASSIFICATION_TOLERANCE, LAA, UAA

CONTEXT = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)

#: The stages ``run_oracle`` returns, in pipeline order.
STAGES = ("weights", "ratings", "normalized", "weighted", "baa", "q", "g", "delta", "scores")

_ENDPOINTS = (0, 1, 2, 3, 5, 6, 7, 8)
_HEIGHTS = (4, 9)


def _exact(value) -> tuple[Decimal, ...]:
    """The ten numbers of an IT2TrFN, exactly."""
    return tuple(Decimal(x) for t in (value.upper, value.lower) for x in (*t.endpoints, t.h))


def _lift(fn, values) -> tuple[Decimal, ...]:
    """``fn`` of each endpoint position over ``values``; heights combine with min."""
    out = [Decimal(0)] * 10
    for e in _ENDPOINTS:
        out[e] = fn([v[e] for v in values])
    for e in _HEIGHTS:
        out[e] = min(v[e] for v in values)
    return tuple(out)


def _mean(values):
    return _lift(lambda xs: sum(xs) / len(xs), values)


def _bonferroni(values, r: Decimal, s: Decimal):
    def column(xs):
        factors = [r * xi + s * xj for i, xi in enumerate(xs) for j, xj in enumerate(xs) if i != j]
        return root_of_product(factors, r + s)

    return _lift(column, values)


def root_of_product(factors, divisor: Decimal = Decimal(1)) -> Decimal:
    """``(prod factors) ** (1 / len(factors)) / divisor``, or exactly 0 if a factor is <= 0."""
    with localcontext(CONTEXT):
        if min(factors) <= 0:
            return Decimal(0)
        product = Decimal(1)
        for f in factors:
            product *= f
        return (product.ln() / len(factors)).exp() / divisor


def _geomean(values):
    return _lift(root_of_product, values)


def _normalized_column(column, sense: str):
    a_minus = min(v[0] for v in column)
    a_plus = max(v[3] for v in column)
    rng = a_plus - a_minus
    out = []
    for v in column:
        if sense == "benefit":
            u = [(x - a_minus) / rng for x in v[0:4]]
            l = [(x - a_minus) / rng for x in v[5:9]]
        else:  # reversed differences: the largest endpoint maps to the smallest result
            u = [(a_plus - x) / rng for x in reversed(v[0:4])]
            l = [(a_plus - x) / rng for x in reversed(v[5:9])]
        out.append((*u, v[4], *l, v[9]))
    return out


def rank_to_one(v, lam: Decimal) -> Decimal:
    """``ranking.rank_to_one`` of a 10-tuple, in exact arithmetic (it is rational)."""
    a1u, a2u, a3u, a4u, hu, a1l, a2l, a3l, a4l, hl = v
    bracket = hu * (lam * (a2l - a1l - a2u + a1u) - (a4l - a3l - a2l + a1l)) - hl * (
        a4u - a3u - a4l + a3l
    )
    return 1 - a4l - lam * (a1l - a1u + a4u - a4l) - bracket / (2 * hu * hl)


def run_oracle(problem, params: PipelineParams | None = None) -> dict:
    """Steps 1-7 of ``problem`` at 50 digits: each stage of ``STAGES``, plus
    ``classification`` as ``classify_and_score`` gives it."""
    params = params if params is not None else problem.params
    lam, r, s = Decimal(params.lam), Decimal(params.r), Decimal(params.s)
    with localcontext(CONTEXT):
        weights = [_mean([_exact(w) for w in column])
                   for column in zip(*(problem.expert_weights[e] for e in problem.experts))]
        ratings = [[_mean([_exact(v) for v in cell]) for cell in zip(*rows)]
                   for rows in zip(*(problem.expert_ratings[e] for e in problem.experts))]
        columns = [_normalized_column([row[j] for row in ratings], c.sense)
                   for j, c in enumerate(problem.criteria)]
        normalized = [list(row) for row in zip(*columns)]
        weighted = [[_lift(lambda xs: xs[0] * (xs[1] + 1), (w, v)) for w, v in zip(weights, row)]
                    for row in normalized]
        baa = [_bonferroni(column, r, s) if params.baa_operator == "bonferroni" else _geomean(column)
               for column in zip(*weighted)]
        q = [[abs(rank_to_one(v, lam)) for v in row] for row in weighted]
        g = [abs(rank_to_one(v, lam)) for v in baa]
        delta = [[qij - gj for qij, gj in zip(row, g)] for row in q]
        scores = [sum(row) for row in delta]
    tolerance = Decimal(CLASSIFICATION_TOLERANCE)
    classification = [[BAA if abs(d) < tolerance else UAA if d > 0 else LAA for d in row]
                      for row in delta]
    return {"weights": weights, "ratings": ratings, "normalized": normalized, "weighted": weighted,
            "baa": baa, "q": q, "g": g, "delta": delta, "scores": scores,
            "classification": classification}


def _flat(x) -> list:
    """Every number of a stage, in order: fuzzy values as their ten numbers, and a
    matrix (a list of rows, or a ``Matrix``) row by row."""
    if isinstance(x, (list, tuple, Matrix)):
        return [y for item in x for y in _flat(item)]
    if hasattr(x, "upper"):
        return list(_exact(x))
    return [x]


def stage_errors(trace, oracle: dict) -> dict[str, float]:
    """Per stage of ``STAGES``: the largest |float - oracle| over the stage's numbers,
    relative to the stage's largest |oracle|, or absolute where that is below 1.

    Differences and scores cancel (identical alternatives give exact zeros), and
    so can the rank functional, so no stage is measured relative to each number."""
    floats = {"weights": trace.aggregated_weights, "ratings": trace.aggregated_ratings,
              "normalized": trace.normalized, "weighted": trace.weighted, "baa": trace.baa,
              "q": trace.q, "g": trace.g, "delta": trace.delta, "scores": trace.scores}
    errors = {}
    with localcontext(CONTEXT):
        for stage in STAGES:
            got, want = _flat(floats[stage]), _flat(oracle[stage])
            assert len(got) == len(want), stage
            worst = max(abs(Decimal(x) - y) for x, y in zip(got, want))
            errors[stage] = float(worst / max(1, max(abs(y) for y in want)))
    return errors
