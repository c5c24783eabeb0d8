"""Group aggregation: expert averaging and the geometric Bonferroni mean.

Per-expert weight vectors and rating matrices are averaged component-wise
into a single group matrix. The border approximation area later uses the
trapezoidal interval type-2 fuzzy geometric Bonferroni mean, which couples
every ordered pair of inputs; with the leading 1/(r+s) coefficient it is
idempotent. A plain endpoint-wise geometric mean is provided alongside for
comparison (it equals the Bonferroni mean with r=0, s=1). Both are scalar
functions of one endpoint column, lifted by the ``fuzzy.endpointwise`` kernel.

The averaging functions trust the shapes they are given: a DecisionProblem
checks them once, where it is built, and PipelineParams checks r and s.
"""

from __future__ import annotations

from .errors import EmptyInput, TooFewValues
from .fuzzy import IT2TrFN, _require_nonnegative, endpointwise, mean


def average_weights(vectors: list[list[IT2TrFN]]) -> list[IT2TrFN]:
    """Component-wise mean of the experts' weight vectors (one per expert)."""
    return [mean(column) for column in zip(*vectors)]


def average_ratings(matrices: list[list[list[IT2TrFN]]]) -> list[list[IT2TrFN]]:
    """Component-wise mean of the experts' p x q rating matrices (one per expert)."""
    return [[mean(cell) for cell in zip(*rows)] for rows in zip(*matrices)]


def tit2fgbm(values: list[IT2TrFN], r: float = 1.0, s: float = 1.0) -> IT2TrFN:
    """Geometric Bonferroni mean of n >= 2 non-negative values; r, s >= 0, r+s > 0.

    Every endpoint position e is aggregated independently:

        (1 / (r+s)) * prod over ordered pairs i != j of
            (r*a_i[e] + s*a_j[e]) ** (1 / (n*(n-1)))

    Heights combine with min per level.
    """
    n = len(values)
    if n < 2:
        raise TooFewValues(f"the Bonferroni mean needs at least two values, got {n}")
    for v in values:
        _require_nonnegative(v, "the Bonferroni mean")
    exponent = 1.0 / (n * (n - 1))

    def column(*x: float) -> float:
        sx = [s * xj for xj in x]
        acc = 1.0
        for i, xi in enumerate(x):
            rxi = r * xi
            for sxj in sx[:i] + sx[i + 1:]:
                acc *= max(rxi + sxj, 0.0) ** exponent
        return acc / (r + s)

    return endpointwise(column, *values)


def geometric_mean(values: list[IT2TrFN]) -> IT2TrFN:
    """Endpoint-wise geometric mean of n >= 1 non-negative values."""
    n = len(values)
    if n == 0:
        raise EmptyInput("the geometric mean needs at least one value")
    for v in values:
        _require_nonnegative(v, "the geometric mean")
    power = 1.0 / n

    def column(*x: float) -> float:
        acc = 1.0
        for xi in x:
            acc *= max(xi, 0.0)
        return acc ** power

    return endpointwise(column, *values)
