"""Group aggregation: expert averaging and the geometric Bonferroni mean.

Per-expert weight vectors and rating matrices are averaged component-wise
into a single group matrix. The border approximation area later uses the
trapezoidal interval type-2 fuzzy geometric Bonferroni mean, which couples
every ordered pair of inputs; with the leading 1/(r+s) coefficient it is
idempotent. A plain endpoint-wise geometric mean is provided alongside for
comparison (it equals the Bonferroni mean with r=0, s=1). Both are scalar
functions of one endpoint column, lifted by the ``fuzzy.endpointwise`` kernel.

The Bonferroni column is bit-exact to the plain double loop over ordered
pairs (``acc = 1.0``; i outer, j != i inner; ``acc *= max(r*x_i + s*x_j,
0.0) ** e``) while running the inner loop in C:

- the same factors in the same order: row i maps ``operator.add`` over
  ``r*x_i`` and ``s*x_j`` for j != i in index order, lazily, so no row or
  column of factors is ever held as a list;
- the same power: builtin ``pow(f, e)`` is the C routine behind ``f ** e``;
- the same product: ``math.prod(row, start=acc)`` multiplies floats left to
  right onto the running product, as ``acc *= ...`` did;
- the clip ``max(f, 0.0)`` leaves every f >= 0 (and -0.0) as it is, so it
  runs only where a factor can be negative: on a column with a negative
  input, or with a negative r or s (which PipelineParams rejects). It
  cannot be skipped there, because ``pow`` of a negative float is complex.

Each distinct endpoint column is evaluated once per call. Builtin terms have
a2 = a3 and share a2, a3 between the two trapezoids, so a criterion has 5
distinct columns of 8. The pipeline's endpoints are floats, so columns that
compare equal differ at most in the sign of a zero endpoint; that changes at
most the sign of a zero factor, and ``pow`` maps both to +0.0.

The geometric mean multiplies its n inputs before taking the root, which
leaves the float range at large n (0.2 ** 500 underflows to 0, 1.9 ** 1200
overflows). It keeps that product whenever it is a normal float, and falls
back to ``exp(fsum(log x) / n)`` when every input is positive but the product
is 0, subnormal or infinite.

The averaging functions trust the shapes they are given: a DecisionProblem
checks them once, where it is built, and PipelineParams checks r and s.
"""

from __future__ import annotations

import sys
from itertools import repeat
from math import exp, fsum, log, prod
from operator import add

from .errors import EmptyInput, TooFewValues
from .fuzzy import IT2TrFN, _require_nonnegative, endpointwise, mean

_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


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

    memo: dict[tuple[float, ...], float] = {}

    def column(*x: float) -> float:
        if x in memo:
            return memo[x]
        sx = [s * xj for xj in x]
        clip = min(min(x), r, s) < 0.0
        acc = 1.0
        for i, xi in enumerate(x):
            # operator.add, not a bound (r * xi).__add__: int.__add__(float) is NotImplemented.
            factors = map(add, repeat(r * xi), sx[:i] + sx[i + 1:])
            if clip:
                factors = map(max, factors, repeat(0.0))
            acc = prod(map(pow, factors, repeat(exponent)), start=acc)
        memo[x] = acc / (r + s)
        return memo[x]

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
        product = prod(map(max, x, repeat(0.0)), start=1.0)
        if _NORMAL_MIN <= product <= _NORMAL_MAX:
            return product ** power
        if min(x) > 0.0:
            # Positive inputs whose product left the float range.
            return exp(fsum(map(log, x)) / n)
        # A zero or clipped input: the product is +-0.0, or NaN (inf * 0) if it overflowed first.
        return product ** power if product == 0.0 else 0.0

    return endpointwise(column, *values)
