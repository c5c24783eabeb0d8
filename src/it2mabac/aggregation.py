"""Group aggregation: expert averaging and the geometric Bonferroni mean.

Per-expert weight vectors and rating matrices are averaged component-wise
into a single group matrix. The border approximation area later uses the
trapezoidal interval type-2 fuzzy geometric Bonferroni mean, which couples
every ordered pair of inputs; with the leading 1/(r+s) coefficient it is
idempotent. A plain endpoint-wise geometric mean is provided alongside for
comparison. Both run one private kernel, ``_root_of_product``, lifted by
``fuzzy.endpointwise``: the N-th root of a product of N float factors,
divided by r+s. The Bonferroni mean's factors are ``f = r*x_i + s*x_j`` over
the ordered pairs i != j; the geometric mean is the Bonferroni mean with r=0,
s=1, and its factors are its n inputs. The result is within 4 ulp of ``(prod
f) ** (1/N) / (r+s)`` taken exactly, n equal values come back within 2 ulp,
and it is exactly +0.0 wherever some factor is <= 0.

- Half the Bonferroni pairs when r == s (the default and the paper's
  setting): factor (i, j) is then bit-equal to factor (j, i), so the product
  over pairs j > i is the square root of the whole. Otherwise all pairs
  j != i.
- Blocks: the factors are formed lazily in C (``combinations``, or
  ``product`` with the diagonal left out by ``compress``, or the inputs
  themselves) and multiplied in blocks of at most ``_BLOCK`` onto a running
  mantissa m in [0.5, 1); ``frexp`` takes each block's power of two into an
  int exponent e. One log is taken per column: the whole multiple of ln 2 in
  ``(log m + e ln 2) / N`` leaves it exactly, through ``ldexp``, so ``exp``
  sees an argument below ln 2 and the size of the mean does not scale its
  rounding.
- The zero rule and the fallback: a block whose product is not a normal
  float (it overflowed, or holds a zero) is looked at factor by factor. If
  its least factor is <= 0, that factor counts as 0 and the result is +0.0;
  otherwise its factors' ``frexp`` mantissas are multiplied instead. A
  column where a factor can be negative or below ``_LEAST_FACTOR`` (a
  negative or small input, or a negative r or s, which PipelineParams
  rejects) has every block looked at that way: two negative factors can
  multiply to a positive product in range, and a run of small factors can
  take the product through subnormal floats, where it loses bits, before
  later factors bring it back into range.

Each distinct endpoint column is evaluated once per call. Builtin terms have
a2 = a3 and share a2, a3 between the two trapezoids, so a criterion has 5
distinct columns of 8. The pipeline's endpoints are floats, so columns that
compare equal differ at most in the sign of a zero endpoint; that changes at
most the sign of a zero factor, and either sign gives +0.0.

The averaging functions trust the shapes they are given: a DecisionProblem
checks them once, where it is built, and PipelineParams checks r and s.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from itertools import combinations, compress, islice, product, starmap
from math import exp, frexp, inf, ldexp, log, prod
from operator import add

from .errors import EmptyInput, TooFewValues
from .fuzzy import IT2TrFN, _require_nonnegative, endpointwise, mean

_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max

#: The most factors multiplied before the product is split by ``frexp``; 128
#: factors within [2**-7.9, 2**7.9] keep it a normal float.
_BLOCK = 128
#: From a running mantissa >= 0.5, no prefix of a block of factors this large or
#: larger falls below the normal range, where the product would lose bits.
_LEAST_FACTOR = 2.0 ** -7.9
_LN2 = log(2.0)


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

    Heights combine with min per level. The module docstring gives the accuracy.
    """
    n = len(values)
    if n < 2:
        raise TooFewValues(f"the Bonferroni mean needs at least two values, got {n}")
    if r == s:  # factor (i, j) is then bit-equal to factor (j, i): take the pairs j > i
        count = n * (n - 1) // 2
        factors = lambda x: starmap(add, combinations([s * xj for xj in x], 2))
    else:
        count = n * (n - 1)
        # One selector byte per pair (i, j), row by row: 0 on the diagonal, where j == i.
        off_diagonal = (b"\0" + b"\1" * n) * n
        factors = lambda x: starmap(
            add, compress(product([r * xi for xi in x], [s * xj for xj in x]), off_diagonal)
        )
    return _root_of_product(values, "the Bonferroni mean", factors, count, r, s)


def geometric_mean(values: list[IT2TrFN]) -> IT2TrFN:
    """Endpoint-wise geometric mean of n >= 1 non-negative values."""
    n = len(values)
    if n == 0:
        raise EmptyInput("the geometric mean needs at least one value")
    return _root_of_product(values, "the geometric mean", iter, n, 0.0, 1.0)


def _root_of_product(
    values: list[IT2TrFN], name: str, factors: Callable[[tuple], Iterator[float]], count: int,
    r: float, s: float,
) -> IT2TrFN:
    """``(prod factors(x)) ** (1/count) / (r+s)`` of each endpoint column x of ``values``.

    ``factors`` forms the ``count`` factors of x lazily; ``name`` names the operator in errors.
    """
    for v in values:
        _require_nonnegative(v, name)
    blocks = range(0, count, _BLOCK)
    total = r + s
    # r*x_i + s*x_j >= (r+s) * min(x) when r, s >= 0; a negative r or s takes every block apart.
    least_input = _LEAST_FACTOR / total if min(r, s) >= 0.0 else inf

    memo: dict[tuple[float, ...], float] = {}

    def column(*x: float) -> float:
        if x in memo:
            return memo[x]
        pending = factors(x)
        take_apart = min(x) < least_input
        m, e = 1.0, 0  # the product of the factors so far is m * 2**e
        for _ in blocks:
            block = list(islice(pending, _BLOCK))
            partial = prod(block, start=m)
            if take_apart or not _NORMAL_MIN <= partial <= _NORMAL_MAX:
                if min(block) <= 0.0:
                    memo[x] = 0.0
                    return 0.0
                mantissas, exponents = zip(*map(frexp, block))
                partial = prod(mantissas, start=m)  # at least 2**-129: no underflow
                e += sum(exponents)
            m, shift = frexp(partial)
            e += shift
        # log of the mean factor = (log m + e ln 2) / count; the whole multiple k of
        # ln 2 is taken out exactly, so exp's argument lies in (-ln 2 / count, ln 2).
        k, rest = divmod(e, count)
        # Divide by r+s before the scaling by 2**k: a subnormal mean is then rounded once
        # onto the subnormal grid, not rounded there and magnified by 1/(r+s) after.
        mantissa, shift = frexp(exp((log(m) + rest * _LN2) / count) / total)
        k += shift
        # mantissa < 1, so ldexp overflows exactly when k > 1024; the mean is then inf.
        memo[x] = result = ldexp(mantissa, k) if k <= 1024 else inf
        return result

    return endpointwise(column, *values)
