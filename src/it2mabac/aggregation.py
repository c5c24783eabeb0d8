"""Group aggregation: expert averaging and the geometric Bonferroni mean.

Per-expert weight vectors and rating matrices are averaged component-wise
into a single group matrix. The border approximation area later uses the
trapezoidal interval type-2 fuzzy geometric Bonferroni mean, which couples
every ordered pair of inputs; with the leading 1/(r+s) coefficient it is
idempotent. A plain endpoint-wise geometric mean is provided alongside for
comparison. Both run one private kernel, ``_root_of_product``, on the ten
float columns of their inputs (``fuzzy.Matrix``'s layout), so the BAA takes a
weighted matrix's columns as they are: per endpoint column, the N-th root of
a product of N float factors, divided by r+s. The Bonferroni mean's factors
are ``f = r*x_i + s*x_j`` over the ordered pairs i != j; the geometric mean
is the Bonferroni mean with r=0, s=1, and its factors are its n inputs. The
result is within 4 ulp of ``(prod f) ** (1/N) / (r+s)`` taken exactly, n
equal values come back within 2 ulp, and it is exactly +0.0 wherever some
factor is <= 0.

- Half the Bonferroni pairs when r == s (the default and the paper's
  setting): factor (i, j) is then bit-equal to factor (j, i), so the product
  over pairs j > i is the square root of the whole. Otherwise all pairs
  j != i.
- Blocks (the block form): the factors are formed lazily in C (``combinations``, or
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
  negative or small input) has every block looked at that way: two negative
  factors can multiply to a positive product in range, and a run of small
  factors can take the product through subnormal floats, where it loses
  bits, before later factors bring it back into range.
- The counted form (r == s only). The mean is symmetric: it depends only on
  the multiset of a column's values (Yager, "On generalized Bonferroni mean
  operators for multi-criteria aggregation", IJAR 2009). Let the column's n
  values hold d distinct ones v, each m_v times. Its factors are
  ``s*v + s*w`` of weight m_v*m_w for each v < w, and ``s*v + s*v`` of
  weight C(m_v, 2). These are the block form's own float factors, each
  formed once. The weights sum to N. A value seen once forms no factor with
  itself (its weight would be 0), so a lone 0.0 forms no zero factor; two
  do. ``frexp`` splits each factor; the exponents are summed exactly as
  weighted ints, the weighted mantissa logs with ``fsum``, and the block
  form's tail takes the root. Both sums are exact or correctly rounded, so
  the order of the factors does not matter. Accuracy: each mantissa log is
  within an ulp of a number below ln 2 in size, and the weights sum to N, so
  the sum divided by N is off by about an ulp of ln 2 at most: the block
  form's bound holds.
- Which form: a counted factor costs a ``frexp``, a log and an ``fsum``
  term, about ``_COUNTED_COST`` block-form factors on term-rated columns
  (measured), and finding d costs a set of the column. Both forms' factor
  counts go as n*(n-1)/2 and d*(d+1)/2, so a column of n >=
  ``_LEAST_COUNTED`` values takes the counted form when ``_COUNTED_COST *
  d*(d+1) < n*(n-1)``. Shorter columns are never counted: the set costs 2/n
  or more of the block form, and they seldom have few enough distinct
  values to pay it back (on benchmark templates, none of 200 weighted
  endpoint columns at p = 64, 57 of 200 at p = 100). Nor is a mean with
  r != s, which no benchmark workload runs on columns that long, nor the
  geometric mean (r = 0, s = 1), whose N = n factors cost O(n) already.

Each distinct endpoint column is evaluated once per call. Builtin terms have
a2 = a3 and share a2, a3 between the two trapezoids, so a criterion has 5
distinct columns of 8. The pipeline's endpoints are floats, so columns that
compare equal differ at most in the sign of a zero endpoint; that changes at
most the sign of a zero factor, and either sign gives +0.0. The counted
form's tally merges 0.0 and -0.0 in the same way.

Steps 1-2 average endpoint-major: ``average_ratings`` folds the experts'
float columns left to right with ``map(add, ...)`` and scales by 1/k;
``average_weights`` does the same on each expert's weights as a q x 1 matrix,
and ``mean`` is step 1 on one criterion, so every cell of both is bit for bit
the ``mean`` of its experts' values. A mean out of order, or one that
overflows on finite endpoints, is refused naming its cell. The averaging
functions trust the shapes they are given: a DecisionProblem checks them
once, where it is built. The Bonferroni exponents have one rule,
``_check_exponents``, which PipelineParams applies to a run and ``tit2fgbm``
to each call: r, s >= 0 with a finite, normal sum r + s. One check,
``_checked_mean`` (the cone, the finiteness rule, the order), is the return of
``tit2fgbm`` and ``geometric_mean`` and the fault locator's check of step 5.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import combinations, compress, islice, product, repeat, starmap
from math import exp, frexp, fsum, inf, ldexp, log, prod
from operator import add, mul

from .errors import EmptyInput, InvalidParams, MabacError, TooFewValues
from .fuzzy import (IT2TrFN, Matrix, _check_cell, _columns, _finite, _finite_sums, _locate, _ordered,
                    _require_cone, _value)

_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max

#: The most factors multiplied before the product is split by ``frexp``; 128
#: factors within [2**-7.9, 2**7.9] keep it a normal float.
_BLOCK = 128
#: From a running mantissa >= 0.5, no prefix of a block of factors this large or
#: larger falls below the normal range, where the product would lose bits.
_LEAST_FACTOR = 2.0 ** -7.9
_LN2 = log(2.0)
#: The fewest values of a Bonferroni column that is counted, and the cost of a counted
#: factor in block-form factors, both measured (see the module docstring).
_LEAST_COUNTED, _COUNTED_COST = 100, 10


def mean(values: Iterable[IT2TrFN]) -> IT2TrFN:
    """Component-wise average of one or more values (sum scaled by 1/k): step 1 on one
    criterion, whose refusals name no cell."""
    items = list(values)
    if not items:
        raise EmptyInput("cannot average zero values")
    try:
        return average_weights([[v] for v in items])[0]
    except MabacError as exc:
        exc._cell = None
        raise


def average_weights(vectors: list[list[IT2TrFN]]) -> list[IT2TrFN]:
    """Component-wise mean of the experts' weight vectors (one per expert), as q x 1 matrices."""
    return list(map(_value, *_average([(_columns(v),) for v in vectors], True)[0])) if vectors else []


def average_ratings(matrices: Sequence[Sequence[Sequence[IT2TrFN]]]) -> Matrix:
    """Component-wise mean of the experts' p x q rating matrices (one per expert), each
    entry the bits of ``mean`` of its cell; faults are refused row by row, naming their cell."""
    if not matrices:
        return Matrix([], 0)
    first = Matrix.of(matrices[0], what="criteria")
    rest = [Matrix.of(m, len(first.columns), "criteria").columns for m in matrices[1:]]
    return Matrix(_average([first.columns, *rest], False), len(first))


def _average(experts: list[Sequence[Sequence[tuple]]], vector: bool) -> list[list[tuple]]:
    """The mean of the experts' matrices, as columns; a fault names its cell, or weight (None, i)."""
    factor = 1.0 / len(experts)
    columns = [[tuple(map(mul, reduce(lambda a, b: map(add, a, b), position), repeat(factor)))
                if e % 5 != 4 else tuple(map(min, zip(*position)))  # heights take the least
                for e, position in enumerate(zip(*per_expert))]
               for per_expert in zip(*experts)]  # per criterion, each expert's ten columns
    if not (all(map(_ordered, columns)) and _finite_sums([c for ten in columns for c in ten])):
        message = "the mean overflows on finite values"
        _locate((((None, i) if vector else (i, j), ([c[i] for c in ten], message))
                 for i in range(len(columns[0][0])) for j, ten in enumerate(columns)), _check_cell)
    return columns


def _check_exponents(r: float, s: float) -> None:
    """The one rule for the Bonferroni exponents: r, s >= 0 with a finite, normal sum."""
    if not (r >= 0.0 and s >= 0.0 and _NORMAL_MIN <= r + s <= _NORMAL_MAX):
        raise InvalidParams("Bonferroni exponents must be non-negative with a finite, "
                            f"normal sum r + s, got r={r!r}, s={s!r}")


def tit2fgbm(values: Sequence[IT2TrFN], r: float = 1.0, s: float = 1.0) -> IT2TrFN:
    """Geometric Bonferroni mean of n >= 2 non-negative values; r, s >= 0, r+s finite, normal.

    Every endpoint position e is aggregated independently:

        (1 / (r+s)) * prod over ordered pairs i != j of
            (r*a_i[e] + s*a_j[e]) ** (1 / (n*(n-1)))

    Heights combine with min per level. The module docstring gives the accuracy.
    A non-finite r or s, or exponents ``_check_exponents`` refuses, raise InvalidParams.
    """
    columns = _columns(values)
    return _checked_mean(columns, _bonferroni(columns, r, s), "bonferroni", r, s)


def _bonferroni(columns: Sequence[tuple], r: float, s: float) -> tuple[float, ...]:
    """``tit2fgbm``'s ten numbers, unchecked, of the values whose ten columns are ``columns``."""
    n = len(columns[0])
    if n < 2:
        raise TooFewValues(f"the Bonferroni mean needs at least two values, got {n}")
    r = _finite(r, InvalidParams, "the Bonferroni mean needs a finite r, got {}")
    s = _finite(s, InvalidParams, "the Bonferroni mean needs a finite s, got {}")
    _check_exponents(r, s)
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
    return _root_of_product(columns, factors, count, r, s)


def _distinct_factors(s: float, v: list[float], m: list[int]) -> tuple[list[float], list[int]]:
    """The distinct Bonferroni factors, at r == s, of a column whose distinct values v occur
    m times each, and the number of times each occurs among the pairs ``tit2fgbm`` forms. A
    value seen once forms no factor with itself, so no weight is 0."""
    sv = [s * y for y in v]
    same = [k * (k - 1) // 2 for k in m]
    return ([*starmap(add, combinations(sv, 2)), *compress(map(add, sv, sv), same)],
            [*starmap(mul, combinations(m, 2)), *filter(None, same)])


def geometric_mean(values: Sequence[IT2TrFN]) -> IT2TrFN:
    """Endpoint-wise geometric mean of n >= 1 non-negative values."""
    columns = _columns(values)
    return _checked_mean(columns, _geometric(columns), "geomean", 0.0, 1.0)


def _geometric(columns: Sequence[tuple]) -> tuple[float, ...]:
    """``geometric_mean``'s ten numbers, unchecked, of the values whose ten columns are ``columns``."""
    n = len(columns[0])
    if n == 0:
        raise EmptyInput("the geometric mean needs at least one value")
    return _root_of_product(columns, iter, n, 0.0, 1.0)


#: Each BAA operator: its function of (ten float columns, r, s) giving ten numbers, and its name.
_OPERATORS = {"bonferroni": (_bonferroni, "the Bonferroni mean"),
              "geomean": (lambda columns, r, s: _geometric(columns), "the geometric mean")}


def _checked_mean(columns: Sequence[tuple], mean: Sequence[float], operator: str, r: float,
                  s: float) -> IT2TrFN:
    """The value of ``mean``, the ten numbers ``operator`` wrote at r, s from the values whose
    ten columns are ``columns``: refused where one of those is below the cone, where it is
    not finite, and where it is no IT2TrFN."""
    _require_cone(columns, _OPERATORS[operator][1])
    return _check_cell(mean, f"the {operator} operator overflows with r={r!r}, s={s!r}")


def _root_of_product(
    columns: Sequence[tuple], factors: Callable[[tuple], Iterator[float]], count: int,
    r: float, s: float,
) -> tuple[float, ...]:
    """``(prod factors(x)) ** (1/count) / (r+s)`` of each endpoint column x of ``columns``,
    the ten columns of the values, as ten numbers that its callers check; heights take the
    least of each height column.

    ``factors`` forms the ``count`` factors of x lazily. r and s obey ``_check_exponents``.
    With r == s (the Bonferroni mean's pairs j > i), a long column of few distinct values
    forms each distinct factor once, by ``_distinct_factors`` (see the module docstring).
    """
    blocks = range(0, count, _BLOCK)
    total = r + s
    least_input = _LEAST_FACTOR / total  # r*x_i + s*x_j >= (r+s) * min(x) as r, s >= 0

    # A column of d distinct values takes the counted form when d*(d+1) is below the budget.
    n = len(columns[0])
    counted = r == s and n >= _LEAST_COUNTED
    budget = n * (n - 1) / _COUNTED_COST

    memo: dict[tuple[float, ...], float] = {}

    def column(x: tuple[float, ...]) -> float:
        if x in memo:
            return memo[x]
        d = counted and len(set(x))  # a set is the cheapest count; Counter only where it pays
        if d and d * (d + 1) < budget:
            tally = Counter(x)
            distinct, weights = _distinct_factors(s, list(tally), list(tally.values()))
            if min(distinct) <= 0.0:
                memo[x] = 0.0
                return 0.0
            mantissas, exponents = zip(*map(frexp, distinct))
            e = sum(map(mul, weights, exponents))
            log_m = fsum(map(mul, weights, map(log, mantissas)))
        else:
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
            log_m = log(m)
        # log of the mean factor = (log_m + e ln 2) / count; the whole multiple k of
        # ln 2 is taken out exactly, so exp's argument lies in (-ln 2, ln 2).
        k, rest = divmod(e, count)
        # Divide by r+s before the scaling by 2**k: a subnormal mean is then rounded once
        # onto the subnormal grid, not rounded there and magnified by 1/(r+s) after.
        mantissa, shift = frexp(exp((log_m + rest * _LN2) / count) / total)
        k += shift
        # mantissa < 1, so ldexp overflows exactly when k > 1024; the mean is then inf.
        memo[x] = result = ldexp(mantissa, k) if k <= 1024 else inf
        return result

    return (*map(column, columns[:4]), min(columns[4]), *map(column, columns[5:9]), min(columns[9]))
