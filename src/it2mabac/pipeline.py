"""MABAC stages: normalization, weighting, border area, and ranking.

All stage functions are pure transformations of fuzzy matrices. They take a
``fuzzy.Matrix`` or any sequence of rows (one row per alternative), read
through ``Matrix.of``, and steps 3-4 return a ``Matrix``: each computes one
float column per endpoint of each criterion, with the per-cell formula in the
same order, so no bit moves. A stage reads its parameters before any cell, once
per call: step 5 its operator and its exponents r and s, step 6 its lambda. The
rules a value must keep run as exact scans over those columns; one of them, for
steps 1-6, refuses a number a stage writes that is not finite. A scan fires only
where a cell breaks a rule; then ``fuzzy._locate`` finds the first fault in the
stage's order, with its own class, text and cell.

A ``Matrix`` is read-only, so steps 3-5 keep their result on their input matrix
(``Matrix._memo``, through ``_kept``), with the argument objects of the call: the
specs, the weights, or ``(operator, r, s)`` with r and s as read (a float reads as
itself). A later call on that matrix with the very same objects (``is``, one by
one) returns the kept result after the call's checks; any other call computes
and keeps its own. A call that raises keeps nothing. So a lambda sweep over one
problem computes steps 3-5 once. The stages are pure, so two threads that miss at
once only compute the same result twice.

Reference points for normalization come from the upper trapezoids only;
lower endpoints are scaled against the same range, which may push them
slightly outside [0, 1]. That is intentional and the downstream stages do
not clip.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain, repeat
from operator import add, is_, mul, sub

from .aggregation import _OPERATORS, _check_exponents, _checked_mean
from .errors import (ComputationError, DegenerateRange, DimensionMismatch, EmptyInput,
                     InvalidParams, ProblemSyntaxError, TooFewValues)
from .fuzzy import (EPS, IT2TrFN, Matrix, _below_cone, _check_cell, _columns, _finite_sums, _locate,
                    _numbers, _ordered, _Record, _require_cone, _require_nonnegative, _shown,
                    _value)
from .ranking import _finite_lam, _rank, rank_to_one

#: Classification labels: upper, border, and lower approximation areas.
UAA = "UAA"
BAA = "BAA"
LAA = "LAA"

#: |q_ij - g_j| below this counts as sitting on the border area itself.
CLASSIFICATION_TOLERANCE = 1e-9

BAA_OPERATORS = tuple(_OPERATORS)

#: What the stage functions take: a Matrix, or any sequence of rows of IT2TrFNs.
_Rows = Sequence[Sequence[IT2TrFN]]


def _check_names(names, key: str) -> None:
    """The one name rule: ``names`` is a non-empty list or tuple of non-empty, unique strings."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ProblemSyntaxError(f"{key!r} must be a non-empty list of names")
    for name in names:
        if not isinstance(name, str) or not name:
            raise ProblemSyntaxError(f"{key!r} entries must be non-empty strings, got {_shown(name)}")
    if len(set(names)) != len(names):
        raise ProblemSyntaxError(f"{key!r} entries must be unique, got {list(names)}")


class CriterionSpec(_Record):
    """A named criterion with its optimization sense."""

    name: str
    sense: str = "benefit"

    def __post_init__(self) -> None:
        _check_names([self.name], "criteria")
        if self.sense not in ("benefit", "cost"):
            raise InvalidParams(
                f"criterion {self.name!r}: sense must be 'benefit' or 'cost', "
                f"got {_shown(self.sense)}"
            )


def _kept(compute, m: Matrix, *args):
    """``compute(m, *args)``, kept on ``m`` for these very argument objects (``is``, one by one)."""
    held = m._memo.get(compute)
    if held is not None and len(held[0]) == len(args) and all(map(is_, held[0], args)):
        return held[1]
    result = compute(m, *args)
    m._memo[compute] = args, result
    return result


def _check_operator(operator) -> None:
    """The one rule for the BAA operator: one of BAA_OPERATORS."""
    if operator not in BAA_OPERATORS:
        raise InvalidParams(f"baa operator must be one of {BAA_OPERATORS}, got {_shown(operator)}")


def _range(a1: Sequence[float], a4: Sequence[float], name: str) -> tuple[float, float]:
    """(min upper a1, max upper a4) of criterion ``name``; their range must be finite and above EPS."""
    if not a1:
        raise EmptyInput("normalization needs at least one alternative")
    a_minus, a_plus = min(a1), max(a4)
    if a_plus - a_minus <= EPS:
        raise DegenerateRange(f"criterion {name}: all upper endpoints coincide at {a_plus:g}, "
                              "nothing to scale against")
    if not math.isfinite(a_plus - a_minus):
        raise ComputationError(f"criterion {name}: the range a+ - a- = {a_plus!r} - {a_minus!r} "
                               "is not a finite number")
    return a_minus, a_plus


def normalize(matrix: _Rows, specs: list[CriterionSpec]) -> Matrix:
    """Scale every column into the unit range, respecting its sense: (x - a_minus) / rng per
    endpoint for a benefit criterion; for a cost criterion (a_plus - x) / rng with the
    endpoints reversed, so the largest maps to the smallest. Columns go in order, each
    checked before the next: its range, then its cells."""
    return _kept(_normalized, Matrix.of(matrix, len(specs), "criteria"), *specs)


def _normalized(m: Matrix, *specs: CriterionSpec) -> Matrix:
    columns = []
    for j, (spec, (u1, u2, u3, u4, uh, l1, l2, l3, l4, lh)) in enumerate(zip(specs, m.columns)):
        a_minus, a_plus = _range(u1, u4, spec.name)
        rng = a_plus - a_minus
        if spec.sense == "benefit":
            ten = [*[tuple([(x - a_minus) / rng for x in c]) for c in (u1, u2, u3, u4)], uh,
                   *[tuple([(x - a_minus) / rng for x in c]) for c in (l1, l2, l3, l4)], lh]
        else:
            ten = [*[tuple([(a_plus - x) / rng for x in c]) for c in (u4, u3, u2, u1)], uh,
                   *[tuple([(a_plus - x) / rng for x in c]) for c in (l4, l3, l2, l1)], lh]
        if not (_ordered(ten) and _finite_sums(ten)):
            message = f"an endpoint scaled to [{a_minus!r}, {a_plus!r}] overflows on finite values"
            _locate((((i, j), (cell, message)) for i, cell in enumerate(zip(*ten))), _check_cell)
        columns.append(ten)
    return Matrix(columns, len(m))


def weight(normalized: _Rows, weights: list[IT2TrFN]) -> Matrix:
    """Weighted matrix: v_ij = w_j * (n_ij + 1) per endpoint, heights min(w_j, n_ij).

    The weights must lie on the non-negative cone, then, row by row, each cell's n + 1; an
    endpoint that overflows on finite factors is a ComputationError. Each error names its cell.
    """
    return _kept(_weighted, Matrix.of(normalized, len(weights), "weights"), *weights)


def _weighted(n: Matrix, *weights: IT2TrFN) -> Matrix:
    _require_cone(_columns(weights), "multiplication", [(None, j) for j in range(len(weights))])
    w_numbers = _numbers(weights)
    columns = [[tuple(map(mul, repeat(we), map(add, c, repeat(1.0)))) if e % 5 != 4
                else tuple(map(min, repeat(we), c))  # heights
                for e, (we, c) in enumerate(zip(w, ten))]
               for w, ten in zip(w_numbers, n.columns)]
    if (any(_below_cone(ten, 1.0) for ten in n.columns) or not all(map(_ordered, columns))
            or not _finite_sums([c for ten in columns for c in ten])):
        _locate((((i, j), (w, [c[i] for c in ten], [c[i] for c in out])) for i in range(len(n))
                 for j, (w, ten, out) in enumerate(zip(w_numbers, n.columns, columns))), _check_weighted)
    return Matrix(columns, len(n))


def _check_weighted(w: tuple, cell: list[float], product: list[float]) -> None:
    _require_nonnegative(cell, "multiplication", 1.0)
    for x, we, ne in zip(product, w, cell):
        if not math.isfinite(x):
            raise ComputationError(f"w * (n + 1) = {we!r} * ({ne!r} + 1.0) overflows on finite factors")
    _value(*product)


def baa(
    weighted: _Rows, *, r: float = 1.0, s: float = 1.0, operator: str = "bonferroni"
) -> list[IT2TrFN]:
    """Border approximation area per criterion, aggregated down each column.

    ``operator`` is one of BAA_OPERATORS, checked first; then the rows, then r and s, whatever
    the operator. Column by column, a value below the cone, an entry that overflows on a
    finite column or one out of order has ``_cell = (None, j)``.
    """
    _check_operator(operator)
    if len(weighted) < 2:
        raise TooFewValues(f"the border approximation area needs at least two alternatives, "
                           f"got {len(weighted)}")
    return list(_kept(_border, Matrix.of(weighted, what="criteria"), operator, *_check_exponents(r, s)))


def _border(m: Matrix, operator: str, r: float, s: float) -> tuple[IT2TrFN, ...]:
    columns, aggregate = m.columns, _OPERATORS[operator][0]
    result = [aggregate(ten, r, s) for ten in columns]
    if (any(map(_below_cone, columns)) or not _ordered([*zip(*result)] or [()] * 10)
            or not _finite_sums(result)):
        _locate(zip([(None, j) for j in range(len(columns))], zip(columns, result)),
                lambda ten, g: _checked_mean(ten, g, operator, r, s))
    return tuple(_value(*g) for g in result)


def crisp_matrices(
    weighted: _Rows, baa_vector: list[IT2TrFN], lam: float = 0.5
) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Step 6: the crisp distance matrix Q, the BAA distances G, and Q - G (finite where Q and G
    are, as both are >= 0). ``lam`` is read before any cell, by ``rank_to_one``'s rule; a height too
    small to divide by or an overflow on finite endpoints is refused row by row, then along the BAA."""
    m = Matrix.of(weighted, len(baa_vector), "BAA entries")
    lam = _finite_lam(lam)
    q_columns = [list(map(abs, map(_rank, *ten, repeat(lam)))) for ten in m.columns]
    g_vector = [abs(_rank(*b, lam)) for b in _numbers(baa_vector)]
    if not _finite_sums([*q_columns, g_vector]):
        _locate(chain((((i, j), (v,)) for i, row in enumerate(m) for j, v in enumerate(row)),
                      (((None, j), (b,)) for j, b in enumerate(baa_vector))), lambda v: rank_to_one(v, lam))
    q_matrix = [list(row) for row in zip(*q_columns)] if q_columns else [[] for _ in range(len(m))]
    delta = [list(map(sub, row, g_vector)) for row in q_matrix]
    return q_matrix, g_vector, delta


def classify_and_score(
    delta: list[list[float]], alternatives: list[str] | None = None
) -> tuple[list[list[str]], list[float], list[int]]:
    """Step 7: classify each cell by the sign of ``delta`` and rank by row sums.

    Returns the per-cell area labels, the per-alternative scores, and the
    order of alternatives from best to worst.

    A score that is not finite (a row sum that overflows) is a ComputationError
    naming the alternative, or its row index when ``alternatives`` is omitted;
    ``alternatives`` names one row of ``delta`` each, or is a DimensionMismatch.
    """
    if alternatives is not None and len(alternatives) != len(delta):
        raise DimensionMismatch(f"{len(delta)} rows of differences for {len(alternatives)} alternatives")
    classification = [[BAA if abs(d) < CLASSIFICATION_TOLERANCE else UAA if d > 0 else LAA for d in row]
                      for row in delta]
    scores = [sum(row) for row in delta]
    for i, score in enumerate(scores):
        if not math.isfinite(score):
            name = alternatives[i] if alternatives is not None else f"row {i}"
            raise ComputationError(f"alternative {name}: score {score!r} is not a finite number")
    # sorted() is stable, so ties keep the declaration order of alternatives.
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    return classification, scores, order
