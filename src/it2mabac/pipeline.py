"""MABAC stages: normalization, weighting, border area, and ranking.

All stage functions are pure transformations of fuzzy matrices. They take a
``fuzzy.Matrix`` or any sequence of rows (one row per alternative), read
through ``Matrix.of``, and steps 3-4 return a ``Matrix``: each computes one
float column per endpoint of each criterion, with the per-cell formula in the
same order, so no bit moves. The rules a value must keep run as scans over
those columns; where one fails, the cells are rebuilt as IT2TrFNs in the
stage's order, so the first fault is reported with its own class and text.

Reference points for normalization come from the upper trapezoids only;
lower endpoints are scaled against the same range, which may push them
slightly outside [0, 1]. That is intentional and the downstream stages do
not clip.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, mul, sub

from .aggregation import _bonferroni, _geometric
from .errors import (ComputationError, DegenerateRange, DimensionMismatch, InvalidParams, MabacError,
                     ProblemSyntaxError, TooFewValues, ZeroHeight)
from .fuzzy import (EPS, IT2TrFN, Matrix, _below_cone, _ordered, _numbers, _require_nonnegative,
                    _shown, _value)
from .ranking import _rank, rank_to_one

#: Classification labels: upper, border, and lower approximation areas.
UAA = "UAA"
BAA = "BAA"
LAA = "LAA"

#: |q_ij - g_j| below this counts as sitting on the border area itself.
CLASSIFICATION_TOLERANCE = 1e-9

#: Each BAA operator as a function of (a column's ten float columns, r, s); geomean ignores r and s.
_BAA_AGGREGATES = {"bonferroni": _bonferroni, "geomean": lambda columns, r, s: _geometric(columns)}
BAA_OPERATORS = tuple(_BAA_AGGREGATES)

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


@dataclass(frozen=True)
class CriterionSpec:
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


def column_range(matrix: _Rows, j: int, name: str) -> tuple[float, float]:
    """Reference endpoints of column ``j``, criterion ``name``: (min upper a1, max upper a4)."""
    return _range([row[j].upper.a1 for row in matrix], [row[j].upper.a4 for row in matrix], name)


def _range(a1: Sequence[float], a4: Sequence[float], name: str) -> tuple[float, float]:
    a_minus, a_plus = min(a1), max(a4)
    if a_plus - a_minus <= EPS:
        raise DegenerateRange(
            f"criterion {name}: all upper endpoints coincide at {a_plus:g}, "
            "nothing to scale against"
        )
    return a_minus, a_plus


def normalize(matrix: _Rows, specs: list[CriterionSpec]) -> Matrix:
    """Scale every column into the unit range, respecting its sense: (x - a_minus) / rng per
    endpoint for a benefit criterion; for a cost criterion (a_plus - x) / rng with the
    endpoints reversed, so the largest maps to the smallest. Columns go in order, each
    checked before the next; a ValidationError raised for cell (i, j) carries ``_cell = (i, j)``."""
    m = Matrix.of(matrix, len(specs), "criteria")
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
        if not _ordered(ten):
            for i, numbers in enumerate(zip(*ten)):
                try:
                    _value(*numbers)
                except MabacError as exc:
                    exc._cell = i, j
                    raise
        columns.append(ten)
    return Matrix(columns, len(m))


def _raise_first(check, rows) -> None:
    """Raise the first package error of ``check(entry)``, its ``_cell`` set to (i, j).

    ``rows`` holds ``(i, row)`` in the order the stage meets its cells; i is None
    for the criterion vector. Only the error path pays for this second pass.
    """
    for i, row in rows:
        for j, entry in enumerate(row):
            try:
                check(entry)
            except MabacError as exc:
                exc._cell = i, j
                raise


def weight(normalized: _Rows, weights: list[IT2TrFN]) -> Matrix:
    """Weighted matrix: v_ij = w_j * (n_ij + 1) per endpoint, heights min(w_j, n_ij).

    Both factors must lie on the non-negative cone: the weights are checked first, then
    the cells row by row. An endpoint that overflows while both its factors are finite
    is a ComputationError. Either error names its cell (``_cell``); a product out of
    order raises as its IT2TrFN does, naming none.
    """
    n = Matrix.of(normalized, len(weights), "weights")
    for j, w in enumerate(weights):
        try:
            _require_nonnegative(w, "multiplication")
        except MabacError as exc:
            exc._cell = None, j
            raise
    w_numbers = _numbers(weights)
    columns = [[tuple(map(mul, repeat(we), map(add, c, repeat(1.0)))) if e % 5 != 4
                else tuple(map(min, repeat(we), c))  # heights
                for e, (we, c) in enumerate(zip(w, ten))]
               for w, ten in zip(w_numbers, n.columns)]
    # sum(c) is finite where every entry is; it may overflow where none does
    if (any(_below_cone(ten, 1.0) for ten in n.columns) or not all(map(_ordered, columns))
            or not all(math.isfinite(sum(c)) for ten in columns for c in ten)):
        _first_weighting_fault(n, w_numbers, columns)
    return Matrix(columns, len(n))


def _first_weighting_fault(n: Matrix, w_numbers: list[tuple], columns: list) -> None:
    """Raise the first fault of ``weight``, if any, cell by cell in row order, as the
    cells' own checks raise it: a factor n + 1 below the cone, a product that overflows
    on finite factors, then a product out of order, which names no cell."""
    for i in range(len(n)):
        for j, (w, ten, out) in enumerate(zip(w_numbers, n.columns, columns)):
            cell, product = [c[i] for c in ten], [c[i] for c in out]
            try:
                _require_nonnegative(_value(*cell), "multiplication", 1.0)
                for x, we, ne in zip(product, w, cell):
                    if not math.isfinite(x) and math.isfinite(we) and math.isfinite(ne):
                        raise ComputationError(
                            f"w * (n + 1) = {we!r} * ({ne!r} + 1.0) overflows on finite factors"
                        )
            except MabacError as exc:
                exc._cell = i, j
                raise
            _value(*product)


def baa(
    weighted: _Rows, *, r: float = 1.0, s: float = 1.0, operator: str = "bonferroni"
) -> list[IT2TrFN]:
    """Border approximation area per criterion, aggregated down each column.

    ``operator`` is one of BAA_OPERATORS; any other name is a KeyError. An error for column
    j carries ``_cell = (None, j)``, as does an entry that overflows on finite values.
    """
    aggregate = _BAA_AGGREGATES[operator]
    if len(weighted) < 2:
        raise TooFewValues(
            f"the border approximation area needs at least two alternatives, got {len(weighted)}"
        )
    width = len(weighted.columns) if isinstance(weighted, Matrix) else len(weighted[0])
    result = []
    for j, ten in enumerate(Matrix.of(weighted, width, "criteria").columns):
        try:
            g = aggregate(ten, r, s)
            if not _all_finite(_numbers([g])[0]) and _all_finite(chain.from_iterable(ten)):
                raise ComputationError(f"the {operator} operator overflows with r={r!r}, s={s!r}")
        except MabacError as exc:
            exc._cell = None, j
            raise
        result.append(g)
    return result


def _all_finite(numbers: Iterable[float]) -> bool:
    """Whether every one of ``numbers`` is finite; a valid height always is."""
    return all(map(math.isfinite, numbers))


def crisp_matrices(
    weighted: _Rows, baa_vector: list[IT2TrFN], lam: float = 0.5
) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Step 6: the crisp distance matrix Q, the BAA distances G, and Q - G; a ZeroHeight is
    located, row by row and then the BAA, as ``rank_to_one`` would meet it."""
    m = Matrix.of(weighted, len(baa_vector), "BAA entries")
    try:
        q_columns = [list(map(abs, map(_rank, *ten, repeat(lam)))) for ten in m.columns]
        g_vector = [abs(rank_to_one(g, lam)) for g in baa_vector]
    except ZeroHeight:
        _raise_first(lambda v: rank_to_one(v, lam), [*enumerate(m), (None, baa_vector)])
        raise
    q_matrix = [list(row) for row in zip(*q_columns)] if q_columns else [[] for _ in range(len(m))]
    delta = [list(map(sub, row, g_vector)) for row in q_matrix]
    return q_matrix, g_vector, delta


def classify_and_score(
    delta: list[list[float]], alternatives: list[str] | None = None
) -> tuple[list[list[str]], list[float], list[int]]:
    """Step 7: classify each cell by the sign of ``delta`` and rank by row sums.

    Returns the per-cell area labels, the per-alternative scores, and the
    order of alternatives from best to worst.

    A score that is not finite (an overflow upstream) is a ComputationError
    naming the alternative, or its row index when ``alternatives`` is omitted;
    ``alternatives`` names one row of ``delta`` each, or is a DimensionMismatch.
    """
    if alternatives is not None and len(alternatives) != len(delta):
        raise DimensionMismatch(f"{len(delta)} rows of differences for {len(alternatives)} alternatives")
    classification = []
    for row in delta:
        labels = []
        for d in row:
            if abs(d) < CLASSIFICATION_TOLERANCE:
                labels.append(BAA)
            elif d > 0:
                labels.append(UAA)
            else:
                labels.append(LAA)
        classification.append(labels)
    scores = [sum(row) for row in delta]
    for i, score in enumerate(scores):
        if not math.isfinite(score):
            name = alternatives[i] if alternatives is not None else f"row {i}"
            raise ComputationError(f"alternative {name}: score {score!r} is not a finite number")
    # sorted() is stable, so ties keep the declaration order of alternatives.
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    return classification, scores, order
