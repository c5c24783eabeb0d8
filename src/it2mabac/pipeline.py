"""MABAC stages: normalization, weighting, border area, and ranking.

All stage functions are pure transformations of fuzzy matrices (lists of
rows, one row per alternative). Reference points for normalization come from
the upper trapezoids only; lower endpoints are scaled against the same range,
which may push them slightly outside [0, 1]. That is intentional and the
downstream stages do not clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aggregation import geometric_mean, tit2fgbm
from .errors import (ComputationError, DegenerateRange, DimensionMismatch, InvalidParams, MabacError,
                     NegativeOperand, ProblemSyntaxError, TooFewValues, ValidationError, ZeroHeight)
from .fuzzy import EPS, GeneralizedTrapezoid, IT2TrFN, _require_nonnegative, _shown
from .ranking import rank_to_one

#: Classification labels: upper, border, and lower approximation areas.
UAA = "UAA"
BAA = "BAA"
LAA = "LAA"

#: |q_ij - g_j| below this counts as sitting on the border area itself.
CLASSIFICATION_TOLERANCE = 1e-9

#: Each BAA operator as a function of (column, r, s); geomean ignores r and s.
_BAA_AGGREGATES = {"bonferroni": tit2fgbm, "geomean": lambda col, r, s: geometric_mean(col)}
BAA_OPERATORS = tuple(_BAA_AGGREGATES)

Matrix = list[list[IT2TrFN]]


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


def _check_widths(matrix: Matrix, width: int, what: str) -> None:
    """Reject a matrix with a row that is not ``width`` entries wide."""
    if any(len(row) != width for row in matrix):
        widths = sorted({len(row) for row in matrix})
        raise DimensionMismatch(f"matrix rows have widths {widths}, expected {width} {what}")


def column_range(matrix: Matrix, j: int, name: str) -> tuple[float, float]:
    """Reference endpoints of column ``j``, criterion ``name``: (min upper a1, max upper a4)."""
    a_minus = min(row[j].upper.a1 for row in matrix)
    a_plus = max(row[j].upper.a4 for row in matrix)
    if a_plus - a_minus <= EPS:
        raise DegenerateRange(
            f"criterion {name}: all upper endpoints coincide at {a_plus:g}, "
            "nothing to scale against"
        )
    return a_minus, a_plus


def _normalized(t: GeneralizedTrapezoid, sense: str, a_minus: float, a_plus: float,
                rng: float) -> GeneralizedTrapezoid:
    """(x - a_minus) / rng per endpoint for a benefit criterion; for a cost criterion
    (a_plus - x) / rng with the endpoints reversed, so the largest maps to the smallest."""
    if sense == "benefit":
        return GeneralizedTrapezoid((t.a1 - a_minus) / rng, (t.a2 - a_minus) / rng,
                                    (t.a3 - a_minus) / rng, (t.a4 - a_minus) / rng, t.h)
    return GeneralizedTrapezoid((a_plus - t.a4) / rng, (a_plus - t.a3) / rng,
                                (a_plus - t.a2) / rng, (a_plus - t.a1) / rng, t.h)


def normalize(matrix: Matrix, specs: list[CriterionSpec]) -> Matrix:
    """Scale every column into the unit range, respecting its sense; a ValidationError
    raised for cell (i, j) carries ``_cell = (i, j)``."""
    _check_widths(matrix, len(specs), "criteria")
    result: Matrix = [[] for _ in matrix]
    for j, spec in enumerate(specs):
        a_minus, a_plus = column_range(matrix, j, spec.name)
        rng = a_plus - a_minus
        for i, (out, row) in enumerate(zip(result, matrix)):
            v = row[j]
            try:
                out.append(IT2TrFN(_normalized(v.upper, spec.sense, a_minus, a_plus, rng),
                                   _normalized(v.lower, spec.sense, a_minus, a_plus, rng)))
            except ValidationError as exc:
                exc._cell = i, j
                raise
    return result


def _locate(exc: MabacError, check, rows) -> MabacError:
    """``exc``, its ``_cell`` set to the first (i, j) where ``check(row[j], *args)`` raises.

    ``rows`` holds ``(i, row, *args)`` in the order the stage checked them, so
    that is the cell ``exc`` came from; i is None for the criterion vector.
    Only the error path pays for this second pass.
    """
    for i, row, *args in rows:
        for j, entry in enumerate(row):
            try:
                check(entry, *args)
            except MabacError:
                exc._cell = i, j
                return exc
    return exc


def weight(normalized: Matrix, weights: list[IT2TrFN]) -> Matrix:
    """Weighted matrix: v_ij = w_j * (n_ij + 1); a NegativeOperand is located (``_locate``)."""
    _check_widths(normalized, len(weights), "weights")
    try:
        for w in weights:  # both factors of w * (n + 1) must lie on the non-negative cone
            _require_nonnegative(w, "multiplication")
        return [[_weighted(w, entry) for w, entry in zip(weights, row)] for row in normalized]
    except NegativeOperand as exc:
        rows = [(None, weights, 0.0), *((i, row, 1.0) for i, row in enumerate(normalized))]
        raise _locate(exc, lambda v, shift: _require_nonnegative(v, "", shift), rows)


def _weighted(w: IT2TrFN, n: IT2TrFN) -> IT2TrFN:
    _require_nonnegative(n, "multiplication", shift=1.0)
    u, v, l, m = w.upper, n.upper, w.lower, n.lower
    return IT2TrFN(
        GeneralizedTrapezoid(u.a1 * (v.a1 + 1.0), u.a2 * (v.a2 + 1.0), u.a3 * (v.a3 + 1.0),
                             u.a4 * (v.a4 + 1.0), min(u.h, v.h)),
        GeneralizedTrapezoid(l.a1 * (m.a1 + 1.0), l.a2 * (m.a2 + 1.0), l.a3 * (m.a3 + 1.0),
                             l.a4 * (m.a4 + 1.0), min(l.h, m.h)),
    )


def baa(
    weighted: Matrix, *, r: float = 1.0, s: float = 1.0, operator: str = "bonferroni"
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
    _check_widths(weighted, len(weighted[0]), "criteria")
    result = []
    for j, column in enumerate(zip(*weighted)):
        try:
            g = aggregate(list(column), r, s)
            if not _all_finite(g) and _all_finite(*column):
                raise ComputationError(f"the {operator} operator overflows with r={r!r}, s={s!r}")
        except MabacError as exc:
            exc._cell = None, j
            raise
        result.append(g)
    return result


def _all_finite(*values: IT2TrFN) -> bool:
    """Whether every endpoint of ``values`` is a finite number; a valid height always is."""
    return all(math.isfinite(x) for v in values for x in (*v.upper.endpoints, *v.lower.endpoints))


def crisp_matrices(
    weighted: Matrix, baa_vector: list[IT2TrFN], lam: float = 0.5
) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Step 6: the crisp distance matrix Q, the BAA distances G, and Q - G; a ZeroHeight is located."""
    _check_widths(weighted, len(baa_vector), "BAA entries")
    try:
        q_matrix = [[abs(rank_to_one(entry, lam)) for entry in row] for row in weighted]
        g_vector = [abs(rank_to_one(g, lam)) for g in baa_vector]
    except ZeroHeight as exc:
        raise _locate(exc, lambda v: rank_to_one(v, lam), [*enumerate(weighted), (None, baa_vector)])
    delta = [[qij - gj for qij, gj in zip(row, g_vector)] for row in q_matrix]
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
