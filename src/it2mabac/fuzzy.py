"""Interval type-2 trapezoidal fuzzy numbers and their arithmetic.

A value is a pair of generalized trapezoids: the upper and lower membership
functions, each written (a1, a2, a3, a4; h). Instances are immutable and all
operations are pure functions, so values can be shared across threads freely.

Arithmetic follows the usual convention for this number type: operations act
endpoint by endpoint on both trapezoids and combine heights with min. The
private kernel :func:`endpointwise` does this lifting through ``map`` for the
operations here and for both BAA operators; it builds only the result. The
pipeline's normalization and weighting write their endpoint formulas out.
Multiplication is only defined on the non-negative cone, which is the only
region the decision pipeline ever visits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .errors import (
    EmptyInput,
    EndpointOrderViolation,
    HeightOrderViolation,
    HeightOutOfRange,
    NegativeOperand,
    NegativeScalar,
    ProblemSyntaxError,
)

#: Absolute tolerance used by validity and classification checks.
EPS = 1e-9


@dataclass(frozen=True)
class GeneralizedTrapezoid:
    """One trapezoidal membership function (a1, a2, a3, a4; h)."""

    a1: float
    a2: float
    a3: float
    a4: float
    h: float

    def __post_init__(self) -> None:
        # The loop's own tests, unrolled: a value passes here exactly when the
        # loop would pass it, so the loop runs only to name the broken rule.
        if (self.a1 > self.a2 + EPS or self.a2 > self.a3 + EPS or self.a3 > self.a4 + EPS
                or not 0.0 < self.h <= 1.0):
            for lo, hi in (("a1", "a2"), ("a2", "a3"), ("a3", "a4")):
                if getattr(self, lo) > getattr(self, hi) + EPS:
                    raise EndpointOrderViolation(
                        f"{lo}={getattr(self, lo)!r} exceeds {hi}={getattr(self, hi)!r}; "
                        "endpoints must satisfy a1 <= a2 <= a3 <= a4"
                    )
            raise HeightOutOfRange(f"height h={self.h!r} must lie in (0, 1]")

    @property
    def endpoints(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4)

    def membership(self, x: float) -> float:
        """Piecewise-linear membership value at ``x``; 0 outside [a1, a4]."""
        if self.a2 <= x <= self.a3:
            return self.h
        if self.a1 <= x < self.a2:
            return (x - self.a1) * self.h / (self.a2 - self.a1)
        if self.a3 < x <= self.a4:
            return (self.a4 - x) * self.h / (self.a4 - self.a3)
        return 0.0


@dataclass(frozen=True)
class IT2TrFN:
    """An interval type-2 trapezoidal fuzzy number ``[upper, lower]``."""

    upper: GeneralizedTrapezoid
    lower: GeneralizedTrapezoid

    def __post_init__(self) -> None:
        if self.lower.h > self.upper.h + EPS:
            raise HeightOrderViolation(
                f"lower height {self.lower.h!r} exceeds upper height {self.upper.h!r}"
            )


def _as_trapezoid(value: Sequence[float], which: str) -> GeneralizedTrapezoid:
    items = list(value)
    if len(items) != 5:
        raise EndpointOrderViolation(
            f"{which} trapezoid needs exactly five numbers (a1, a2, a3, a4, h), got {len(items)}"
        )
    message = f"{which} trapezoid: {{}} is not a finite number"
    try:
        return GeneralizedTrapezoid(*(_finite(x, ProblemSyntaxError, message) for x in items))
    except (EndpointOrderViolation, HeightOutOfRange) as exc:
        raise type(exc)(f"{which} trapezoid: {exc}") from exc


def _finite(x, error: type[Exception], message: str) -> float:
    """``x`` as a float; a boolean, non-number, NaN, infinity or huge int raises ``error``.

    ``message`` shows ``x`` in its ``{}`` as ``_shown`` does.
    """
    try:
        number = float(x)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(x, bool) or not math.isfinite(number):
        raise error(message.format(_shown(x)))
    return number


def _check_finite(value: IT2TrFN, where: str) -> None:
    """Hold the ten numbers of ``value``, built directly, to the rule of ``_finite``."""
    for which, t in (("upper", value.upper), ("lower", value.lower)):
        message = f"{where}: {which} trapezoid: {{}} is not a finite number"
        for x in (t.a1, t.a2, t.a3, t.a4, t.h):
            _finite(x, ProblemSyntaxError, message)


#: The most entries, at every depth and once per appearance, and the deepest
#: nesting of a list, tuple or dict that ``_shown`` prints; YAML aliases can
#: repeat one list so often that its text grows as a power of the document's size.
_SHOWN_ENTRIES, _SHOWN_DEPTH = 1000, 50


def _shown(x, show=repr) -> str:
    """``show(x)``, or a name for an int too long to print, for a value holding one
    and for a list, tuple or dict too large or too deep to print."""
    if isinstance(x, (list, tuple, dict)) and _too_large(x):
        return f"a {type(x).__name__} of length {len(x)}, too large to print"
    try:
        return show(x)
    except ValueError:  # CPython prints no int of more than 4300 digits
        if isinstance(x, int):
            return f"an int of {x.bit_length()} bits"
        return f"a {type(x).__name__} holding an int too long to print"


def _too_large(x) -> bool:
    """Whether ``x`` is past ``_SHOWN_ENTRIES`` or ``_SHOWN_DEPTH``; it walks with a stack, not recursion."""
    budget, stack = _SHOWN_ENTRIES, [(x, 0)]
    while stack:
        value, depth = stack.pop()
        entries = (*value, *value.values()) if isinstance(value, dict) else value
        budget -= len(entries)
        if budget < 0 or depth > _SHOWN_DEPTH:
            return True
        stack.extend((v, depth + 1) for v in entries if isinstance(v, (list, tuple, dict)))
    return False


def make(upper: Sequence[float], lower: Sequence[float]) -> IT2TrFN:
    """Build a validated IT2TrFN from two 5-sequences (a1, a2, a3, a4, h).

    Footprint-of-uncertainty containment (lower membership never above the
    upper one) is not enforced; it is available as a lint, see
    :func:`fou_containment_warnings`.
    """
    return IT2TrFN(_as_trapezoid(upper, "upper"), _as_trapezoid(lower, "lower"))


def fou_containment_warnings(value: IT2TrFN) -> list[str]:
    """Report points where the lower membership exceeds the upper one.

    Both membership functions are piecewise linear, so checking their joint
    breakpoints is sufficient. An empty list means the lower trapezoid lies
    inside the footprint of the upper one.
    """
    warnings = []
    breakpoints = sorted(set(value.upper.endpoints) | set(value.lower.endpoints))
    for x in breakpoints:
        below, above = value.lower.membership(x), value.upper.membership(x)
        if below > above + EPS:
            warnings.append(f"at x={x:g}: lower membership {below:.6g} > upper {above:.6g}")
    return warnings


def endpointwise(fn, *values: IT2TrFN) -> IT2TrFN:
    """Lift the scalar ``fn`` to IT2TrFNs, endpoint by endpoint.

    ``fn`` receives one endpoint position of every value (a1 of each, then a2,
    ...), first over the upper trapezoids, then over the lower ones; heights
    combine with min. Only the result is built and validated.
    """
    return IT2TrFN(
        GeneralizedTrapezoid(
            *map(fn, *[v.upper.endpoints for v in values]), min([v.upper.h for v in values])
        ),
        GeneralizedTrapezoid(
            *map(fn, *[v.lower.endpoints for v in values]), min([v.lower.h for v in values])
        ),
    )


def add(a: IT2TrFN, b: IT2TrFN) -> IT2TrFN:
    """Endpoint-wise sum on both trapezoids; heights combine with min."""
    return endpointwise(operator.add, a, b)


def scale(a: IT2TrFN, k: float) -> IT2TrFN:
    """Multiply all eight endpoints by ``k >= 0``; heights are unchanged."""
    if k < 0:
        raise NegativeScalar(f"scale factor must be non-negative, got {k!r}")
    return endpointwise(lambda x: x * k, a)


def _require_nonnegative(value: IT2TrFN, context: str, shift: float = 0.0) -> None:
    """Reject ``value + shift`` (shift added to every endpoint) below -EPS."""
    lowest = min(value.upper.a1, value.lower.a1) + shift
    # Each endpoint of a valid trapezoid may lie up to EPS below the one before it,
    # so a4 may be 3*EPS below a1: an a1 of 2*EPS or more is enough on its own.
    if lowest < 2 * EPS:
        lowest = min(*value.upper.endpoints, *value.lower.endpoints) + shift
    if lowest < -EPS:
        raise NegativeOperand(
            f"{context} is only defined for non-negative values, got endpoints down to {lowest!r}"
        )


def mul(a: IT2TrFN, b: IT2TrFN) -> IT2TrFN:
    """Endpoint-wise product on the non-negative cone; heights combine with min."""
    _require_nonnegative(a, "multiplication")
    _require_nonnegative(b, "multiplication")
    return endpointwise(operator.mul, a, b)


def crisp(c: float) -> IT2TrFN:
    """The crisp constant ``c`` embedded as a degenerate IT2TrFN."""
    point = GeneralizedTrapezoid(c, c, c, c, 1.0)
    return IT2TrFN(point, point)


#: The crisp unit, the reference point of the rank-based distance.
CRISP_ONE = crisp(1.0)


def mean(values: Iterable[IT2TrFN]) -> IT2TrFN:
    """Component-wise average of one or more values (sum scaled by 1/k)."""
    items = list(values)
    if not items:
        raise EmptyInput("cannot average zero values")
    factor = 1.0 / len(items)
    # A left fold of floats: a partial sum is never validated as a value.
    return endpointwise(lambda *column: reduce(operator.add, column) * factor, *items)
