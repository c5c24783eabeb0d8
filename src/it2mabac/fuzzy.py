"""Interval type-2 trapezoidal fuzzy numbers, their arithmetic, and matrices of them.

A value is a pair of generalized trapezoids: the upper and lower membership
functions, each written (a1, a2, a3, a4; h). Instances are immutable and all
operations are pure functions, so values can be shared across threads freely.

Arithmetic follows the usual convention for this number type: operations act
endpoint by endpoint on both trapezoids and combine heights with min. The
private kernel :func:`endpointwise` does this lifting for ``add``, ``mul`` and
``scale`` and builds the result through ``_check_cell``, the check of steps
1-6. Multiplication is only defined on the non-negative cone, which is the
only region the decision pipeline ever visits.

Because the arithmetic is endpoint by endpoint, the pipeline holds a p x q
matrix endpoint-major: a :class:`Matrix` keeps, per criterion, ten float
columns of length p (upper a1-a4 and h, then lower a1-a4 and h), and steps
1-6 compute on those columns. It reads as a read-only sequence of rows of
IT2TrFNs, built when read. ``Matrix.of`` is the one adapter from rows.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from itertools import chain, repeat, starmap

from .errors import (
    ComputationError,
    DimensionMismatch,
    EndpointOrderViolation,
    HeightOrderViolation,
    HeightOutOfRange,
    InvalidParams,
    MabacError,
    NegativeOperand,
    NegativeScalar,
    ProblemSyntaxError,
)

#: Absolute tolerance used by validity and classification checks.
EPS = 1e-9


class _Record:
    """The base of the package's value types, as a frozen dataclass would be.

    A subclass lists its fields as annotations, with class-level defaults, and may define
    ``__post_init__``. Subclassing compiles one ``__init__`` that takes the fields by
    position or keyword, stores them on the instance and calls ``__post_init__``. A record
    compares, hashes and prints by its fields in order, and only a record of its own class
    can equal it. No field can be assigned or deleted, but a class declared with
    ``frozen=False`` is assignable and unhashable. ``_replace`` (and ``copy.replace``)
    builds a copy with some fields changed through ``__init__``, so ``__post_init__``
    checks it again; ``_fields`` names the fields in order.
    """

    def __init_subclass__(cls, frozen: bool = True) -> None:
        cls._fields = names = tuple(cls.__annotations__)
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
        # object.__setattr__ keeps the values inline in the instance; writing them through
        # ``self.__dict__`` would make every later read of a field several times slower
        body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {}
        exec(f"def __init__(self{params}):{body}{post}", {"_defaults": defaults, "_set": object.__setattr__},
             namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    __replace__ = _replace


class GeneralizedTrapezoid(_Record):
    """One trapezoidal membership function (a1, a2, a3, a4; h)."""

    a1: float
    a2: float
    a3: float
    a4: float
    h: float

    def __post_init__(self) -> None:
        # One test of every rule: NaN fails each comparison, and the order chain bounds a2
        # and a3 by a1 and a4. A foreign number (a str, an int beyond the float range) fails
        # it by raising. The loops run only to name the first broken rule.
        try:
            valid = (-math.inf < self.a1 <= self.a2 + EPS and self.a2 <= self.a3 + EPS
                     and self.a3 <= self.a4 + EPS and self.a4 < math.inf and 0.0 < self.h <= 1.0)
        except (TypeError, OverflowError):
            valid = False
        if not valid:
            for name in ("a1", "a2", "a3", "a4"):
                if not _is_finite(getattr(self, name)):
                    raise ProblemSyntaxError(f"{name}={_shown(getattr(self, name))} is not a finite number")
            for lo, hi in (("a1", "a2"), ("a2", "a3"), ("a3", "a4")):
                if getattr(self, lo) > getattr(self, hi) + EPS:
                    raise EndpointOrderViolation(
                        f"{lo}={getattr(self, lo)!r} exceeds {hi}={getattr(self, hi)!r}; "
                        "endpoints must satisfy a1 <= a2 <= a3 <= a4"
                    )
            raise HeightOutOfRange(f"height h={_shown(self.h)} must lie in (0, 1]")

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


def _is_finite(x) -> bool:
    """Whether ``x`` is a finite number; a str or an int beyond the float range is not."""
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


class IT2TrFN(_Record):
    """An interval type-2 trapezoidal fuzzy number ``[upper, lower]``."""

    upper: GeneralizedTrapezoid
    lower: GeneralizedTrapezoid

    def __post_init__(self) -> None:
        if self.lower.h > self.upper.h + EPS:
            raise HeightOrderViolation(
                f"lower height {self.lower.h!r} exceeds upper height {self.upper.h!r}"
            )


def _numbers(values: Iterable[IT2TrFN]) -> list[tuple]:
    """The ten numbers of each value, in the order a ``Matrix`` column holds them: upper
    a1-a4 and h, then lower a1-a4 and h."""
    return [(u.a1, u.a2, u.a3, u.a4, u.h, lo.a1, lo.a2, lo.a3, lo.a4, lo.h)
            for u, lo in [(v.upper, v.lower) for v in values]]


def _value(u1, u2, u3, u4, uh, l1, l2, l3, l4, lh) -> IT2TrFN:
    """The IT2TrFN of ten numbers in ``_numbers``' order, built and validated."""
    return IT2TrFN(GeneralizedTrapezoid(u1, u2, u3, u4, uh), GeneralizedTrapezoid(l1, l2, l3, l4, lh))


def _columns(values: Iterable[IT2TrFN]) -> tuple[tuple, ...]:
    """The ten columns of ``values``: each of the ten numbers of every value, in ``_numbers``' order."""
    return tuple(zip(*_numbers(values))) or ((),) * 10


def _ordered(columns: Sequence[tuple]) -> bool:
    """Whether every value of ``columns`` (ten of them) keeps a1 <= a2 + EPS, a2 <= a3 + EPS
    and a3 <= a4 + EPS on both trapezoids, as ``GeneralizedTrapezoid`` requires."""
    for lo, hi in ((0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8)):
        a, b = columns[lo], columns[hi]
        # x > y + EPS implies x > y, so the exact test runs only where the plain one fires
        if any(map(operator.gt, a, b)) and any(map(operator.gt, a, map(operator.add, b, repeat(EPS)))):
            return False
    return True


class Matrix(Sequence):
    """A read-only p x q matrix of IT2TrFNs, held endpoint-major.

    ``columns[j]`` holds criterion j as ten tuples of p numbers, in ``_numbers``'
    order. As a sequence it has p rows: ``m[i]`` is a tuple of q IT2TrFNs, built
    when read and not kept. ``==`` compares the columns of two matrices, and
    row by row against any other sequence; one whose items are not rows is
    unequal. The stages build one from columns they have checked; ``Matrix.of``
    reads one from rows.

    A matrix is read-only in fact: its columns are tuples at every depth, and no
    attribute can be assigned or deleted. So the stages of ``pipeline`` may keep
    their result on their input matrix: ``_memo`` maps a stage's name to the
    argument objects of its last successful call on this matrix and its result.
    """

    __slots__ = ("columns", "_p", "_memo")

    def __init__(self, columns: Sequence[Sequence[tuple]], p: int) -> None:
        _set = object.__setattr__
        _set(self, "columns", tuple([tuple(map(tuple, ten)) for ten in columns]))
        _set(self, "_p", p)
        _set(self, "_memo", {})

    __setattr__, __delattr__ = _Record.__setattr__, _Record.__delattr__

    @classmethod
    def of(cls, rows: Sequence[Sequence[IT2TrFN]], width: int | None = None, what: str = "entries") -> Matrix:
        """``rows`` as a Matrix, after a DimensionMismatch for a row that is not ``width``
        entries wide, or as wide as the first row where no width is given; ``zip`` would
        cut a long row short without a word. A Matrix is kept."""
        if isinstance(rows, Matrix):
            widths, first = {len(rows.columns)} if len(rows) else set(), len(rows.columns)
        else:
            widths, first = set(map(len, rows)), len(rows[0]) if rows else 0
        width = first if width is None else width
        if widths - {width}:
            raise DimensionMismatch(f"matrix rows have widths {sorted(widths)}, expected {width} {what}")
        if isinstance(rows, Matrix):
            return rows
        cells = [*chain.from_iterable(rows)]
        return cls([_columns(cells[j::width]) for j in range(width)], len(rows))

    def __len__(self) -> int:
        return self._p

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(self._p)[i]]
        i = range(self._p)[i]
        return tuple(_value(*[c[i] for c in column]) for column in self.columns)

    def __iter__(self):
        if not self.columns:
            return iter([()] * self._p)
        return zip(*[map(_value, *column) for column in self.columns])

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return self._p == other._p and self.columns == other.columns
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(other) == self._p and all(
                isinstance(row, Iterable) and mine == tuple(row) for mine, row in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Matrix({[list(row) for row in self]!r})"


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
    combine with min. Only the result is built, through ``_check_cell``.
    """
    columns = _columns(values)
    numbers = (*starmap(fn, columns[:4]), min(columns[4]), *starmap(fn, columns[5:9]), min(columns[9]))
    return _check_cell(numbers, "an endpoint overflows on finite values")


def add(a: IT2TrFN, b: IT2TrFN) -> IT2TrFN:
    """Endpoint-wise sum on both trapezoids; heights combine with min."""
    return endpointwise(operator.add, a, b)


def scale(a: IT2TrFN, k: float) -> IT2TrFN:
    """Multiply all eight endpoints by ``k >= 0``, read by the rule of ``_finite``; heights are unchanged."""
    k = _finite(k, InvalidParams, "scale factor must be a finite number, got {}")
    if k < 0:
        raise NegativeScalar(f"scale factor must be non-negative, got {k!r}")
    return endpointwise(lambda x: x * k, a)


def _require_nonnegative(value: IT2TrFN, context: str, shift: float = 0.0) -> None:
    """Reject ``value + shift`` (shift added to every endpoint) below -EPS."""
    lowest = min(*value.upper.endpoints, *value.lower.endpoints) + shift
    if lowest < -EPS:
        raise NegativeOperand(
            f"{context} is only defined for non-negative values, got endpoints down to {lowest!r}"
        )


def _below_cone(columns: Sequence[tuple], shift: float = 0.0) -> bool:
    """Whether some value of ``columns`` (ten of them) may have an endpoint, plus ``shift``,
    below -EPS. False means ``_require_nonnegative`` passes every one."""
    return not all(min(c, default=0.0) + shift >= -EPS for c in (*columns[:4], *columns[5:9]))


def _require_cone(columns: Sequence[tuple], context: str, cells: Iterable = repeat(None)) -> None:
    """Refuse the first value of ``columns`` (ten of them) below the non-negative cone, as
    ``_require_nonnegative`` refuses it; ``cells`` names each value's cell, if it has one."""
    if _below_cone(columns):
        _locate(zip(cells, zip(*columns)), lambda *x: _require_nonnegative(_value(*x), context))


def _finite_sums(columns: Sequence[Sequence[float]]) -> bool:
    """Whether every number of ``columns`` is finite: the sum of their sums is, where it
    does not overflow, and only where it is not are the numbers tested one by one."""
    return math.isfinite(sum(map(sum, columns))) or all(map(math.isfinite, chain.from_iterable(columns)))


def _check_cell(outputs: Sequence[float], message: str) -> IT2TrFN:
    """The value of ``outputs``, the ten numbers a stage wrote, refused with ``message`` as a
    ComputationError where one is not finite (the finiteness rule of steps 1-6), else where
    they are no IT2TrFN."""
    if not all(map(math.isfinite, outputs)):
        raise ComputationError(message)
    return _value(*outputs)


def _locate(cells: Iterable[tuple], check) -> None:
    """The one fault locator of steps 1-6, run where a scan of a stage's columns fired: the
    first package error of ``check(*numbers)`` over the ``(cell, numbers)`` pairs, given in
    the stage's order, is raised with ``_cell = cell``; an InvalidParams is the fault of a
    parameter, not of the cell, and keeps none. The scans are exact, so a scan fires only
    on a cell that breaks a rule, and the locator, once called, raises."""
    for cell, numbers in cells:
        try:
            check(*numbers)
        except InvalidParams:
            raise
        except MabacError as exc:
            exc._cell = cell
            raise


def mul(a: IT2TrFN, b: IT2TrFN) -> IT2TrFN:
    """Endpoint-wise product on the non-negative cone; heights combine with min."""
    _require_cone(_columns([a, b]), "multiplication")
    return endpointwise(operator.mul, a, b)


def crisp(c: float) -> IT2TrFN:
    """The crisp constant ``c`` embedded as a degenerate IT2TrFN."""
    point = GeneralizedTrapezoid(c, c, c, c, 1.0)
    return IT2TrFN(point, point)


#: The crisp unit, the reference point of the rank-based distance.
CRISP_ONE = crisp(1.0)

