"""Linguistic rating scales: named, ordered mappings from terms to fuzzy values.

Two seven-term scales ship with the package: one on [0, 1] used for criterion
weights, one on [0, 10] used for alternative ratings. User-defined scales on
any universe are accepted as well; nothing about the universe is stored, the
pipeline derives its reference points from the data itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from types import MappingProxyType

from .errors import ProblemSyntaxError, UnknownTerm
from .fuzzy import IT2TrFN, _Record, _shown, make
from .pipeline import _check_names


class LinguisticScale(_Record):
    """An ordered, read-only term -> IT2TrFN mapping, checked when built: a string
    name, terms under the one name rule and ``IT2TrFN`` entries, or a
    ``ProblemSyntaxError``. Insertion order is the scale order."""

    name: str
    entries: Mapping[str, IT2TrFN]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ProblemSyntaxError(f"a scale's 'name' must be a string, got {_shown(self.name)}")
        _check_names(list(self.entries) if isinstance(self.entries, Mapping) else None, "terms")
        for term, value in self.entries.items():
            if not isinstance(value, IT2TrFN):
                raise ProblemSyntaxError(f"scale {self.name!r} term {term!r}: expected an IT2TrFN, "
                                         f"got {_shown(value)}")
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def terms(self) -> list[str]:
        return list(self.entries)


def resolve(scale: LinguisticScale, term: str) -> IT2TrFN:
    """Look up ``term`` in ``scale``; unknown terms list what is available."""
    try:
        return scale.entries[term]
    except KeyError:
        raise UnknownTerm(
            f"unknown term {term!r} in scale {scale.name!r}; "
            f"available terms: {', '.join(scale.terms())}"
        ) from None


# Seven-term priority scale on [0, 1]. The lower fourth endpoints of L, ML,
# M and MH carry a restored decimal point (.2, .4, .6, .8); without it the
# lower trapezoid would overshoot the upper one and the entries would be
# invalid.
_WEIGHT_TERMS = (
    ("VL", (0.0, 0.0, 0.0, 0.1, 1.0), (0.0, 0.0, 0.0, 0.05, 0.9)),
    ("L", (0.0, 0.1, 0.1, 0.3, 1.0), (0.05, 0.1, 0.1, 0.2, 0.9)),
    ("ML", (0.1, 0.3, 0.3, 0.5, 1.0), (0.2, 0.3, 0.3, 0.4, 0.9)),
    ("M", (0.3, 0.5, 0.5, 0.7, 1.0), (0.4, 0.5, 0.5, 0.6, 0.9)),
    ("MH", (0.5, 0.7, 0.7, 0.9, 1.0), (0.6, 0.7, 0.7, 0.8, 0.9)),
    ("H", (0.7, 0.9, 0.9, 1.0, 1.0), (0.8, 0.9, 0.9, 0.95, 0.9)),
    ("VH", (0.9, 1.0, 1.0, 1.0, 1.0), (0.95, 1.0, 1.0, 1.0, 0.9)),
)

# Seven-term rating scale on [0, 10].
_RATING_TERMS = (
    ("VP", (0.0, 0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.5, 0.9)),
    ("P", (0.0, 1.0, 1.0, 3.0, 1.0), (0.5, 1.0, 1.0, 2.0, 0.9)),
    ("MP", (1.0, 3.0, 3.0, 5.0, 1.0), (2.0, 3.0, 3.0, 4.0, 0.9)),
    ("F", (3.0, 5.0, 5.0, 7.0, 1.0), (4.0, 5.0, 5.0, 6.0, 0.9)),
    ("MG", (5.0, 7.0, 7.0, 9.0, 1.0), (6.0, 7.0, 7.0, 8.0, 0.9)),
    ("G", (7.0, 9.0, 9.0, 10.0, 1.0), (8.0, 9.0, 9.0, 9.5, 0.9)),
    ("VG", (9.0, 10.0, 10.0, 10.0, 1.0), (9.5, 10.0, 10.0, 10.0, 0.9)),
)


def _build(name: str, rows) -> LinguisticScale:
    return LinguisticScale(name, {term: make(up, lo) for term, up, lo in rows})


# Built once and shared: a scale is read-only.
@cache
def builtin_weight_scale() -> LinguisticScale:
    """The bundled seven-term criterion-priority scale on [0, 1]."""
    return _build("weights", _WEIGHT_TERMS)


@cache
def builtin_rating_scale() -> LinguisticScale:
    """The bundled seven-term alternative-rating scale on [0, 10]."""
    return _build("ratings", _RATING_TERMS)


def monotonicity_warnings(scale: LinguisticScale) -> list[str]:
    """Lint: upper a4 endpoints should not decrease along the scale order."""
    warnings = []
    names = scale.terms()
    for prev, cur in zip(names, names[1:]):
        if scale.entries[cur].upper.a4 < scale.entries[prev].upper.a4:
            warnings.append(
                f"term {cur!r} has upper a4 {scale.entries[cur].upper.a4:g} "
                f"below its predecessor {prev!r} ({scale.entries[prev].upper.a4:g})"
            )
    return warnings
