"""Tests for the builtin linguistic scales and scale handling."""


import pytest

from it2mabac import (
    LinguisticScale,
    builtin_rating_scale,
    builtin_weight_scale,
    fou_containment_warnings,
    make,
    monotonicity_warnings,
    parse_scale,
    resolve,
)
from it2mabac.errors import ProblemSyntaxError, UnknownTerm

WEIGHT_SCALE_VALUES = {
    "VL": ((0, 0, 0, 0.1, 1.0), (0, 0, 0, 0.05, 0.9)),
    "L": ((0, 0.1, 0.1, 0.3, 1.0), (0.05, 0.1, 0.1, 0.2, 0.9)),
    "ML": ((0.1, 0.3, 0.3, 0.5, 1.0), (0.2, 0.3, 0.3, 0.4, 0.9)),
    "M": ((0.3, 0.5, 0.5, 0.7, 1.0), (0.4, 0.5, 0.5, 0.6, 0.9)),
    "MH": ((0.5, 0.7, 0.7, 0.9, 1.0), (0.6, 0.7, 0.7, 0.8, 0.9)),
    "H": ((0.7, 0.9, 0.9, 1.0, 1.0), (0.8, 0.9, 0.9, 0.95, 0.9)),
    "VH": ((0.9, 1.0, 1.0, 1.0, 1.0), (0.95, 1.0, 1.0, 1.0, 0.9)),
}

RATING_SCALE_VALUES = {
    "VP": ((0, 0, 0, 1, 1.0), (0, 0, 0, 0.5, 0.9)),
    "P": ((0, 1, 1, 3, 1.0), (0.5, 1, 1, 2, 0.9)),
    "MP": ((1, 3, 3, 5, 1.0), (2, 3, 3, 4, 0.9)),
    "F": ((3, 5, 5, 7, 1.0), (4, 5, 5, 6, 0.9)),
    "MG": ((5, 7, 7, 9, 1.0), (6, 7, 7, 8, 0.9)),
    "G": ((7, 9, 9, 10, 1.0), (8, 9, 9, 9.5, 0.9)),
    "VG": ((9, 10, 10, 10, 1.0), (9.5, 10, 10, 10, 0.9)),
}


def test_scale_holds_a_copy_of_its_entries():
    entries = {"LO": make((0, 1, 1, 2, 1.0), (0.5, 1, 1, 1.5, 0.9))}
    scale = LinguisticScale("copied", entries)
    entries["HI"] = make((8, 9, 9, 10, 1.0), (8.5, 9, 9, 9.5, 0.9))
    assert scale.terms() == ["LO"]
    assert scale == LinguisticScale("copied", {"LO": entries["LO"]})


@pytest.mark.parametrize("builtin", [builtin_weight_scale, builtin_rating_scale])
def test_builtin_scale_is_one_read_only_instance(builtin):
    scale = builtin()
    assert builtin() is scale
    term = scale.terms()[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        scale.name = "changed"
    with pytest.raises(AttributeError, match="cannot assign"):
        scale.entries = {}
    with pytest.raises(TypeError):
        scale.entries[term] = scale.entries[scale.terms()[-1]]
    with pytest.raises(TypeError):
        del scale.entries[term]
    with pytest.raises(AttributeError, match="cannot assign"):
        scale.entries[term].upper.a1 = 5.0
    with pytest.raises(AttributeError, match="cannot assign"):
        scale.entries[term].lower = scale.entries[term].upper


@pytest.mark.parametrize("term,expected", WEIGHT_SCALE_VALUES.items())
def test_weight_scale_entries(term, expected):
    value = resolve(builtin_weight_scale(), term)
    assert value.upper.endpoints + (value.upper.h,) == pytest.approx(expected[0])
    assert value.lower.endpoints + (value.lower.h,) == pytest.approx(expected[1])


@pytest.mark.parametrize("term,expected", RATING_SCALE_VALUES.items())
def test_rating_scale_entries(term, expected):
    value = resolve(builtin_rating_scale(), term)
    assert value.upper.endpoints + (value.upper.h,) == pytest.approx(expected[0])
    assert value.lower.endpoints + (value.lower.h,) == pytest.approx(expected[1])


def test_decimal_repair_of_low_terms():
    # the repaired lower fourth endpoints stay inside the upper support
    scale = builtin_weight_scale()
    for term, a4_lower in (("L", 0.2), ("ML", 0.4), ("M", 0.6), ("MH", 0.8)):
        value = resolve(scale, term)
        assert value.lower.a4 == pytest.approx(a4_lower)
        assert value.lower.a4 <= value.upper.a4


def test_scale_order_and_terms():
    assert builtin_weight_scale().terms() == ["VL", "L", "ML", "M", "MH", "H", "VH"]
    assert builtin_rating_scale().terms() == ["VP", "P", "MP", "F", "MG", "G", "VG"]


def test_unknown_term_lists_alternatives():
    with pytest.raises(UnknownTerm, match="XX") as err:
        resolve(builtin_rating_scale(), "XX")
    assert "VG" in str(err.value)


def test_builtin_scales_are_monotone_and_contained():
    for scale in (builtin_weight_scale(), builtin_rating_scale()):
        assert monotonicity_warnings(scale) == []
        for term in scale.terms():
            assert fou_containment_warnings(scale.entries[term]) == []


def test_monotonicity_lint_flags_shuffled_scale():
    shuffled = LinguisticScale(
        "shuffled",
        {
            "HIGH": make((5, 6, 7, 8, 1.0), (5.5, 6, 7, 7.5, 0.9)),
            "LOW": make((0, 1, 2, 3, 1.0), (0.5, 1, 2, 2.5, 0.9)),
        },
    )
    warnings = monotonicity_warnings(shuffled)
    assert len(warnings) == 1 and "LOW" in warnings[0]


def test_scale_roundtrip_is_bit_exact():
    scale = builtin_rating_scale()
    node = {
        "name": scale.name,
        "terms": {
            term: [
                list(v.upper.endpoints) + [v.upper.h],
                list(v.lower.endpoints) + [v.lower.h],
            ]
            for term, v in scale.entries.items()
        },
    }
    assert parse_scale(node) == scale


#: A directly built scale that is refused: its name, its entries (None: the
#: builtin weight terms with "H" replaced by the given value) and the message.
BAD_SCALES = {
    "int-entry": ("w", 5, "scale 'w' term 'H': expected an IT2TrFN, got 5"),
    "str-entry": ("w", "M", "scale 'w' term 'H': expected an IT2TrFN, got 'M'"),
    "tuple-entry": ("w", WEIGHT_SCALE_VALUES["H"], "scale 'w' term 'H': expected an IT2TrFN, "
                    "got ((0.7, 0.9, 0.9, 1.0, 1.0), (0.8, 0.9, 0.9, 0.95, 0.9))"),
    "int-name-and-term": (5, {1: 2}, "a scale's 'name' must be a string, got 5"),
    "int-term": ("w", {1: 2}, "'terms' entries must be non-empty strings, got 1"),
    "empty-term": ("w", {"": 2}, "'terms' entries must be non-empty strings, got ''"),
    "no-terms": ("w", {}, "'terms' must be a non-empty list of names"),
    "not-a-mapping": ("w", [("H", make(*WEIGHT_SCALE_VALUES["H"]))],
                      "'terms' must be a non-empty list of names"),
}


@pytest.mark.parametrize("case", list(BAD_SCALES))
def test_directly_built_scale_checks_itself(case):
    name, value, message = BAD_SCALES[case]
    if not isinstance(value, (dict, list)):
        value = {**builtin_weight_scale().entries, "H": value}
    with pytest.raises(ProblemSyntaxError) as info:
        LinguisticScale(name, value)
    assert str(info.value) == message
