"""Rank-based distance of a fuzzy value to the crisp unit.

The scalar functional below condenses an IT2TrFN into a signed real number
measuring how far it sits from the crisp constant 1. The attitude parameter
``lam`` (finite; PipelineParams holds a run's to [0, 1]) balances the left and
right spreads; 0.5 is the neutral default. The pairwise distance between two
values is the absolute difference of their functionals, which makes it a
pseudometric. Both keep the finiteness rule of steps 1-6, and step 6 locates
its faults through ``rank_to_one``.

The functional is affine in the eight endpoints for fixed lam and heights,
vanishes exactly on the crisp unit, and equals 1 - c on any crisp constant c.
"""

from __future__ import annotations

import math

from .errors import ComputationError, InvalidParams, ZeroHeight
from .fuzzy import _NORMAL_MIN, IT2TrFN, _finite


def rank_to_one(value: IT2TrFN, lam: float = 0.5) -> float:
    """Signed rank-based distance between ``value`` and the crisp unit.

    Callers that need the magnitude (as the decision pipeline does) take the
    absolute value themselves; the sign is kept so it can be inspected.
    A non-finite ``lam`` is InvalidParams; heights whose divisor ``2*hu*hl`` is
    not a normal float, so that the quotient would lose its bits or be infinite,
    are a ZeroHeight.
    """
    lam = _finite_lam(lam)
    u, lo = value.upper, value.lower
    if 2.0 * u.h * lo.h < _NORMAL_MIN:
        raise ZeroHeight(f"membership heights {u.h!r} and {lo.h!r} are too small to divide by")
    return _checked(_rank(*u.endpoints, u.h, *lo.endpoints, lo.h, lam))


def _finite_lam(lam) -> float:
    """``lam`` as a float by the number rule of ``fuzzy._finite``: the one λ rule of step 6."""
    return _finite(lam, InvalidParams, "the rank-based distance needs a finite lambda, got {}")


def _checked(distance: float) -> float:
    """``distance``, refused where it is not finite: the finiteness rule of steps 1-6."""
    if not math.isfinite(distance):
        raise ComputationError("the rank-based distance overflows on finite endpoints")
    return distance


def _rank(a1u: float, a2u: float, a3u: float, a4u: float, hu: float,
          a1l: float, a2l: float, a3l: float, a4l: float, hl: float, lam: float) -> float:
    """``rank_to_one`` of the value of these ten numbers, in ``fuzzy._numbers``' order, or NaN
    where it refuses the heights; step 6 maps it over a weighted matrix's columns."""
    divisor = 2.0 * hu * hl
    if divisor < _NORMAL_MIN:
        return math.nan
    bracket = hu * (lam * (a2l - a1l - a2u + a1u) - (a4l - a3l - a2l + a1l)) - hl * (
        a4u - a3u - a4l + a3l
    )
    return 1.0 - a4l - lam * (a1l - a1u + a4u - a4l) - bracket / divisor


def distance(a: IT2TrFN, b: IT2TrFN, lam: float = 0.5) -> float:
    """Distance between two values: |rank_to_one(a) - rank_to_one(b)|, refused where it
    overflows on two finite ranks."""
    return _checked(abs(rank_to_one(a, lam) - rank_to_one(b, lam)))
