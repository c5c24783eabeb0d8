"""Rank-based distance of a fuzzy value to the crisp unit.

The scalar functional below condenses an IT2TrFN into a signed real number
measuring how far it sits from the crisp constant 1. The attitude parameter
``lam`` in [0, 1] (checked by PipelineParams) balances the left and right
spreads; 0.5 is the neutral default. The pairwise distance between two values is the absolute difference
of their functionals, which makes it a pseudometric.

The functional is affine in the eight endpoints for fixed lam and heights,
vanishes exactly on the crisp unit, and equals 1 - c on any crisp constant c.
"""

from __future__ import annotations

import sys

from .errors import ZeroHeight
from .fuzzy import IT2TrFN

_NORMAL_MIN = sys.float_info.min


def rank_to_one(value: IT2TrFN, lam: float = 0.5) -> float:
    """Signed rank-based distance between ``value`` and the crisp unit.

    Callers that need the magnitude (as the decision pipeline does) take the
    absolute value themselves; the sign is kept so it can be inspected.
    Heights whose divisor ``2*hu*hl`` is not a normal float, so that the
    quotient would lose its bits or be infinite, are a ZeroHeight.
    """
    hu, hl = value.upper.h, value.lower.h
    divisor = 2.0 * hu * hl
    if divisor < _NORMAL_MIN:
        raise ZeroHeight(f"membership heights {hu!r} and {hl!r} are too small to divide by")
    a1u, a2u, a3u, a4u = value.upper.endpoints
    a1l, a2l, a3l, a4l = value.lower.endpoints
    bracket = hu * (lam * (a2l - a1l - a2u + a1u) - (a4l - a3l - a2l + a1l)) - hl * (
        a4u - a3u - a4l + a3l
    )
    return 1.0 - a4l - lam * (a1l - a1u + a4u - a4l) - bracket / divisor


def distance(a: IT2TrFN, b: IT2TrFN, lam: float = 0.5) -> float:
    """Distance between two values: |rank_to_one(a) - rank_to_one(b)|."""
    return abs(rank_to_one(a, lam) - rank_to_one(b, lam))
