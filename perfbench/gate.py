"""Correctness gate: reference comparison and an independent BAA oracle.

Scores are compared with ``close``: |observed - reference| <= TOLERANCE *
max(1, |reference|). A score is a sum of q <= 10 per-cell differences, so a
1e-12 per-cell change moves it by about 1e-11, well inside the tolerance,
while a wrong lambda or BAA operator moves scores by 1e-3 or more.

A ranking is compared only through the reference scores: every alternative
must score, by the reference, no lower than the one ranked after it, within
the tolerance. Near-ties may therefore come out in either order.
"""

from __future__ import annotations

import math

TOLERANCE = 1e-9

#: Relative tolerance of the BAA against the fsum-of-logs oracle. The seed's
#: product of n(n-1) powered factors drifts from it by up to 6e-13 at n=150
#: and 1.6e-12 at n=300 (``scaling.py`` reports this error); a wrong operator
#: or exponent is off by 1e-4 or more.
ORACLE_TOLERANCE = 1e-10


def close(observed: float, reference: float, tolerance: float = TOLERANCE) -> bool:
    return abs(observed - reference) <= tolerance * max(1.0, abs(reference))


def compare_scores(scores, order, reference) -> list[str]:
    """Problems with ``scores`` and ``order`` against reference scores; [] if none."""
    if len(scores) != len(reference):
        return [f"{len(scores)} scores, expected {len(reference)}"]
    problems = [
        f"score[{i}] = {s!r}, reference {r!r}"
        for i, (s, r) in enumerate(zip(scores, reference))
        if not close(s, r)
    ]
    if sorted(order) != list(range(len(reference))):
        return problems + [f"order {order} is not a permutation"]
    for a, b in zip(order, order[1:]):
        if reference[a] < reference[b] and not close(reference[a], reference[b]):
            problems.append(f"alternative {a} ranked above {b}, reference scores {reference[a]!r} < {reference[b]!r}")
    return problems


def compare_values(values, reference, label: str) -> list[str]:
    if len(values) != len(reference):
        return [f"{label}: {len(values)} values, expected {len(reference)}"]
    return [
        f"{label}[{i}] = {v!r}, reference {r!r}"
        for i, (v, r) in enumerate(zip(values, reference))
        if not close(v, r)
    ]


def compare_printed(printed, reference, label: str) -> list[str]:
    """Two-decimal text output against full-precision references."""
    if len(printed) != len(reference):
        return [f"{label}: {len(printed)} values, expected {len(reference)}"]
    return [
        f"{label}[{i}] printed {v!r}, reference {r!r}"
        for i, (v, r) in enumerate(zip(printed, reference))
        if abs(float(v) - r) > 0.005 + TOLERANCE
    ]


def _log_mean(logs: list[float], count: int) -> float:
    return math.exp(math.fsum(logs) / count)


def bonferroni_endpoint(values: list[float], r: float, s: float) -> float:
    """exp(mean over ordered pairs i != j of log(r*a_i + s*a_j)) / (r + s)."""
    n = len(values)
    logs = []
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if i != j:
                pair = r * a + s * b
                if pair <= 0.0:
                    return 0.0
                logs.append(math.log(pair))
    return _log_mean(logs, n * (n - 1)) / (r + s)


def geomean_endpoint(values: list[float]) -> float:
    if any(v <= 0.0 for v in values):
        return 0.0
    return _log_mean([math.log(v) for v in values], len(values))


def baa_errors(weighted, baa, j: int, operator: str, r: float, s: float) -> dict[str, tuple]:
    """(value, oracle, relative error) of each endpoint of ``baa[j]``, by label."""
    column = [row[j] for row in weighted]
    out = {}
    for level in ("upper", "lower"):
        traps = [getattr(v, level) for v in column]
        got = getattr(baa[j], level).endpoints
        for e in range(4):
            values = [t.endpoints[e] for t in traps]
            if operator == "bonferroni":
                want = bonferroni_endpoint(values, r, s)
            else:
                want = geomean_endpoint(values)
            error = abs(got[e] - want) / abs(want) if want else abs(got[e])
            out[f"baa[{j}].{level}.a{e + 1}"] = (got[e], want, error)
    return out


def check_baa(weighted, baa, j: int, operator: str, r: float, s: float) -> list[str]:
    """Compare ``baa[j]`` with the oracle over column ``j`` of ``weighted``."""
    problems = [
        f"{label} = {got!r}, oracle {want!r}"
        for label, (got, want, error) in baa_errors(weighted, baa, j, operator, r, s).items()
        if error > ORACLE_TOLERANCE
    ]
    for level in ("upper", "lower"):
        if getattr(baa[j], level).h != min(getattr(row[j], level).h for row in weighted):
            problems.append(f"baa[{j}].{level}.h is not the column minimum")
    return problems
