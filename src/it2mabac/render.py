"""Rendering of pipeline traces: human-readable text and machine JSON.

Text tables print two decimals to stay comparable with the worked example's
published tables; the machine format carries every endpoint and height at
full precision and round-trips bit-exactly through ``trace_from_json``.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from .errors import ProblemSyntaxError
from .fuzzy import IT2TrFN, make
from .pipeline import CriterionSpec, Matrix
from .problem import PARAM_KEYS, PipelineParams, PipelineTrace

FORMATS = ("text", "machine")


def _fuzzy_text(v: IT2TrFN) -> str:
    u, lo = v.upper, v.lower
    return (
        f"[({u.a1:.2f}, {u.a2:.2f}, {u.a3:.2f}, {u.a4:.2f}; {u.h:.2f}), "
        f"({lo.a1:.2f}, {lo.a2:.2f}, {lo.a3:.2f}, {lo.a4:.2f}; {lo.h:.2f})]"
    )


def _fuzzy_vector_lines(names, values, indent="  "):
    width = max(len(n) for n in names)
    return [f"{indent}{n:<{width}}  {_fuzzy_text(v)}" for n, v in zip(names, values)]


def _fuzzy_matrix_lines(trace, matrix):
    lines = []
    for j, spec in enumerate(trace.criteria):
        lines.append(f"  {spec.name}:")
        column = [row[j] for row in matrix]
        lines.extend(_fuzzy_vector_lines(trace.alternatives, column, indent="    "))
    return lines


def _crisp_matrix_lines(trace, matrix, fmt="{:8.2f}"):
    width = max(len(n) for n in trace.alternatives)
    header = " " * (width + 2) + "".join(f"{s.name:>8}" for s in trace.criteria)
    lines = [header]
    for name, row in zip(trace.alternatives, matrix):
        lines.append(f"  {name:<{width}}" + "".join(fmt.format(x) for x in row))
    return lines


def _scores_lines(trace):
    lines = []
    for rank, idx in enumerate(trace.order, start=1):
        lines.append(f"  {rank}. {trace.alternatives[idx]}  S = {trace.scores[idx]:.2f}")
    lines.append("  ranking: " + " > ".join(trace.ranking()))
    return lines


def _g_lines(trace):
    return ["  " + "".join(f"{s.name:>8}" for s in trace.criteria),
            "  " + "".join(f"{x:8.2f}" for x in trace.g)]


SECTION_HEADERS = {
    "weights": "Aggregated weights (cf. Table 4)",
    "ratings": "Aggregated decision matrix (cf. Table 6)",
    "normalized": "Normalized decision matrix",
    "weighted": "Weighted decision matrix (cf. Table 7)",
    "baa": "Border approximation areas (cf. Table 8)",
    "q": "Rank-based distance matrix Q (cf. Table 9)",
    "g": "Rank-based BAA distances G (cf. Table 10)",
    "delta": "Differences Q - G (cf. Table 11)",
    "classification": "Approximation-area classification",
    "scores": "Scores and ranking (cf. Table 11)",
}

#: The body lines of each section, keyed like SECTION_HEADERS.
_SECTION_LINES = {
    "weights": lambda t: _fuzzy_vector_lines([s.name for s in t.criteria], t.aggregated_weights),
    "ratings": lambda t: _fuzzy_matrix_lines(t, t.aggregated_ratings),
    "normalized": lambda t: _fuzzy_matrix_lines(t, t.normalized),
    "weighted": lambda t: _fuzzy_matrix_lines(t, t.weighted),
    "baa": lambda t: _fuzzy_vector_lines([s.name for s in t.criteria], t.baa),
    "q": lambda t: _crisp_matrix_lines(t, t.q),
    "g": _g_lines,
    "delta": lambda t: _crisp_matrix_lines(t, t.delta),
    "classification": lambda t: _crisp_matrix_lines(t, t.classification, fmt="{:>8}"),
    "scores": _scores_lines,
}

TABLES = tuple(SECTION_HEADERS)


def render_section(trace: PipelineTrace, table: str) -> str:
    lines = [f"== {SECTION_HEADERS[table]} =="]
    lines.extend(_SECTION_LINES[table](trace))
    return "\n".join(lines) + "\n"


def render_text(trace: PipelineTrace) -> str:
    parts = [f"Problem: {trace.name}",
             f"params: lambda={trace.params.lam:g} r={trace.params.r:g} "
             f"s={trace.params.s:g} baa={trace.params.baa_operator}", ""]
    for table in TABLES:
        parts.append(render_section(trace, table))
    return "\n".join(parts)


def _fuzzy_lists(v: IT2TrFN) -> dict:
    return {
        "upper": [v.upper.a1, v.upper.a2, v.upper.a3, v.upper.a4, v.upper.h],
        "lower": [v.lower.a1, v.lower.a2, v.lower.a3, v.lower.a4, v.lower.h],
    }


def _fuzzy_from_lists(node) -> IT2TrFN:
    return make(node["upper"], node["lower"])


#: (to JSON, from JSON) for each trace field type that JSON does not carry
#: as it is.
_CONVERSIONS = {
    list[IT2TrFN]: (
        lambda vector: [_fuzzy_lists(v) for v in vector],
        lambda node: [_fuzzy_from_lists(v) for v in node],
    ),
    Matrix: (
        lambda matrix: [[_fuzzy_lists(v) for v in row] for row in matrix],
        lambda node: [[_fuzzy_from_lists(v) for v in row] for row in node],
    ),
    list[CriterionSpec]: (
        lambda specs: [{"name": s.name, "sense": s.sense} for s in specs],
        lambda node: [CriterionSpec(c["name"], c["sense"]) for c in node],
    ),
    PipelineParams: (
        lambda params: {key: getattr(params, name) for key, name in PARAM_KEYS.items()},
        lambda node: PipelineParams(**{name: node[key] for key, name in PARAM_KEYS.items()}),
    ),
}
_AS_IS = (lambda value: value,) * 2

_TRACE_TYPES = typing.get_type_hints(PipelineTrace)

#: (name, to JSON, from JSON) of every ``PipelineTrace`` field, in declaration order.
_TRACE_FIELDS = [
    (f.name, *_CONVERSIONS.get(_TRACE_TYPES[f.name], _AS_IS))
    for f in dataclasses.fields(PipelineTrace)
]


def _machine_doc(trace: PipelineTrace) -> dict:
    """Every trace field in declaration order, then the ranking."""
    doc = {name: to_json(getattr(trace, name)) for name, to_json, _ in _TRACE_FIELDS}
    doc["ranking"] = trace.ranking()
    return doc


def _dumps(doc: dict) -> str:
    # NaN and infinities are not JSON; refuse them rather than emit them bare.
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def render_machine(trace: PipelineTrace) -> str:
    return _dumps(_machine_doc(trace))


def render(trace: PipelineTrace, fmt: str = "text") -> str:
    if fmt == "machine":
        return render_machine(trace)
    if fmt == "text":
        return render_text(trace)
    raise ProblemSyntaxError(f"unknown format {fmt!r}; choose from {FORMATS}")


#: Machine-document keys of the sections whose key is not the table name.
_MACHINE_KEYS = {
    "weights": ("aggregated_weights",),
    "ratings": ("aggregated_ratings",),
    "scores": ("scores", "order", "ranking"),
}


def render_section_machine(trace: PipelineTrace, table: str) -> str:
    """JSON for a single table of the trace, keyed by its name."""
    doc = _machine_doc(trace)
    return _dumps({key: doc[key] for key in _MACHINE_KEYS.get(table, (table,))})


def trace_from_json(text: str) -> PipelineTrace:
    """Rebuild a trace from ``render_machine`` output (bit-exact floats)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemSyntaxError(f"not a valid machine trace: {exc}") from exc
    try:
        return PipelineTrace(**{name: from_json(doc[name]) for name, _, from_json in _TRACE_FIELDS})
    except KeyError as exc:
        raise ProblemSyntaxError(f"machine trace is missing key {exc}") from exc
    except TypeError as exc:  # a list, number or null where a mapping or list belongs
        raise ProblemSyntaxError(f"machine trace has the wrong shape: {exc}") from exc
