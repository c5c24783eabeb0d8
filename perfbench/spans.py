"""Traced runs: call-site wrappers that record spans in memory.

``Tracer.patched`` replaces module attributes (the names a caller looks up at
call time) with wrappers and restores the originals on exit. Each wrapper
appends one span: name, start, end, parent span, op id and the counts it
measured. Self time is a span's duration minus the durations of its
children; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, int] = field(default_factory=dict)


def _parse_counts(args, kwargs, result) -> dict[str, int]:
    text = args[0] if args else kwargs["text"]
    counts = {"problem.doc_bytes": len(text.encode())}
    if result is not None:
        p, q, k = len(result.alternatives), len(result.criteria), len(result.experts)
        counts["problem.entries_resolved"] = k * p * q + k * q
    return counts


def _baa_counts(args, kwargs, result) -> dict[str, int]:
    weighted = args[0]
    operator = args[2] if len(args) > 2 else kwargs.get("operator", "bonferroni")
    if operator != "bonferroni":
        return {}
    p, q = len(weighted), len(weighted[0])
    # two trapezoids x four endpoints, each over the p(p-1) ordered pairs
    return {"aggregation.bonferroni_pair_terms": q * 8 * p * (p - 1)}


def _normalize_counts(args, kwargs, result) -> dict[str, int]:
    return {"pipeline.normalize_calls": 1}


def targets():
    """(module, attribute, span name, counter) for every wrapped call site."""
    import it2mabac.cli as cli
    import it2mabac.problem as problem

    render = sys.modules["it2mabac.render"]  # the package attribute is the function
    return [
        (cli, "parse_problem", "problem.parse_problem", _parse_counts),
        (cli, "run", "problem.run", None),
        (cli, "render", "render.render", None),
        (cli, "render_section", "render.render_section", None),
        (cli, "render_section_machine", "render.render_section_machine", None),
        (problem, "parse_problem", "problem.parse_problem", _parse_counts),
        (problem, "run", "problem.run", None),
        (problem, "average_weights", "aggregation.average_weights", None),
        (problem, "average_ratings", "aggregation.average_ratings", None),
        (problem, "normalize", "pipeline.normalize", _normalize_counts),
        (problem, "weight", "pipeline.weight", None),
        (problem, "baa", "pipeline.baa", _baa_counts),
        (problem, "crisp_matrices", "pipeline.crisp_matrices", None),
        (problem, "classify_and_score", "pipeline.classify_and_score", None),
        (render, "render_text", "render.render_text", None),
        (render, "render_section", "render.render_section", None),
        (render, "render_machine", "render.render_machine", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                # result is None when fn raised
                if counter is not None:
                    self.spans[index].counts.update(counter(args, kwargs, result))
                self._close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every call site of ``targets()``; restore them all on exit."""
        saved = []
        try:
            for module, attr, name, counter in targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


#: Key of an op's total duration (its root spans) in the rows of ``per_op``.
OP_TOTAL = "op_total"


def per_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per op id: self time summed by span name, plus the op's duration under OP_TOTAL."""
    out: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.op, {})
        row[span.name] = row.get(span.name, 0.0) + own
        if span.parent is None:
            row[OP_TOTAL] = row.get(OP_TOTAL, 0.0) + span.end - span.start
    return out


def count_totals(spans: list[Span], ops: set[int]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for span in spans:
        if span.op in ops:
            for key, value in span.counts.items():
                totals[key] = totals.get(key, 0) + value
    return totals


def tree(spans: list[Span], op: int) -> list[str]:
    """Indented span names of one op, with self times."""
    own = self_times(spans)
    depth: dict[int, int] = {}
    lines = []
    for i, span in enumerate(spans):
        if span.op != op:
            continue
        depth[i] = 0 if span.parent is None else depth[span.parent] + 1
        lines.append(f"{'  ' * depth[i]}{span.name}  {span.end - span.start:.6f} s (self {own[i]:.6f} s)")
    return lines
