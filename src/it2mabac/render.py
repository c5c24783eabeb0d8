"""Rendering of pipeline traces: human-readable text and machine JSON.

Text tables print two decimals to stay comparable with the worked example's
published tables; the machine format carries every endpoint and height at
full precision and round-trips bit-exactly through ``trace_from_json``.

The machine JSON is written by one emitter here, byte for byte as
``json.dumps(doc, indent=2, allow_nan=False)`` would write it. On CPython
3.11 ``json.dumps`` with ``indent`` takes the pure-Python encoder, which
builds the text from a small chunk per token; the emitter instead formats
each list of IT2TrFNs (a vector, or a matrix row) through one ``%s``
template of their numbers (``str`` of a float is its ``repr``), joins
float-only lists with ``float.__repr__`` and joins the document once from
its pieces: about three times as fast, with a third of the peak memory.
``_TO_JSON`` names the emitter of each trace field, in field order.
Strings and keys go through ``json``'s own ``encode_basestring_ascii``, and
NaN and infinities raise ``ValueError`` as ``allow_nan=False`` does.

The three fuzzy matrices (``aggregated_ratings``, ``normalized`` and
``weighted``) are ``fuzzy.Matrix`` columns, and both emitters format them
from the columns without building an IT2TrFN: a text table takes one
criterion's ten columns at a time, and a machine row zips the ten columns of
every criterion. A trace holding plain rows instead (``trace._replace``
gives one) is read through ``Matrix.of`` first, as wide as its first row, so
a ragged one is a DimensionMismatch. The matrices of a term-rated
problem repeat their floats: a builtin term's endpoints are multiples of
0.5, and each later stage maps a column's equal values to equal values. So
where at least half of a matrix's numbers repeat, a set collects its
distinct floats, ``float.__repr__`` formats each once, and the cells fill
the template from that memo. Keys that compare equal merge: 0.0 and -0.0
hash alike, so zeros stay out of the memo and the template writes each with
its own sign; 1 and 1.0 merge too, so a matrix holding any non-float takes
the plain template. A matrix of mostly distinct numbers, as inline values
give, takes the plain template, where a lookup per number would cost more
than it saves.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .errors import ProblemSyntaxError
from .fuzzy import IT2TrFN, Matrix, _numbers, make
from .linguistic import builtin_rating_scale, builtin_weight_scale
from .pipeline import CriterionSpec, _Rows
from .problem import PARAM_KEYS, DecisionProblem, PipelineParams, PipelineTrace, run

FORMATS = ("text", "machine")


#: A value's text, filled from its ten numbers in ``fuzzy._numbers``' order.
_FUZZY_TEXT = ("[({:.2f}, {:.2f}, {:.2f}, {:.2f}; {:.2f}), "
               "({:.2f}, {:.2f}, {:.2f}, {:.2f}; {:.2f})]").format


def _fuzzy_lines(names, texts, indent="  "):
    width = max(map(len, names), default=0)
    return [f"{indent}{n:<{width}}  {t}" for n, t in zip(names, texts)]


def _fuzzy_vector_lines(trace, vector):
    return _fuzzy_lines([s.name for s in trace.criteria], [_FUZZY_TEXT(*x) for x in _numbers(vector)])


def _fuzzy_matrix_lines(trace, matrix):
    lines = []
    for spec, ten in zip(trace.criteria, Matrix.of(matrix).columns):
        lines.append(f"  {spec.name}:")
        lines.extend(_fuzzy_lines(trace.alternatives, map(_FUZZY_TEXT, *ten), indent="    "))
    return lines


def _crisp_matrix_lines(trace, matrix, fmt="{:8.2f}"):
    width = max(map(len, trace.alternatives), default=0)
    header = " " * (width + 2) + "".join(f"{s.name:>8}" for s in trace.criteria)
    lines = [header]
    for name, row in zip(trace.alternatives, matrix):
        lines.append(f"  {name:<{width}}" + "".join(fmt.format(x) for x in row))
    return lines


def _g_lines(trace, g):
    return ["  " + "".join(f"{s.name:>8}" for s in trace.criteria),
            "  " + "".join(f"{x:8.2f}" for x in g)]


def _scores_lines(trace, scores):
    lines = [f"  {rank}. {trace.alternatives[i]}  S = {scores[i]:.2f}"
             for rank, i in enumerate(trace.order, start=1)]
    lines.append("  ranking: " + " > ".join(trace.ranking()))
    return lines


#: Each report table: its header, the keys of its machine section (the first
#: is the trace field that its text body shows), and the text body, a
#: function of the trace and that field's value.
_TABLES = {
    "weights": ("Aggregated weights (cf. Table 4)", ("aggregated_weights",), _fuzzy_vector_lines),
    "ratings": ("Aggregated decision matrix (cf. Table 6)", ("aggregated_ratings",),
                _fuzzy_matrix_lines),
    "normalized": ("Normalized decision matrix", ("normalized",), _fuzzy_matrix_lines),
    "weighted": ("Weighted decision matrix (cf. Table 7)", ("weighted",), _fuzzy_matrix_lines),
    "baa": ("Border approximation areas (cf. Table 8)", ("baa",), _fuzzy_vector_lines),
    "q": ("Rank-based distance matrix Q (cf. Table 9)", ("q",), _crisp_matrix_lines),
    "g": ("Rank-based BAA distances G (cf. Table 10)", ("g",), _g_lines),
    "delta": ("Differences Q - G (cf. Table 11)", ("delta",), _crisp_matrix_lines),
    "classification": ("Approximation-area classification", ("classification",),
                       functools.partial(_crisp_matrix_lines, fmt="{:>8}")),
    "scores": ("Scores and ranking (cf. Table 11)", ("scores", "order", "ranking"), _scores_lines),
}

SECTION_HEADERS = {table: header for table, (header, _, _) in _TABLES.items()}
TABLES = tuple(_TABLES)


def _table(table: str) -> tuple:
    """The header, machine keys and text body of ``table``; an unknown name is a ProblemSyntaxError."""
    try:
        return _TABLES[table]
    except KeyError:
        raise ProblemSyntaxError(f"unknown table {table!r}; choose from {TABLES}") from None


def render_section(trace: PipelineTrace, table: str) -> str:
    header, keys, body = _table(table)
    lines = [f"== {header} ==", *body(trace, getattr(trace, keys[0]))]
    return "\n".join(lines) + "\n"


def render_text(trace: PipelineTrace) -> str:
    parts = [f"Problem: {trace.name}",
             f"params: lambda={trace.params.lam:g} r={trace.params.r:g} "
             f"s={trace.params.s:g} baa={trace.params.baa_operator}", ""]
    for table in TABLES:
        parts.append(render_section(trace, table))
    return "\n".join(parts)


def _sep(indent: str) -> str:
    return ",\n" + indent + "  "


def _wrap(body: str, indent: str, brackets: str = "[]") -> str:
    """``body``, items joined by ``_sep(indent)``, bracketed as ``json.dumps(indent=2)`` does."""
    return f"{brackets[0]}\n{indent}  {body}\n{indent}{brackets[1]}" if body else brackets


def _pieces(texts: list[str], indent: str) -> list[str]:
    """``_wrap`` of the ``texts`` as pieces to join, so a long array is copied once only."""
    if not texts:
        return ["[]"]
    pieces = [_sep(indent)] * (2 * len(texts) - 1)
    pieces[::2] = texts  # a separator between each two texts
    return [f"[\n{indent}  ", *pieces, f"\n{indent}]"]


def _finite_text(numbers: str) -> str:
    # Float reprs and the IT2TrFN template hold no "n"; "nan" and "inf" do.
    # NaN and infinities are not JSON; refuse them rather than emit them bare.
    if "n" in numbers:
        raise ValueError("Out of range float values are not JSON compliant")
    return numbers


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2, allow_nan=False)`` writes it, starting at ``indent``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        try:  # float.__repr__ takes floats only
            return _wrap(_finite_text(_sep(indent).join(map(float.__repr__, value))), indent)
        except TypeError:
            return _wrap(_sep(indent).join([_json(x, indent + "  ") for x in value]), indent)
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, indent + '  ')}"
                 for k, v in value.items()]
        return _wrap(_sep(indent).join(items), indent, "{}")
    if isinstance(value, float):
        return _finite_text(float.__repr__(value))
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=256)
def _fuzzy_template(indent: str, count: int) -> str:
    """A list of ``count`` IT2TrFNs starting at ``indent``: for each, %s for the upper
    a1..a4, h, then the lower ones."""
    numbers = _wrap(_sep(indent + "    ").join(["%s"] * 5), indent + "    ")
    value = _wrap(_sep(indent + "  ").join([f'"upper": {numbers}', f'"lower": {numbers}']),
                  indent + "  ", "{}")
    return _wrap(_sep(indent).join([value] * count), indent)


def _float_texts(columns: list[tuple]) -> dict | None:
    """Each distinct float of ``columns`` with its text, zeros left out; None where fewer
    than half of their numbers repeat, or where one is not a float.

    Equal numbers share a key: 0.0 and -0.0, so a zero is left to %s, which keeps its
    sign; and 1 and 1.0, so a list holding a non-float is written by %s throughout.
    """
    distinct = set().union(*columns)
    if (2 * len(distinct) > sum(map(len, columns))
            or set(map(type, chain.from_iterable(columns))) != {float}):
        return None
    texts = dict(zip(distinct, map(float.__repr__, distinct)))
    texts.pop(0.0, None)
    return texts


def _fuzzy_matrix_json(matrix: _Rows, indent: str) -> list[str]:
    """``_pieces`` of the matrix's rows, each zipped from the ten columns of every criterion
    and its floats formatted through ``_float_texts``."""
    m = Matrix.of(matrix)
    columns = [*chain.from_iterable(m.columns)]
    texts = _float_texts(columns)
    if texts is not None:
        columns = [map(texts.get, c, c) for c in columns]
    template = _fuzzy_template(indent + "  ", len(m.columns))
    rows = zip(*columns) if columns else repeat((), len(m))
    return _pieces([_finite_text(template % row) for row in rows], indent)


def _fuzzy_vector_json(vector: list[IT2TrFN], indent: str) -> str:
    return _finite_text(_fuzzy_template(indent, len(vector)) % tuple(chain.from_iterable(_numbers(vector))))


#: The emitter of every ``PipelineTrace`` field, in field order: its value's text when it
#: starts at a given indent, or for a fuzzy matrix the pieces of that text.
_TO_JSON = {
    **dict.fromkeys(["name", "alternatives"], _json),
    "criteria": lambda specs, indent: _json([{"name": s.name, "sense": s.sense} for s in specs], indent),
    "params": lambda params, indent: _json({k: getattr(params, f) for k, f in PARAM_KEYS.items()}, indent),
    "aggregated_weights": _fuzzy_vector_json,
    "aggregated_ratings": _fuzzy_matrix_json,
    "normalized": _fuzzy_matrix_json,
    "weighted": _fuzzy_matrix_json,
    "baa": _fuzzy_vector_json,
    **dict.fromkeys(["q", "g", "delta", "classification", "scores", "order"], _json),
}

#: How ``trace_from_json`` reads each field of the group decision it runs; ``run`` derives the others.
_FROM_JSON = {
    "name": lambda node: node,
    "alternatives": lambda node: node,
    "criteria": lambda node: [CriterionSpec(c["name"], c["sense"]) for c in node],
    "params": lambda node: PipelineParams(**{name: node[key] for key, name in PARAM_KEYS.items()}),
    "aggregated_weights": lambda node: [make(v["upper"], v["lower"]) for v in node],
    "aggregated_ratings": lambda node: [[make(v["upper"], v["lower"]) for v in row] for row in node],
}


def _machine_json(trace: PipelineTrace, keys=(*_TO_JSON, "ranking")) -> str:
    """The object of ``keys``; by default every trace field in order, then the ranking."""
    pieces = []
    for key in keys:
        value = (_json(trace.ranking(), "  ") if key == "ranking"
                 else _TO_JSON[key](getattr(trace, key), "  "))
        pieces += (",\n  ", encode_basestring_ascii(key), ": ")
        pieces += [value] if isinstance(value, str) else value
    pieces[0] = "{\n  "
    pieces.append("\n}\n")
    return "".join(pieces)


def render_machine(trace: PipelineTrace) -> str:
    return _machine_json(trace)


def render(trace: PipelineTrace, fmt: str = "text") -> str:
    if fmt == "machine":
        return render_machine(trace)
    if fmt == "text":
        return render_text(trace)
    raise ProblemSyntaxError(f"unknown format {fmt!r}; choose from {FORMATS}")


def render_section_machine(trace: PipelineTrace, table: str) -> str:
    """JSON for a single table of the trace: its machine keys and their values."""
    return _machine_json(trace, _table(table)[1])


def _same(a, b) -> bool:
    """Whether JSON values ``a`` and ``b`` are equal, key order aside; ``1``, ``1.0``,
    ``true`` and ``-0.0`` differ, as their ``repr`` does."""
    if type(a) is dict and type(b) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list and type(b) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and repr(a) == repr(b)


def trace_from_json(text: str) -> PipelineTrace:
    """Rebuild a trace from ``render_machine`` output (bit-exact floats).

    The ``_FROM_JSON`` fields are the group decision of steps 1-2. ``run``
    takes them as a ``DecisionProblem`` of one expert, ``aggregated``, which
    checks their names and shapes as it checks any problem's; every entry is
    an IT2TrFN, so the builtin scales go unused. The mean of one value keeps
    its bits, and steps 3-7 re-run, the BAA's O(p^2) for Bonferroni included.
    The document must be ``render_machine`` of that trace as a JSON value; a
    refusal names the first field that differs.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ProblemSyntaxError(f"not a valid machine trace: {exc}") from exc
    except RecursionError as exc:
        raise ProblemSyntaxError("not a valid machine trace: nested too deeply") from exc
    try:
        fields = {name: from_json(doc[name]) for name, from_json in _FROM_JSON.items()}
    except KeyError as exc:
        raise ProblemSyntaxError(f"machine trace is missing key {exc}") from exc
    except TypeError as exc:  # a list, number or null where a mapping or list belongs
        raise ProblemSyntaxError(f"machine trace has the wrong shape: {exc}") from exc
    trace = run(DecisionProblem(
        fields["alternatives"], fields["criteria"], ["aggregated"], builtin_weight_scale(),
        builtin_rating_scale(), {"aggregated": fields["aggregated_weights"]},
        {"aggregated": fields["aggregated_ratings"]}, fields["params"], fields["name"],
    ))
    written = json.loads(render_machine(trace))
    for key in [*written, *doc]:
        if key not in doc or key not in written or not _same(doc[key], written[key]):
            raise ProblemSyntaxError(f"machine trace: {key!r} is not what a run of its inputs writes")
    return trace
