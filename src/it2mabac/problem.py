"""Problem documents and pipeline orchestration.

A decision problem is a single YAML document naming alternatives, criteria
(with their senses), experts, the two linguistic scales, per-expert weight
vectors and rating matrices, and optional tuning parameters. Ratings and
weights may be linguistic terms or inline values written as two 5-tuples
(four endpoints and a height per trapezoid); ``DecisionProblem`` resolves
them through the problem's own scales, and a direct build may give IT2TrFNs.

``run`` executes the seven pipeline steps on a problem and returns a trace
holding every intermediate matrix; ``render.trace_from_json`` runs a machine
trace's group decision as a problem of one expert. A problem is read-only, so
steps 1-2, which depend on it alone, are computed once and shared by every run.
"""

from __future__ import annotations

import importlib.resources
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import GeneratorType, MappingProxyType

import yaml
from yaml.constructor import ConstructorError
from yaml.composer import ComposerError
from yaml.events import (
    AliasEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode

from .aggregation import _check_exponents, average_ratings, average_weights
from .errors import (
    DimensionMismatch,
    InvalidParams,
    MabacError,
    ProblemSyntaxError,
)
from .fuzzy import IT2TrFN, _check_finite, _finite, _shown, make
from .linguistic import (
    LinguisticScale,
    builtin_rating_scale,
    builtin_weight_scale,
    resolve,
)
from .pipeline import (
    BAA_OPERATORS,
    CriterionSpec,
    Matrix,
    _check_names,
    baa,
    classify_and_score,
    crisp_matrices,
    normalize,
    weight,
)


@dataclass(frozen=True)
class PipelineParams:
    """Tuning knobs: rank attitude, Bonferroni exponents, BAA operator.

    The only place these are checked for a run, by ``fuzzy._finite`` and, for ``r`` and
    ``s``, ``aggregation._check_exponents``; the stage functions take them as plain keywords.
    """

    lam: float = 0.5
    r: float = 1.0
    s: float = 1.0
    baa_operator: str = "bonferroni"

    def __post_init__(self) -> None:
        for key, name in PARAM_KEYS.items():
            if name != "baa_operator":  # lam, r and s are stored as the floats they read as
                message = f"param {key!r} must be a finite number, got {{}}"
                object.__setattr__(self, name, _finite(getattr(self, name), InvalidParams, message))
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidParams(f"lambda must lie in [0, 1], got {self.lam!r}")
        _check_exponents(self.r, self.s)
        if self.baa_operator not in BAA_OPERATORS:
            raise InvalidParams(
                f"baa operator must be one of {BAA_OPERATORS}, got {_shown(self.baa_operator)}"
            )


#: The ``params`` keys of a problem document and of the machine trace, each
#: with the ``PipelineParams`` field it sets.
PARAM_KEYS = {"lambda": "lam", "r": "r", "s": "s", "baa": "baa_operator"}


def _listed(keys) -> str:
    """``keys`` as the repr of their list sorted by ``str``, each shown as ``_shown`` shows it."""
    return f"[{', '.join(map(_shown, sorted(keys, key=lambda k: _shown(k, str))))}]"


def _name(node, what: str) -> str:
    """``str(node)``, as YAML reads ``name: 12`` as an int; a name is a scalar, so
    a list or a mapping is refused, as is an int too long to print."""
    try:
        if not isinstance(node, (list, dict)):
            return str(node)
    except ValueError:  # CPython prints no int of more than 4300 digits
        pass
    raise ProblemSyntaxError(f"{what} must be a string, got {_shown(node)}")


def _check_expert_blocks(weights, ratings, alternatives, experts, q: int) -> None:
    """The shape rule of steps 1-2; it reads no entry.

    ``weights`` and ``ratings`` map exactly the ``experts``: each expert to a
    list or tuple of ``q`` weights, and to one such list of ratings per
    alternative.
    """
    for key, block, shape in (("weights", weights, "list"), ("ratings", ratings, "matrix")):
        if not isinstance(block, Mapping):
            raise ProblemSyntaxError(f"{key!r} must map each expert to a {shape} of entries")
        missing, extra = set(experts) - set(block), set(block) - set(experts)
        if missing:
            raise DimensionMismatch(f"{key!r} is missing experts {sorted(missing)}")
        if extra:
            raise DimensionMismatch(f"{key!r} names unknown experts {_listed(extra)}")

    def check(node, where: str, size: int, what: str, alt=None) -> None:
        """``node`` lists ``size`` ``what``."""
        if not isinstance(node, (list, tuple)):
            raise ProblemSyntaxError(f"{where}: expected a list, got a {type(node).__name__}")
        if len(node) != size:
            named = where if alt is None else f"{where} ({alt!r})"
            raise DimensionMismatch(f"{named}: expected {size} {what}, got {len(node)}")

    for e in experts:
        check(weights[e], f"weights[{e}]", q, "entries (one per criterion)")
    for e in experts:
        check(ratings[e], f"ratings[{e}]", len(alternatives), "rows (one per alternative)")
        for i, (alt, row) in enumerate(zip(alternatives, ratings[e])):
            check(row, f"ratings[{e}] row {i}", q, "entries", alt)


@dataclass(frozen=True)
class DecisionProblem:
    """A group decision problem, checked and resolved when built; read-only once built.

    Building one checks the alternative, criterion and expert names, the
    types of the name, criteria, scales and params, and the shape of every
    expert's weight vector and rating matrix before it resolves any entry:
    an ``IT2TrFN`` is kept, a term is looked up in the problem's own
    ``weight_scale`` or ``rating_scale``, and an inline value is built.
    The names are then held as tuples and the entries as read-only
    mappings of IT2TrFN tuples, so the expert averages of steps 1-2 are
    computed on the first ``run`` and reused by every later one.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    experts: tuple[str, ...]
    weight_scale: LinguisticScale
    rating_scale: LinguisticScale
    expert_weights: Mapping[str, tuple[IT2TrFN, ...]]
    expert_ratings: Mapping[str, tuple[tuple[IT2TrFN, ...], ...]]
    params: PipelineParams = field(default_factory=PipelineParams)
    name: str = "unnamed"

    def __post_init__(self) -> None:
        _check_names(self.alternatives, "alternatives")
        if not isinstance(self.criteria, (list, tuple)) or not self.criteria:
            raise ProblemSyntaxError("'criteria' must be a non-empty list")
        for c in self.criteria:
            if not isinstance(c, CriterionSpec):
                raise ProblemSyntaxError(
                    f"'criteria' entries must be CriterionSpec values, got {_shown(c)}"
                )
        _check_names([c.name for c in self.criteria], "criteria")
        _check_names(self.experts, "experts")
        if not isinstance(self.name, str):
            raise ProblemSyntaxError(f"'name' must be a string, got {_shown(self.name)}")
        for key, kind in (("weight_scale", LinguisticScale), ("rating_scale", LinguisticScale),
                          ("params", PipelineParams)):
            if not isinstance(getattr(self, key), kind):
                raise ProblemSyntaxError(
                    f"{key!r} must be a {kind.__name__}, got a {type(getattr(self, key)).__name__}"
                )
        _check_expert_blocks(self.expert_weights, self.expert_ratings, self.alternatives,
                             self.experts, len(self.criteria))
        freeze = object.__setattr__
        freeze(self, "alternatives", tuple(self.alternatives))
        freeze(self, "criteria", tuple(self.criteria))
        freeze(self, "experts", tuple(self.experts))
        freeze(self, "expert_weights", MappingProxyType({
            e: _resolve_row(self.expert_weights[e], self.weight_scale, f"weights[{e}]")
            for e in self.experts
        }))
        freeze(self, "expert_ratings", MappingProxyType({
            e: tuple(_resolve_row(row, self.rating_scale, f"ratings[{e}][{alt}]")
                     for alt, row in zip(self.alternatives, self.expert_ratings[e]))
            for e in self.experts
        }))

    @cached_property
    def _averages(self) -> tuple[tuple[IT2TrFN, ...], tuple[tuple[IT2TrFN, ...], ...]]:
        """Steps 1-2: the group weight vector and the group decision matrix.

        An error is not cached; it is raised, with its step label, by every
        ``run``.
        """
        with _stage("step 1 (average weights)"):
            weights_bar = average_weights([self.expert_weights[e] for e in self.experts])
        with _stage("step 2 (average decision matrix)"):
            ratings_bar = average_ratings([self.expert_ratings[e] for e in self.experts])
        return tuple(weights_bar), tuple(map(tuple, ratings_bar))


@dataclass
class PipelineTrace:
    """Every intermediate of one pipeline execution."""

    name: str
    alternatives: list[str]
    criteria: list[CriterionSpec]
    params: PipelineParams
    aggregated_weights: list[IT2TrFN]
    aggregated_ratings: Matrix
    normalized: Matrix
    weighted: Matrix
    baa: list[IT2TrFN]
    q: list[list[float]]
    g: list[float]
    delta: list[list[float]]
    classification: list[list[str]]
    scores: list[float]
    order: list[int]

    def ranking(self) -> list[str]:
        return [self.alternatives[i] for i in self.order]


@contextmanager
def _stage(label: str, alternatives=(), criteria=(), vector: str = ""):
    """Prefix any package error escaping a pipeline stage with its label, then with
    the names of its ``_cell``: an alternative and a criterion, or "``vector`` of"
    a criterion."""
    try:
        yield
    except MabacError as exc:
        if exc._cell is not None:
            i, j = exc._cell
            where = f"alternative {alternatives[i]}, criterion" if i is not None else f"{vector} of"
            label = f"{label}: {where} {criteria[j].name}"
        raise type(exc)(f"{label}: {exc}") from exc


def run(problem: DecisionProblem, params: PipelineParams | None = None) -> PipelineTrace:
    """Execute steps 1-7 on ``problem`` and return the trace; the only code that builds one.

    Steps 3-7 run on copies of the cached averages of steps 1-2, so mutating a
    trace reaches neither the problem nor a later trace.
    """
    weights_bar, ratings_bar = problem._averages
    alternatives, criteria = list(problem.alternatives), list(problem.criteria)
    params = params if params is not None else problem.params
    aggregated_weights, aggregated_ratings = list(weights_bar), [list(row) for row in ratings_bar]
    with _stage("step 3 (normalization)"):
        normalized = normalize(aggregated_ratings, criteria)
    with _stage("step 4 (weighting)", alternatives, criteria, "weight"):
        weighted = weight(normalized, aggregated_weights)
    with _stage("step 5 (border approximation area)"):
        baa_vector = baa(weighted, r=params.r, s=params.s, operator=params.baa_operator)
    with _stage("step 6 (distance matrices)", alternatives, criteria, "BAA"):
        q, g, delta = crisp_matrices(weighted, baa_vector, lam=params.lam)
    with _stage("step 7 (classification and ranking)"):
        classification, scores, order = classify_and_score(delta, alternatives)
    return PipelineTrace(problem.name, alternatives, criteria, params, aggregated_weights, aggregated_ratings,
                         normalized, weighted, baa_vector, q, g, delta, classification, scores, order)


# --------------------------------------------------------------------------
# parsing

_REQUIRED_KEYS = {"alternatives", "criteria", "experts", "weights", "ratings"}
_TOP_LEVEL_KEYS = _REQUIRED_KEYS | {"name", "weight_scale", "rating_scale", "params"}

#: The deepest nesting of lists and mappings a document may have, the top level
#: included. PyYAML's recursive composer, which ``_construct`` replaced, accepted
#: 493 levels when called through ``cli.main``.
_MAX_DEPTH = 500

_TAG = "tag:yaml.org,2002:"
_STR, _MERGE = yaml.resolver.BaseResolver.DEFAULT_SCALAR_TAG, _TAG + "merge"
#: The tags a list, and a mapping, may carry: none, the non-specific ``!`` and its own.
_SEQ_TAGS, _MAP_TAGS = (None, "!", _TAG + "seq"), (None, "!", _TAG + "map")
_NO_KEY, _MERGE_KEY = object(), object()  # a mapping waits for a key; the key ``<<``

#: libyaml's scanner and parser with PyYAML's safe constructor and resolver.
#: ``_construct`` never calls its composer, whose C recursion killed the
#: interpreter on a deeply nested document.
_Loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(text: str, what: str):
    """Load one YAML document; every failure is a ``ProblemSyntaxError``.

    ``_Loader``'s parser feeds ``_construct``. Text with a tab goes to
    ``yaml.SafeLoader``'s scanner and parser instead: libyaml accepts a tab
    as a separator in places where PyYAML's own scanner rejects it, and the
    outcome must not depend on how PyYAML was built.

    ``ValueError``: PyYAML's safe constructor raises it for a timestamp that
    is not a date and for an integer too long to convert; it also covers the
    ``UnicodeEncodeError`` of libyaml, which encodes ``text`` to UTF-8 first,
    so a lone surrogate fails there.
    """
    try:
        loader = (yaml.SafeLoader if "\t" in text else _Loader)(text)
        try:
            return _construct(loader)
        finally:
            loader.dispose()
    except (yaml.YAMLError, ValueError) as exc:
        raise ProblemSyntaxError(f"{what}: {exc}") from exc


def _construct(loader):
    """The value of the one document ``loader`` parses, or ``None`` for an empty stream.

    One pass over the parser's events, with an explicit stack of the open
    lists and mappings, builds the lists, dicts and scalars that PyYAML's
    composer and safe constructor built, with no node graph. A scalar is
    resolved by ``loader.resolve``, once per distinct plain text, and built
    by the loader's safe constructor for its tag; a string is the event's
    text. An anchor names the object itself, so every alias shares it, and a
    list or mapping is named before its entries, so it may hold itself. A
    duplicate key keeps its last value; ``<<`` merges a mapping, or a list
    of mappings, in PyYAML's order, and the mapping's own keys win.

    No problem can hold a set, an ordered mapping or a list of pairs, so the
    tags ``!!set``, ``!!omap`` and ``!!pairs`` are refused, as is any tag on
    a list but ``!!seq`` and on a mapping but ``!!map``; the YAML 1.1 value
    key ``=`` is refused as the value ``=`` is. A mapping merged into itself
    or into a mapping inside it is refused too. A document nested more than
    ``_MAX_DEPTH`` levels deep is refused as "nested too deeply".
    """
    get_event, resolve = loader.get_event, loader.resolve
    get_event()  # StreamStartEvent
    if loader.check_event(StreamEndEvent):
        return None
    get_event()  # DocumentStartEvent
    anchors, tags, stack = {}, {}, []
    # The open collection: whether it is a mapping, its entries, the key
    # waiting for a value, the merge sources met so far and its start mark;
    # the bottom list receives the document.
    mapping, items, key, merges, mark = False, [], _NO_KEY, None, None
    document = items
    while True:
        event = get_event()
        cls = event.__class__
        if cls is ScalarEvent:
            value, tag = event.value, event.tag
            if tag is None or tag == "!":
                if event.implicit[0]:  # plain: the text alone decides the tag
                    tag = tags.get(value)
                    if tag is None:
                        tag = tags[value] = resolve(ScalarNode, value, event.implicit)
                else:
                    tag = resolve(ScalarNode, value, event.implicit)
            if tag == _MERGE and mapping and key is _NO_KEY:
                value = _MERGE_KEY
            elif tag != _STR:
                value = _construct_scalar(loader, tag, event)
            if event.anchor is not None:
                _add_anchor(anchors, event, value)
        elif cls is SequenceStartEvent or cls is MappingStartEvent:
            stack.append((mapping, items, key, merges, mark))
            if len(stack) > _MAX_DEPTH:
                raise yaml.YAMLError("nested too deeply")
            mapping = cls is MappingStartEvent
            if event.tag not in (_MAP_TAGS if mapping else _SEQ_TAGS):
                raise _refused(event.tag, "a mapping" if mapping else "a sequence", event)
            items = {} if mapping else []
            key, merges, mark = _NO_KEY, None, event.start_mark
            if event.anchor is not None:
                _add_anchor(anchors, event, items)
            continue
        elif cls is SequenceEndEvent or cls is MappingEndEvent:
            if merges is not None:  # the merged entries first, then the mapping's own
                own = dict(items)
                items.clear()
                for source in merges:
                    items.update(source)
                items.update(own)
            value = items
            mapping, items, key, merges, mark = stack.pop()
        elif cls is AliasEvent:
            if event.anchor not in anchors:
                raise ComposerError(None, None, f"found undefined alias {event.anchor!r}", event.start_mark)
            value = anchors[event.anchor][0]
            if value is _MERGE_KEY and not (mapping and key is _NO_KEY):
                raise _refused(_MERGE, "a value", event)
        else:  # DocumentEndEvent
            break

        if not mapping:
            items.append(value)
        elif key is _NO_KEY:
            if cls is not ScalarEvent and isinstance(value, (list, dict)):
                raise ConstructorError("while constructing a mapping", mark, "found unhashable key",
                                       event.start_mark)
            key = value
        else:
            if key is _MERGE_KEY:
                merges = (merges or []) + _merge_sources(value, [items] + [f[1] for f in stack], mark, event)
            else:
                items[key] = value
            key = _NO_KEY

    if not loader.check_event(StreamEndEvent):
        raise ComposerError("expected a single document in the stream", None,
                            "but found another document", get_event().start_mark)
    return document[0]


def _construct_scalar(loader, tag: str, event):
    """The loader's safe constructor for ``tag`` applied to the scalar ``event``."""
    constructors = loader.yaml_constructors
    constructor = constructors.get(tag) or constructors[None]  # None: "could not determine a constructor"
    node = ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
    try:
        value = constructor(loader, node)
    except (LookupError, AttributeError) as exc:  # !!bool x, !!int '', !!timestamp x
        raise ConstructorError(None, None, f"cannot read {event.value!r} as {tag!r}",
                               event.start_mark) from exc
    if isinstance(value, GeneratorType):  # a collection tag
        raise _refused(tag, "a scalar", event)
    return value


def _merge_sources(value, open_collections, mark, event) -> list:
    """The mappings that ``<<: value`` merges, in the order their entries are inserted."""
    sources = value[::-1] if isinstance(value, list) else [value]
    for source in sources:
        if type(source) is not dict or any(source is c for c in open_collections):
            raise ConstructorError("while constructing a mapping", mark, "expected a mapping or a list "
                                   "of mappings for merging, none enclosing the merge", event.start_mark)
    return sources


def _add_anchor(anchors: dict, event, value) -> None:
    """Name ``value`` by the anchor of ``event``; a name is given once per document."""
    if event.anchor in anchors:
        raise ComposerError(f"found duplicate anchor {event.anchor!r}; first occurrence",
                            anchors[event.anchor][1], "second occurrence", event.start_mark)
    anchors[event.anchor] = value, event.start_mark


def _refused(tag: str, found: str, event) -> ConstructorError:
    """The error for ``tag`` on a node it cannot be built from."""
    return ConstructorError(None, None, f"cannot construct {tag!r} from {found}", event.start_mark)


def _parse_criteria(node) -> list[CriterionSpec]:
    if not isinstance(node, list) or not node:
        raise ProblemSyntaxError("'criteria' must be a non-empty list")
    specs = []
    for i, item in enumerate(node):
        if isinstance(item, str):
            specs.append(CriterionSpec(item))
        elif isinstance(item, dict) and set(item) <= {"name", "sense"} and "name" in item:
            specs.append(CriterionSpec(**item))
        else:
            raise ProblemSyntaxError(
                f"criteria[{i}]: expected a name or a {{name, sense}} mapping, got {_shown(item)}"
            )
    return specs


def parse_scale(node, default_name: str = "custom") -> LinguisticScale:
    """Parse an inline scale: {name: ..., terms: {TERM: [upper5, lower5]}}."""
    if not isinstance(node, dict) or "terms" not in node:
        raise ProblemSyntaxError("a scale must be a mapping with a 'terms' entry")
    terms = node["terms"]
    if not isinstance(terms, dict) or not terms:
        raise ProblemSyntaxError("'terms' must be a non-empty mapping of term -> two 5-tuples")
    entries = {}
    for term, value in terms.items():
        with _stage(f"scale term {_shown(term)}"):
            entries[term] = _parse_inline_value(value)
    return LinguisticScale(_name(node.get("name", default_name), "a scale's 'name'"), entries)


def _parse_inline_value(node) -> IT2TrFN:
    if (
        not isinstance(node, list)
        or len(node) != 2
        or not all(isinstance(part, list) for part in node)
    ):
        raise ProblemSyntaxError(
            "an inline value must be two 5-tuples [[a1,a2,a3,a4,h],[a1,a2,a3,a4,h]], "
            f"got {_shown(node)}"
        )
    return make(node[0], node[1])


def _load_scale(node, role: str, base_dir: Path | None) -> LinguisticScale:
    if node is None or node == "builtin":
        return builtin_weight_scale() if role == "weight_scale" else builtin_rating_scale()
    if isinstance(node, dict):
        with _stage(role):
            return parse_scale(node, default_name=role)
    if isinstance(node, str):
        path = Path(node)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise ProblemSyntaxError(f"{role}: cannot read scale file {str(path)!r}: {exc}") from exc
        doc = _load_yaml(text, f"{role}: scale file {str(path)!r}")
        with _stage(f"{role} ({path.name})"):
            return parse_scale(doc, default_name=path.stem)
    raise ProblemSyntaxError(
        f"{role}: expected 'builtin', an inline scale mapping, or a file path, got {_shown(node)}"
    )


def _resolve_entry(node, scale: LinguisticScale, where: str) -> IT2TrFN:
    with _stage(where):
        if isinstance(node, str):
            return resolve(scale, node)
        return _parse_inline_value(node)


def _resolve_row(row, scale: LinguisticScale, where: str) -> tuple[IT2TrFN, ...]:
    """Resolve one row; cell ``j`` is labelled ``{where}[{j}]`` in errors.

    A known term is one dict lookup, and an ``IT2TrFN`` is kept once it passes
    ``fuzzy._check_finite``, as a scale's entries do; only inline values and
    refusals pay for ``_resolve_entry`` and its label.
    """
    known, resolved = scale.entries, []
    for j, entry in enumerate(row):
        if isinstance(entry, IT2TrFN):
            _check_finite(entry, f"{where}[{j}]")
        else:
            entry = (known[entry] if isinstance(entry, str) and entry in known
                     else _resolve_entry(entry, scale, f"{where}[{j}]"))
        resolved.append(entry)
    return tuple(resolved)


def parse_problem(text: str, base_dir: str | Path | None = None) -> DecisionProblem:
    """Parse a problem document; ``DecisionProblem`` checks its names and resolves its entries.

    ``base_dir`` anchors relative scale-file paths (the CLI passes the
    directory of the problem file).
    """
    doc = _load_yaml(text, "not a valid problem document")
    if not isinstance(doc, dict):
        raise ProblemSyntaxError("the problem document must be a mapping at the top level")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ProblemSyntaxError(
            f"unknown top-level keys {_listed(unknown)}; "
            f"expected a subset of {sorted(_TOP_LEVEL_KEYS)}"
        )
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ProblemSyntaxError(f"missing required keys: {sorted(missing)}")

    base = Path(base_dir) if base_dir is not None else None
    return DecisionProblem(
        alternatives=doc["alternatives"],
        criteria=_parse_criteria(doc["criteria"]),
        experts=doc["experts"],
        weight_scale=_load_scale(doc.get("weight_scale"), "weight_scale", base),
        rating_scale=_load_scale(doc.get("rating_scale"), "rating_scale", base),
        expert_weights=doc["weights"],
        expert_ratings=doc["ratings"],
        params=_parse_params(doc.get("params")),
        name=_name(doc.get("name", "unnamed"), "'name'"),
    )


def _parse_params(node) -> PipelineParams:
    if node is None:
        return PipelineParams()
    if not isinstance(node, dict):
        raise ProblemSyntaxError(f"'params' must be a mapping, got {_shown(node)}")
    unknown = set(node) - PARAM_KEYS.keys()
    if unknown:
        raise ProblemSyntaxError(
            f"unknown params {_listed(unknown)}; expected a subset of {sorted(PARAM_KEYS)}"
        )
    return PipelineParams(**{name: node[key] for key, name in PARAM_KEYS.items() if key in node})


def example_problem_text() -> str:
    """The bundled candidate-selection example problem document."""
    resource = importlib.resources.files("it2mabac").joinpath("data/system-analyst.problem")
    return resource.read_text()


def load_example_problem() -> DecisionProblem:
    """Parse and return the bundled candidate-selection example."""
    return parse_problem(example_problem_text())
