"""Tests of the YAML loader: ``problem._load_yaml`` against the composer it replaced.

The reference is the loader the package used before: libyaml's parser under
PyYAML's Python ``Composer`` and ``SafeConstructor``, or ``yaml.SafeLoader``
for text with a tab and without libyaml, with the same error mapping. The
differential test narrows it to what ``_load_yaml`` builds: lists, mappings
and scalars, without the ``!!set``, ``!!omap`` and ``!!pairs`` tags and the
value key ``=``.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.composer import Composer
from yaml.constructor import BaseConstructor, ConstructorError, SafeConstructor
from yaml.resolver import Resolver

import it2mabac.problem
from it2mabac import example_problem_text
from it2mabac.cli import main
from it2mabac.errors import ProblemSyntaxError
from it2mabac.problem import _MAX_DEPTH, _load_yaml, parse_problem
from test_cli import DEEP_DOCUMENTS

if yaml.__with_libyaml__:
    from yaml.cyaml import CParser

    class _Reference(Composer, CParser, SafeConstructor, Resolver):
        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

else:
    _Reference = yaml.SafeLoader


class _Narrowed:
    """The reference without what no problem can hold: the tags ``!!set``,
    ``!!omap`` and ``!!pairs``, and the YAML 1.1 value key ``=``."""

    def flatten_mapping(self, node):
        if any(key.tag == "tag:yaml.org,2002:value" for key, _ in node.value):
            raise ConstructorError(None, None, "the value key '=' is refused", node.start_mark)
        super().flatten_mapping(node)

    def construct_scalar(self, node):  # SafeConstructor's reads a mapping's value key
        return BaseConstructor.construct_scalar(self, node)

    def refuse(self, node):
        raise ConstructorError(None, None, f"{node.tag!r} is refused", node.start_mark)


class _NarrowReference(_Narrowed, _Reference):
    pass


class _NarrowSafeLoader(_Narrowed, yaml.SafeLoader):
    pass


for _loader in (_NarrowReference, _NarrowSafeLoader):
    for _tag in ("set", "omap", "pairs"):
        _loader.add_constructor("tag:yaml.org,2002:" + _tag, _Narrowed.refuse)


def _reference_load(text: str, what: str = "doc", narrowed: bool = False):
    if "\t" in text:
        loader = _NarrowSafeLoader if narrowed else yaml.SafeLoader
    else:
        loader = _NarrowReference if narrowed else _Reference
    try:
        return yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ProblemSyntaxError(f"{what}: {exc}") from exc


def _narrowed_load(text: str, what: str = "doc"):
    return _reference_load(text, what, narrowed=True)


def _outcome(load, text: str):
    """("value", the loaded value), or ("error", the class of the exception raised)."""
    try:
        return "value", load(text, "doc")
    except Exception as exc:  # the class is the outcome, whatever it is
        return "error", type(exc)


def _same(a, b, pairs=None) -> bool:
    """Equal values with equal types at every depth, and the same sharing of lists and mappings."""
    pairs = {} if pairs is None else pairs
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()  # nan equals nan; 0.0 is not -0.0
    if not isinstance(a, (list, dict)):
        return a == b
    if id(a) in pairs or id(b) in pairs:
        return pairs.get(id(a), (None,))[0] is b and pairs.get(id(b), (None,))[0] is a
    pairs[id(a)], pairs[id(b)] = (b, a), (a, b)  # holds both, so no id is reused
    if isinstance(a, dict):  # the order of the keys counts
        return len(a) == len(b) and all(
            _same(ka, kb, pairs) and _same(va, vb, pairs) for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return len(a) == len(b) and all(_same(x, y, pairs) for x, y in zip(a, b))


# --------------------------------------------------------------------------
# one case per construct


def _self_holding(value) -> bool:
    return value["a"][0] is value["a"]


MERGED = (
    "base: &b {x: 1, y: 2}\n"
    "more: &m {y: 3, z: 4}\n"
    "one: {<<: *b, w: 0}\n"
    "many: {a: 0, <<: [*b, *m], x: 9}\n"
)

#: name -> (document, expected value or error class)
CONSTRUCTS = {
    "alias_shares_the_object": ("a: &x [1, 2]\nb: *x", lambda v: v["a"] is v["b"]),
    "alias_of_a_scalar": ("a: &x 1.5\nb: *x", {"a": 1.5, "b": 1.5}),
    "self_reference": ("a: &x [*x]", _self_holding),
    "undefined_alias": ("a: *x", ProblemSyntaxError),
    "duplicate_anchor": ("a: &x 1\nb: &x 2", ProblemSyntaxError),
    "second_document": ("--- a\n--- b\n", ProblemSyntaxError),
    "unhashable_key": ("? [1]\n: 2", ProblemSyntaxError),
    "unhashable_alias_key": ("a: &x {b: 1}\n? *x\n: 2", ProblemSyntaxError),
    "unknown_scalar_tag": ("a: !foo x", ProblemSyntaxError),
    "unknown_collection_tag": ("a: !foo [x]", ProblemSyntaxError),
    "duplicate_key_keeps_the_last": ("a: 1\nb: 2\na: 3", {"a": 3, "b": 2}),
    "quoted_value_key_is_a_string": ("'=': 1", {"=": 1}),
    "empty_stream": ("", None),
    "comment_only": ("# nothing\n", None),
    "empty_document": ("---\n", None),
    "merge_one_mapping": (MERGED, lambda v: list(v["one"].items()) == [("x", 1), ("y", 2), ("w", 0)]),
    "merge_list_explicit_keys_win": (
        MERGED, lambda v: list(v["many"].items()) == [("y", 2), ("z", 4), ("x", 9), ("a", 0)]
    ),
    "merge_of_a_scalar": ("a: {<<: 1}", ProblemSyntaxError),
    "merge_list_of_a_scalar": ("a: {<<: [1]}", ProblemSyntaxError),
    "merge_key_as_a_value": ("a: <<", ProblemSyntaxError),
    "merge_key_alias_as_a_value": ("x: {&m <<: {a: 1}}\ny: *m", ProblemSyntaxError),
    "tag_str": ("a: !!str 12", {"a": "12"}),
    "tag_int": ("a: !!int '0x1F'", {"a": 31}),
    "tag_float": ("a: !!float 1", {"a": 1.0}),
    "tag_bool": ("a: !!bool yes", {"a": True}),
    "tag_null": ("a: !!null ''", {"a": None}),
    "tag_binary": ("a: !!binary aGk=", {"a": b"hi"}),
    "tag_timestamp": ("a: !!timestamp 2001-02-03", lambda v: str(v["a"]) == "2001-02-03"),
    "non_specific_tag": ("a: ! 12", {"a": 12}),
    "quoted_number_is_a_string": (
        "a: 12\nb: '12'\nc: \"12\"\nd: 12", {"a": 12, "b": "12", "c": "12", "d": 12}
    ),
    "tag_seq": ("a: !!seq [1]", {"a": [1]}),
    "tag_map": ("a: !!map {b: 1}", {"a": {"b": 1}}),
    "omap_entry_of_two_items": ("a: !!omap [{x: 1, y: 2}]", ProblemSyntaxError),
    "omap_entry_not_a_mapping": ("a: !!omap [x]", ProblemSyntaxError),
    "collection_tag_on_a_scalar": ("a: !!seq x", ProblemSyntaxError),
    "set_tag_on_a_sequence": ("a: !!set [x]", ProblemSyntaxError),
    "scalar_tag_on_a_sequence": ("a: !!str [x]", ProblemSyntaxError),
    "timestamp_not_a_date": ("a: 2001-02-30", ProblemSyntaxError),
    "integer_too_long": ("a: 1" + "0" * 5000, ProblemSyntaxError),
    "nested_too_deeply": ("a: " + "[" * (_MAX_DEPTH + 1) + "]" * (_MAX_DEPTH + 1), ProblemSyntaxError),
}

#: Where the outcome moved on purpose: PyYAML's constructor ended in a bare
#: KeyError, IndexError or AttributeError, its node graph gave an odd outcome,
#: or it built a set, an ordered mapping, a list of pairs or the string key
#: "=", none of which a problem can hold (see ``problem._construct``).
CHANGED = {
    "bool_tag_on_a_non_bool": ("a: !!bool x", ProblemSyntaxError),
    "int_tag_on_an_empty_string": ("a: !!int ''", ProblemSyntaxError),
    "timestamp_tag_on_a_non_date": ("a: !!timestamp x", ProblemSyntaxError),
    "merge_into_itself": ("a: &x {b: 1, <<: *x}", ProblemSyntaxError),
    "merge_into_an_inner_mapping": ("a: &x {b: {<<: *x}}", ProblemSyntaxError),
    "scalar_tag_on_a_value_key_mapping": ("a: !!str {=: x}", ProblemSyntaxError),
    "omap_entry_with_an_unhashable_key": ("a: !!omap [{[1]: 2}]", ProblemSyntaxError),
    "value_key": ("=: 1", ProblemSyntaxError),
    "tag_set": ("a: !!set {x, y}", ProblemSyntaxError),
    "tag_omap": ("a: !!omap [{x: 1}, {y: 2}]", ProblemSyntaxError),
    "tag_pairs": ("a: !!pairs [{x: 1}, {x: 2}]", ProblemSyntaxError),
}


def _check(expected, outcome):
    kind, value = outcome
    if isinstance(expected, type):
        assert outcome == ("error", expected)
    elif callable(expected):
        assert kind == "value" and expected(value)
    else:
        assert kind == "value" and _same(value, expected)


@pytest.mark.parametrize("name", list(CONSTRUCTS))
def test_construct_loads_as_the_composer_loaded_it(name, yaml_loader):
    text, expected = CONSTRUCTS[name]
    _check(expected, _outcome(_load_yaml, text))
    _check(expected, _outcome(_reference_load, text))
    _check(expected, _outcome(_narrowed_load, text))


@pytest.mark.parametrize("name", list(CHANGED))
def test_construct_refused_on_purpose(name, yaml_loader):
    text, expected = CHANGED[name]
    _check(expected, _outcome(_load_yaml, text))
    assert _outcome(_reference_load, text) != _outcome(_load_yaml, text)


NARROWED = ["value_key", "tag_set", "tag_omap", "tag_pairs", "scalar_tag_on_a_value_key_mapping"]


@pytest.mark.parametrize("name", NARROWED)
def test_narrowed_reference_refuses_what_no_problem_holds(name, yaml_loader):
    assert _outcome(_narrowed_load, CHANGED[name][0]) == ("error", ProblemSyntaxError)


def test_loader_is_pyyamls_own():
    assert it2mabac.problem._Loader is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="the loader is yaml.SafeLoader without libyaml")
def test_walker_never_composes(monkeypatch):
    class NoComposer(yaml.CSafeLoader):
        def get_single_node(self):
            raise AssertionError("composed a node graph")

        get_node = get_single_node

    monkeypatch.setattr(it2mabac.problem, "_Loader", NoComposer)
    assert parse_problem(example_problem_text()).name == "system-analyst"
    with pytest.raises(ProblemSyntaxError, match="nested too deeply"):
        parse_problem(DEEP_DOCUMENTS["block"])


def test_nesting_bound_admits_what_the_composer_admitted():
    # the bound admits the deepest document it allows; the composer's recursion refused it
    depth = _MAX_DEPTH - 1  # under the top-level mapping
    value = _load_yaml("a: " + "[" * depth + "]" * depth, "doc")["a"]
    for _ in range(depth - 1):
        (value,) = value
    assert value == []
    assert _outcome(_reference_load, "a: " + "[" * depth + "]" * depth) == ("error", ProblemSyntaxError)


def test_yaml_loader_fixture_switches_the_parser(yaml_loader):
    # libyaml encodes the text to UTF-8 first and fails on a lone surrogate;
    # PyYAML's own reader refuses the character. The tests that patch
    # ``problem._Loader`` to ``yaml.SafeLoader`` rely on this switch.
    with pytest.raises(ProblemSyntaxError) as info:
        _load_yaml("name: \ud800\n", "doc")
    libyaml = yaml.__with_libyaml__ and yaml_loader == "libyaml"
    assert type(info.value.__cause__) is (UnicodeEncodeError if libyaml else yaml.reader.ReaderError)


# --------------------------------------------------------------------------
# differential: byte edits of real documents load alike under both loaders


def _gen():
    path = Path(__file__).parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


_GEN = _gen()
SEEDS = [example_problem_text()] + [
    _GEN.emit(_GEN.template(workload, index, (4, 3, 2) if workload != "cli-small" else None))
    for workload, count in _GEN.TEMPLATE_COUNTS.items() for index in range(min(count, 6))
]
TOKENS = [
    "[", "]", "{", "}", ", ", ": ", ":", "- ", "? ", "\n", "\n  ", "\t", "#", "'", '"', "|\n", ">\n",
    "&a ", "*a", "&b ", "*b", "<<: *a\n  ", "<<: ", "=", "~", "---\n", "...\n", "%YAML 1.1\n",
    "!!str ", "!!int ", "!!float ", "!!bool ", "!!timestamp ", "!!binary ",
    "!!set ", "!!omap ", "!!pairs ", "!!seq ", "!!map ",
    "!foo ", "! ", "0x1F", "0o17", "1_000", "1e3", ".inf", ".nan", "2001-02-03", "yes", "null",
]


@st.composite
def edited_documents(draw):
    """A bundled or benchmark document with one to four insertions, deletions or replacements."""
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        start = draw(st.integers(0, len(text)))
        end = start if kind == "insert" else min(len(text), start + draw(st.integers(1, 8)))
        token = "" if kind == "delete" else draw(st.sampled_from(TOKENS))
        text = text[:start] + token + text[end:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=edited_documents())
def test_edited_documents_load_alike(text):
    new, old = _outcome(_load_yaml, text), _outcome(_narrowed_load, text)
    if old[0] == "error" and old[1] is not ProblemSyntaxError:
        old = ("error", ProblemSyntaxError)  # PyYAML's constructor ended in a bare error: see CHANGED
    assert new[0] == old[0]
    assert (new == old) if new[0] == "error" else _same(new[1], old[1])


def test_differential_check_sees_a_difference():
    assert not _same({"a": 1}, {"a": 1.0})
    assert not _same({"a": 1, "b": 2}, {"b": 2, "a": 1})
    shared = [1]
    assert not _same({"a": shared, "b": shared}, {"a": [1], "b": [1]})
    assert _same({"a": math.nan}, {"a": math.nan})


# --------------------------------------------------------------------------
# values too long to print

HUGE_HEX = "0x" + "f" * 4000  # about 4800 decimal digits: CPython will not print it


def _inline_scale(name: str) -> str:
    value = "[[0, 0.1, 0.2, 0.3, 1], [0, 0.1, 0.2, 0.3, 0.9]]"
    terms = "{" + ", ".join(f"{t}: {value}" for t in ("VL", "L", "ML", "M", "MH", "H", "VH")) + "}"
    return f"weight_scale: {{name: {name}, terms: {terms}}}"


PARAMS_BLOCK = "params:\n  lambda: 0.5\n  r: 1.0\n  s: 1.0\n  baa: bonferroni\n"
BITS = "an int of 16000 bits"
IN_A_LIST = "a list holding an int too long to print"

#: position -> (text of the example, its replacement, what the message shows)
HUGE_INT_POSITIONS = {
    "problem_name": ("name: system-analyst", f"name: {HUGE_HEX}", BITS),
    "scale_name": ("weight_scale: builtin", _inline_scale(HUGE_HEX), BITS),
    "criterion": ("  - {name: C5, sense: benefit}", f"  - [{HUGE_HEX}]", IN_A_LIST),
    "params": (PARAMS_BLOCK, f"params: [{HUGE_HEX}]\n", IN_A_LIST),
    "weight_scale": ("weight_scale: builtin", f"weight_scale: [{HUGE_HEX}]", IN_A_LIST),
    "top_level_key": ("name: system-analyst", f"name: system-analyst\n? {HUGE_HEX}\n: 1", BITS),
    "params_key": ("  s: 1.0", f"  s: 1.0\n  ? {HUGE_HEX}\n  : 1", BITS),
    "scale_term": ("weight_scale: builtin", f"weight_scale:\n  terms:\n    ? {HUGE_HEX}\n"
                   "    : [[0, 1, 1, 2, 1], [0, 1, 1, 2, 0.9]]", BITS),
    "scale_term_of_a_bad_value": ("weight_scale: builtin",
                                  f"weight_scale:\n  terms:\n    ? {HUGE_HEX}\n    : [1]", BITS),
}


@pytest.mark.parametrize("position", list(HUGE_INT_POSITIONS))
def test_int_too_long_to_print_is_validation_failure(position, tmp_path, capsys):
    old, new, shown = HUGE_INT_POSITIONS[position]
    text = example_problem_text()
    assert old in text
    path = tmp_path / "huge.problem"
    path.write_text(text.replace(old, new, 1))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert shown in captured.err


def test_printable_keys_keep_their_text():
    text = example_problem_text() + "1: one\nfoo: two\n"
    with pytest.raises(ProblemSyntaxError) as info:
        it2mabac.problem.parse_problem(text)
    assert str(info.value).startswith("unknown top-level keys [1, 'foo']; ")



# --------------------------------------------------------------------------
# values too large to print


def _alias_chain(links: int = 5, depth: int = 300) -> str:
    """``links`` lists ``depth`` deep, each holding the one before through an alias."""
    items, inner = [], "x"
    for n in range(links):
        items.append(f"&d{n} " + "[" * depth + inner + "]" * depth)
        inner = f"*d{n}"
    return "[" + ", ".join(items) + "]"


def _laughs(levels: int = 7, width: int = 10) -> str:
    """Each level a list of ``width`` aliases of the level before: ``width ** levels`` leaves."""
    items = ["&l0 [lol]"] + [
        f"&l{n} [" + ", ".join([f"*l{n - 1}"] * width) + "]" for n in range(1, levels + 1)
    ]
    return "[" + ", ".join(items) + "]"


#: position -> (text of the example, its replacement with ``{}`` for the value)
LARGE_VALUE_POSITIONS = {
    "name": ("name: system-analyst", "name: {}"),
    "alternatives": ("alternatives: [A1, A2, A3]", "alternatives: [{}, A2, A3]"),
    "criterion": ("  - {name: C5, sense: benefit}", "  - {}"),
}


@pytest.mark.parametrize("value", [_alias_chain, _laughs], ids=["alias_chain", "laughs"])
@pytest.mark.parametrize("position", list(LARGE_VALUE_POSITIONS))
def test_value_too_large_to_print_is_validation_failure(position, value, tmp_path, capsys):
    old, new = LARGE_VALUE_POSITIONS[position]
    text = example_problem_text()
    assert old in text
    path = tmp_path / "large.problem"
    path.write_text(text.replace(old, new.format(value()), 1))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert "too large to print" in captured.err
    assert len(captured.err) < 64 * 1024 and "Traceback" not in captured.err
