"""Deterministic input generator for the benchmark workloads.

Every document is an *instance* of a fixed *template*. A template fixes the
sizes, the linguistic terms of every cell and the ``params`` block; its
reference scores are stored under ``perfbench/reference/``. An instance
renames alternatives, criteria and experts and permutes all three, so every
op gets a document it has not seen before, while its expected scores follow
from the template's through the permutation. Only the order of floating-point
sums differs from the template, far below the comparison tolerance.

Randomness comes from ``random.Random`` seeded with strings and consumed only
through ``random()``, whose output is stable across CPython versions, so a
seed gives byte-identical documents everywhere.

Usage: ``python3 perfbench/gen.py --seed 7 --count 30 --out DIR`` writes the
first 30 ``cli-small`` documents of seed 7 to DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from dataclasses import dataclass, replace
from pathlib import Path

RATING_TERMS = ("VP", "P", "MP", "F", "MG", "G", "VG")
WEIGHT_TERMS = ("VL", "L", "ML", "M", "MH", "H", "VH")

#: Template counts per workload; the stored references cover exactly these.
TEMPLATE_COUNTS = {"cli-small": 64, "scale-bonferroni": 6, "sweep-geomean": 6}

#: The sweep's lambda grid, 0, 0.1, ..., 1.
SWEEP_LAMBDAS = tuple(i / 10 for i in range(11))

#: An inline value whose upper trapezoid is a single point: a column made of
#: it has zero range, which the pipeline must reject with exit code 2.
POINT_VALUE = "[[5, 5, 5, 5, 1], [5, 5, 5, 5, 0.9]]"

#: Per block of ``CLI_BLOCK`` ops: how many of each document kind and command.
CLI_BLOCK = 30
CLI_KINDS = ("example",) + ("unknown_term", "row_width", "zero_range") + ("valid",) * 26
CLI_COMMANDS = (
    ("solve",) * 8 + ("solve-machine",) * 6 + ("trace",) * 6 + ("trace-machine",) * 6
    + ("validate",) * 4
)


@dataclass(frozen=True)
class Doc:
    """A problem document as tokens; ``emit`` turns it into YAML text."""

    name: str
    alternatives: tuple[str, ...]
    criteria: tuple[tuple[str, str], ...]  # (name, sense)
    experts: tuple[str, ...]
    weights: tuple[tuple[str, ...], ...]  # per expert, one token per criterion
    ratings: tuple[tuple[tuple[str, ...], ...], ...]  # per expert, p rows of q tokens
    params: tuple[tuple[str, object], ...] | None = None

    @property
    def sizes(self) -> tuple[int, int, int]:
        """(p alternatives, q criteria, k experts)."""
        return len(self.alternatives), len(self.criteria), len(self.experts)


def pick(rng: random.Random, n: int) -> int:
    """A uniform index below n, from ``rng.random()`` alone."""
    return min(int(rng.random() * n), n - 1)


def _permutation(rng: random.Random, n: int) -> list[int]:
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = pick(rng, i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def template_sizes(workload: str, index: int) -> tuple[int, int, int]:
    if workload == "scale-bonferroni":
        return 150, 10, 5
    if workload == "sweep-geomean":
        return 100, 10, 5
    rng = random.Random(f"cli-small-sizes:{index}")
    return 3 + pick(rng, 10), 3 + pick(rng, 6), 2 + pick(rng, 4)


def template(workload: str, index: int, sizes: tuple[int, int, int] | None = None) -> Doc:
    """Template ``index`` of ``workload``; ``sizes`` overrides (p, q, k)."""
    p, q, k = sizes or template_sizes(workload, index)
    rng = random.Random(f"{workload}-template:{index}")
    cost = pick(rng, q)
    weights = tuple(tuple(WEIGHT_TERMS[pick(rng, 7)] for _ in range(q)) for _ in range(k))
    ratings = tuple(
        tuple(tuple(RATING_TERMS[pick(rng, 7)] for _ in range(q)) for _ in range(p))
        for _ in range(k)
    )
    params = None
    if workload == "cli-small":
        params = (
            ("lambda", (0.3, 0.5, 0.7)[pick(rng, 3)]),
            ("r", (1.0, 2.0)[pick(rng, 2)]),
            ("s", 1.0),
            ("baa", ("bonferroni", "geomean")[pick(rng, 2)]),
        )
    return Doc(
        name=f"{workload}-{index}",
        alternatives=tuple(f"A{i + 1}" for i in range(p)),
        criteria=tuple((f"C{j + 1}", "cost" if j == cost else "benefit") for j in range(q)),
        experts=tuple(f"DM{e + 1}" for e in range(k)),
        weights=weights,
        ratings=ratings,
        params=params,
    )


def _names(rng: random.Random, prefix: str, n: int) -> tuple[str, ...]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(
        prefix + "".join(letters[pick(rng, 26)] for _ in range(3)) + str(i) for i in range(n)
    )


@dataclass(frozen=True)
class Instance:
    """A renamed, permuted template: doc position i holds template position perm[i]."""

    doc: Doc
    template: int
    alt_perm: tuple[int, ...]
    crit_perm: tuple[int, ...]


def instance(tpl: Doc, index: int, rng: random.Random) -> Instance:
    p, q, k = tpl.sizes
    pa, pc, pe = _permutation(rng, p), _permutation(rng, q), _permutation(rng, k)
    crit_names = _names(rng, "C", q)
    doc = Doc(
        name=f"{tpl.name}-{''.join(_names(rng, 'x', 1))}",
        alternatives=_names(rng, "A", p),
        criteria=tuple((crit_names[j], tpl.criteria[pc[j]][1]) for j in range(q)),
        experts=_names(rng, "DM", k),
        weights=tuple(tuple(tpl.weights[pe[e]][pc[j]] for j in range(q)) for e in range(k)),
        ratings=tuple(
            tuple(tuple(tpl.ratings[pe[e]][pa[i]][pc[j]] for j in range(q)) for i in range(p))
            for e in range(k)
        ),
        params=tpl.params,
    )
    return Instance(doc, index, tuple(pa), tuple(pc))


def emit(doc: Doc) -> str:
    """YAML text of ``doc`` in the layout of the bundled example."""
    lines = [
        f"name: {doc.name}",
        f"alternatives: [{', '.join(doc.alternatives)}]",
        "criteria:",
    ]
    lines += [f"  - {{name: {name}, sense: {sense}}}" for name, sense in doc.criteria]
    lines += [
        f"experts: [{', '.join(doc.experts)}]",
        "weight_scale: builtin",
        "rating_scale: builtin",
        "weights:",
    ]
    lines += [f"  {e}: [{', '.join(row)}]" for e, row in zip(doc.experts, doc.weights)]
    lines.append("ratings:")
    for e, matrix in zip(doc.experts, doc.ratings):
        lines.append(f"  {e}:")
        lines += [f"    - [{', '.join(row)}]" for row in matrix]
    if doc.params is not None:
        lines.append("params:")
        lines += [f"  {key}: {value}" for key, value in doc.params]
    return "\n".join(lines) + "\n"


def template_digest(workload: str, index: int) -> str:
    """sha256 of a template's canonical text; the references pin it."""
    return hashlib.sha256(emit(template(workload, index)).encode()).hexdigest()


# --------------------------------------------------------------------------
# invalid documents for cli-small


def _set_rating(doc: Doc, e: int, i: int, j: int, token: str) -> Doc:
    rows = [list(r) for r in doc.ratings[e]]
    rows[i][j] = token
    ratings = list(doc.ratings)
    ratings[e] = tuple(tuple(r) for r in rows)
    return replace(doc, ratings=tuple(ratings))


def mutate(doc: Doc, kind: str, rng: random.Random) -> Doc:
    """Break ``doc`` in one of the ways the CLI must reject."""
    p, q, k = doc.sizes
    e, i, j = pick(rng, k), pick(rng, p), pick(rng, q)
    if kind == "unknown_term":
        return _set_rating(doc, e, i, j, "XG")
    if kind == "row_width":
        ratings = list(doc.ratings)
        rows = list(ratings[e])
        rows[i] = rows[i][:-1]
        ratings[e] = tuple(rows)
        return replace(doc, ratings=tuple(ratings))
    if kind == "zero_range":
        for e2 in range(k):
            for i2 in range(p):
                doc = _set_rating(doc, e2, i2, j, POINT_VALUE)
        return doc
    raise ValueError(f"unknown mutation {kind!r}")


# --------------------------------------------------------------------------
# op schedules


@dataclass(frozen=True)
class CliOp:
    """One cli-small op: the document to write and the argv tail after its path."""

    kind: str  # example | valid | unknown_term | row_width | zero_range
    command: str  # solve | solve-machine | trace | trace-machine | validate
    table: str
    text: bytes
    inst: Instance | None  # None for the bundled example


def cli_op(seed: int, n: int, example_text: str, tables: tuple[str, ...]) -> CliOp:
    """Op ``n`` of seed ``seed``: each block of 30 ops holds the fixed mix above."""
    block, slot = divmod(n, CLI_BLOCK)
    brng = random.Random(f"cli-small:{seed}:block:{block}")
    kinds = [CLI_KINDS[i] for i in _permutation(brng, CLI_BLOCK)]
    commands = [CLI_COMMANDS[i] for i in _permutation(brng, CLI_BLOCK)]
    kind, command = kinds[slot], commands[slot]
    rng = random.Random(f"cli-small:{seed}:op:{n}")
    table = tables[pick(rng, len(tables))]
    if kind == "example":
        return CliOp(kind, command, table, example_text.encode(), None)
    index = pick(rng, TEMPLATE_COUNTS["cli-small"])
    inst = instance(template("cli-small", index), index, rng)
    doc = inst.doc if kind == "valid" else mutate(inst.doc, kind, rng)
    return CliOp(kind, command, table, emit(doc).encode(), inst)


def pooled_instance(workload: str, seed: int, n: int) -> Instance:
    """Op ``n`` of ``scale-bonferroni`` or ``sweep-geomean``: a fresh instance."""
    rng = random.Random(f"{workload}:{seed}:op:{n}")
    index = pick(rng, TEMPLATE_COUNTS[workload])
    return instance(template(workload, index), index, rng)


def reproducers(example_text: str) -> dict[str, bytes]:
    """Known-defect inputs, all edits of the bundled example; each must exit 1.

    An edit whose target text is gone from the example leaves it unchanged;
    the benchmark reports that as a failed check.
    """
    inline = "[[{}, 0.5, 0.5, 0.7, 1], [0.4, 0.5, 0.5, 0.6, 0.9]]"
    weights_m = "DM1: [H, VH, VH, VH, M]"

    def weight_with(endpoint: str) -> str:
        return example_text.replace(weights_m, f"DM1: [H, VH, VH, VH, {inline.format(endpoint)}]")

    docs = {
        "nan_endpoint": weight_with(".nan"),
        "r_inf": example_text.replace("  r: 1.0", "  r: .inf"),
        "abc_endpoint": weight_with("abc"),
        "lambda_bool": example_text.replace("  lambda: 0.5", "  lambda: true"),
    }
    out = {name: text.encode() for name, text in docs.items()}
    out["non_utf8"] = example_text.replace("name: system-analyst", "name: syst\xe9m").encode("latin-1")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the cli-small documents of a seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=CLI_BLOCK)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    from checkout import import_package

    import_package()
    from it2mabac import example_problem_text
    from it2mabac.render import TABLES

    args.out.mkdir(parents=True, exist_ok=True)
    for n in range(args.count):
        op = cli_op(args.seed, n, example_problem_text(), TABLES)
        (args.out / f"{n:05d}-{op.kind}.problem").write_bytes(op.text)


if __name__ == "__main__":
    main()
