"""The three workloads: what one op does, and how its output is checked.

Each workload splits an op into ``prepare`` (untimed: build the input),
``execute`` (timed: the calls into the package) and ``check`` (untimed:
compare the output with the stored references). The package is reached only
through module attributes looked up at call time, so a traced run sees the
same calls through its wrappers.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import gate
import gen

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_SCORE_LINE = re.compile(r"^  (\d+)\. (\S+)  S = (-?\d+\.\d\d)$")


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def verify_templates(workload: str, reference: dict) -> list[str]:
    """The generator must still produce the documents the references were made from."""
    return [
        f"{workload} template {i}: generator output changed (sha256 {digest})"
        for i, entry in enumerate(reference["templates"])
        if (digest := gen.template_digest(workload, i)) != entry["sha256"]
    ]


@dataclass
class Outcome:
    cells: int = 0  # rated cells (k*p*q) of each successful run() call
    bytes_out: int = 0
    result: object = None


def _mapped(reference: list[float], perm) -> list[float]:
    return [reference[t] for t in perm]


def _scores_section(lines: list[str], names, expected) -> list[str]:
    """Check the text scores section: '  n. NAME  S = x.xx' lines and the ranking line."""
    parsed = [m.groups() for m in map(_SCORE_LINE.match, lines) if m]
    if len(parsed) != len(names):
        return [f"{len(parsed)} score lines, expected {len(names)}"]
    index = {name: i for i, name in enumerate(names)}
    if any(name not in index for _, name, _ in parsed):
        return ["unknown alternative in score lines"]
    order = [index[name] for _, name, _ in parsed]
    by_alt = {index[name]: value for _, name, value in parsed}
    problems = gate.compare_printed([by_alt[i] for i in range(len(names))], expected, "S")
    # printed scores have two decimals, so rank against the references
    problems += gate.compare_scores(expected, order, expected)
    ranking = "  ranking: " + " > ".join(names[i] for i in order)
    if ranking not in lines:
        problems.append("ranking line missing or inconsistent with the score lines")
    return problems


# --------------------------------------------------------------------------
# cli-small


@dataclass
class CliPrepared:
    op: gen.CliOp
    argv: list[str]
    names: tuple[str, ...]
    expected_scores: list[float] | None = None
    expected_g: list[float] | None = None
    sizes: tuple[int, int, int] = (0, 0, 0)


@dataclass
class CliResult:
    code: int | None
    out: str
    err: str
    uncaught: str | None = None


class CliSmall:
    name = "cli-small"
    entry_module = "it2mabac.cli"

    def __init__(self, seed: int, workdir: Path, reference: dict) -> None:
        import it2mabac.cli
        import it2mabac.render

        self.seed = seed
        self.cli = it2mabac.cli
        self.render_mod = sys.modules["it2mabac.render"]
        self.tables = self.render_mod.TABLES
        self.example_text = it2mabac.example_problem_text()
        self.reference = reference
        self.path = workdir / "op.problem"

    def prepare(self, n: int) -> CliPrepared:
        op = gen.cli_op(self.seed, n, self.example_text, self.tables)
        self.path.write_bytes(op.text)
        argv = {
            "solve": ["solve", str(self.path)],
            "solve-machine": ["solve", str(self.path), "--format", "machine"],
            "trace": ["trace", str(self.path), op.table],
            "trace-machine": ["trace", str(self.path), op.table, "--format", "machine"],
            "validate": ["validate", str(self.path)],
        }[op.command]
        if op.inst is None:
            ref = self.reference["example"]
            return CliPrepared(op, argv, ("A1", "A2", "A3"), ref["scores"], ref["g"], (3, 5, 3))
        ref = self.reference["templates"][op.inst.template]
        doc = op.inst.doc
        return CliPrepared(
            op, argv, doc.alternatives,
            _mapped(ref["scores"], op.inst.alt_perm), _mapped(ref["g"], op.inst.crit_perm),
            doc.sizes,
        )

    def execute(self, prep: CliPrepared, tracer) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        result = CliResult(None, "", "")
        with tracer.span("cli.main") if tracer else nullcontext() as span:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    result.code = self.cli.main(prep.argv)
                except Exception as exc:  # an uncaught error is a failed op, not a crash
                    result.uncaught = f"{type(exc).__name__}: {exc}"
            if span is not None:
                key = "cli.uncaught" if result.uncaught else f"cli.exit_{result.code}"
                span.counts[key] = 1
        result.out, result.err = out.getvalue(), err.getvalue()
        p, q, k = prep.sizes
        ran = result.code == 0 and prep.op.command != "validate"
        return Outcome(cells=k * p * q if ran else 0, bytes_out=len(result.out.encode()), result=result)

    def check(self, prep: CliPrepared, outcome: Outcome) -> list[str]:
        res: CliResult = outcome.result
        if res.uncaught:
            return [f"uncaught {res.uncaught}"]
        kind, command = prep.op.kind, prep.op.command
        if kind in ("unknown_term", "row_width"):
            return self._expect_error(res, 1, "validation error: ")
        if kind == "zero_range" and command != "validate":
            return self._expect_error(res, 2, "computation error: step 3 (normalization)")
        if res.code != 0 or res.err:
            return [f"exit {res.code}, stderr {res.err[:200]!r}"]
        if command == "validate":
            p, q, k = prep.sizes
            name = "system-analyst" if kind == "example" else prep.op.inst.doc.name
            want = f"ok: {name!r} with {p} alternatives, {q} criteria, {k} experts\n"
            return [] if res.out == want else [f"validate printed {res.out!r}"]
        return self._check_report(prep, res.out)

    @staticmethod
    def _expect_error(res: CliResult, code: int, prefix: str) -> list[str]:
        if res.code != code or res.out or not res.err.startswith(prefix):
            return [f"expected exit {code} with {prefix!r}, got exit {res.code}, stderr {res.err[:200]!r}"]
        return []

    def _check_report(self, prep: CliPrepared, out: str) -> list[str]:
        command, table = prep.op.command, prep.op.table
        names, scores, g = prep.names, prep.expected_scores, prep.expected_g
        p, q, _ = prep.sizes
        if command == "solve-machine":
            doc = json.loads(out)
            problems = gate.compare_scores(doc["scores"], doc["order"], scores)
            problems += gate.compare_values(doc["g"], g, "g")
            if doc["ranking"] != [names[i] for i in doc["order"]]:
                problems.append("ranking does not follow order")
            if prep.op.kind == "example" and doc["ranking"] != ["A2", "A3", "A1"]:
                problems.append(f"bundled example ranking {doc['ranking']}")
            return problems
        if command == "trace-machine":
            return self._check_section_machine(json.loads(out), table, names, scores, g, p, q)
        lines = out.splitlines()
        headers = self.render_mod.SECTION_HEADERS
        wanted = list(headers) if command == "solve" else [table]
        problems = [f"missing header for {t}" for t in wanted if f"== {headers[t]} ==" not in lines]
        if command == "solve" or table == "scores":
            problems += _scores_section(lines, names, scores)
            if prep.op.kind == "example" and "  ranking: A2 > A3 > A1" not in lines:
                problems.append("bundled example ranking is not exactly A2 > A3 > A1")
        if command == "trace":
            body = lines[1:]
            if table == "g":
                problems += gate.compare_printed(body[1].split(), g, "g")
            expected_lines = {
                "weights": q, "baa": q, "g": 2, "scores": p + 1,
                "ratings": q * (p + 1), "normalized": q * (p + 1), "weighted": q * (p + 1),
                "q": p + 1, "delta": p + 1, "classification": p + 1,
            }[table]
            if len(body) != expected_lines:
                problems.append(f"trace {table}: {len(body)} lines, expected {expected_lines}")
        return problems

    @staticmethod
    def _check_section_machine(doc, table, names, scores, g, p, q) -> list[str]:
        key = {"weights": "aggregated_weights", "ratings": "aggregated_ratings"}.get(table, table)
        if table == "scores":
            problems = gate.compare_scores(doc["scores"], doc["order"], scores)
            if doc["ranking"] != [names[i] for i in doc["order"]]:
                problems.append("ranking does not follow order")
            return problems
        if set(doc) != {key}:
            return [f"trace {table} --format machine has keys {sorted(doc)}"]
        value = doc[key]
        if table == "g":
            return gate.compare_values(value, g, "g")
        if table in ("weights", "baa"):
            ok = len(value) == q and all(len(v["upper"]) == len(v["lower"]) == 5 for v in value)
            return [] if ok else [f"trace {table}: wrong shape"]
        if len(value) != p or any(len(row) != q for row in value):
            return [f"trace {table}: not a {p}x{q} matrix"]
        if table == "delta":
            return gate.compare_values([sum(row) for row in value], scores, "row sums of delta")
        if table == "q":
            return gate.compare_values(
                [sum(x - gj for x, gj in zip(row, g)) for row in value], scores, "row sums of q - g"
            )
        if table == "classification":
            labels = {label for row in value for label in row}
            return [] if labels <= {"UAA", "BAA", "LAA"} else [f"labels {labels}"]
        return []


# --------------------------------------------------------------------------
# scale-bonferroni and sweep-geomean


@dataclass
class PoolPrepared:
    inst: gen.Instance
    text: str
    expected: dict = field(default_factory=dict)


class _Pooled:
    """A workload that calls the package API on a fresh template instance per op."""

    name = ""
    entry_module = "it2mabac"

    def __init__(self, seed: int, workdir: Path, reference: dict) -> None:
        import it2mabac.problem

        self.seed = seed
        self.problem_mod = it2mabac.problem
        self.render_mod = sys.modules["it2mabac.render"]
        self.reference = reference

    def prepare(self, n: int) -> PoolPrepared:
        inst = gen.pooled_instance(self.name, self.seed, n)
        ref = self.reference["templates"][inst.template]
        expected = {key: self._expected(ref[key], perm)
                    for key, perm in (("scores", inst.alt_perm), ("g", inst.crit_perm))}
        return PoolPrepared(inst, gen.emit(inst.doc), expected)

    @staticmethod
    def _expected(reference, perm):
        return _mapped(reference, perm)


class ScaleBonferroni(_Pooled):
    """parse_problem -> run (defaults) -> render_machine on a fresh p=150 document."""

    name = "scale-bonferroni"

    def execute(self, prep: PoolPrepared, tracer) -> Outcome:
        problem = self.problem_mod.parse_problem(prep.text)
        trace = self.problem_mod.run(problem)
        out = self.render_mod.render_machine(trace)
        p, q, k = prep.inst.doc.sizes
        return Outcome(cells=k * p * q, bytes_out=len(out), result=(trace, out))

    def check(self, prep: PoolPrepared, outcome: Outcome) -> list[str]:
        trace, out = outcome.result
        problems = gate.compare_scores(trace.scores, trace.order, prep.expected["scores"])
        problems += gate.compare_values(trace.g, prep.expected["g"], "g")
        doc = json.loads(out)
        if doc["scores"] != trace.scores or doc["ranking"] != trace.ranking():
            problems.append("machine JSON disagrees with the trace")
        if doc["alternatives"] != list(prep.inst.doc.alternatives):
            problems.append("machine JSON names the wrong alternatives")
        return problems

    def oracle_trace(self, outcome: Outcome):
        """(trace, operator) of an op whose BAA the oracle re-derives."""
        return outcome.result[0], "bonferroni"


class SweepGeomean(_Pooled):
    """Parse once, then run + render_section(scores) for lambda = 0, 0.1, ..., 1 (geomean BAA)."""

    name = "sweep-geomean"

    @staticmethod
    def _expected(reference, perm):
        return [_mapped(per_lambda, perm) for per_lambda in reference]

    def execute(self, prep: PoolPrepared, tracer) -> Outcome:
        problem = self.problem_mod.parse_problem(prep.text)
        first, results, size = None, [], 0
        for lam in gen.SWEEP_LAMBDAS:
            params = self.problem_mod.PipelineParams(lam=lam, baa_operator="geomean")
            trace = self.problem_mod.run(problem, params)
            text = self.render_mod.render_section(trace, "scores")
            first = first or trace
            size += len(text)
            results.append((trace.scores, trace.order, trace.g, text))
        p, q, k = prep.inst.doc.sizes
        cells = k * p * q * len(gen.SWEEP_LAMBDAS)
        return Outcome(cells=cells, bytes_out=size, result=(first, results))

    def check(self, prep: PoolPrepared, outcome: Outcome) -> list[str]:
        _, results = outcome.result
        names = prep.inst.doc.alternatives
        problems = []
        for lam, (scores, order, g, text), want, want_g in zip(
            gen.SWEEP_LAMBDAS, results, prep.expected["scores"], prep.expected["g"]
        ):
            found = gate.compare_scores(scores, order, want) + gate.compare_values(g, want_g, "g")
            found += _scores_section(text.splitlines(), names, want)
            problems += [f"lambda={lam}: {p}" for p in found]
        return problems

    def oracle_trace(self, outcome: Outcome):
        return outcome.result[0], "geomean"


WORKLOADS = {w.name: w for w in (CliSmall, ScaleBonferroni, SweepGeomean)}
