"""Byte-identity of the CLI reports on the bundled example.

``data/example_stdout_sha256.json`` maps each command line (without the
problem path) to the sha256 of its stdout: ``solve`` in both formats and
``trace <table>`` for every table in both formats. A change to any digit,
header, key order or whitespace of these reports fails here. Two more digests
cover the machine and the text reports of every benchmark template, which reach
cost criteria, r != s, the geometric mean and the counted Bonferroni BAA of p = 150.
"""

import hashlib
import json
from pathlib import Path

import pytest

from it2mabac import example_problem_text, parse_problem, render_machine, render_text, run
from it2mabac.cli import main
from it2mabac.render import TABLES
from test_oracle import _GEN

DIGESTS = json.loads((Path(__file__).parent / "data" / "example_stdout_sha256.json").read_text())


def test_digests_cover_every_report():
    expected = {"solve", "solve --format machine"}
    for table in TABLES:
        expected |= {f"trace {table}", f"trace {table} --format machine"}
    assert set(DIGESTS) == expected and len(DIGESTS) == 22


@pytest.mark.parametrize("command", list(DIGESTS))
def test_stdout_is_byte_identical(command, tmp_path, capsys):
    path = tmp_path / "example.problem"
    path.write_text(example_problem_text())
    subcommand, *rest = command.split()
    assert main([subcommand, str(path), *rest]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


#: sha256 of the concatenated machine reports, and of the text reports, of the
#: benchmark templates, each run with its own params.
TEMPLATES_SHA256 = "f66e7319278d81e94d1e92c9387200ef46117ff229ae84c8c3388b0e2db69bbc"
TEMPLATES_TEXT_SHA256 = "d4620ed731802c8df0ef18c11ef20a4937e4ad65f45c4c33c0688f934ee6dfb6"


def _templates_digest(render_fn) -> str:
    """sha256 of ``render_fn`` of each benchmark template's trace, concatenated."""
    digest = hashlib.sha256()
    count = 0
    for workload, templates in _GEN.TEMPLATE_COUNTS.items():
        for index in range(templates):
            problem = parse_problem(_GEN.emit(_GEN.template(workload, index)))
            digest.update(render_fn(run(problem)).encode())
            count += 1
    assert count == 76
    return digest.hexdigest()


def test_benchmark_templates_are_byte_identical(locate_calls):
    assert _templates_digest(render_machine) == TEMPLATES_SHA256
    assert locate_calls == []  # every scan is exact, so a run that succeeds locates nothing


def test_benchmark_template_text_reports_are_byte_identical():
    assert _templates_digest(render_text) == TEMPLATES_TEXT_SHA256
