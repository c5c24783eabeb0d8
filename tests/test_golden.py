"""Byte-identity of the CLI reports on the bundled example.

``data/example_stdout_sha256.json`` maps each command line (without the
problem path) to the sha256 of its stdout: ``solve`` in both formats and
``trace <table>`` for every table in both formats. A change to any digit,
header, key order or whitespace of these reports fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from it2mabac import example_problem_text
from it2mabac.cli import main
from it2mabac.render import TABLES

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
