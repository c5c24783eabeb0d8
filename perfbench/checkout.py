"""Locate the package source of the checkout the benchmark runs in.

The benchmark lives beside ``src/`` and imports ``it2mabac`` from there,
never from an installed copy, so it measures exactly the checked-out code.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Results, span dumps and scratch documents; listed in the root .gitignore.
OUT = ROOT / ".perfbench-out"


def import_package():
    """Import ``it2mabac`` from ``src/`` of this checkout, or exit with status 1."""
    init = SRC / "it2mabac" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import it2mabac

    if Path(it2mabac.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: it2mabac was imported from {it2mabac.__file__}, not {init}")
    return it2mabac
