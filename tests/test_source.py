"""Checks on the package's source that no installed linter makes."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "it2mabac"


def _unused_imports(tree):
    """The names ``tree`` imports and neither reads nor lists in ``__all__``."""
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}
