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


def _bound_names(tree):
    """The names ``tree`` binds at module level: a def, a class or an assignment; imports are not counted."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return names


def _defined_private_names(tree):
    """The ``_name``s (not dunders) that ``tree`` binds at module level."""
    return [name for name in _bound_names(tree) if name.startswith("_") and not name.startswith("__")]


def _read_names(tree):
    """The names ``tree`` reads: as a variable, as an attribute, or by importing them."""
    nodes = list(ast.walk(tree))
    return ({node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names})


def test_every_private_module_name_is_read_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    defined = {name: _defined_private_names(tree) for name, tree in trees.items()}
    assert sum(map(len, defined.values())) > 50
    assert {name: [n for n in names if n not in read] for name, names in defined.items()
            if not set(names) <= read} == {}


def test_no_module_level_name_is_bound_in_two_modules():
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _bound_names(ast.parse(path.read_text(encoding="utf-8"))):
            homes.setdefault(name, []).append(path.name)
    assert len(homes) > 100
    assert {name: modules for name, modules in homes.items() if len(modules) > 1} == {}
