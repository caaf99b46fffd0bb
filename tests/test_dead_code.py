"""Static checks that ``src/casimir`` carries no dead names: every imported
name is used where it is imported, and every private module-level name is
referenced somewhere in the package."""

import ast
from pathlib import Path

import casimir

PACKAGE = Path(casimir.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree):
    """Every name a module reads: bare names, attributes and names imported
    from its sibling modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bound_by_imports(tree):
    """The names a module's top-level imports bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    """The private (single-underscore) names a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_imported_name_is_used():
    unused = []
    for module, tree in TREES.items():
        # the package's __init__ imports to re-export
        if module == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unused += [f"{module}: {name}" for name in _bound_by_imports(tree) if name not in read]
    assert not unused


def test_every_private_module_level_name_is_referenced():
    read = set().union(*map(_loaded, TREES.values()))
    unreferenced = [f"{module}: {name}" for module, tree in TREES.items()
                    for name in _private_definitions(tree) if name not in read]
    assert not unreferenced
