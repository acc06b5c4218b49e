"""Source hygiene, checked with the standard library's `ast` (the project
installs no linter): every module-level import of a module in the package,
the tests or the scripts is used by that module, and every private
top-level function of the package is referenced somewhere in the package.
A package `__init__.py` imports to re-export, so its imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree):
    """Names the tree reads, as a name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _module_imports(tree):
    """(bound name, line) of each import statement at the top of the module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _module_imports(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_every_private_package_function_is_referenced():
    trees = {path: _tree(path) for path in PACKAGE}
    referenced = set().union(*map(_referenced, trees.values()))
    unreferenced = [f"{path.stem}.{node.name}" for path, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__") and node.name not in referenced]
    assert not unreferenced, f"private functions nothing references: {unreferenced}"
