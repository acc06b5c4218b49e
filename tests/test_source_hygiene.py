"""Source hygiene, checked with the standard library's `ast` (the project
installs no linter): every module-level import of a module in the package,
the tests or the scripts is used by that module, every private top-level
function of the package is referenced somewhere in the package, every
module-level UPPER_CASE constant of the package is read somewhere in the
package, no package function imports (a dependency, and a cycle between package
modules, shows in the module header), and every refusal class in
`errors.py` is raised somewhere in the package, and every built-in bundle
constructor gives its bundle the Laurent modes of its log (only
`custom_bundle` builds one without). A package `__init__.py` imports to
re-export, so its imports are exempt from the first check.

The README is held to the code it documents: its experiment block names
every script under `scripts/` and nothing else, and its list of exit codes
has a bullet for every code `cli.REFUSALS` returns, and for exit 0.
"""

import ast
import re
from pathlib import Path

import pytest

from schwarzbundles import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree):
    """Names the tree reads, as a name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def test_every_package_constant_is_read():
    # a constant that nothing reads is left over from deleted code, and its
    # comment documents a decision that no code makes
    trees = {path: _tree(path) for path in PACKAGE}
    referenced = set().union(*map(_referenced, trees.values()))
    constants = [(path, name.id) for path, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for name in ast.walk(target)
                 if isinstance(name, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id)]
    assert constants
    unread = [f"{path.stem}.{name}" for path, name in constants if name not in referenced]
    assert not unread, f"package constants nothing reads: {unread}"


def test_no_package_function_imports():
    local = sorted({f"{path.stem}.{node.name} (line {inner.lineno})"
                    for path in PACKAGE for node in ast.walk(_tree(path))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))})
    assert not local, f"imports inside package functions: {local}"


def test_every_refusal_class_is_raised_in_the_package():
    # a refusal class that nothing constructs documents a refusal that no
    # input can reach
    errors = next(path for path in PACKAGE if path.name == "errors.py")
    refusals = [node.name for node in _tree(errors).body if isinstance(node, ast.ClassDef)
                and any(isinstance(base, ast.Name) and base.id == "SchwarzBundleError"
                        for base in node.bases)]
    constructed = {node.func.id for path in PACKAGE if path != errors
                   for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert refusals
    unraised = sorted(set(refusals) - constructed)
    assert not unraised, f"refusal classes the package never raises: {unraised}"


def test_every_builtin_bundle_constructor_sets_the_modes():
    # a built-in bundle without modes would unwrap its transition on the
    # curve and on every ring, as only a custom bundle should
    built = {}
    for path in PACKAGE:
        for func in _tree(path).body:
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "LineBundle":
                    built[func.name] = {kw.arg for kw in node.keywords}
    assert set(built) == {"exp_schwarz_bundle", "schwarz_pole_bundle", "tangent_power_bundle",
                          "custom_bundle"}
    assert "modes" not in built.pop("custom_bundle")
    assert all("modes" in keywords for keywords in built.values()), built


def test_the_readme_experiment_block_names_every_script():
    block = README.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^python scripts/(\S+)", block, re.MULTILINE)
    scripts = sorted(path.name for path in (ROOT / "scripts").glob("*.py"))
    assert sorted(named) == scripts


def test_every_exit_code_has_a_readme_bullet():
    exit_codes = README.split("Exit codes:\n", 1)[1].split("\n\n", 1)[0]
    bullets = {int(code) for code in re.findall(r"^- (\d) ", exit_codes, re.MULTILINE)}
    assert bullets == {cli.EXIT_OK} | {code for _, code, _ in cli.REFUSALS}
