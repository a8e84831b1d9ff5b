"""Every name a module of the package imports or keeps private is used in it,
and no module imports scipy.

No linter ships with the project, so this walks each module's syntax tree.
__init__.py is left out of the usage checks: its imports are the package's
re-exports, and every name it exports must resolve.
"""

import ast
from pathlib import Path

import pytest

import otreward

MODULES = sorted(p for p in Path(otreward.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression in source reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = "import os.path\nimport json as j\nfrom a import b, c as d\nos.sep\nb()\n"
    assert unused_imports(source) == ["d", "j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """Top-level _names (functions, classes, assignments) that source never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_unread_private_names_finds_what_is_never_read():
    source = "def _a(): pass\n_B = 1\n_C: int = 2\nclass _D: pass\nE = 3\n_a()\nprint(_C)\n"
    assert unread_private_names(source) == ["_B", "_D"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def imported_packages(source: str) -> set[str]:
    """Top-level packages that source imports by absolute name, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_packages_finds_nested_imports():
    source = "import os.path\nfrom . import x\ndef f():\n    from scipy.stats import t\n"
    assert imported_packages(source) == {"os", "scipy"}


@pytest.mark.parametrize("path", sorted(Path(otreward.__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_scipy(path):
    # numpy is the only runtime dependency; scipy serves the tests alone.
    assert "scipy" not in imported_packages(path.read_text(encoding="utf-8"))


def test_every_export_resolves():
    assert [name for name in otreward.__all__ if not hasattr(otreward, name)] == []
