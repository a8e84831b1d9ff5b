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


# Each module imports only modules to its left, so the package has no cycle.
LAYERS = ["errors", "measures", "costs", "solver", "labeler", "dataset_io", "gridworld", "cli"]


def package_imports(source: str) -> set[str]:
    """Modules of the package that source imports, by relative or absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"otreward.{module}".rstrip(".")
            # "from . import x" and "from otreward import x" may name a module.
            paths = [module, *(f"{module}.{a.name}" for a in node.names)]
        else:
            continue
        names.update(p.split(".")[1] for p in paths if p.startswith("otreward."))
    return names


def test_package_imports_finds_relative_and_absolute_imports():
    source = ("from . import errors\nfrom .measures import x\nimport os\n"
              "import otreward.costs\nfrom otreward import solver\ndef f():\n"
              "    from .cli import main\n")
    assert package_imports(source) == {"errors", "measures", "costs", "solver", "cli"}


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_earlier_layers(path):
    earlier = LAYERS[:LAYERS.index(path.stem)]
    assert sorted(package_imports(path.read_text(encoding="utf-8")) - set(earlier)) == []


def test_every_export_resolves():
    assert [name for name in otreward.__all__ if not hasattr(otreward, name)] == []
