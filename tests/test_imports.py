"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree.
__init__.py is left out: its imports are the package's re-exports.
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
