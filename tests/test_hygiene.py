"""Source hygiene: every library module uses each name it imports.

`finsemi/__init__.py` is exempt, since its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

import finsemi

MODULES = sorted(p for p in Path(finsemi.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom .core import a, b as c\n"
              "def f():\n    import json\n    return a + json.x\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]
