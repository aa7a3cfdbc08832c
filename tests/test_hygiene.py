"""Source hygiene: every library module uses each name it imports, and
every function reads each local it assigns.

`finsemi/__init__.py` is exempt from the import check, since its imports
are the public API.
"""

import ast
from pathlib import Path

import pytest

import finsemi

SOURCES = sorted(Path(finsemi.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_locals(source):
    """Names a function assigns and never reads, as (line, name) pairs.

    A read anywhere in the function counts, nested functions included, and
    so does a global/nonlocal declaration or an augmented assignment.
    Names starting with "_" are deliberate throwaways.
    """
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Name)):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found.update((line, name) for name, line in stored.items()
                     if name not in read and not name.startswith("_"))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unread_local():
    source = ("def f(t, i):\n    ti, tj = t[i], t[i + 1]\n    n = 0\n"
              "    def g():\n        nonlocal n\n        n += 1\n"
              "    for _ in t:\n        g()\n    return tj\n")
    assert unread_locals(source) == [(2, "ti")]
