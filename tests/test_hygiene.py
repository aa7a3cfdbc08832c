"""Source hygiene: every library module, test module and demo uses each
name it imports, every library function reads each local it assigns, and
no library module imports numpy when it is loaded.

`finsemi/__init__.py` is exempt from the import check, since its imports
are the public API.
"""

import ast
from pathlib import Path

import pytest

import finsemi

SOURCES = sorted(Path(finsemi.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(REPO.glob("tests/*.py")) + sorted(REPO.glob("demos/*.py"))


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
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


# The builders of tables associative by theorem: the only functions that
# may skip the associativity check through `Semigroup._derived`.
# build_extension validates its partial homomorphism first, and the
# extension is then associative by Clifford's theorem.
DERIVED_BUILDERS = {"_restrict", "_rees_quotient", "_quotient",
                    "direct_product", "adjoin_zero", "adjoin_identity",
                    "build_extension"}


def derived_users(source):
    """Names of the functions (or "<module>") that reference `_derived`,
    each reference counted for the innermost enclosing function."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        if ((isinstance(node, ast.Attribute) and node.attr == "_derived")
                or (isinstance(node, ast.Name) and node.id == "_derived")):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_derived_builders_skip_the_check(path):
    assert derived_users(path.read_text(encoding="utf-8")) <= DERIVED_BUILDERS


def test_every_derived_builder_is_seen():
    users = set()
    for path in SOURCES:
        users |= derived_users(path.read_text(encoding="utf-8"))
    assert users == DERIVED_BUILDERS


def test_the_check_sees_a_derived_call():
    source = ("def _restrict(S):\n    return Semigroup._derived(S)\n"
              "def g(rows):\n    make = Semigroup._derived\n"
              "    return [lambda: make(rows)]\n"
              "h = lambda r: _derived(r)\n")
    assert derived_users(source) == {"_restrict", "g", "<lambda>"}


def module_level_imports(source, name):
    """Lines of the imports of module name outside every function."""
    tree = ast.parse(source)
    inner = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in inner:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == name or n.startswith(name + ".") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(path):
    # the CLI loads numpy only for a table above order 256 or for
    # Semigroup.table, so no module may import it at load time
    source = path.read_text(encoding="utf-8")
    assert module_level_imports(source, "numpy") == []


def test_the_check_sees_a_module_level_numpy_import():
    source = ("import numpy as np\nfrom numpy import uint8\n"
              "import numpyro\nif True:\n    import numpy.linalg\n"
              "def f():\n    import numpy\n    return numpy\n")
    assert module_level_imports(source, "numpy") == [1, 2, 5]
