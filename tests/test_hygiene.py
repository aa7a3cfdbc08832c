"""Source hygiene: every library module, test module and demo uses each
name it imports, every library function reads each local it assigns, no
library module imports numpy when it is loaded, and the CLI and the package
load extend, properties, render and zoo only on first use, with every
public name of the package still its defining object, the text of every
InternalTheoremViolation message appears in some test, no library code
reads a public set function that checks its members, and the cache keys
listed in the core docstring are exactly the keys the library caches under.

`finsemi/__init__.py` is exempt from the import check, since its imports
are the public API.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
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
# extension is then associative by Clifford's theorem.  `__reduce__`
# rebuilds a pickled or copied semigroup from rows that were checked.
DERIVED_BUILDERS = {"_restrict", "_rees_quotient", "_quotient",
                    "direct_product", "adjoin_zero", "adjoin_identity",
                    "build_extension", "__reduce__"}


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


def imports_module(node, name):
    """Whether node is an import of module name or a submodule of it; a
    relative import names the module after its dots, so `from . import zoo`
    and `from .zoo import x` both import "zoo"."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module]
    elif isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
    else:
        return False
    return any(n == name or n.startswith(name + ".") for n in names)


def module_level_imports(source, name):
    """Lines of the imports of module name outside every function."""
    tree = ast.parse(source)
    inner = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if id(node) not in inner and imports_module(node, name)]


def importers(source, name):
    """Dotted names of the functions and classes (or "<module>") that hold
    an import of module name, each import counted for the innermost."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if imports_module(node, name):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(path):
    # the CLI loads numpy only above order 256, for a Light's test over more
    # than LIGHT_TUPLE_CELLS cells or a failing table's witness, or for
    # Semigroup.table, so no module may import it at load time
    source = path.read_text(encoding="utf-8")
    assert module_level_imports(source, "numpy") == []


def test_the_check_sees_a_module_level_numpy_import():
    source = ("import numpy as np\nfrom numpy import uint8\n"
              "import numpyro\nif True:\n    import numpy.linalg\n"
              "def f():\n    import numpy\n    return numpy\n")
    assert module_level_imports(source, "numpy") == [1, 2, 5]


def test_numpy_is_imported_only_by_the_scan_and_the_table():
    # core._failure is the one associativity scan, so a second numpy
    # kernel cannot come back unnoticed
    found = {(path.name, where) for path in SOURCES
             for where in importers(path.read_text(encoding="utf-8"), "numpy")}
    assert found == {("core.py", "_failure"), ("core.py", "Semigroup.table")}


def test_the_check_sees_every_numpy_importer():
    source = ("import numpy as np\nclass A:\n    from numpy import uint8\n"
              "    def f(self):\n        def g():\n"
              "            import numpy.linalg\n        import numpyro\n"
              "def h():\n    import json\n")
    assert importers(source, "numpy") == {"<module>", "A", "A.f.g"}


# The public set functions that check each member through `core._members`.
# A library caller already holds a member set, so it uses the unchecked
# private form (`_product_set`, `_is_ideal`, ...) and pays no second check.
CHECKED_SET_FUNCTIONS = {"product_set", "is_subsemigroup", "is_left_ideal",
                         "is_right_ideal", "is_ideal"}


def readers(source, names):
    """(dotted function or class, or "<module>", name) for each read of a
    name in names, bare or as an attribute, each counted for the
    innermost; a call is a read, and so is `f = mod.is_ideal`."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name in names:
            found.add((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_library_calls_no_checked_set_function(path):
    source = path.read_text(encoding="utf-8")
    assert readers(source, CHECKED_SET_FUNCTIONS) == set()


def test_the_check_sees_every_checked_set_call():
    source = ("from .core import is_ideal, _is_ideal\n"
              "def product_set(S, A, B):\n    return _product_set(S, A, B)\n"
              "class T:\n    def f(self, S):\n"
              "        test = core.is_subsemigroup\n"
              "        return test(S, {0}) and is_ideal(S, {0})\n"
              "x = [_is_ideal(S, A), core.is_left_ideal(S, A)]\n")
    assert readers(source, CHECKED_SET_FUNCTIONS) == {
        ("T.f", "is_subsemigroup"), ("T.f", "is_ideal"),
        ("<module>", "is_left_ideal")}


# Modules no analysis command runs: the CLI and the package load them on
# first use, so validate, analyze and decompose never compile them.
LAZY_MODULES = ("extend", "properties", "render", "zoo")


@pytest.mark.parametrize("name", ["cli.py", "__init__.py"])
def test_lazy_modules_are_imported_only_inside_functions(name):
    source = (Path(finsemi.__file__).parent / name).read_text(encoding="utf-8")
    assert {mod: module_level_imports(source, mod)
            for mod in LAZY_MODULES} == dict.fromkeys(LAZY_MODULES, [])


def test_the_check_sees_a_module_level_relative_import():
    source = ("from . import zoo, render\nfrom .zoo import monogenic\n"
              "from .zoology import x\nfrom . import zoology\n"
              "def f():\n    from . import zoo\n    return zoo\n")
    assert module_level_imports(source, "zoo") == [1, 2]


# Every public name of the package at the commit that made extend,
# properties, render and zoo lazy, less the aliases kje_partition (of
# rho_partition) and validate_partial_hom (of PartialHom) since removed.
PUBLIC_API = (
    "Classification CliffordDecomposition ComponentReport DecompositionReport "
    "ExtensionClassification ExtensionWitness GreenStructure PartialHom "
    "Partition Semigroup StratificationReport adjoin_identity adjoin_zero "
    "archimedean base_set build_extension canonical_phi classify "
    "classify_extension clifford_decompose closure congruence_witness core "
    "decompose depth direct_product enumerate_congruences errors extend "
    "format_phm format_sgt from_table green ideal_witness idempotents "
    "identity_partition interchangeable inverses is_clifford "
    "is_completely_simple is_conditionally_completely_regular is_congruence "
    "is_globally_idempotent is_grillet_stratified is_ideal is_left_ideal "
    "is_right_ideal is_subsemigroup is_weakly_reductive isomorphic k_class "
    "load_sgt maximal_subgroup monoid_completion pair_index "
    "parse_phm parse_sgt power_set product_set properties "
    "quotient_by_congruence recover_partial_hom rees_quotient "
    "regular_elements render restrict rho_partition save_sgt "
    "semilattice_witness stratify subsemigroup_witness universal_partition "
    "verify_rho weak_inverse_location weak_inverses zoo"
).split()


@pytest.mark.parametrize("name", PUBLIC_API)
def test_public_name_is_its_defining_object(name):
    obj = getattr(finsemi, name)
    if inspect.ismodule(obj):
        assert obj is sys.modules[f"finsemi.{name}"]
    else:
        # green and stratify are the functions, not their modules
        assert obj is getattr(sys.modules[obj.__module__], name)
        assert obj.__module__.startswith("finsemi.")


def test_public_names_are_listed():
    public = {n for n in dir(finsemi) if not n.startswith("_")}
    # finsemi.cli is bound here once something imports it
    assert public - {"cli"} == set(PUBLIC_API)
    with pytest.raises(AttributeError):
        finsemi.no_such_name


def test_removed_aliases_are_gone():
    from finsemi import decompose, extend
    for module, name in ((finsemi, "kje_partition"),
                         (finsemi, "validate_partial_hom"),
                         (decompose, "kje_partition"),
                         (decompose, "footprint"),
                         (extend, "validate_partial_hom"),
                         (extend, "green")):
        with pytest.raises(AttributeError):
            getattr(module, name)
    fields = dataclasses.fields(extend.ExtensionWitness)
    assert tuple(f.name for f in fields) == ("sigma", "ideal")


def test_lazy_names_import_in_a_fresh_interpreter():
    script = ("import sys\n"
              "from finsemi import zoo, build_extension\n"
              "import finsemi.extend as extend\n"
              "assert build_extension is extend.build_extension\n"
              "assert 'build_extension' not in vars(sys.modules['finsemi'])\n"
              "print(zoo.__name__, sorted(m for m in sys.modules\n"
              "      if m in ('finsemi.properties', 'finsemi.render')))\n")
    src = str(Path(finsemi.__file__).resolve().parent.parent)
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["finsemi.zoo", "[]"]


def theorem_messages(source):
    """The constant text of each `raise InternalTheoremViolation(...)`
    message: a string, the literal parts of an f-string, and both arms of
    an if-expression."""

    def texts(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, ast.JoinedStr):
            for part in node.values:
                yield from texts(part)
        elif isinstance(node, ast.IfExp):
            yield from texts(node.body)
            yield from texts(node.orelse)

    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "InternalTheoremViolation"):
            for arg in node.exc.args:
                found.extend(texts(arg))
    return found


# every test module but this one, whose snippet names messages of its own
TEST_TEXT = "".join(p.read_text(encoding="utf-8")
                    for p in sorted(REPO.glob("tests/*.py"))
                    if p.name != Path(__file__).name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_theorem_message_is_tested(path):
    messages = theorem_messages(path.read_text(encoding="utf-8"))
    assert [m for m in messages if m not in TEST_TEXT] == []


def test_the_check_sees_every_theorem_message():
    source = ("def f(S, w):\n"
              "    if w:\n"
              "        raise InternalTheoremViolation('plain')\n"
              "    raise InternalTheoremViolation(\n"
              "        f'witness {w} of {S}' if w[0] else 'the other arm')\n"
              "def g():\n    raise ValueError('not a theorem')\n")
    assert sorted(theorem_messages(source)) == [" of ", "plain",
                                                "the other arm", "witness "]


def cache_keys(source):
    """The key of each `_cached(S, key, ...)` call: the literal, the literal
    tag of a tuple key, or the source text of any other key."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name != "_cached":
            continue
        key = node.args[1]
        if isinstance(key, ast.Tuple) and key.elts:
            key = key.elts[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            found.add(key.value)
        else:
            found.add(ast.unparse(key))
    return found


def listed_cache_keys(source):
    """The quoted names in the bullet list after "The keys:" in the module
    docstring; the list ends at the first blank line."""
    doc = ast.get_docstring(ast.parse(source))
    listed = doc.split("The keys:", 1)[1].strip().split("\n\n", 1)[0]
    return set(re.findall(r'"(\w+)"', listed))


def test_every_cache_key_is_listed_and_used():
    used = set().union(*(cache_keys(p.read_text(encoding="utf-8"))
                         for p in SOURCES))
    core = (Path(finsemi.__file__).parent / "core.py").read_text(
        encoding="utf-8")
    assert used == listed_cache_keys(core)


def test_the_check_sees_every_cache_key():
    source = ('"""Doc.\n\nThe keys:\n\n- "a": one;\n- ("b", x), "c": two\n'
              '  and "d";\n\nNot a key: "e".\n"""\n'
              "def f(S):\n"
              "    return _cached(S, 'a', g) or core._cached(S, ('b', 1), g)\n"
              "h = lambda S, k: _cached(S, k, g)\n"
              "def _cached(S, key, compute):\n    return cached(S, 'x', g)\n")
    assert listed_cache_keys(source) == {"a", "b", "c", "d"}
    assert cache_keys(source) == {"a", "b", "k"}
