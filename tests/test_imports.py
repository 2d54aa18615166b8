"""Every import in the package is used, or is a name the benchmark's tracing wraps.

No linter ships with the project, so this walks each module's syntax tree.
A module may keep an unused import bound only when `bench/tracing.WRAPS`
wraps that name in that module; once a tracing change drops the wrap, the
import is dead and this test names it.  `__init__.py` is checked like the
other modules, so a re-export added back there fails as unused.  A module reads
a private attribute of another object only when it defines that attribute
itself, so no module depends on another's internals.  Every function, class
and method the package defines is named in code (not in a comment or a
docstring) somewhere in the package, its scripts, the benchmark or the
acceptance tests; a definition only unit tests reach is dead code.  One
function reads the environment, `simplicial.cell_limit`, so the cell limit
is one setting, read where each cap is checked; one function builds a
1-skeleton, `simplicial._skeleton`, so every graph test reads one graph;
one function raises `MatrixSizeError`, `simplicial.check_size`, so every cap
refusal has one message shape; and `davis.py` tables the cliques above each
type straight from the clique list, with no `face_poset` imported and no
`SimplicialComplex` built.  Every command is a fresh process, so
`import coxcert.cli` loads nothing that costs start-up time or memory
without use: no `dataclasses`, no `inspect`, and no `hashlib`, which loads
OpenSSL; the input digest comes from the interpreter's builtin SHA-256,
with `hashlib` only where that module is not built.
"""
import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from coxcert.cli import _digest_bytes

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402

MODULES = sorted((ROOT / "src" / "coxcert").glob("*.py"))


def unused_imports(source: str) -> set[str]:
    """Names a module binds by import (not from __future__) and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read


def test_unused_imports_are_only_traced_names():
    wrapped: dict[str, set[str]] = {}
    for module, attr, *_ in tracing.WRAPS:
        wrapped.setdefault(module, set()).add(attr.split(".")[0])
    assert MODULES
    dead = {
        path.name: sorted(unused_imports(path.read_text()) - wrapped.get(path.stem, set()))
        for path in MODULES
    }
    assert not {name: names for name, names in dead.items() if names}


def test_unread_import_finder_sees_through_aliases_and_attributes():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import b, c as d, e\n"
        "x: e = os.path.join(j.dumps(b))\n"
    )
    assert unused_imports(source) == {"d"}


def private_attributes(source: str) -> tuple[set[str], list[tuple[int, str]]]:
    """Single-underscore attributes a module defines, and those it reads off non-self objects.

    Defined: function, method and class names, attribute assignment targets,
    class-body names and `__slots__` entries.
    """
    tree = ast.parse(source)
    defined = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names = {stmt.target.id}
                else:
                    continue
                defined |= names
                if "__slots__" in names:
                    defined |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
        if isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            if isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif private and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                reads.append((node.lineno, node.attr))
    return defined, reads


def test_private_attributes_are_read_only_where_defined():
    assert MODULES
    foreign = []
    for path in MODULES:
        defined, reads = private_attributes(path.read_text())
        foreign += [f"{path.name}:{line}: .{attr}" for line, attr in reads if attr not in defined]
    assert foreign == []


# every definition must be reachable from these: the package, its scripts,
# the benchmark, and the acceptance criteria with their fixtures
REACHING = [
    *MODULES,
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
]


def definitions(source: str) -> list[tuple[str, int]]:
    """Function, class and method names with the line each is defined on; dunders skipped."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(source: str) -> list[tuple[str, int]]:
    """Identifiers a module names in code: names, attributes, imports, keywords and
    the identifiers inside string literals (the benchmark wraps names by string).
    Comments and docstrings name nothing."""
    tree = ast.parse(source)
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out += [(part, node.lineno) for part in node.name.split(".")]
        elif isinstance(node, ast.keyword) and node.arg is not None:
            out.append((node.arg, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out += [(word, node.lineno) for word in re.findall(r"\w+", node.value)]
    return out


def unreached_definitions() -> list[str]:
    named: dict[str, set[tuple[str, int]]] = {}
    for path in REACHING:
        for name, line in references(path.read_text()):
            named.setdefault(name, set()).add((path, line))
    unreached = []
    for path in MODULES:
        for name, line in definitions(path.read_text()):
            if not named.get(name, set()) - {(path, line)}:
                unreached.append(f"{path.name}:{line}: {name}")
    return unreached


def test_every_definition_is_reached():
    assert unreached_definitions() == []


def environment_readers(source: str) -> set[str]:
    """Innermost functions that read `environ` or `getenv` (as a name or an
    attribute, so `os.environ` and an imported `environ` both count);
    `<module>` for a read outside any function."""
    readers = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name in ("environ", "getenv"):
                readers.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else owner)

    visit(ast.parse(source), "<module>")
    return readers


def test_only_cell_limit_reads_the_environment():
    """The cell limit is one setting, read where each cap is checked through
    `simplicial.cell_limit`; no other function reads the environment."""
    readers = {
        f"{path.stem}.{name}" for path in MODULES for name in environment_readers(path.read_text())
    }
    assert readers == {"simplicial.cell_limit"}


def test_environment_reader_finder_names_the_innermost_function():
    source = (
        "import os\n"
        "from os import environ, getenv\n"
        "A = environ.get('A')\n"
        "def f():\n"
        "    def g():\n"
        "        return os.environ['B']\n"
        "    return g\n"
        "class C:\n"
        "    def h(self):\n"
        "        return getenv('C')\n"
        "    def k(self):\n"
        "        return os.path.join('environ')\n"
    )
    assert environment_readers(source) == {"<module>", "g", "h"}


def adjacency_callers(source: str) -> set[str]:
    """Innermost functions that call a method named `adjacency`;
    `<module>` for a call outside any function."""
    callers = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "adjacency"):
                callers.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_only_the_skeleton_calls_adjacency():
    """The 1-skeleton of a complex is built in one place,
    `simplicial._skeleton`, and handed to every graph test from there."""
    callers = {
        f"{path.stem}.{name}" for path in MODULES for name in adjacency_callers(path.read_text())
    }
    assert callers == {"simplicial._skeleton"}


def test_adjacency_caller_finder_names_the_innermost_function():
    source = (
        "A = k.adjacency()\n"
        "def f(k):\n"
        "    def g():\n"
        "        return k.adjacency()\n"
        "    return g, k.adjacency\n"
        "class C:\n"
        "    def h(self, k):\n"
        "        return [a for a in k.adjacency()]\n"
        "    def adjacency(self):\n"
        "        return adjacency()\n"
    )
    assert adjacency_callers(source) == {"<module>", "g", "h"}


def size_error_raisers(source: str) -> set[str]:
    """Innermost functions that raise `MatrixSizeError`, called or not, by
    name or as an attribute; `<module>` for a raise outside any function."""
    raisers = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "MatrixSizeError":
                    raisers.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else owner)

    visit(ast.parse(source), "<module>")
    return raisers


def test_only_check_size_raises_size_errors():
    """Every cap refusal comes from `simplicial.check_size`, with one
    message shape; no other function, script included, raises the error."""
    raisers = {
        f"{path.stem}.{name}"
        for path in MODULES + sorted((ROOT / "scripts").glob("*.py"))
        for name in size_error_raisers(path.read_text())
    }
    assert raisers == {"simplicial.check_size"}


def test_size_error_raiser_finder_names_the_innermost_function():
    source = (
        "raise MatrixSizeError\n"
        "def f(n):\n"
        "    def g():\n"
        "        raise simplicial.MatrixSizeError(f'{n} cells')\n"
        "    try:\n"
        "        g()\n"
        "    except MatrixSizeError:\n"
        "        raise\n"
        "    return MatrixSizeError\n"
        "class C:\n"
        "    def h(self):\n"
        "        raise MatrixSizeError('over') from None\n"
        "    def k(self):\n"
        "        raise ValueError('MatrixSizeError')\n"
    )
    assert size_error_raisers(source) == {"<module>", "g", "h"}


def face_poset_detours(source: str) -> list[str]:
    """Each import of `face_poset` and each call of `face_poset` or
    `SimplicialComplex`, by name or as an attribute, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name == "face_poset"]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("face_poset", "SimplicialComplex"):
                found.append(f"{node.lineno}: call {name}")
    return found


def test_davis_tables_cliques_without_a_face_poset():
    """The cliques above each type of a Davis ball come from one table,
    `DavisBall._above`, built straight from the clique list: `davis.py`
    imports no `face_poset` and builds no `SimplicialComplex` (its order
    complexes come from `subdivide.order_complex`)."""
    assert face_poset_detours((ROOT / "src" / "coxcert" / "davis.py").read_text()) == []


def test_face_poset_detour_finder_sees_imports_and_calls():
    source = (
        "from .subdivide import face_poset as fp, order_complex\n"
        "from .simplicial import SimplicialComplex\n"
        "import coxcert.subdivide as sd\n"
        "def f(k: SimplicialComplex):\n"
        "    return fp(k), sd.face_poset(k), simplicial.SimplicialComplex([], [])\n"
        "x = SimplicialComplex\n"
    )
    assert face_poset_detours(source) == [
        "1: import face_poset", "5: call face_poset", "5: call SimplicialComplex"
    ]


def run_bare(probe: str) -> str:
    """Standard output of `probe` in a fresh interpreter without `site`, so
    no site hook loads a module, with the package's `src` on the path."""
    return subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout


def test_cli_import_loads_no_hashlib_dataclasses_or_inspect():
    loaded = set(run_bare("import sys, coxcert.cli\nprint('\\n'.join(sys.modules))").split())
    assert "coxcert.cli" in loaded
    assert not {"hashlib", "_hashlib", "dataclasses", "inspect"} & loaded


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=300))
def test_digest_is_sha256(data):
    assert _digest_bytes(data) == hashlib.sha256(data).hexdigest()


def test_digest_falls_back_to_hashlib_without_builtin_sha256():
    # a None entry in sys.modules makes its import raise ImportError
    probe = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from coxcert.cli import _digest_bytes\n"
        "print(_digest_bytes(b'coxcert'), 'hashlib' in sys.modules)\n"
    )
    assert run_bare(probe).split() == [hashlib.sha256(b"coxcert").hexdigest(), "True"]
