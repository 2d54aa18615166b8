"""Every import in the package is used, or is a name the benchmark's tracing wraps.

No linter ships with the project, so this walks each module's syntax tree.
A module may keep an unused import bound only when `bench/tracing.WRAPS`
wraps that name in that module; once a tracing change drops the wrap, the
import is dead and this test names it.  The package's `__all__` lists
exactly the names `__init__.py` imports, and each resolves.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402

MODULES = sorted(p for p in (ROOT / "src" / "coxcert").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


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


def test_package_exports_match_its_imports():
    import coxcert

    tree = ast.parse((ROOT / "src" / "coxcert" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in coxcert.__all__ if not hasattr(coxcert, name)] == []
    assert len(coxcert.__all__) == len(set(coxcert.__all__))
    assert set(coxcert.__all__) == imported
