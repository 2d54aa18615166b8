"""Every import in the package is used, or is a name the benchmark's tracing wraps.

No linter ships with the project, so this walks each module's syntax tree.
A module may keep an unused import bound only when `bench/tracing.WRAPS`
wraps that name in that module; once a tracing change drops the wrap, the
import is dead and this test names it.
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
