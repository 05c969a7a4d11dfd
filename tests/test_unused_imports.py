"""Every module of ``spanauto``, its tests and its demos reads each name it imports.

A stdlib ``ast`` walk: a name bound by an ``import`` in a module under
``src/spanauto/``, ``tests/`` or ``demos/`` must be read somewhere in
that module, as a name or as the root of an attribute; annotations
count, docstrings and comments do not.  ``__init__.py`` is exempt, since
its imports are the package's re-exports, and so is every name a module
lists in its ``__all__``.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKED = [REPO / "src" / "spanauto", REPO / "tests", REPO / "demos"]


def unused_imports(text: str) -> list[tuple[int, str]]:
    """The ``(line, name)`` of each imported name the module never reads, by line."""
    tree = ast.parse(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    modules = [p for d in CHECKED for p in sorted(d.glob("*.py")) if p.name != "__init__.py"]
    assert all(any(p.parent == d for p in modules) for d in CHECKED)
    found = [f"{p.relative_to(REPO)}:{line}: {name}"
             for p in modules for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "imported but never read:\n" + "\n".join(found)


def test_the_check_sees_an_unused_name():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterator, Mapping, Optional as Maybe\n"
        "__all__ = ['Iterator']\n"
        "def f(m: Mapping) -> int:\n"
        "    '''Maybe.'''\n"
        "    return 0\n"
    )
    assert unused_imports(text) == [(2, "os"), (3, "Maybe")]
