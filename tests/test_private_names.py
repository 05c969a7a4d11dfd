"""Every private function, class and method of ``spanauto`` is used somewhere in ``src/``.

A stdlib ``ast`` walk over ``src/spanauto/``: each module-level ``def`` or
``class`` whose name starts with ``_``, and each method whose name starts
with ``_`` and is no dunder, must be read somewhere in the package, as a
name or as an attribute.  A private helper that only tests call, or that
nothing calls any more, is dead code in ``src/``; its definition alone
does not count as a use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spanauto"


def private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """The ``(line, name)`` of each private module-level def or class and each private non-dunder method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name.startswith("_")
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    found.append((item.lineno, item.name))
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Every name read in a module, as a name or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unused_private_names(texts: dict[str, str]) -> list[str]:
    """``module:line: name`` for each private definition that no module of ``texts`` reads."""
    trees = {name: ast.parse(text) for name, text in texts.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{name}:{line}: {defined}" for name, tree in sorted(trees.items())
            for line, defined in private_definitions(tree) if defined not in read]


def test_every_private_definition_is_read():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert texts
    unused = unused_private_names(texts)
    assert not unused, "defined but never read in src/:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_definition():
    texts = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _dead():\n    '''_dead.'''\n    return _dead_too\n"
            "class _Kept:\n"
            "    def _step(self):\n        return self._other()\n"
            "    def _other(self):\n        return 0\n"
            "    def _orphan(self):\n        return 0\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b.py": "from a import _used, _Kept\nx = _used() + _Kept()._step()\n",
    }
    assert unused_private_names(texts) == ["a.py:3: _dead", "a.py:11: _orphan"]
