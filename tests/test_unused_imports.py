"""Every module of ``spanauto``, its tests and its demos reads each name it imports.

A stdlib ``ast`` walk: a name bound by an ``import`` in a module under
``src/spanauto/``, ``tests/`` or ``demos/`` must be read somewhere that
the name resolves to that import, as a name or as the root of an
attribute.  A read resolves to the closest enclosing scope that binds the
name (by import, assignment, parameter, ``def`` or ``class``), so a
module-level import is not used by a function that imports or assigns the
same name itself; a class body is no scope for the functions in it.
Annotations count, docstrings and comments do not.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is every
name a module lists in its ``__all__``.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKED = [REPO / "src" / "spanauto", REPO / "tests", REPO / "demos"]


class Scope:
    """One module, class or function body: the names it binds, those it imports, and which of them are read."""

    def __init__(self, parent, is_class=False):
        self.parent, self.is_class = parent, is_class
        self.bound: set[str] = set()
        self.declared: set[str] = set()  # ``global`` and ``nonlocal`` names: bound elsewhere
        self.imports: dict[str, int] = {}
        self.used: set[str] = set()

    def enclosing_function_scope(self):
        """The scope a function defined in this one sees next: a class body is skipped."""
        s = self
        while s.is_class:
            s = s.parent
        return s


class ScopeWalk(ast.NodeVisitor):
    """Every scope of a module, and every name read with the scope it is read in."""

    def __init__(self, tree: ast.Module):
        self.scope = Scope(None)
        self.scopes = [self.scope]
        self.reads: list[tuple[Scope, str]] = []
        self.visit(tree)

    def visit_Import(self, node):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            return
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.scope.bound.add(name)
            self.scope.imports.setdefault(name, node.lineno)

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.append((self.scope, node.id))
        else:
            self.scope.bound.add(node.id)

    def visit_Global(self, node):
        self.scope.declared.update(node.names)

    visit_Nonlocal = visit_Global

    def visit_ExceptHandler(self, node):
        if node.name:
            self.scope.bound.add(node.name)
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        self.scope.bound.add(node.name)
        for expr in node.decorator_list + node.bases + [k.value for k in node.keywords]:
            self.visit(expr)
        self.enter(Scope(self.scope, is_class=True), node.body)

    def visit_FunctionDef(self, node):
        self.scope.bound.add(node.name)
        for expr in node.decorator_list:
            self.visit(expr)
        self.function(node.args, node.returns, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.function(node.args, None, [node.body])

    def function(self, args: ast.arguments, returns, body: list) -> None:
        # defaults and annotations are read where the function is defined, the body in its own scope
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        outside = args.defaults + [d for d in args.kw_defaults if d] + [a.annotation for a in params if a.annotation]
        for expr in outside + ([returns] if returns else []):
            self.visit(expr)
        scope = Scope(self.scope.enclosing_function_scope())
        scope.bound.update(a.arg for a in params)
        self.enter(scope, body)

    def enter(self, scope: Scope, body: list) -> None:
        outer, self.scope = self.scope, scope
        self.scopes.append(scope)
        for node in body:
            self.visit(node)
        self.scope = outer


def unused_imports(text: str) -> list[tuple[int, str]]:
    """The ``(line, name)`` of each import binding that no read resolves to, by line."""
    tree = ast.parse(text)
    walk = ScopeWalk(tree)
    for scope, name in walk.reads:
        while scope is not None and (name not in scope.bound or name in scope.declared):
            scope = scope.parent
        if scope is not None:
            scope.used.add(name)
    module = walk.scopes[0]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            module.used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for s in walk.scopes for name, line in s.imports.items() if name not in s.used)


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
        "from m import main\n"
        "def g():\n"
        "    from m import main\n"
        "    return main\n"
    )
    assert unused_imports(text) == [(2, "os"), (3, "Maybe"), (8, "main")]


def test_a_read_counts_for_the_binding_it_resolves_to():
    text = (
        "import os, re, sys, json\n"
        "def f(os):\n"
        "    re = 1\n"
        "    return os, re\n"
        "class C:\n"
        "    sys = None\n"
        "    def m(self, d=json):\n"
        "        return sys\n"
    )
    assert unused_imports(text) == [(1, "os"), (1, "re")]
