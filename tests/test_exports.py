"""The public names of ``spanauto`` are the ones its modules list, and each of them exists.

Two checks: every name in a module's ``__all__`` is an attribute of that
module, so a public name cannot be deleted while its entry stays; and
every name that ``spanauto/__init__.py`` imports from a module is in that
module's ``__all__``, so the package re-exports only public names.
"""

import ast
import importlib
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spanauto"


def unresolved_exports(module) -> list[str]:
    """Each name of ``module.__all__`` that the module does not define."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def unlisted_reexports(init_source: str, modules: dict) -> list[str]:
    """``module.name`` for each name a package ``__init__`` imports that its module does not list in ``__all__``."""
    found = []
    for node in ast.walk(ast.parse(init_source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = getattr(modules[node.module], "__all__", ())
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in listed]
    return found


def public_modules() -> dict:
    names = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("_"))
    return {name: importlib.import_module(f"spanauto.{name}") for name in names}


def test_every_listed_name_resolves():
    modules = {name: m for name, m in public_modules().items() if hasattr(m, "__all__")}
    assert {"spans", "automata", "determinize", "simulation", "io", "fixtures"} <= set(modules)
    for name, module in modules.items():
        assert unresolved_exports(module) == [], name


def test_package_imports_only_listed_names():
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert unlisted_reexports(init, public_modules()) == []


def test_the_checks_see_a_stale_entry_and_an_unlisted_import():
    stale = types.ModuleType("stale")
    stale.__all__ = ["kept", "gone"]
    stale.kept = 1
    assert unresolved_exports(stale) == ["gone"]
    source = "from .stale import kept, hidden\nfrom .stale import gone\nimport json\n"
    stale.hidden = 2
    assert unlisted_reexports(source, {"stale": stale}) == ["stale.hidden"]
