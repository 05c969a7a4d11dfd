"""Start-up cost of the CLI: ``import spanauto.cli`` loads no heavy standard modules.

A ``spanauto`` run is mostly interpreter start-up and this import, so the
import stays clear of ``dataclasses`` and of ``inspect``, which it would
pull in with ``ast``, ``dis`` and ``tokenize``.  The check runs in a fresh
interpreter without ``site``, so nothing but the import itself loads them.
It asserts no timing.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import spanauto.cli; "
            "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
