"""Each demo script runs to completion against the source tree and prints its golden bytes.

The golden of ``demos/<name>.py`` is ``tests/golden/demos/<name>.txt``: its
whole stdout, which does not depend on ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).parents[1]
DEMOS = sorted((REPO_DIR / "demos").glob("*.py"))
GOLDEN = REPO_DIR / "tests" / "golden" / "demos"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(REPO_DIR / "src")}
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
