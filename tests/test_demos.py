"""The quick demos run to completion against this checkout's sources, and
every demo imports only names the package exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maldoc

ROOT = Path(__file__).resolve().parent.parent

# 05 runs the full experiment (about 10 s) and stays out of this suite
QUICK_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(name):
    tree = ast.parse((ROOT / "demos" / name).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "maldoc"
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if not hasattr(maldoc, n)] == []
