"""Every demo runs to completion against this checkout's sources with no
traceback on stderr, and imports only names the package exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maldoc

ROOT = Path(__file__).resolve().parent.parent

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


# 05 runs the full experiment, in about 3 s
@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    # the warnings pyproject.toml makes errors in-process are errors in the demo too
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS="error::DeprecationWarning,error::ResourceWarning,error::FutureWarning")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("name", DEMOS)
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
