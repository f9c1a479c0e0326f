"""Source-level guards on the package itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pertopt"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so runtime checks must raise
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 20 MB of memory and 0.3 s to start-up; the
    # RB fit runs the in-repo trust-region port instead
    code = (
        "import sys, pertopt; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
