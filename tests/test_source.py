"""Source-level guards on the package itself."""

from __future__ import annotations

import ast
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
