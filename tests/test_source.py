"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "anticyclo"


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so no check may rely on one.
    paths = sorted(SRC.glob("*.py"))
    assert paths, "package source not found"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
