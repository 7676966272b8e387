"""Rules about the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lcmlat"


def test_no_assert_statements():
    # python -O strips assert statements; every check must raise explicitly
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}
