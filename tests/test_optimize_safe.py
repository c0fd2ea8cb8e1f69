"""The library keeps its invariants under ``python -O``: an assert statement
is removed there, so every check in src/condclt raises instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "condclt"


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
