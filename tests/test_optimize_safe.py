"""The library keeps its invariants under ``python -O``: an assert statement
and an ``if __debug__:`` block are removed there, so every check in
src/condclt raises instead and reads no ``__debug__``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "condclt"


def library_nodes():
    """(file:line, node) for every AST node of src/condclt."""
    return [(f"{path.name}:{getattr(node, 'lineno', 0)}", node)
            for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))]


def test_library_has_no_assert_statements():
    found = [where for where, node in library_nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_library_reads_no_debug_flag():
    found = [where for where, node in library_nodes()
             if isinstance(node, ast.Name) and node.id == "__debug__"]
    assert not found, f"__debug__ is False under python -O: {found}"
