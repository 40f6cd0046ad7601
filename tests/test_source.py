"""Checks on the package source itself."""

import ast
from pathlib import Path

import shi_ish

SOURCE = Path(shi_ish.__file__).parent


def test_no_assert_statements_in_the_package():
    """Invariant checks must survive ``python -O``, which strips ``assert``;
    the package raises ``AssertionError`` explicitly instead.  Doctests are
    strings, so they are not counted."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found
