"""Certifying checks must survive `python -O`, which strips assert statements."""
import ast
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, "assert statements in resoplus: " + ", ".join(found)
