"""`f2` is the one module that adds an equation to an affine space: no other calls `AffineSpace._insert`."""
import ast
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent


def test_only_f2_calls_the_private_insert():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC) == Path("f2.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_insert":
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, "AffineSpace._insert called outside f2: " + ", ".join(found)
