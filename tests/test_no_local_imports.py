"""Imports belong at module level: a function-local import hides a dependency and costs a lookup per call."""
import ast
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent


def test_library_has_no_function_local_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, "function-local imports in resoplus: " + ", ".join(sorted(set(found)))
