"""Every text parser reads its numbers through `_text.parse_int`: no parser calls the builtin `int`,
which also reads `+3`, `1_000` and non-ASCII digits."""
import ast
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent
PARSERS = {"from_text", "from_dimacs", "parse_text"}


def test_no_parser_calls_the_builtin_int():
    parsers, found = [], []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in PARSERS):
                continue
            parsers.append(f"{path.relative_to(SRC)}:{fn.name}")
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert len(parsers) == 6, parsers
    assert not found, "builtin int called in a parser: " + ", ".join(found)
