"""Only the CLI opens files: every other module reads and writes text."""
import ast
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent
_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_the_cli_opens_files():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC) == Path("cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in _FILE_CALLS:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, "files opened outside cli.py: " + ", ".join(found)
