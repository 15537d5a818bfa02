"""No library helper that only tests call: every public name has a caller outside tests and demos.

A public module-level def or class of src/resoplus, or a public method of
such a class, must be named by library code (a call, an attribute, an
import), including `oracles.py`, or by the benchmark in perfbench/.  The
definitions in `oracles.py` are the tests' references and are not gated.
Re-exports in `__init__.py` do not count as callers: the package namespace
calls nothing.  A helper that only tests or demos use belongs in
tests/helpers.py, or inline.  EXEMPT lists each public name kept without
such a caller, with its reason.
"""
import ast
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent
BENCH = SRC.parent.parent / "perfbench"

EXEMPT = {
    "gadget.parity_gadget": "the XOR gadget that ROADMAP item 13 lifts by",
}


def _named(tree) -> set[str]:
    """Every identifier the code names: variables, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _public_defs(module: str, tree) -> list[tuple[str, str]]:
    """('module.qualname', name) of each public module-level def or class and each public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{sub.name}", sub.name))
    return out


def _uncalled(defs: dict[str, ast.Module], callers: set[str]) -> list[str]:
    found = []
    for module, tree in defs.items():
        found += [qual for qual, name in _public_defs(module, tree) if name not in callers]
    return sorted(found)


def test_every_public_name_has_a_caller_outside_tests():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    callers = set()
    for module, tree in trees.items():
        if module != "__init__":
            callers |= _named(tree)
    for path in sorted(BENCH.rglob("*.py")):
        callers |= _named(ast.parse(path.read_text(), filename=str(path)))
    gated = {module: tree for module, tree in trees.items() if module not in ("__init__", "oracles")}
    uncalled = _uncalled(gated, callers)
    assert uncalled == sorted(EXEMPT), "public names that only tests or demos call: " + ", ".join(
        sorted(set(uncalled) - EXEMPT.keys())
    )


def test_a_planted_test_only_helper_is_caught():
    planted = ast.parse(
        "def used(x):\n    return x\n\n"
        "def only_tests(x):\n    return used(x)\n\n"
        "class Box:\n    def size(self):\n        return 0\n    def _private(self):\n        return 1\n"
    )
    callers = _named(ast.parse("from lib import used, Box\nBox().size()\n"))
    assert _uncalled({"lib": planted}, callers) == ["lib.only_tests"]
