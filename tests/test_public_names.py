"""No library helper that only tests call: every public name has a caller outside tests and demos.

A public module-level def or class of src/resoplus, or a public method of
such a class, must be named by library code (a call, an attribute, an
import), including `oracles.py`, or by the benchmark in perfbench/; a
method only through an attribute, as it is called.  The definitions in
`oracles.py` are the tests' references and are not gated.  Re-exports in
`__init__.py` do not count as callers: the package namespace calls nothing.

A name does not tell apart the methods that several library classes define
under it (`to_text`, `ok`, `split`, ...): a caller of one class's method
would pass them all.  So CALLERS names, for each such method, the library
function that calls it on that class, as tests/test_options.py names the
caller of each option, and that function must name the method.

A helper that only tests or demos use belongs in tests/helpers.py, or
inline.  EXEMPT lists each public name kept without such a caller, with its
reason.
"""
import ast
from collections import defaultdict
from pathlib import Path

import resoplus

SRC = Path(resoplus.__file__).parent
BENCH = SRC.parent.parent / "perfbench"

CALLERS = {
    "blocks.ClosureAssignment.from_dict": "pdt.lifted_hardness_experiment",
    "blocks.ClosureTable.extend": "blocks.closure",
    "dtfooling.RootLawReport.ok": "cli.cmd_root_dist",
    "dtfooling.RootLawReport.to_csv": "cli.cmd_root_dist",
    "f2.AffineSpace.split": "resproof.pdt_refute",
    "f2.AffineSpace.with_equation": "f2.space_from_pairs",
    "gadget.Gadget.from_text": "cli._gadget_from_args",
    "gadget.Spectrum.to_csv": "cli.cmd_gadget_spectrum",
    "lemmalab.ClosureLawReport.ok": "cli.cmd_closure_laws",
    "lemmalab.ClosureLawReport.to_text": "cli.cmd_closure_laws",
    "lemmalab.CounterexampleReport.ok": "cli.cmd_counterexample",
    "lemmalab.CounterexampleReport.to_text": "cli.cmd_counterexample",
    "lemmalab.LemmaReport.ok": "cli._sampled_lemma",
    "lemmalab.LemmaReport.to_csv": "cli._sampled_lemma",
    "lemmalab.LemmaReport.to_text": "cli._sampled_lemma",
    "pdt.EdgeQueryStrategy.next_edge": "pdt.run_unlifted_game",
    "pdt.ExperimentReport.to_csv": "cli.cmd_hardness_experiment",
    "pdt.ExperimentReport.to_text": "cli.cmd_hardness_experiment",
    "pdt.GreedyCutStrategy.next_edge": "pdt.run_unlifted_game",
    "pdt.RandomEdgeStrategy.next_edge": "pdt.run_unlifted_game",
    "tseitin.EdgePartialAssignment.extend": "dtfooling.exact_root_distribution",
    "tseitin.EdgePartialAssignment.from_dict": "tseitin.EdgePartialAssignment.from_text",
    "tseitin.EdgePartialAssignment.from_text": "cli.cmd_root_dist",
    "tseitin.Graph.from_text": "cli._graph_from_args",
    "tseitin.Graph.to_text": "cli.cmd_gen_graph",
}

EXEMPT = {
    "gadget.parity_gadget": "the XOR gadget that ROADMAP item 13 lifts by",
    # a cut or a split may return EMPTY, and a user cuts that result again with no check
    "f2._EmptySpace.split": "EMPTY answers a split as a space does",
    "f2._EmptySpace.with_equation": "EMPTY answers a cut as a space does",
}


def _named(tree) -> tuple[set[str], set[str]]:
    """Every identifier the code names (variables, attributes and imported names), and its attributes alone."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names | attributes, attributes


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


def _is_method(qual: str) -> bool:
    return qual.count(".") == 2


def _uncalled(defs: dict[str, ast.Module], callers: tuple[set[str], set[str]]) -> list[str]:
    names, attributes = callers
    found = []
    for module, tree in defs.items():
        for qual, name in _public_defs(module, tree):
            if name not in (attributes if _is_method(qual) else names):
                found.append(qual)
    return sorted(found)


def _shared_methods(defs: dict[str, ast.Module]) -> dict[str, str]:
    """'module.Class.method' -> method, for each public method whose name another class also defines."""
    owners = defaultdict(list)
    for module, tree in defs.items():
        for qual, name in _public_defs(module, tree):
            if _is_method(qual):
                owners[name].append(qual)
    return {qual: name for name, quals in owners.items() if len(quals) > 1 for qual in quals}


def _calls(trees: dict[str, ast.Module], caller: str, method: str) -> bool:
    """Whether the function `module.qualname` exists and names `method` as an attribute."""
    module, *path = caller.split(".")
    node = trees.get(module)
    for part in path:
        node = next((n for n in getattr(node, "body", ()) if getattr(n, "name", None) == part), None)
    if not isinstance(node, ast.FunctionDef):
        return False
    return method in _named(node)[1]


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _gated(trees: dict[str, ast.Module]) -> dict[str, ast.Module]:
    return {module: tree for module, tree in trees.items() if module not in ("__init__", "oracles")}


def test_every_public_name_has_a_caller_outside_tests():
    trees = _trees()
    names, attributes = set(), set()
    code = [tree for module, tree in trees.items() if module != "__init__"]
    code += [ast.parse(path.read_text(), filename=str(path)) for path in sorted(BENCH.rglob("*.py"))]
    for tree in code:
        more_names, more_attributes = _named(tree)
        names |= more_names
        attributes |= more_attributes
    gated = _gated(trees)
    uncalled = set(_uncalled(gated, (names, attributes))) | (_shared_methods(gated).keys() - CALLERS.keys())
    assert not uncalled - EXEMPT.keys(), "public names that only tests or demos call: " + ", ".join(
        sorted(uncalled - EXEMPT.keys())
    )
    assert not EXEMPT.keys() - uncalled, "exempt names that have a caller: " + ", ".join(
        sorted(EXEMPT.keys() - uncalled)
    )


def test_each_shared_method_names_a_caller_that_calls_it():
    trees = _trees()
    shared = _shared_methods(_gated(trees))
    gone = sorted(CALLERS.keys() - shared.keys())
    assert not gone, "entries for methods that no longer exist or share their name: " + ", ".join(gone)
    wrong = sorted(f"{qual} ({caller})" for qual, caller in CALLERS.items() if not _calls(trees, caller, shared[qual]))
    assert not wrong, "callers that do not call their method: " + ", ".join(wrong)
    assert not CALLERS.keys() & EXEMPT.keys()


def test_a_planted_test_only_helper_is_caught():
    planted = ast.parse(
        "def used(x):\n    return x\n\n"
        "def only_tests(x):\n    return used(x)\n\n"
        "class Box:\n    def size(self):\n        return 0\n    def _private(self):\n        return 1\n"
        "    def shape(self):\n        return 2\n"
    )
    # `shape` is named only as a variable, which calls no method
    callers = _named(ast.parse("from lib import used, Box\nBox().size()\nshape = 3\n"))
    assert _uncalled({"lib": planted}, callers) == ["lib.Box.shape", "lib.only_tests"]


def test_a_planted_shared_method_needs_its_own_caller():
    planted = ast.parse(
        "class Graph:\n    def to_text(self):\n        return ''\n\n"
        "class Gadget:\n    def to_text(self):\n        return ''\n    def arity(self):\n        return 2\n\n"
        "def write(graph):\n    return graph.to_text()\n\n"
        "def measure(gadget):\n    return gadget.arity()\n"
    )
    # the name alone passes both `to_text`s; the per-class map asks for each one's caller
    shared = _shared_methods({"lib": planted})
    assert shared == {"lib.Graph.to_text": "to_text", "lib.Gadget.to_text": "to_text"}
    assert _calls({"lib": planted}, "lib.write", "to_text")
    assert not _calls({"lib": planted}, "lib.measure", "to_text")
    assert not _calls({"lib": planted}, "lib.missing", "to_text")
