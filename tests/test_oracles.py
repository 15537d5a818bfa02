"""The brute-force references live in one module and share no code with the engines they check.

`resoplus.oracles` may import only `f2`, `_bits`, numpy, the standard
library and the data the engines share; no other library module defines a
reference; and with every engine patched to raise, every reference still
returns its answer.
"""
import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import resoplus
from resoplus import blocks, dtfooling, gadget, oracles
from resoplus.blocks import BlockLayout
from resoplus.cnf import Cnf
from resoplus.f2 import FVec, full_space, space_from_pairs
from resoplus.gadget import LiftedDistribution, ip_gadget
from resoplus.resproof import pdt_refute
from resoplus.tseitin import cycle_graph

SRC = Path(resoplus.__file__).parent

# module -> the names oracles.py may import from it (None: any)
SHARED = {
    "f2": None,
    "_bits": None,
    "blocks": {"BlockLayout"},
    "gadget": {"Gadget", "Spectrum", "LiftedDistribution", "lift_eval"},
    "tseitin": {"Graph"},
    "cnf": {"Cnf"},
    "resproof": {"ProofDag", "LEAF", "WEAK", "QRY"},
}

REFERENCES = {
    "blockset_lex_ge", "_coordinates", "_exchangeable", "_columns_by_block", "is_safe_bruteforce",
    "is_safe_span_bruteforce", "is_deviolator", "closure_bruteforce", "acceptable_sets_bruteforce",
    "amortized_closure_bruteforce", "fixed_blocks", "walsh_spectrum_direct", "rejection_sample_lifted",
    "_REJECTION_TRIES", "clause_negation_space", "all_inputs_trace_ok", "trace", "TraceResult", "_TRACE_WIDTH_CAP",
    "cube_counts", "tree_complete", "bfs_tree", "sample_point", "eval_bits", "eta_by_summation", "parseval_holds",
}

ENGINES = [
    (blocks, "ClosureTable"), (blocks, "closure"), (blocks, "is_safe"), (blocks, "amortized_closure"),
    (gadget, "counts_in_space"), (gadget, "count_in_space"), (gadget, "sample_in_space"),
    (gadget, "sample_lifted"), (gadget, "walsh_spectrum"), (dtfooling, "exact_root_distribution"),
    (dtfooling, "_bfs"), (dtfooling, "_adjacency"), (dtfooling, "_solve_tree_edges"),
]


def _foreign_imports(tree) -> list[str]:
    """What the module imports beyond numpy, the standard library and the shared data."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in sys.stdlib_module_names | {"numpy", "__future__"}:
                found.append(node.module)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                found += [a.name for a in node.names if SHARED.get(a.name, set()) is not None]
            elif node.module not in SHARED:
                found.append(node.module)
            elif SHARED[node.module] is not None:
                found += [f"{node.module}.{a.name}" for a in node.names if a.name not in SHARED[node.module]]
    return found


def test_oracles_import_only_the_shared_data():
    tree = ast.parse((SRC / "oracles.py").read_text())
    assert _foreign_imports(tree) == []


def test_a_planted_engine_import_is_caught():
    planted = ast.parse(
        "import itertools\nimport numpy as np\nimport networkx\n"
        "from . import f2, gadget\nfrom .blocks import BlockLayout, closure\nfrom .dtfooling import sample\n"
    )
    assert _foreign_imports(planted) == ["networkx", "gadget", "blocks.closure", "dtfooling"]


def _defined(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_references_are_defined_in_oracles_alone():
    for path in sorted(SRC.glob("*.py")):
        defined = _defined(ast.parse(path.read_text()))
        if path.name == "oracles.py":
            assert REFERENCES <= defined
        else:
            assert not defined & (REFERENCES | {"summation_form"}), path.name


class EngineCalled(Exception):
    pass


def _raise(*args, **kwargs):
    raise EngineCalled


@pytest.fixture
def engines_disabled(monkeypatch):
    """Every engine, under every name the library binds it to, raises EngineCalled."""
    for owner, name in ENGINES:
        engine = getattr(owner, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("resoplus"):
                for attr, value in list(vars(mod).items()):
                    if value is engine:
                        monkeypatch.setattr(mod, attr, _raise)


def test_references_return_with_the_engines_disabled(engines_disabled):
    lay = BlockLayout(3, 2)
    rows = [0b000011, 0b000001, 0b110000]  # two independent rows in block 0, one in block 2
    with pytest.raises(EngineCalled):
        blocks.is_safe(rows, lay)
    assert oracles.is_safe_bruteforce(rows, lay) is False
    assert oracles.is_safe_span_bruteforce(rows, lay) is False
    assert oracles.is_deviolator(rows, lay, {0}) and not oracles.is_deviolator(rows, lay, {2})
    assert oracles.closure_bruteforce(rows, lay) == {0}
    assert oracles.acceptable_sets_bruteforce(rows, lay) == [frozenset(), {0}, {2}, {0, 2}]
    assert oracles.amortized_closure_bruteforce(rows, lay) == {0, 2}
    assert oracles.blockset_lex_ge({2}, {0, 1})
    assert oracles._coordinates([0b01], [0b11]) == [(0b10, 1)] and oracles._exchangeable((0, 1), 0)
    assert oracles.fixed_blocks(space_from_pairs(6, [(0b01, 0), (0b10, 1), (0b1100, 1)]), lay) == {0}

    g = ip_gadget(2)
    spectrum = oracles.walsh_spectrum_direct(g)
    assert spectrum.numerators == (2, 2, 2, -2) and oracles.parseval_holds(spectrum)
    assert oracles.eta_by_summation(2, Fraction(1, 2)) == 3
    lay2 = BlockLayout(2, 2)
    assert oracles.cube_counts(lay2, g, FVec(2, 0b01), [full_space(4)]) == (3, [3])
    dist = LiftedDistribution(lay2, g, ((0b01, 1), (0b00, 2)))
    cond = space_from_pairs(4, [(0b0011, 1)])
    x = oracles.rejection_sample_lifted(dist, cond, random.Random(1))
    assert cond.contains(x.bits)
    assert full_space(3).contains(oracles.sample_point(full_space(3), random.Random(1)).bits)

    tri = cycle_graph(3)
    assert oracles.bfs_tree(tri, [0, 1, 2], 0) == ([0, 1, 2], {1: 0, 2: 2})
    assert oracles.tree_complete(tri, [0, 1, 2], [0, 1, 2], {1: 1, 2: 1}, 0, {1: 0}) == {0: 1, 1: 0, 2: 1}

    pair = Cnf(1, ((1,), (-1,)))
    dag = pdt_refute(pair)
    assert oracles.trace(dag, pair, 1).clause_index == 1 and oracles.all_inputs_trace_ok(dag, pair)
    assert oracles.eval_bits(Cnf(2, ((1, -2),)), 0b01) and not oracles.eval_bits(pair, 0)
    assert oracles.clause_negation_space(2, (1, -2)) == space_from_pairs(2, [(0b01, 0), (0b10, 1)])
