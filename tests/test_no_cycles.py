"""Certificates must leave no cyclic garbage: what a caller drops is freed by
reference counting, not held until the next full garbage collection."""
import gc
import weakref

import pytest

from resoplus.blocks import BlockLayout
from resoplus.dtfooling import exact_root_distribution
from resoplus.f2 import space_from_pairs
from resoplus.gadget import ip_gadget
from resoplus.pdt import exact_lifted_root_law
from resoplus.resproof import ProofNode, check, pdt_refute
from resoplus.tseitin import EdgePartialAssignment, complete_graph, random_regular_graph, tseitin_cnf

K5_CNF = tseitin_cnf(complete_graph(5)).cnf


def _proof_nodes() -> int:
    return sum(isinstance(obj, ProofNode) for obj in gc.get_objects())


def test_dropped_refutation_is_freed_by_refcount():
    gc.collect()
    gc.disable()
    try:
        before = _proof_nodes()
        dag = pdt_refute(K5_CNF)
        ref = weakref.ref(dag)
        assert _proof_nodes() == before + len(dag.nodes)
        del dag
        assert ref() is None
        assert _proof_nodes() == before
    finally:
        gc.enable()


def _cases():
    g7 = random_regular_graph(7, 4, 7)
    layout = BlockLayout(g7.num_edges, 2)
    k5 = EdgePartialAssignment.empty(complete_graph(5))
    return {
        "pdt_refute": lambda: pdt_refute(K5_CNF),
        "check": lambda: check(pdt_refute(K5_CNF), K5_CNF),
        "exact_root_distribution": lambda: exact_root_distribution(k5, {0: 1, 3: 0}),
        "exact_lifted_root_law": lambda: exact_lifted_root_law(
            layout, ip_gadget(2), EdgePartialAssignment.empty(g7), space_from_pairs(layout.width, [(0b1011 << 3, 1)])
        ),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_certificates_leave_no_cyclic_garbage(name):
    run = _cases()[name]
    run()  # fill lazy caches first: they are kept, not garbage
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
