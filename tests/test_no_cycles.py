"""Certificates must leave no cyclic garbage: what a caller drops is freed by
reference counting, not held until the next full garbage collection."""
import gc
import weakref

import pytest

import random
from fractions import Fraction

from resoplus.blocks import BlockLayout, ClosureAssignment
from resoplus.dtfooling import exact_root_distribution, sample
from resoplus.f2 import full_space, space_from_pairs
from resoplus.gadget import ip_gadget, sample_lifted
from resoplus.pdt import block_complete, coin_game, exact_lifted_root_law, lifted_dtfooling_distribution, random_linear_tree
from resoplus.resproof import ProofDag, ProofNode, check, pdt_refute
from resoplus.tseitin import EdgePartialAssignment, complete_graph, cycle_graph, random_regular_graph, tseitin_cnf

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


def _lifted_games(trials: int = 20):
    """Block-complete random trees over the 5-cycle lifted by IP_2 and play each one."""
    c5 = EdgePartialAssignment.empty(cycle_graph(5))
    layout, g = BlockLayout(5, 2), ip_gadget(2)
    dist = lifted_dtfooling_distribution(layout, g, c5)
    y = ClosureAssignment.from_dict(layout, {})
    for i in range(trials):
        rng = random.Random(i)
        tprime = block_complete(random_linear_tree(layout.width, 6, rng), layout, full_space(layout.width), y)
        coin_game(tprime, layout, g, c5, lambda r: sample_lifted(dist, None, r), Fraction(1), rng)


def _shuffled_check():
    """Check a refutation listed out of id order, which the DFS orders."""
    dag = pdt_refute(K5_CNF)
    nodes = list(dag.nodes)
    nodes[1:] = reversed(nodes[1:])
    return check(ProofDag.build(dag.width, nodes), K5_CNF)


def _cases():
    g7 = random_regular_graph(7, 4, 7)
    layout = BlockLayout(g7.num_edges, 2)
    k5 = EdgePartialAssignment.empty(complete_graph(5))
    return {
        "block_complete+coin_game": _lifted_games,
        "pdt_refute": lambda: pdt_refute(K5_CNF),
        "check": lambda: check(pdt_refute(K5_CNF), K5_CNF),
        "check of a shuffled listing": _shuffled_check,
        "dtfooling.sample": lambda: [sample(EdgePartialAssignment.empty(g7), random.Random(i)) for i in range(5)],
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


def test_dropped_rho_and_graph_are_freed_by_refcount():
    # the sampler's adjacency lives in the rho's memo and refers to nothing that holds the rho
    gc.collect()
    gc.disable()
    try:
        graph = random_regular_graph(9, 4, 9)
        rho = EdgePartialAssignment.empty(graph)
        for seed in range(20):
            sample(rho, random.Random(seed))
        assert rho.memo
        refs = [weakref.ref(graph), weakref.ref(rho)]
        del graph, rho
        assert [ref() for ref in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lifted_support_is_kept_once_per_rho_and_freed_with_it():
    c5 = cycle_graph(5)
    g2, g4 = ip_gadget(2), ip_gadget(4)
    gc.collect()
    gc.disable()
    try:
        rho = EdgePartialAssignment.from_dict(c5, {0: 1})
        for layout, g in ((BlockLayout(5, 2), g2), (BlockLayout(5, 4), g4), (BlockLayout(5, 2), g2)):
            exact_lifted_root_law(layout, g, rho)
            assert len(rho.memo) == 1  # one support, for the layout of the last call
        ref = weakref.ref(rho)
        del rho
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
