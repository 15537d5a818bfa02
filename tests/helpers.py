"""Shared test utilities: proof corruption for mutation testing, fixtures, and oracles."""
import random

from resoplus import pdt
from resoplus.f2 import EMPTY, enumerate_points, space_from_pairs
from resoplus.gadget import Gadget
from resoplus.resproof import LEAF, QRY, CycleError, DanglingNodeError, ProofDag, ProofNode


def random_space(width, n_rows, rng):
    """A random equation system of n_rows rows: the space it cuts, or EMPTY."""
    forms = [rng.getrandbits(width) for _ in range(n_rows)]
    rhs = rng.getrandbits(n_rows) if n_rows else 0
    return space_from_pairs(width, [(f, (rhs >> i) & 1) for i, f in enumerate(forms)])


def constant_gadget(b, bit):
    return Gadget(b, (bit,) * (1 << b))


def coordinate_tree(width, coords):
    """A tree querying the given coordinates in order; subtrees are shared."""
    node = pdt.Leaf()
    for c in reversed(coords):
        node = pdt.Query(1 << c, node, node)
    return pdt.Pdt(width, node)


def run_pdt(t, x):
    """The leaf the point x reaches, and the space of the inputs that answer the same way."""
    *_, last = pdt._walk(t, x)
    return last


class ScriptedStrategy(pdt.EdgeQueryStrategy):
    """Queries the scripted edges in order, skipping those already fixed."""

    name = "scripted"

    def __init__(self, edges):
        self.edges = list(edges)
        self._pos = 0

    def next_edge(self, analysis, graph, free, rng):
        while self._pos < len(self.edges):
            e = self.edges[self._pos]
            self._pos += 1
            if free >> e & 1:
                return e
        return None


def proof_mutation(dag, cnf, rng: random.Random):
    """One single-point corruption, or None when the draw was a semantic no-op.

    Kinds: flip one equation's right-hand bit, redirect a query child, or
    swap a leaf's clause label.  Label swaps are kept only when some point of
    the leaf space fails to falsify the new clause (checked by enumeration,
    independently of the checker under test).
    """
    nodes = list(dag.nodes)
    idx = rng.randrange(len(nodes))
    node = nodes[idx]
    kind = rng.choice(["rhs", "child", "label"])
    if kind == "rhs" and node.space is not EMPTY and node.space.rows:
        rows = list(node.space.rows)
        i = rng.randrange(len(rows))
        form, bit = rows[i]
        rows[i] = (form, bit ^ 1)
        new_space = space_from_pairs(dag.width, rows)
        if new_space == node.space:
            return None
        nodes[idx] = ProofNode(
            node.node_id, node.kind, new_space, clause=node.clause, child=node.child,
            form=node.form, child0=node.child0, child1=node.child1,
        )
        return nodes
    if kind == "child" and node.kind == QRY:
        which = rng.choice(["child0", "child1"])
        current = getattr(node, which)
        other = rng.choice([n.node_id for n in nodes])
        if other in (current, node.node_id):
            return None
        if dag.by_id[other].space == dag.by_id[current].space:
            return None
        kwargs = dict(form=node.form, child0=node.child0, child1=node.child1)
        kwargs[which] = other
        nodes[idx] = ProofNode(node.node_id, QRY, node.space, **kwargs)
        try:
            ProofDag.build(dag.width, nodes)
        except (CycleError, DanglingNodeError):
            return None
        return nodes
    if kind == "label" and node.kind == LEAF:
        other = rng.randrange(len(cnf.clauses))
        if other == node.clause:
            return None
        still_falsifies = all(
            cnf.clause_falsified_by(other, p.bits) for p in enumerate_points(node.space)
        )
        if still_falsifies:
            return None
        nodes[idx] = ProofNode(node.node_id, LEAF, node.space, clause=other)
        return nodes
    return None


def intersect_space(a, b):
    """The intersection of two spaces, from the rows of both: the containment oracle.

    inner lies in outer exactly when intersect_space(inner, outer) == inner.
    """
    if a is EMPTY or b is EMPTY:
        return EMPTY
    if a.width != b.width:
        raise ValueError("width mismatch")
    return space_from_pairs(a.width, a.rows + b.rows)


def greedy_cut_by_sets(analysis, graph, free, rng):
    """The set-based greedy-cut choice, `free` a set of edges: among the odd
    component's vertices with a free edge, the least (free-edge count, vertex),
    then that vertex's least free edge; the least free edge when none has one."""
    odd = analysis.odd_component
    if odd is None or not free:
        return None
    free_deg = {v: [] for v in odd}
    for k in free:
        u, w = graph.edges[k]
        if u in odd:
            free_deg[u].append(k)
        if w in odd:
            free_deg[w].append(k)
    candidates = [(len(es), v) for v, es in free_deg.items() if es]
    if not candidates:
        return min(free)
    _, target = min(candidates)
    return min(free_deg[target])


def random_edge_by_sets(analysis, graph, free, rng):
    """The set-based random-edge choice, `free` a set of edges: one `randrange` draw indexes the sorted edges."""
    if not free:
        return None
    return sorted(free)[rng.randrange(len(free))]
