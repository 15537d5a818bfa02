"""Shared test utilities: proof corruption for mutation testing, and oracles."""
import random

from resoplus.f2 import EMPTY, enumerate_points, space_from_pairs
from resoplus.resproof import LEAF, QRY, CycleError, DanglingNodeError, ProofDag, ProofNode


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
