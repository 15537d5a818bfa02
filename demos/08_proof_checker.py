"""Generating, checking, tracing and corrupting Res(+) refutations.

Refutations are affine DAGs: every node carries its own space, query nodes
split it along a linear form, and leaves must falsify their clause on the
whole space.  The generator produces tree-like refutations by coordinate
querying; the checker verifies all four conditions semantically.
"""
import random

from resoplus import Cnf, check, complete_graph, cycle_graph, metrics, pdt_refute, tseitin_cnf
from resoplus.oracles import trace
from resoplus.resproof import LEAF, ProofDag, ProofNode, parse_text, to_text

tri = tseitin_cnf(cycle_graph(3)).cnf
dag = pdt_refute(tri)
print("triangle Tseitin refutation: size, depth =", metrics(dag))
print("checker verdict:", check(dag, tri))

# Trace an input to the clause it falsifies.
for bits in (0b000, 0b101):
    t = trace(dag, tri, bits)
    print(f"input {bits:03b} falsifies clause {t.clause_index} after {t.path_length} queries")

# The proof file format stores explicit equations per node.
text = to_text(dag)
print("\nfirst lines of the proof file:")
for line in text.splitlines()[:6]:
    print("  ", line)
print("round-trips through the parser:", check(parse_text(text), tri).ok)

# Single-point corruption never slips through.
nodes = list(dag.nodes)
for i, node in enumerate(nodes):
    if node.kind == LEAF:
        nodes[i] = ProofNode(node.node_id, LEAF, node.space, clause=(node.clause + 1) % len(tri.clauses))
        break
verdict = check(ProofDag.build(dag.width, nodes), tri)
print("\nafter swapping one leaf label:", verdict)

# K5 at full size still checks quickly.
k5 = tseitin_cnf(complete_graph(5)).cnf
dag5 = pdt_refute(k5)
print("\nK5 refutation: size, depth =", metrics(dag5), "->", check(dag5, k5))
