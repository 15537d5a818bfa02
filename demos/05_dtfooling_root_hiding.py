"""The hard distribution over edge assignments and why the root stays hidden.

Each sample violates exactly one vertex constraint, the root, drawn uniformly
from the odd component.  Conditioned on any partial view of the edges, the
root's law remains exactly uniform on the current odd component: the
per-root counts match to the last integer.
"""
import random
from collections import Counter

from resoplus import EdgePartialAssignment, complete_graph, exact_root_distribution, root_of
from resoplus.dtfooling import sample

k5 = complete_graph(5)
rho = EdgePartialAssignment.empty(k5)
rng = random.Random(1)

counts = Counter()
for _ in range(5000):
    s = sample(rho, rng)
    assert root_of(k5, s.assignment.bits) == s.root
    counts[s.root] += 1
print("empirical root frequencies over 5000 samples:")
for v in sorted(counts):
    print(f"  vertex {v}: {counts[v]}")

print("\nexact unconditional law:")
rep = exact_root_distribution(rho)
for v, p in rep.law:
    print(f"  vertex {v}: {p}")

# Condition on three revealed edges; the law stays uniform on the odd
# component, with identical per-root counts.
condition = {0: 1, 4: 0, 7: 1}
rep = exact_root_distribution(rho, condition)
print(f"\nconditioned on edges {condition}:")
print("  odd component:", sorted(rep.odd_component))
print("  per-root completion counts:", rep.counts)
print("  law uniform:", rep.uniform_ok, " equal counts:", rep.equal_counts_ok)

# Isolate vertex 0 with an odd residue and the root is forced there.
inc0 = [k for k, _ in k5.incident(0)]
rep = exact_root_distribution(rho, dict.fromkeys(inc0, 0))
print("\nafter isolating vertex 0 with odd residue:")
print("  law:", [(v, str(p)) for v, p in rep.law])
