"""The coin game and the decision-tree hardness experiment.

A tree querying an expander's Tseitin sample pays coins whenever it shrinks
the odd component while the hidden root stays in the large part; it wins only
when the root falls out.  Because the root is uniform on the odd component,
wins are rare and the revealed assignment usually remains valid.
"""
import random
from fractions import Fraction

from resoplus import EdgePartialAssignment, complete_graph, hardness_experiment, random_regular_graph
from resoplus.dtfooling import sample
from resoplus.pdt import GreedyCutStrategy, run_unlifted_game

# One transcript in detail: the greedy-cut adversary carves a corner off K5.
k5 = complete_graph(5)
rho = EdgePartialAssignment.empty(k5)
rng = random.Random(3)
drawn = sample(rho, rng)
transcript, final = run_unlifted_game(rho, GreedyCutStrategy(), drawn.assignment, q=4, budget=Fraction(2), rng=rng)
print("root was vertex", transcript.root)
for step in transcript.steps:
    print(f"  revealed {step.revealed}: odd {step.odd_before} -> {step.odd_after},"
          f" paid {step.paid}, won={step.won}")
print("outcome:", transcript.outcome, " accounting identity holds:", transcript.identity_holds())

# The Monte Carlo harness on a 21-vertex 4-regular expander.
g = random_regular_graph(21, 4, seed=11)
report = hardness_experiment(g, q=g.num_edges // 20, trials=2000, seed=17)
print()
print(report.to_text())
print("With q far below the isoperimetric scale, the revealed partial")
print("assignment stays valid with probability well above one third.")
