"""Exact verification of the fooling bounds at the headline desk scale.

Two blocks of twelve bits, counted exactly by per-block syndrome counting
(a 2^24-point cube sweep gives the same integers).  The asymptotic slack of
the source bounds becomes the explicit budget eta = (1 + 2*maxcoeff)^n - 1,
here 65/1024, small enough that the conditional-fooling step constant
(1/2)(1+eta)/(1-eta) lands below 3/4 and the bounds have real teeth.
"""
import random
from fractions import Fraction

from resoplus import BlockLayout, ErrorBudget, FVec, check_conditional_fooling, check_exponential_sum, check_uniform_coset, counterexample_demo, ip_gadget
from resoplus.lemmalab import nested_pair_with_gap, random_safe_space
from resoplus.oracles import eta_by_summation

layout = BlockLayout(2, 12)
gadget = ip_gadget(12)
rng = random.Random(2024)

budget = ErrorBudget.for_gadget(gadget, 2)
print("eta =", budget.eta, "=", float(budget.eta))
assert budget.eta == eta_by_summation(budget.n, budget.maxcoeff)

print("\n-- point-count equidistribution on a random safe space --")
space = random_safe_space(layout, 2, rng)
rep = check_exponential_sum(space, layout, gadget, FVec(2, 0b10))
print(rep.to_text())

print("-- preimages spread across cosets --")
rep = check_uniform_coset(space, layout, gadget, FVec(2, 0b10))
print(rep.to_text())

print("-- conditional fooling, amortized gap 1 and 2 --")
for k, base in ((1, 1), (2, 0)):
    a, b_sp, y, z = nested_pair_with_gap(layout, gadget, k, base, rng)
    rep = check_conditional_fooling(b_sp, a, layout, gadget, y, z, k)
    print(rep.to_text())

print("-- why safety matters: the unsafe nesting with probability one --")
print(counterexample_demo(2, gadget).to_text())
