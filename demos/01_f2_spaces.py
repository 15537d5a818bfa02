"""Affine subspaces of F2^n: building, intersecting, sampling, enumerating.

Everything downstream stands on this layer: points and linear forms are ints
used as bitsets, spaces normalize eagerly to reduced row-echelon form, and
the distinguished EMPTY value lets set algebra compose without exceptions.
"""
import random

from resoplus import enumerate_points, rank_of_rows, space_from_pairs
from resoplus.oracles import sample_point

# A 4-coordinate space cut out by two parity equations.
space = space_from_pairs(4, [(0b0011, 1), (0b0110, 0)])  # x0+x1 = 1 and x1+x2 = 0
print("space:")
print(space.to_text())
print("codim:", space.codim, " size:", space.size())

print("\nall members (deterministic order):")
for p in enumerate_points(space):
    print(" ", p)

# Intersecting with a redundant equation leaves the space untouched;
# an inconsistent one collapses it to EMPTY.
same = space.with_equation(0b0011, 1)
print("\nredundant intersect unchanged:", same == space)
gone = space.with_equation(0b0011, 0)
print("inconsistent intersect:", gone)

# Rank ignores presentation: shuffling rows or xoring one row into another
# never changes it.
rows = [0b011, 0b110, 0b101]
print("\nrank of three pairwise-xor rows:", rank_of_rows(rows), "(third row = xor of the first two)")

# Uniform sampling fills free coordinates at random and solves the pivots.
rng = random.Random(0)
counts = {}
for _ in range(8000):
    key = sample_point(space, rng).to_string()
    counts[key] = counts.get(key, 0) + 1
print("\nsampling frequencies over the 4 members:")
for k in sorted(counts):
    print(" ", k, counts[k])
