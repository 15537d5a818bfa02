"""Safety, closure and amortized closure on a toy block layout.

Two blocks of two bits.  A set of equation forms is safe when any k
independent vectors in its span touch at least k distinct blocks; the
closure is the smallest set of blocks whose removal restores safety, and the
amortized closure is the lexicographically largest block set that supports
one independent column per block.
"""
from resoplus import BlockLayout, amortized_closure, closure, is_safe
from resoplus.oracles import amortized_closure_bruteforce, closure_bruteforce

lay = BlockLayout(n=2, b=2)
e = lambda i, j: 1 << lay.flat(i, j)

print("layout: 2 blocks x 2 bits\n")

safe_rows = [e(0, 0) ^ e(1, 1)]
print("one cross-block vector      safe:", is_safe(safe_rows, lay))

crowded = [e(0, 0), e(0, 1)]
print("two vectors in one block    safe:", is_safe(crowded, lay))

# The classic gap example: two unit vectors in block 0 plus one in block 1.
rows = [e(0, 0), e(0, 1), e(1, 0)]
cl = closure(rows, lay)
am, cert = amortized_closure(rows, lay)
print("\nrows: units (0,0), (0,1), (1,0)")
print("closure          :", sorted(cl), " (drop block 0 and the rest is safe)")
print("amortized closure:", sorted(am), " via columns", cert)
print("closure is strictly smaller:", len(cl), "<", len(am))

# Both implementations agree with the exhaustive references.
print("\nbrute-force closure agrees:   ", closure_bruteforce(rows, lay) == cl)
print("brute-force amortized agrees: ", amortized_closure_bruteforce(rows, lay) == am)

# Lexicographic order favors high block indices: a single vector touching
# blocks 3 and 5 has amortized closure {5}, not {3}.
lay6 = BlockLayout(n=6, b=1)
v = (1 << 3) | (1 << 5)
print("\nsingle vector on blocks {3,5}: amortized closure =", sorted(amortized_closure([v], lay6)[0]))
