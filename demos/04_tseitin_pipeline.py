"""From a graph to an unsatisfiable CNF to its lifted version.

K5 with all-ones charge is contradictory because the per-vertex parities sum
to the odd vertex count.  Lifting substitutes the gadget into every clause;
unsatisfiability survives, as the exhaustive sweeps confirm.
"""
from resoplus import Cnf, brute_unsat, complete_graph, cycle_graph, expander_metrics, ip_gadget, lift_cnf, tseitin_cnf

k5 = complete_graph(5)
metrics = expander_metrics(k5)
print(f"K5: degree {metrics.degree}, lambda = {metrics.lambda_norm:.3f}, cheeger_ok = {metrics.cheeger_ok}")

t = tseitin_cnf(k5)
print(f"Tseitin CNF: {t.cnf.num_vars} variables, {len(t.cnf.clauses)} clauses"
      f" (2^(d-1) = 8 per vertex)")
print("unsatisfiable by 2^10 sweep:", brute_unsat(t))

tri = tseitin_cnf(cycle_graph(3)).cnf
lifted = lift_cnf(tri, ip_gadget(2))
print(f"\ntriangle lifted by IP(2): {lifted.num_vars} variables, {len(lifted.clauses)} clauses")
print("still unsatisfiable (2^6 sweep):", brute_unsat(lifted))

# DIMACS round trip: the library writes and reads text; the CLI opens the files.
text = t.cnf.to_dimacs()
print("\nDIMACS header:", text.splitlines()[0])
print("round-trips:", Cnf.from_dimacs(text) == t.cnf)

# A satisfiable variant: flip one vertex charge so the total is even.
charge = [1, 1, 1, 1, 0]
sat = tseitin_cnf(k5, charge=charge, contradiction=False)
print("\neven total charge is satisfiable:", not brute_unsat(sat))
