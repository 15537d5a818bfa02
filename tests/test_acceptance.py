"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Probabilities are exact rationals; the only
statistical criterion is the Monte Carlo hardness game, gated on its Wilson
95% lower bound.
"""
import random
import time
from fractions import Fraction

import pytest

from helpers import proof_mutation
from resoplus.blocks import BlockLayout, closure
from resoplus.cnf import Cnf
from resoplus.dtfooling import exact_root_distribution
from resoplus.f2 import FVec, enumerate_points
from resoplus.gadget import ip_gadget, lift_cnf, walsh_spectrum
from resoplus.lemmalab import (
    check_conditional_fooling,
    check_exponential_sum,
    closure_law_suite,
    counterexample_demo,
    nested_pair_with_gap,
    random_safe_space,
)
from resoplus.pdt import GreedyCutStrategy, hardness_experiment
from resoplus.resproof import ProofDag, check, metrics, pdt_refute
from resoplus.resproof import LEAF, WEAK, ProofNode
from resoplus.f2 import full_space
from resoplus.tseitin import (
    EdgePartialAssignment,
    brute_unsat,
    complete_graph,
    cycle_graph,
    random_regular_graph,
    tseitin_cnf,
)


def _report(name: str, started: float, budget_s: float, detail: str) -> None:
    elapsed = time.time() - started
    print(f"PASS {name} ({elapsed:.1f}s / budget {budget_s:.0f}s): {detail}")
    assert elapsed < budget_s, f"{name} exceeded its time budget"


def test_criterion_1_ip_spectrum_exact():
    started = time.time()
    for b in (2, 4, 6, 8):
        spec = walsh_spectrum(ip_gadget(b))
        want = Fraction(1, 1 << (b // 2))
        for mask in range(1 << b):
            assert abs(Fraction(spec.numerators[mask], spec.denominator)) == want, (b, mask)
    _report("criterion-1 ip-spectrum", started, 5, "all PM_ONE coefficients exactly 2^-b/2 for b in {2,4,6,8}")


def test_criterion_2_equidistribution_eta_budget():
    started = time.time()
    layout = BlockLayout(2, 12)
    g = ip_gadget(12)
    rng = random.Random(20260801)
    failures = 0
    for i in range(50):
        codim = rng.randint(0, min(3, layout.n))
        space = random_safe_space(layout, codim, rng)
        z = FVec(2, rng.getrandbits(2))
        rep = check_exponential_sum(space, layout, g, z)
        failures += not rep.ok
    assert failures == 0
    _report("criterion-2 equidistribution", started, 300, "50 random safe spaces within the eta budget; 0 failures")


def test_criterion_3_conditional_fooling_and_counterexample():
    started = time.time()
    layout = BlockLayout(2, 12)
    g = ip_gadget(12)
    rng = random.Random(42)
    cases = []
    for i in range(12):
        concentrate = 0 if i % 3 == 2 else None
        base = 3 if concentrate is not None else rng.randint(0, 1)
        cases.append((1, base, concentrate))
    for _ in range(8):
        cases.append((2, 0, None))
    assert len(cases) == 20
    for k, base, concentrate in cases:
        a, b_sp, y, z = nested_pair_with_gap(layout, g, k, base, rng, concentrate)
        rep = check_conditional_fooling(b_sp, a, layout, g, y, z, k)
        assert rep.ok, rep.to_text()
        assert rep.probability <= Fraction(3, 4) ** k
    ce = counterexample_demo(2, g)
    assert ce.conditional_probability == 1
    assert ce.ok and not ce.a_is_safe
    _report(
        "criterion-3 conditional-fooling", started, 600,
        "20 nested pairs below (3/4)^k; counterexample probability exactly 1",
    )


def test_criterion_4_closure_laws():
    started = time.time()
    rep = closure_law_suite(1000, 314159)
    assert rep.ok, rep.to_text()
    _report("criterion-4 closure-laws", started, 120, "1000 randomized instances, all five laws, 0 failures")


def _sweep_root_hiding(graph, max_condition_edges=3):
    rho = EdgePartialAssignment.empty(graph)
    free = list(range(graph.num_edges))
    import itertools

    checked = inconsistent = 0
    for size in range(max_condition_edges + 1):
        for subset in itertools.combinations(free, size):
            for bits in range(1 << size):
                condition = {e: (bits >> i) & 1 for i, e in enumerate(subset)}
                try:
                    rep = exact_root_distribution(rho, condition)
                except Exception as exc:
                    from resoplus.dtfooling import InconsistentConditionError

                    assert isinstance(exc, InconsistentConditionError)
                    inconsistent += 1
                    continue
                assert rep.ok, (subset, bits)
                checked += 1
    return checked, inconsistent


def test_criterion_5_root_hiding():
    started = time.time()
    k5_checked, k5_bad = _sweep_root_hiding(complete_graph(5))
    g7 = random_regular_graph(7, 4, seed=7)
    g7_checked, g7_bad = _sweep_root_hiding(g7)
    _report(
        "criterion-5 root-hiding", started, 120,
        f"K5: {k5_checked} conditionings uniform ({k5_bad} inconsistent); "
        f"7-vertex 4-regular: {g7_checked} uniform ({g7_bad} inconsistent)",
    )


def _reference_dimacs_parse(text: str):
    """Deliberately independent DIMACS reader used as the external check."""
    clauses = []
    header = None
    acc = []
    for line in text.split("\n"):
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            header = (int(tokens[2]), int(tokens[3]))
            continue
        for tok in tokens:
            value = int(tok)
            if value == 0:
                clauses.append(frozenset(acc))
                acc = []
            else:
                acc.append(value)
    return header, clauses


def test_criterion_6_tseitin_pipeline():
    started = time.time()
    k5 = tseitin_cnf(complete_graph(5))
    assert k5.cnf.num_vars == 10 and len(k5.cnf.clauses) == 40
    assert brute_unsat(k5)
    tri = tseitin_cnf(cycle_graph(3)).cnf
    lifted = lift_cnf(tri, ip_gadget(2))
    # three base variables at two bits per block
    assert lifted.num_vars == 6
    assert brute_unsat(lifted)
    header, clauses = _reference_dimacs_parse(k5.cnf.to_dimacs())
    assert header == (10, 40)
    assert clauses == [frozenset(c) for c in k5.cnf.clauses]
    _report(
        "criterion-6 tseitin-pipeline", started, 60,
        "K5 10 vars/40 clauses unsat; lifted triangle (6 vars) unsat; DIMACS round-trips",
    )


def test_criterion_7_proof_checker():
    started = time.time()
    corpus = [
        Cnf(1, ((1,), (-1,))),
        Cnf(2, ((1,), (-1, 2), (-2,))),
        Cnf(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))),
        Cnf(3, ((1, 2, 3), (1, 2, -3), (1, -2), (-1,))),
        tseitin_cnf(cycle_graph(3)).cnf,
        tseitin_cnf(cycle_graph(5)).cnf,
        tseitin_cnf(cycle_graph(7)).cnf,
        tseitin_cnf(complete_graph(5)).cnf,
        lift_cnf(tseitin_cnf(cycle_graph(3)).cnf, ip_gadget(2)),
        lift_cnf(Cnf(1, ((1,), (-1,))), ip_gadget(2)),
    ]
    assert len(corpus) == 10
    dags = []
    for cnf in corpus:
        assert brute_unsat(cnf)
        dag = pdt_refute(cnf)
        assert check(dag, cnf).ok
        dags.append((cnf, dag))
    # 100 genuine single-point corruptions, all rejected
    rng = random.Random(271828)
    rejected = 0
    small = [(c, d) for c, d in dags if c.num_vars <= 6]
    while rejected < 100:
        cnf, dag = small[rng.randrange(len(small))]
        mutated = proof_mutation(dag, cnf, rng)
        if mutated is None:
            continue
        assert not check(ProofDag.build(dag.width, mutated), cnf).ok
        rejected += 1
    # weakening chain contributes no depth
    chain = [ProofNode(i, WEAK, full_space(1), child=i + 1) for i in range(5)]
    chain.append(ProofNode(5, LEAF, full_space(1), clause=0))
    dag = ProofDag.build(1, chain)
    assert check(dag, Cnf(1, ((),))).ok
    assert metrics(dag) == (6, 0)
    _report(
        "criterion-7 proof-checker", started, 120,
        "10 refutations check OK; 100 mutations rejected; weakening chain depth 0",
    )


def test_criterion_8_hardness_game():
    started = time.time()
    graph = random_regular_graph(51, 6, seed=2026)
    assert graph.num_edges == 153
    q = graph.num_edges // 20
    report = hardness_experiment(
        graph, q=q, trials=10_000, seed=8128, strategies={"greedy-cut": GreedyCutStrategy}
    )
    summary = report.summaries[0]
    assert all(row.identity_ok for row in report.rows)
    assert summary.wilson_low >= Fraction(1, 3), summary
    _report(
        "criterion-8 hardness-game", started, 600,
        f"q={q}, 10^4 trials, success {summary.successes}/10000, "
        f"Wilson low {summary.wilson_low:.4f} >= 1/3; all coin identities hold",
    )
