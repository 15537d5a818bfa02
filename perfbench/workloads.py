"""The four benchmark workloads.

Each workload builds every input from the seed in ``setup`` (library
predicates may filter candidates) and hands the library only the generated
inputs.  ``item(i)`` returns the zero-argument callable timed as item i.
Items are grouped in passes of ``pass_len``; a run stops only at a pass
boundary, so every run has the same mix of item kinds.  When ``repeats`` is
set, every pass replays pass 0's inputs and must reproduce its results, and
an input's time is its mean over the passes.  Otherwise every item is a
fresh input.

Library functions are always called through their module (``pdt.coin_game``,
not a name imported into this file), so the tracer's patches see every call.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from harness import derive, digest
from resoplus import blocks, dtfooling, f2, gadget, lemmalab, pdt, resproof, tseitin

# Results of the exact workloads at harness.DEFAULT_SEED; a mismatch fails the run.
EXPECTED_DIGESTS = {
    "lemma-b12": "88a628c78e911806",
    "tseitin-certify": "c317397e1428bf5e",
}

# Graphs from the library generator, pinned by the digest of their edge list
# so that a change to the generator cannot silently swap the input.
PINNED_GRAPHS = {
    (51, 6, 2026): "cc330b6ea41ee84b",
    (7, 4, 7): "2f931b05f646b9bf",
    (9, 4, 9): "6e70515549c8cf90",
}


def edge_digest(graph: tseitin.Graph) -> str:
    return hashlib.sha256(repr((graph.num_vertices, graph.edges)).encode()).hexdigest()[:16]


def pinned_regular_graph(vertices: int, degree: int, seed: int) -> tseitin.Graph:
    graph = tseitin.random_regular_graph(vertices, degree, seed=seed)
    want = PINNED_GRAPHS[(vertices, degree, seed)]
    got = edge_digest(graph)
    if got != want:
        raise RuntimeError(
            f"random_regular_graph({vertices}, {degree}, seed={seed}) changed: edge digest {got}, pinned {want}"
        )
    return graph


def frac(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


class Workload:
    name = ""
    pass_len = 1
    repeats = False
    declared: tuple[type, ...] = ()  # exceptions that are outcomes, not failures
    warm_index = -1  # a cheap item run once outside the timed loop
    reference = "python"  # the harness.REFERENCES work that gauges the host's speed

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def item(self, i: int):
        raise NotImplementedError

    def canon(self, i: int, result):
        """JSON-able exact form of an item's result, for digests and repeats."""
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        """Failure messages for one item's result (empty when it passes)."""
        return []

    def check_run(self, outcomes) -> list[str]:
        """Failure messages for checks over the whole run."""
        return []

    def input_of(self, i: int) -> int:
        """The input that item i runs: its index within a pass, or i itself."""
        return i % self.pass_len if self.repeats else i

    def warm_up(self) -> None:
        self.item(self.warm_index)()


# -- lemma-b12 ---------------------------------------------------------------


def _safe_space(layout, codim: int, rng: random.Random):
    while True:
        pairs = [(rng.getrandbits(layout.width), rng.getrandbits(1)) for _ in range(codim)]
        space = f2.space_from_pairs(layout.width, pairs)
        if space is not f2.EMPTY and space.codim == codim and blocks.is_safe(space.forms(), layout):
            return space


def _nested_pair(layout, g, k: int, base_codim: int, rng: random.Random, concentrate: int | None):
    """(A, B, y, z) with B inside A, amortized gap k, y on the closure of A."""
    while True:
        x0 = rng.getrandbits(layout.width)
        forms = [rng.getrandbits(layout.width) for _ in range(base_codim)]
        if concentrate is not None:
            forms = [f & layout.block_mask(concentrate) for f in forms]
        pairs_a = [(f, bin(f & x0).count("1") & 1) for f in forms]
        a = f2.space_from_pairs(layout.width, pairs_a)
        if a is f2.EMPTY or a.codim != base_codim:
            continue
        extra = [rng.getrandbits(layout.width) for _ in range(k)]
        b_sp = f2.space_from_pairs(layout.width, pairs_a + [(f, bin(f & x0).count("1") & 1) for f in extra])
        if b_sp is f2.EMPTY or b_sp.codim != base_codim + k:
            continue
        gap = len(blocks.amortized_closure(b_sp.forms(), layout)[0]) - len(
            blocks.amortized_closure(a.forms(), layout)[0]
        )
        if gap != k:
            continue
        y = blocks.ClosureAssignment.from_point(layout, blocks.closure(a.forms(), layout), x0)
        z = gadget.lift_eval(g, layout, f2.FVec(layout.width, x0))
        return a, b_sp, y, z


class LemmaB12(Workload):
    """Exact lemma checks at 2 blocks x 12 bits: every check sweeps 2^24 points."""

    name = "lemma-b12"
    repeats = True
    reference = "numpy"  # cube_counts' vectorised sweeps take ~95% of the time

    def setup(self, seed: int) -> None:
        self.layout = blocks.BlockLayout(2, 12)
        self.g = gadget.ip_gadget(12)
        rng = random.Random(derive(seed, self.name))
        cases = []
        # two draws of each case, so that a pass has more than 20 items
        for _ in range(2):
            for kind in ("exponential-sum", "uniform-coset"):
                for codim in (0, 1, 2):
                    z = f2.FVec(2, rng.getrandbits(2))
                    cases.append((kind, _safe_space(self.layout, codim, rng), z))
            # criterion 3's mix: k=1 on base codim 0-1, k=1 concentrated in block 0, k=2
            for k, base, concentrate in ((1, 0, None), (1, 1, None), (1, 3, 0), (2, 0, None)):
                pair = _nested_pair(self.layout, self.g, k, base, rng, concentrate)
                cases.append(("conditional-fooling", k, pair))
        cases.append(("counterexample",))
        self.cases = cases
        self.pass_len = len(cases)
        self.warm_index = 8  # the concentrated case sweeps only 2^12 points

    def item(self, i: int):
        case = self.cases[i % self.pass_len]
        kind = case[0]
        if kind == "exponential-sum":
            return lambda: lemmalab.check_exponential_sum(case[1], self.layout, self.g, case[2])
        if kind == "uniform-coset":
            return lambda: lemmalab.check_uniform_coset(case[1], self.layout, self.g, case[2])
        if kind == "conditional-fooling":
            k, (a, b_sp, y, z) = case[1], case[2]
            return lambda: lemmalab.check_conditional_fooling(b_sp, a, self.layout, self.g, y, z, k)
        return lambda: lemmalab.counterexample_demo(2, self.g)

    def canon(self, i: int, rep):
        if isinstance(rep, lemmalab.CounterexampleReport):
            return ["counterexample", frac(rep.conditional_probability), frac(rep.uniform_on_a_probability),
                    rep.codim_a, rep.codim_b, rep.a_is_safe]
        return [rep.lemma, frac(rep.probability), rep.verdict, [list(p) for p in rep.params]]

    def check(self, i: int, rep) -> list[str]:
        if isinstance(rep, lemmalab.CounterexampleReport):
            if rep.conditional_probability != 1 or not rep.ok or rep.a_is_safe:
                return [f"counterexample: probability {rep.conditional_probability}, ok={rep.ok}"]
            return []
        bad = []
        if rep.verdict != lemmalab.OK:
            bad.append(f"{rep.lemma} verdict {rep.verdict}")
        if rep.lemma == "conditional-fooling":
            k = self.cases[i % self.pass_len][1]
            if rep.probability > Fraction(3, 4) ** k:
                bad.append(f"conditional-fooling probability {rep.probability} above (3/4)^{k}")
        return bad


# -- hardness-51 -------------------------------------------------------------


class Hardness51(Workload):
    """Criterion 8's unlifted game on the 51-vertex 6-regular graph.

    An item is one trial; strategies alternate greedy-cut / random-edge.
    Each pass replays pass 0's trials, so each trial of a few milliseconds
    is timed dozens of times, all through the run.
    """

    name = "hardness-51"
    repeats = True
    pass_len = 200

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.graph = pinned_regular_graph(51, 6, 2026)
        self.rho = tseitin.EdgePartialAssignment.empty(self.graph)
        self.q = self.graph.num_edges // 20
        self.budget = Fraction(self.graph.num_vertices, 50 * self.graph.degree_if_regular())
        self.strategies = (pdt.GreedyCutStrategy, pdt.RandomEdgeStrategy)

    def item(self, i: int):
        t = self.input_of(i)
        trial_seed = derive(self.seed, self.name, t)
        strategy = self.strategies[t % 2]

        def trial():
            rng = random.Random(trial_seed)
            drawn = dtfooling.sample(self.rho, rng)
            transcript, final = pdt.run_unlifted_game(self.rho, strategy(), drawn.assignment, self.q, self.budget, rng)
            return drawn.root, transcript, tseitin.analyze_partial(self.graph, final).valid

        return trial

    def canon(self, i: int, result):
        root, tr, valid = result
        return [root, valid, tr.outcome, tr.total_paid, len(tr.steps)]

    def check(self, i: int, result) -> list[str]:
        return [] if result[1].identity_holds() else ["coin-game identity fails"]

    def check_run(self, outcomes) -> list[str]:
        bad = []
        first_pass = [o for o in outcomes if o.index < self.pass_len and o.canon is not None]
        for s, strategy in enumerate(self.strategies):
            trials = [json.loads(o.canon) for o in first_pass if o.index % 2 == s]
            wins = sum(1 for _, valid, *_ in trials if valid)
            low, _ = pdt.wilson_interval(wins, len(trials))
            if low < 1 / 3:
                bad.append(f"{strategy.name}: Wilson 95% lower bound {low:.4f} < 1/3 ({wins}/{len(trials)})")
        return bad


# -- lifted-game -------------------------------------------------------------

TREE_DEPTH = 12


class LiftedGame(Workload):
    """Coin game on the 17-cycle lifted by IP_4 against lazy local parity trees.

    Every item plays a fresh tree: a tree's cost is heavy-tailed, and it
    takes the seven hundred or so trees of a run to average it out between
    seeds.
    """

    name = "lifted-game"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.graph = tseitin.cycle_graph(17)
        self.g = gadget.ip_gadget(4)
        self.layout = blocks.BlockLayout(self.graph.num_edges, self.g.b)
        self.rho = tseitin.EdgePartialAssignment.empty(self.graph)
        self.dist = pdt.lifted_dtfooling_distribution(self.layout, self.g, self.rho)
        self.budget = Fraction(self.graph.num_vertices, 50 * self.graph.degree_if_regular())
        self.base = f2.full_space(self.layout.width)
        self.y = blocks.ClosureAssignment.from_dict(self.layout, {})

    def lazy_tree(self, tree_seed: int) -> pdt.Pdt:
        """Depth-12 tree of local forms: each query touches a random block and,
        half the time, the next block along the cycle (an adjacent edge).

        A node's form depends only on its path, so a replay builds the same
        tree whatever order the nodes are visited in.
        """
        layout, b = self.layout, self.layout.b

        def node(depth: int, path: int):
            if depth == TREE_DEPTH:
                return pdt.Leaf()
            rng = random.Random(tree_seed ^ (path << 1))
            first = rng.randrange(layout.n)
            form = 0
            for blk in (first,) if rng.getrandbits(1) else (first, (first + 1) % layout.n):
                form |= rng.randrange(1, 1 << b) << (blk * b)
            return pdt.Query(
                form,
                lambda: node(depth + 1, path << 1),
                lambda: node(depth + 1, (path << 1) | 1),
            )

        return pdt.Pdt(layout.width, node(0, 1))

    def item(self, i: int):
        tree_seed = derive(self.seed, self.name, i, "tree")
        game_seed = derive(self.seed, self.name, i, "game")
        sampler = lambda r: gadget.sample_lifted(self.dist, None, r)

        def trial():
            tprime = pdt.block_complete(self.lazy_tree(tree_seed), self.layout, self.base, self.y)
            transcript = pdt.coin_game(tprime, self.layout, self.g, self.rho, sampler, self.budget,
                                       random.Random(game_seed))
            valid = transcript.final_partial is not None and tseitin.analyze_partial(
                self.graph, transcript.final_partial).valid
            return transcript, valid

        return trial

    def canon(self, i: int, result):
        transcript, valid = result
        return [transcript.root, valid, transcript.outcome, transcript.total_paid, len(transcript.steps)]

    def check(self, i: int, result) -> list[str]:
        transcript, _ = result
        bad = []
        if transcript.final_partial is None:
            bad.append("coin game returned no final partial assignment")
        if not transcript.identity_holds():
            bad.append("coin-game identity fails")
        return bad


# -- tseitin-certify ---------------------------------------------------------

MUTATIONS_PER_PROOF = 6
LIFTED_CODIMS = (1, 2, 3, 4, 5, 6)


def _mutation(dag, formula, rng: random.Random):
    """One single-point corruption that changes the proof's meaning, or None.

    Kinds: flip one equation's right-hand bit, redirect a query child to a
    node with another space, or relabel a leaf with a clause that some point
    of the leaf space satisfies (checked by enumeration).
    """
    nodes = list(dag.nodes)
    idx = rng.randrange(len(nodes))
    node = nodes[idx]
    kind = rng.choice(["rhs", "child", "label"])
    if kind == "rhs" and node.space is not f2.EMPTY and node.space.rows:
        rows = list(node.space.rows)
        j = rng.randrange(len(rows))
        rows[j] = (rows[j][0], rows[j][1] ^ 1)
        space = f2.space_from_pairs(dag.width, rows)
        if space == node.space:
            return None
        nodes[idx] = resproof.ProofNode(node.node_id, node.kind, space, clause=node.clause, child=node.child,
                                        form=node.form, child0=node.child0, child1=node.child1)
        return nodes
    if kind == "child" and node.kind == resproof.QRY:
        which = rng.choice(["child0", "child1"])
        current = getattr(node, which)
        other = rng.choice([n.node_id for n in nodes])
        if other in (current, node.node_id) or dag.by_id[other].space == dag.by_id[current].space:
            return None
        kids = dict(form=node.form, child0=node.child0, child1=node.child1)
        kids[which] = other
        nodes[idx] = resproof.ProofNode(node.node_id, resproof.QRY, node.space, **kids)
        try:
            resproof.ProofDag.build(dag.width, nodes)
        except (resproof.CycleError, resproof.DanglingNodeError):
            return None
        return nodes
    if kind == "label" and node.kind == resproof.LEAF:
        other = rng.randrange(len(formula.clauses))
        if other == node.clause or all(
            formula.clause_falsified_by(other, p.bits) for p in f2.enumerate_points(node.space)
        ):
            return None
        nodes[idx] = resproof.ProofNode(node.node_id, resproof.LEAF, node.space, clause=other)
        return nodes
    return None


class TseitinCertify(Workload):
    """Exact certificates on small Tseitin instances: refutations, root laws."""

    name = "tseitin-certify"
    repeats = True
    declared = (dtfooling.InconsistentConditionError,)

    def setup(self, seed: int) -> None:
        rng = random.Random(derive(seed, self.name))
        self.graphs = {
            "K5": tseitin.complete_graph(5),
            "G7": pinned_regular_graph(7, 4, 7),
            "G9": pinned_regular_graph(9, 4, 9),
        }
        self.store: dict[tuple, object] = {}
        cases: list[tuple] = []
        # (a) the refutation pipeline, each stage its own item, in stage order
        for key in self.graphs:
            cases += [("cnf", key), ("brute", key), ("refute", key), ("check", key)]
        pipeline = len(cases)
        # seeded mutations of the K5 and G7 refutations
        self.mutants = []
        for key in ("K5", "G7"):
            formula = tseitin.tseitin_cnf(self.graphs[key]).cnf
            dag = resproof.pdt_refute(formula)
            made = 0
            while made < MUTATIONS_PER_PROOF:
                nodes = _mutation(dag, formula, rng)
                if nodes is None:
                    continue
                self.mutants.append((key, formula, resproof.ProofDag.build(dag.width, nodes)))
                cases.append(("mutant", len(self.mutants) - 1))
                made += 1
        # (b) every conditioning of at most two free edges
        for key in ("K5", "G7"):
            edges = range(self.graphs[key].num_edges)
            for size in range(3):
                for subset in itertools.combinations(edges, size):
                    for bits in range(1 << size):
                        cases.append(("root-law", key, tuple((e, (bits >> j) & 1) for j, e in enumerate(subset))))
        # (c) lifted root law of G7 by IP_2 under seeded conditioning spaces
        self.g2 = gadget.ip_gadget(2)
        g7 = self.graphs["G7"]
        self.layout14 = blocks.BlockLayout(g7.num_edges, self.g2.b)
        self.rho7 = tseitin.EdgePartialAssignment.empty(g7)
        for codim in LIFTED_CODIMS:
            cases.append(("lifted-law", self._conditioning(codim, rng)))
        # After the pipeline, (a)'s mutants, (b) and (c) run in seeded order:
        # the sub-millisecond root laws are then timed all through the pass,
        # not in one burst that a brief host slow-down can cover.
        rest = cases[pipeline:]
        rng.shuffle(rest)
        self.cases = cases[:pipeline] + rest
        self.pass_len = len(self.cases)
        self.warm_index = next(i for i, case in enumerate(self.cases) if case[0] == "root-law")

    def _conditioning(self, codim: int, rng: random.Random):
        """A codim-m space through a point of the lifted support."""
        layout, g2 = self.layout14, self.g2
        z = dtfooling.sample(self.rho7, rng).assignment
        x0 = 0
        for i in range(layout.n):
            x0 |= rng.choice(g2.preimage(z.get(i))) << (i * layout.b)
        while True:
            forms = [rng.getrandbits(layout.width) for _ in range(codim)]
            space = f2.space_from_pairs(layout.width, [(f, bin(f & x0).count("1") & 1) for f in forms])
            if space is not f2.EMPTY and space.codim == codim:
                return space

    def item(self, i: int):
        case = self.cases[i % self.pass_len]
        kind = case[0]
        store = self.store
        # cnf and refute drop the previous pass's result before building it
        # again; holding both would put the benchmark's memory in peak RSS
        if kind == "cnf":
            def build():
                store.pop(case, None)
                store[case] = tseitin.tseitin_cnf(self.graphs[case[1]])
                return store[case]
            return build
        if kind == "brute":
            return lambda: tseitin.brute_unsat(store[("cnf", case[1])])
        if kind == "refute":
            def refute():
                store.pop(case, None)
                dag = resproof.pdt_refute(store[("cnf", case[1])].cnf)
                store[case] = dag
                return resproof.metrics(dag)
            return refute
        if kind == "check":
            return lambda: resproof.check(store[("refute", case[1])], store[("cnf", case[1])].cnf)
        if kind == "mutant":
            _, formula, dag = self.mutants[case[1]]
            return lambda: resproof.check(dag, formula)
        if kind == "root-law":
            rho = tseitin.EdgePartialAssignment.empty(self.graphs[case[1]])
            return lambda: dtfooling.exact_root_distribution(rho, dict(case[2]))
        space = case[1]
        return lambda: pdt.exact_lifted_root_law(self.layout14, self.g2, self.rho7, space)

    def canon(self, i: int, result):
        case = self.cases[i % self.pass_len]
        kind = case[0]
        if isinstance(result, dtfooling.InconsistentConditionError):
            return [kind, case[1], [list(p) for p in case[2]], "inconsistent"]
        if kind == "cnf":
            return [kind, case[1], result.cnf.num_vars, len(result.cnf.clauses), digest(result.cnf.clauses)]
        if kind in ("brute", "refute"):
            return [kind, case[1], result if kind == "brute" else list(result)]
        if kind in ("check", "mutant"):
            return [kind, case[1], result.ok, result.node_id, result.rule]
        if kind == "root-law":
            return [kind, case[1], [list(p) for p in case[2]], [[v, frac(p)] for v, p in result.law]]
        return [kind, case[1].codim, [[v, frac(p)] for v, p in result]]

    def check(self, i: int, result) -> list[str]:
        case = self.cases[i % self.pass_len]
        kind = case[0]
        if isinstance(result, dtfooling.InconsistentConditionError):
            return []
        if kind == "brute" and result is not True:
            return [f"{case[1]}: Tseitin formula not found unsatisfiable"]
        if kind == "check" and not result.ok:
            return [f"{case[1]}: refutation rejected: {result}"]
        if kind == "mutant" and result.ok:
            return [f"mutant {case[1]} of {self.mutants[case[1]][0]} accepted"]
        if kind == "root-law" and not result.ok:
            return [f"{case[1]} root law not uniform on its odd component under {case[2]}"]
        if kind == "lifted-law":
            vertices = [v for v, _ in result]
            if sum(p for _, p in result) != 1 or vertices != sorted(set(vertices)) or any(p < 0 for _, p in result):
                return [f"lifted root law is not a distribution: {result}"]
        return []


WORKLOADS = {w.name: w for w in (LemmaB12, Hardness51, LiftedGame, TseitinCertify)}
