import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import ScriptedStrategy, coordinate_tree, greedy_cut_by_sets, random_edge_by_sets, run_pdt
from resoplus import dtfooling, pdt
from resoplus._bits import parity, set_bits
from resoplus.blocks import BlockLayout, ClosureAssignment, ClosureTable, closure, is_safe
from resoplus.f2 import (
    EMPTY,
    AffineSpace,
    CertificateError,
    EmptySpaceError,
    FVec,
    enumerate_points,
    full_space,
    is_subspace,
    space_from_pairs,
)
from resoplus.gadget import (
    EmptyPreimageError,
    Gadget,
    count_in_space,
    count_preimages,
    counts_in_space,
    ip_gadget,
    lift_eval,
    preimages,
    sample_lifted,
)
from resoplus.lemmalab import ErrorBudget
from resoplus.oracles import fixed_blocks
from resoplus.pdt import (
    EdgeQueryStrategy,
    GreedyCutStrategy,
    Leaf,
    Pdt,
    Query,
    RandomEdgeStrategy,
    block_complete,
    coin_game,
    exact_lifted_root_law,
    hardness_experiment,
    lifted_dtfooling_distribution,
    lifted_hardness_experiment,
    random_linear_tree,
    run_unlifted_game,
    wilson_interval,
)
from resoplus.tseitin import (
    EdgePartialAssignment,
    Graph,
    analyze_partial,
    complete_graph,
    cycle_graph,
    random_regular_graph,
)


def test_run_pdt_depth_zero():
    node, space = run_pdt(Pdt(4, Leaf()), 0b1010)
    assert isinstance(node, Leaf)
    assert space == full_space(4)


def test_run_pdt_coordinate_tree():
    lay = BlockLayout(2, 2)
    t = coordinate_tree(4, [lay.flat(0, 0), lay.flat(0, 1)])
    node, space = run_pdt(t, 0)
    assert space.codim == 2
    assert space.contains(0)


def test_run_pdt_fuzz_membership():
    rng = random.Random(3)
    for _ in range(150):
        w = rng.randint(2, 8)
        t = random_linear_tree(w, rng.randint(0, 5), rng)
        x = rng.getrandbits(w)
        _, space = run_pdt(t, x)
        assert space.contains(x)
        for made, (_, partial) in enumerate(pdt._walk(t, x)):
            assert partial.contains(x) and partial.codim <= made


def test_a_random_tree_of_width_zero_has_no_queries():
    # width 0 has no nonzero form: a query used to redraw its form forever
    rng = random.Random(1)
    with pytest.raises(ValueError, match="^a query needs a nonzero form, and width 0 has none$"):
        random_linear_tree(0, 1, rng)
    assert isinstance(random_linear_tree(0, 0, rng).root, Leaf)


def test_block_complete_trivial_cases():
    lay = BlockLayout(2, 2)
    y = ClosureAssignment.from_dict(lay, {})
    out = block_complete(Pdt(4, Leaf()), lay, full_space(4), y)
    assert isinstance(out.root, Leaf)
    # querying a coordinate of an already-closed block leaves the tree bare
    rows = [(1 << lay.flat(0, 0), 1), (1 << lay.flat(0, 1), 0)]
    a = space_from_pairs(4, rows)
    assert closure(a.forms(), lay) == frozenset({0})
    y0 = ClosureAssignment.from_dict(lay, {0: 0b01})
    t = coordinate_tree(4, [lay.flat(0, 0)])
    out = block_complete(t, lay, a, y0)
    assert isinstance(out.root, Query) and out.root.note == "stage-end"


def _two_block_jump_space(lay):
    # two cross forms whose span plus one more query concentrates both blocks
    r1 = (1 << lay.flat(0, 0)) | (1 << lay.flat(1, 0))
    r2 = (1 << lay.flat(0, 1)) | (1 << lay.flat(1, 1))
    return space_from_pairs(lay.width, [(r1, 0), (r2, 0)])


def test_block_complete_injects_whole_blocks():
    lay = BlockLayout(2, 2)
    a = _two_block_jump_space(lay)
    assert closure(a.forms(), lay) == frozenset()
    ell = (1 << lay.flat(0, 0)) | (1 << lay.flat(1, 1))
    assert closure(a.forms() + (ell,), lay) == frozenset({0, 1})
    orig = Pdt(4, Query(ell, Leaf(), Leaf()))
    y = ClosureAssignment.from_dict(lay, {})
    out = block_complete(orig, lay, a, y)
    # walking any member of a: 2 blocks * 2 bits of coordinate queries, then ell
    x = 0
    assert a.contains(x)
    node = out.root
    kinds = []
    while isinstance(node, Query):
        kinds.append(node.note)
        bit = parity(node.form & x)
        node = node.child(bit)
    assert kinds == ["block-fill"] * 4 + ["stage-end"]
    assert isinstance(node, Leaf) and node.tag != "dead"


def test_block_complete_preserves_original_leaves():
    lay = BlockLayout(3, 2)
    rng = random.Random(8)
    orig = random_linear_tree(6, 3, rng)
    y = ClosureAssignment.from_dict(lay, {})
    out = block_complete(orig, lay, full_space(6), y)
    for bits in range(64):
        x = bits
        leaf_orig, _ = run_pdt(orig, x)
        leaf_new, space = run_pdt(out, x)
        assert leaf_new is leaf_orig
        assert space.contains(x)


def test_block_complete_closure_invariant():
    # after each stage the closure equals the set of fully queried blocks;
    # the construction asserts this internally, so walking suffices
    lay = BlockLayout(2, 3)
    rng = random.Random(21)
    orig = random_linear_tree(6, 4, rng)
    y = ClosureAssignment.from_dict(lay, {})
    out = block_complete(orig, lay, full_space(6), y)
    for bits in range(0, 64, 7):
        run_pdt(out, bits)


def test_stage_checks_raise_on_a_mismatch():
    # a stage whose table or closed set disagrees with its path stops the walk
    lay = BlockLayout(2, 2)
    ell = (1 << lay.flat(0, 0)) | (1 << lay.flat(1, 1))
    for field, wrong, message in [
        ("check", ClosureTable(lay), "the closure table and the space of the path differ"),
        ("closed", frozenset({0}), "closure after a stage differs from the queried blocks"),
    ]:
        stage = pdt._Stage(Query(ell, Leaf(), Leaf()), ClosureTable(lay), 1)
        run_pdt(Pdt(4, stage.fill(0, full_space(4))), 0)
        setattr(stage, field, wrong)
        with pytest.raises(CertificateError, match=message):
            run_pdt(Pdt(4, stage.fill(0, full_space(4))), 0)


def _triangle_ip2():
    """The 3-cycle lifted by IP_2, its empty rho and its lifted hard distribution."""
    tri, g2 = cycle_graph(3), ip_gadget(2)
    lay = BlockLayout(3, 2)
    rho = EdgePartialAssignment.empty(tri)
    return lay, g2, rho, lifted_dtfooling_distribution(lay, g2, rho)


def test_a_tree_completed_in_a_smaller_space_walks_from_it():
    lay, g2, rho, dist = _triangle_ip2()
    orig = random_linear_tree(6, 3, random.Random(4))
    starts = [
        (full_space(6).with_equation(1 << lay.flat(2, 1), 1), ClosureAssignment.from_dict(lay, {})),
        (full_space(6), ClosureAssignment.from_dict(lay, {0: 0b10})),
    ]
    for a, y in starts:
        out = block_complete(orig, lay, a, y)
        start = out.root.space
        assert is_subspace(start, a) and start.codim == a.codim + 2 * len(y.blocks)
        inside = [x for x in range(64) if start.contains(x)]
        assert len(inside) == 64 >> start.codim
        for x in inside:
            assert run_pdt(out, x)[0] is run_pdt(orig, x)[0]
            for made, (_, space) in enumerate(pdt._walk(out, x)):
                assert is_subspace(space, start) and space.contains(x)
                assert space.codim <= start.codim + made
        outside = next(x for x in range(64) if not start.contains(x))
        with pytest.raises(ValueError, match="outside the space the tree was completed in"):
            run_pdt(out, outside)
        draws = [sample_lifted(dist, None, random.Random(i)) for i in range(20)]
        point = next(p for p in draws if not start.contains(p.bits))
        with pytest.raises(ValueError, match="outside the space the tree was completed in"):
            coin_game(out, lay, g2, rho, lambda r: point, Fraction(5), random.Random(0))


def test_a_carried_space_that_excludes_the_point_stops_the_walk():
    # the child carries the space of the other answer to the root's form, so
    # the walk's next step cuts it by the point's own answer and finds it empty
    lay, g2, rho, dist = _triangle_ip2()
    point = sample_lifted(dist, None, random.Random(1))
    form = 1 << lay.flat(0, 0)
    kid = Query(form, Leaf(), Leaf(), space=full_space(6).with_equation(form, 1 - parity(form & point.bits)))
    tree = Pdt(6, Query(form, kid, kid))
    with pytest.raises(RuntimeError, match="a point left the space of its own answers"):
        run_pdt(tree, point.bits)
    with pytest.raises(RuntimeError, match="a point left the space of its own answers"):
        coin_game(tree, lay, g2, rho, lambda r: point, Fraction(5), random.Random(0))


def test_coin_game_zero_budget_loses_on_any_paying_split():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    inc0 = [k for k, _ in g.incident(0)]
    losses = wins = 0
    for i in range(300):
        rng = random.Random(1000 + i)
        s = dtfooling.sample(rho, rng)
        transcript, _ = run_unlifted_game(rho, ScriptedStrategy(inc0), s.assignment, 4, Fraction(0), rng)
        assert transcript.identity_holds()
        if transcript.outcome == "LOSE":
            losses += 1
        elif transcript.outcome == "WIN":
            wins += 1
            assert transcript.root == 0
    assert losses + wins == 300
    # the root sits on the isolated vertex with probability 1/5
    assert 30 <= wins <= 90


def test_tree_that_never_splits_pays_nothing():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    rng = random.Random(2)
    s = dtfooling.sample(rho, rng)
    # two edges never disconnect K5
    transcript, _ = run_unlifted_game(rho, ScriptedStrategy([0, 1]), s.assignment, 2, Fraction(0), rng)
    assert transcript.outcome == "EXHAUSTED_QUERIES"
    assert transcript.total_paid == 0


def test_scripted_split_win_rate_matches_exact_law():
    # isolate vertex 0 of K5: the game is won iff the root is vertex 0,
    # whose exact conditional probability is 1/5 throughout
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    inc0 = [k for k, _ in g.incident(0)]
    law = dict(dtfooling.exact_root_distribution(rho).law)
    p_win = float(law[0])
    trials = 2000
    wins = 0
    for i in range(trials):
        rng = random.Random(7000 + i)
        s = dtfooling.sample(rho, rng)
        transcript, _ = run_unlifted_game(rho, ScriptedStrategy(inc0), s.assignment, 4, Fraction(10), rng)
        wins += transcript.outcome == "WIN"
    sigma = (trials * p_win * (1 - p_win)) ** 0.5
    assert abs(wins - trials * p_win) <= 3 * sigma


def test_per_step_root_side_frequency_matches_exact_law():
    # after the first split, the empirical side frequencies agree with the
    # exact conditional law within 4 sigma
    g = cycle_graph(5)
    rho = EdgePartialAssignment.empty(g)
    # querying edges 0 and 2 splits the cycle into arcs
    trials = 3000
    side_counts = {}
    law_counts = {}
    for i in range(trials):
        rng = random.Random(30_000 + i)
        s = dtfooling.sample(rho, rng)
        transcript, final = run_unlifted_game(rho, ScriptedStrategy([0, 2]), s.assignment, 2, Fraction(10), rng)
        cond = {0: s.assignment.get(0), 2: s.assignment.get(2)}
        rep = dtfooling.exact_root_distribution(rho, cond)
        side = frozenset(rep.odd_component)
        side_counts[side] = side_counts.get(side, 0) + 1
        law_counts[side] = rep
    # both arcs arise and every conditional law is uniform on its component
    assert len(side_counts) >= 2
    for rep in law_counts.values():
        assert rep.ok


class _SeesCurrentState(EdgeQueryStrategy):
    """Plays the wrapped strategy after checking that the analysis it is handed
    is that of the current free edges."""

    def __init__(self, inner: EdgeQueryStrategy):
        self.inner = inner

    def next_edge(self, analysis, graph, free, rng):
        assert analysis.components == tuple(graph.components(free))
        return self.inner.next_edge(analysis, graph, free, rng)


def _unlifted_games():
    """Transcripts of seeded unlifted games on K5 and a 21-vertex 4-regular
    graph, with an empty rho and with a valid rho that isolates one vertex, for
    three strategies at budgets 0 and 2."""
    for g, q, script_from in ((complete_graph(5), 4, (0,)), (random_regular_graph(21, 4, seed=11), 8, (1, 2))):
        isolate = {k: int(i == 0) for i, (k, _) in enumerate(g.incident(g.num_vertices - 1))}
        script = [k for v in script_from for k, _ in g.incident(v)]
        for rho in (EdgePartialAssignment.empty(g), EdgePartialAssignment.from_dict(g, isolate)):
            for make in (GreedyCutStrategy, RandomEdgeStrategy, lambda: ScriptedStrategy(script)):
                for budget in (Fraction(0), Fraction(2)):
                    for trial in range(8):
                        rng = random.Random(1000 * trial + g.num_vertices + len(rho.entries))
                        drawn = dtfooling.sample(rho, rng)
                        strategy = _SeesCurrentState(make())
                        transcript, final = run_unlifted_game(rho, strategy, drawn.assignment, q, budget, rng)
                        assert final == transcript.final_partial
                        yield transcript


def test_unlifted_games_are_pinned():
    rows = [
        (t.root, t.outcome, t.total_paid, [dataclasses.astuple(s) for s in t.steps])
        for t in _unlifted_games()
    ]
    assert {outcome for _, outcome, _, _ in rows} == {"WIN", "LOSE", "EXHAUSTED_QUERIES"}
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "c60a241869c893cb"


def test_unlifted_hardness_output_is_pinned():
    # criterion 8's graph, both default strategies; the digest was taken from the set-based strategies
    report = hardness_experiment(random_regular_graph(51, 6, seed=2026), q=7, trials=500, seed=8128)
    assert hashlib.sha256(report.to_csv().encode()).hexdigest()[:16] == "e40df94ccc1d0d61"


class _AgreesWithSetOracle(EdgeQueryStrategy):
    """Plays the wrapped mask strategy after checking that its set-based oracle,
    handed the free edges as a set and a copy of the rng, picks the same edge
    and leaves the rng in the same state."""

    def __init__(self, inner: EdgeQueryStrategy, oracle):
        self.inner, self.oracle, self.calls = inner, oracle, 0

    def next_edge(self, analysis, graph, free, rng):
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = self.oracle(analysis, graph, set(set_bits(free)), twin)
        got = self.inner.next_edge(analysis, graph, free, rng)
        assert got == want and rng.getstate() == twin.getstate()
        self.calls += 1
        return got


@st.composite
def valid_games(draw):
    """A random regular graph of odd order, a valid rho that fixes some edges
    to the bits of a hard-distribution sample, a trial seed, q and a budget."""
    n = draw(st.integers(3, 12)) * 2 + 1
    d = draw(st.sampled_from([2, 4, 6]))
    try:
        g = random_regular_graph(n, d, seed=draw(st.integers(0, 1000)))
    except ValueError:
        assume(False)
    z = dtfooling.sample(EdgePartialAssignment.empty(g), random.Random(draw(st.integers(0, 1000)))).assignment
    fixed = draw(st.sets(st.integers(0, g.num_edges - 1), max_size=g.num_edges // 3))
    rho = EdgePartialAssignment.from_dict(g, {k: z.get(k) for k in fixed})
    assume(rho.analysis.valid)
    return rho, draw(st.integers(0, 2**32)), draw(st.integers(1, g.num_edges)), Fraction(draw(st.integers(0, n)))


@settings(max_examples=300, deadline=None, database=None)
@given(valid_games())
def test_mask_strategies_match_the_set_based_ones(game):
    rho, seed, q, budget = game
    for make, oracle in ((GreedyCutStrategy, greedy_cut_by_sets), (RandomEdgeStrategy, random_edge_by_sets)):
        rng = random.Random(seed)
        drawn = dtfooling.sample(rho, rng)
        strategy = _AgreesWithSetOracle(make(), oracle)
        transcript, _ = run_unlifted_game(rho, strategy, drawn.assignment, q, budget, rng)
        assert strategy.calls >= len(transcript.steps) >= 1


def test_greedy_cut_without_a_free_odd_edge_takes_the_lowest_free_edge():
    # every edge at vertex 0 of K5 fixed to 0: {0} is the odd component and has no free edge
    g = complete_graph(5)
    rho = EdgePartialAssignment.from_dict(g, {k: 0 for k, _ in g.incident(0)})
    assert rho.analysis.odd_component == frozenset({0})
    free = rho.free_mask
    assert GreedyCutStrategy().next_edge(rho.analysis, g, free, None) == 4
    assert greedy_cut_by_sets(rho.analysis, g, set(set_bits(free)), None) == 4


def _lazy_local_tree(lay, depth, seed):
    """A lazy tree of local forms: each query touches a random block and, half
    the time, the next block along the cycle.  A node's form depends only on
    its path, so the tree is the same whatever order it is visited in."""

    def node(level, path):
        if level == depth:
            return Leaf()
        rng = random.Random(f"{seed}/{path}")
        first = rng.randrange(lay.n)
        form = 0
        for blk in (first,) if rng.getrandbits(1) else (first, (first + 1) % lay.n):
            form |= rng.randrange(1, 1 << lay.b) << (blk * lay.b)
        return Query(form, partial(node, level + 1, 2 * path), partial(node, level + 1, 2 * path + 1))

    return Pdt(lay.width, node(0, 1))


def test_lifted_games_are_pinned():
    """Transcripts of seeded coin games on the 7-cycle lifted by IP_4 against
    block-completed lazy local parity trees, at budgets 0, 1 and 2."""
    graph, g = cycle_graph(7), ip_gadget(4)
    lay = BlockLayout(graph.num_edges, g.b)
    rho = EdgePartialAssignment.empty(graph)
    dist = lifted_dtfooling_distribution(lay, g, rho)
    y = ClosureAssignment.from_dict(lay, {})
    sampler = lambda r: sample_lifted(dist, None, r)
    rows = []
    for trial in range(60):
        tprime = block_complete(_lazy_local_tree(lay, 10, trial), lay, full_space(lay.width), y)
        t = coin_game(tprime, lay, g, rho, sampler, Fraction(trial % 3), random.Random(3000 + trial))
        assert t.identity_holds()
        rows.append((t.root, t.outcome, t.total_paid, [dataclasses.astuple(s) for s in t.steps]))
    assert {outcome for _, outcome, _, _ in rows} == {"WIN", "LOSE", "EXHAUSTED_QUERIES"}
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "8949a564b046b279"


def test_a_lifted_game_adds_each_equation_once(monkeypatch):
    # the game reads the spaces the completed tree built: at most one
    # insertion per resolved node, and one for the step into an original leaf
    counts = Counter()

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(AffineSpace, "_insert", counting("inserts", AffineSpace._insert))
    monkeypatch.setattr(pdt._Stage, "fill_kid", counting("resolved", pdt._Stage.fill_kid))
    monkeypatch.setattr(pdt._Stage, "query_kid", counting("resolved", pdt._Stage.query_kid))
    graph, g = cycle_graph(7), ip_gadget(4)
    lay = BlockLayout(graph.num_edges, g.b)
    rho = EdgePartialAssignment.empty(graph)
    dist = lifted_dtfooling_distribution(lay, g, rho)
    y = ClosureAssignment.from_dict(lay, {})
    inserts = resolved = 0
    for trial in range(30):
        counts.clear()
        tprime = block_complete(_lazy_local_tree(lay, 10, trial), lay, full_space(lay.width), y)
        coin_game(tprime, lay, g, rho, lambda r: sample_lifted(dist, None, r), Fraction(2), random.Random(trial))
        assert counts["inserts"] <= counts["resolved"] + 1
        inserts += counts["inserts"]
        resolved += counts["resolved"]
    assert resolved > 300 and inserts > resolved // 2


def test_each_game_analyses_once_per_reveal(monkeypatch):
    calls = []
    real = pdt.analyze_partial
    monkeypatch.setattr(pdt, "analyze_partial", lambda g, rho: calls.append(rho) or real(g, rho))
    # unlifted: analysed at the start and once per revealed edge
    for transcript in _unlifted_games():
        assert len(calls) == 1 + len(transcript.steps)
        calls.clear()
    # lifted: analysed at the start and once per step that reveals blocks
    tri, g2 = cycle_graph(3), ip_gadget(2)
    lay = BlockLayout(3, 2)
    rho = EdgePartialAssignment.empty(tri)
    dist = lifted_dtfooling_distribution(lay, g2, rho)
    y = ClosureAssignment.from_dict(lay, {})
    calls.clear()
    steps = 0
    for i in range(30):
        tprime = block_complete(random_linear_tree(6, 4, random.Random(i)), lay, full_space(6), y)
        transcript = coin_game(tprime, lay, g2, rho, lambda r: sample_lifted(dist, None, r), Fraction(1),
                               random.Random(200 + i))
        assert len(calls) == 1 + len(transcript.steps)
        steps += len(transcript.steps)
        calls.clear()
    assert steps > 30


def test_coin_game_reveals_only_free_edges():
    # the tree first fills the block of edge 0, which rho fixes: no step reveals it
    g, gad = cycle_graph(5), ip_gadget(2)
    lay = BlockLayout(5, 2)
    rho = EdgePartialAssignment.from_dict(g, {0: 1})
    dist = lifted_dtfooling_distribution(lay, gad, rho)
    tree = coordinate_tree(lay.width, [0, 1, 2, 3])
    for trial in range(20):
        transcript = coin_game(tree, lay, gad, rho, lambda r: sample_lifted(dist, None, r), Fraction(2),
                               random.Random(trial))
        assert transcript.steps[0].revealed == (1,)


def test_coin_game_sees_indirectly_determined_blocks():
    # three forms none of which is a unit of block 0, yet together they pin
    # both of its bits: e00+e10, e01+e10, then e10
    g2 = ip_gadget(2)
    tri = cycle_graph(3)
    lay = BlockLayout(3, 2)
    rho = EdgePartialAssignment.empty(tri)
    dist = lifted_dtfooling_distribution(lay, g2, rho)
    forms = [
        (1 << lay.flat(0, 0)) | (1 << lay.flat(1, 0)),
        (1 << lay.flat(0, 1)) | (1 << lay.flat(1, 0)),
        1 << lay.flat(1, 0),
        1 << lay.flat(1, 1),
        1 << lay.flat(2, 0),
        1 << lay.flat(2, 1),
    ]
    node = Leaf()
    for f in reversed(forms):
        node = Query(f, node, node)
    tree = Pdt(6, node)
    sampler = lambda r: sample_lifted(dist, None, r)
    saw_block0_before_block1_complete = False
    for i in range(40):
        transcript = coin_game(tree, lay, g2, rho, sampler, Fraction(5), random.Random(500 + i))
        assert transcript.identity_holds()
        revealed = [e for step in transcript.steps for e in step.revealed]
        # block (edge) 0 must be revealed at the third query, along with 1
        assert set(revealed) >= {0, 1}
        first = transcript.steps[0].revealed if transcript.steps else ()
        saw_block0_before_block1_complete |= 0 in first
    assert saw_block0_before_block1_complete


@st.composite
def consistent_equations(draw):
    """A layout, a point, and forms to ask of it: units, forms on one or two blocks, and dense forms."""
    lay = BlockLayout(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    block, value = st.integers(0, lay.n - 1), st.integers(1, (1 << lay.b) - 1)
    unit = st.integers(0, lay.width - 1).map(lambda i: 1 << i)
    two = st.builds(lambda i, j, v, w: (v << (i * lay.b)) ^ (w << (j * lay.b)), block, block, value, value)
    dense = st.integers(0, (1 << lay.width) - 1)
    return lay, draw(dense), draw(st.lists(st.one_of(unit, unit, two, dense), max_size=3 * lay.width))


@settings(max_examples=300, deadline=None, database=None)
@given(consistent_equations())
def test_game_path_reveals_the_fixed_blocks(case):
    # after every equation the unit mask is the space's unit rows, and the
    # blocks revealed so far are the fixed blocks, found from scratch
    lay, x, forms = case
    space, units, revealed = full_space(lay.width), 0, set()
    for form in forms:
        space = space.with_equation(form, parity(form & x))
        units, fixed = pdt._unit_rows(lay, units, space)
        assert not set(set_bits(fixed)) & revealed
        revealed |= set(set_bits(fixed))
        assert units == sum(f for f in space.forms() if f & (f - 1) == 0)
        assert revealed == fixed_blocks(space, lay)


def test_coin_game_lifted_identity_and_budget():
    g2 = ip_gadget(2)
    tri = cycle_graph(3)
    lay = BlockLayout(3, 2)
    rho = EdgePartialAssignment.empty(tri)
    dist = lifted_dtfooling_distribution(lay, g2, rho)
    assert len(dist.base) == 3 * 2  # three roots, one free non-tree bit each
    y = ClosureAssignment.from_dict(lay, {})
    rng = random.Random(5)
    orig = random_linear_tree(6, 4, rng)
    tprime = block_complete(orig, lay, full_space(6), y)
    sampler = lambda r: sample_lifted(dist, None, r)
    for i in range(40):
        transcript = coin_game(tprime, lay, g2, rho, sampler, Fraction(3), random.Random(100 + i))
        assert transcript.identity_holds()
        assert transcript.total_paid <= 3 or transcript.outcome == "LOSE"


def test_lifted_root_law_near_uniform():
    # finite-scale version of lifted root hiding: conditioned on a safe
    # space, the exact root law stays inside the multiplicative band implied
    # by the spectral budget of the free layout
    tri = cycle_graph(3)
    g12 = ip_gadget(12)
    lay = BlockLayout(3, 12)
    rho = EdgePartialAssignment.empty(tri)
    rng = random.Random(31)
    eta = ErrorBudget.for_gadget(g12, 3).eta
    assert eta < 1
    lo_hi_ratio = ((1 + eta) / (1 - eta)) ** 2
    for trial in range(4):
        x0 = rng.getrandbits(lay.width)
        pairs = []
        for _ in range(trial % 3):
            form = rng.getrandbits(lay.width)
            pairs.append((form, parity(form & x0)))
        cond = space_from_pairs(lay.width, pairs)
        if not is_safe(cond.forms(), lay):
            continue
        law = exact_lifted_root_law(lay, g12, rho, cond)
        probs = [p for _, p in law]
        assert len(probs) == 3 and sum(probs) == 1
        assert max(probs) / min(probs) <= lo_hi_ratio
        # and the unconditioned law is exactly uniform
    flat = exact_lifted_root_law(lay, g12, rho, None)
    assert all(p == Fraction(1, 3) for _, p in flat)


@pytest.mark.parametrize(
    "graph, b, fixed",
    [
        (cycle_graph(3), 4, {}),
        (Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]), 2, {5: 1}),
    ],
)
def test_exact_lifted_root_law_matches_enumeration(graph, b, fixed):
    # 12-bit lifts (an even vertex count such as K4's has no valid rho): the
    # law of root(G(x)) given x in C, x uniform in G^-1(z) and z uniform on
    # the support, summed point by point over C
    g = ip_gadget(b)
    lay = BlockLayout(graph.num_edges, b)
    rho = EdgePartialAssignment.empty(graph).extend(fixed)
    odd = analyze_partial(graph, rho).odd_component
    fibre = [len(g.preimage(0)), len(g.preimage(1))]
    rng = random.Random(12)
    for trial in range(10):
        z0 = dtfooling.sample(rho, rng).assignment
        x0 = sum(rng.choice(g.preimage(z0.get(i))) << (i * b) for i in range(lay.n))
        pairs = []
        for _ in range(trial % 5):
            form = rng.getrandbits(lay.width)
            pairs.append((form, bin(form & x0).count("1") & 1))
        cond = space_from_pairs(lay.width, pairs)
        weights = {v: Fraction(0) for v in odd}
        for x in enumerate_points(cond):
            z = lift_eval(g, lay, x)
            root = dtfooling.root_of(graph, z.bits)
            if isinstance(root, int) and all(z.get(k) == bit for k, bit in fixed.items()):
                weights[root] += Fraction(1, math.prod(fibre[z.get(i)] for i in range(lay.n)))
        total = sum(weights.values())
        assert exact_lifted_root_law(lay, g, rho, cond) == tuple((v, w / total) for v, w in sorted(weights.items()))


def _per_point_root_law(layout, g, rho, conditioning):
    """The lifted root law summed point by point: root_of each support point,
    its fibre by enumeration, one Fraction per point."""
    space = conditioning if conditioning is not None else full_space(layout.width)
    weights = {}
    for z_bits, w in lifted_dtfooling_distribution(layout, g, rho).base:
        z = FVec(layout.n, z_bits)
        fibre = len(list(preimages(g, layout, z)))
        root = dtfooling.root_of(rho.graph, z_bits)
        weights[root] = weights.get(root, Fraction(0)) + Fraction(w * count_in_space(space, layout, g, z), fibre)
    total = sum(weights.values())
    if total == 0:
        raise EmptySpaceError("conditioning removes the whole lifted support")
    return tuple(sorted((v, p / total) for v, p in weights.items()))


@st.composite
def lifted_law_instances(draw):
    """A graph, a gadget with unequal fibres, a random valid rho and a conditioning space or None."""
    graph = draw(st.sampled_from([cycle_graph(3), cycle_graph(5), cycle_graph(7), complete_graph(5)]))
    b = 4 if graph.num_edges <= 5 else 2
    if draw(st.booleans()):
        g = ip_gadget(b)
    else:
        table = draw(st.lists(st.integers(0, 1), min_size=1 << b, max_size=1 << b))
        assume(0 < sum(table) < len(table))
        g = Gadget(b, tuple(table))
    lay = BlockLayout(graph.num_edges, b)
    fixed = draw(st.lists(st.integers(0, graph.num_edges - 1), unique=True, max_size=3))
    rho = EdgePartialAssignment.from_dict(graph, {k: draw(st.integers(0, 1)) for k in fixed})
    assume(analyze_partial(graph, rho).valid)
    if draw(st.integers(0, 4)) == 4:
        return lay, g, rho, None
    pairs = [(draw(st.integers(1, (1 << lay.width) - 1)), draw(st.integers(0, 1))) for _ in range(draw(st.integers(1, 4)))]
    return lay, g, rho, space_from_pairs(lay.width, pairs)


@settings(max_examples=60, deadline=None, database=None)
@given(lifted_law_instances())
def test_exact_lifted_root_law_matches_per_point_formula(instance):
    lay, g, rho, cond = instance
    try:
        want = _per_point_root_law(lay, g, rho, cond)
    except EmptySpaceError:
        with pytest.raises(EmptySpaceError):
            exact_lifted_root_law(lay, g, rho, cond)
        return
    assert exact_lifted_root_law(lay, g, rho, cond) == want


def _lifted_root_law_per_call(layout, g, rho, conditioning):
    """The lifted root law as it was: the support rebuilt by `_rooted_support`
    and every target read again on each call."""
    support = list(pdt._rooted_support(rho))
    space = conditioning if conditioning is not None else full_space(layout.width)
    counts = counts_in_space(space, layout, g, [z for _, z in support])
    groups = {}
    for (root, z), cnt in zip(support, counts):
        group = groups.setdefault((root, z.bit_count()), [0, z])
        group[0] += cnt
    weights = {}
    for (root, _), (cnt, z) in groups.items():
        fibre = count_preimages(g, layout, z)
        if fibre == 0:
            raise EmptyPreimageError("a support point has an empty fibre")
        weights[root] = weights.get(root, Fraction(0)) + Fraction(cnt, fibre)
    total = sum(weights.values())
    if total == 0:
        raise EmptySpaceError("conditioning removes the whole lifted support")
    return tuple(sorted((v, p / total) for v, p in weights.items()))


@settings(max_examples=100, deadline=None, database=None)
@given(lifted_law_instances())
def test_cached_lifted_root_law_matches_the_per_call_law(instance):
    # rho, then the empty rho of the same graph, then a fresh copy of rho:
    # each keeps its own support, which must be built from its fixed edges
    lay, g, rho, cond = instance
    for r in (rho, EdgePartialAssignment.empty(rho.graph), EdgePartialAssignment(rho.graph, rho.mask, rho.bits)):
        try:
            want = _lifted_root_law_per_call(lay, g, r, cond)
        except EmptySpaceError:
            with pytest.raises(EmptySpaceError):
                exact_lifted_root_law(lay, g, r, cond)
            continue
        assert exact_lifted_root_law(lay, g, r, cond) == want
    with pytest.raises(ValueError):  # a layout of another block count, after rho's support is kept
        exact_lifted_root_law(BlockLayout(lay.n + 1, lay.b), g, rho)


def test_rooted_support_past_a_machine_word():
    # K13 has 78 edges; with a free spanning path each root has one
    # completion, a point of a root space of width 78
    g = complete_graph(13)
    path = {g.edges.index((v, v + 1)) for v in range(12)}
    rng = random.Random(13)
    rho = EdgePartialAssignment.from_dict(g, {k: rng.getrandbits(1) for k in range(g.num_edges) if k not in path})
    support = list(pdt._rooted_support(rho))
    assert [v for v, _ in support] == list(range(13))
    for v, z in support:
        assert z & rho.mask == rho.bits
        assert [sum(z >> k & 1 for k, _ in g.incident(u)) % 2 for u in range(13)] == [int(u != v) for u in range(13)]
    assert max(z for _, z in support) >> 63
    assert hashlib.sha256(repr(support).encode()).hexdigest()[:16] == "2b585f03c579b79f"


def test_lifted_support_is_built_once_per_rho(monkeypatch):
    # the support and its block classes depend on rho alone: the distribution
    # and the law read the one kept in rho's memo, whatever the gadget
    calls = []
    build = pdt._rooted_support

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(pdt, "_rooted_support", counting)
    c5 = cycle_graph(5)
    rho = EdgePartialAssignment.empty(c5)
    for b in (2, 4):
        lay = BlockLayout(c5.num_edges, b)
        lifted_dtfooling_distribution(lay, ip_gadget(b), rho)
        exact_lifted_root_law(lay, ip_gadget(b), rho)
    assert len(calls) == 1


def test_lifted_root_law_rejects_k4():
    # an even vertex count leaves no valid rho: every fixing keeps the residue sum even
    k4 = complete_graph(4)
    lay = BlockLayout(k4.num_edges, 2)
    rng = random.Random(4)
    for _ in range(20):
        rho = EdgePartialAssignment.from_dict(k4, {k: rng.getrandbits(1) for k in range(6) if rng.getrandbits(1)})
        with pytest.raises(ValueError):
            exact_lifted_root_law(lay, ip_gadget(2), rho)


def test_exact_lifted_root_law_rejects_a_constant_gadget():
    rho = EdgePartialAssignment.empty(cycle_graph(3))
    with pytest.raises(EmptyPreimageError):
        exact_lifted_root_law(BlockLayout(3, 2), Gadget(2, (0, 0, 0, 0)), rho)


def test_lifted_hardness_experiment_triangle():
    tri = cycle_graph(3)
    g2 = ip_gadget(2)
    report = lifted_hardness_experiment(tri, g2, 3, trials=60, seed=5)
    assert all(s.all_identities_ok for s in report.summaries)
    again = lifted_hardness_experiment(tri, g2, 3, trials=60, seed=5)
    assert again.to_csv() == report.to_csv()


def test_hardness_experiment_small():
    g = complete_graph(5)
    report = hardness_experiment(g, q=3, trials=150, seed=9)
    assert all(s.all_identities_ok for s in report.summaries)
    # K5 cannot be split with three queries, so validity always survives
    assert all(s.successes == s.trials for s in report.summaries)
    # reports are deterministic
    again = hardness_experiment(g, q=3, trials=150, seed=9)
    assert again.to_csv() == report.to_csv()


def test_empty_tree_success_probability_one():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    rng = random.Random(0)
    s = dtfooling.sample(rho, rng)
    transcript, final = run_unlifted_game(rho, ScriptedStrategy([]), s.assignment, 5, Fraction(1), rng)
    assert analyze_partial(g, final).valid
    assert transcript.outcome == "EXHAUSTED_QUERIES" and transcript.steps == ()


class _Always(EdgeQueryStrategy):
    def __init__(self, edge: int):
        self.edge = edge

    def next_edge(self, analysis, graph, free, rng):
        return self.edge


def test_a_strategy_that_queries_a_fixed_edge_is_refused():
    g = complete_graph(5)
    rho = EdgePartialAssignment.from_dict(g, {3: 1})
    rng = random.Random(0)
    z = dtfooling.sample(rho, rng).assignment
    for edge in (3, -1):
        with pytest.raises(ValueError, match=f"^strategy queried a fixed edge {edge}$"):
            run_unlifted_game(rho, _Always(edge), z, 3, Fraction(1), rng)


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert 0.40 <= low <= 0.5 <= high <= 0.60
    assert (round(low, 4), round(high, 4)) == (0.4038, 0.5962)  # z = 1.96, the 95% interval
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low, _ = wilson_interval(100, 100)
    assert low > 0.95
