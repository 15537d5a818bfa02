import dataclasses
import hashlib
import itertools
import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resoplus import dtfooling, f2
from resoplus._bits import set_bits
from resoplus.dtfooling import (
    InconsistentConditionError,
    InvalidAssignmentError,
    Many,
    RootLawReport,
    exact_root_distribution,
    root_of,
    root_space,
    sample,
    valid_analysis,
)
from resoplus.f2 import EMPTY, points_array
from resoplus.oracles import bfs_tree, tree_complete
from resoplus.tseitin import (
    EdgePartialAssignment,
    Graph,
    analyze_partial,
    complete_graph,
    cycle_graph,
    random_regular_graph,
)


def test_sample_roots_uniform_and_single_violation():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    rng = random.Random(42)
    counts = Counter()
    for _ in range(5000):
        s = sample(rho, rng)
        assert root_of(g, s.assignment.bits) == s.root
        counts[s.root] += 1
    # 5000 draws over 5 roots: 1000 +- 130
    assert all(870 <= v <= 1130 for v in counts.values())


def _tree_edges(g, edges, root):
    """The parent edges of a BFS from root over the edges, each vertex's
    neighbours visited in ascending order; built from `g.edges` alone, so it
    shares no code with the sampler's own search."""
    near = {}
    for k in edges:
        u, v = g.edges[k]
        near.setdefault(u, []).append((v, k))
        near.setdefault(v, []).append((u, k))
    parent, queue = {root: None}, deque([root])
    while queue:
        u = queue.popleft()
        for w, k in sorted(near.get(u, ())):
            if w not in parent:
                parent[w] = k
                queue.append(w)
    return {k for k in parent.values() if k is not None}


def _sample_by_tree_complete(rho, rng):
    """The sampler as it was: a BFS per component to pick the non-tree edges,
    then `tree_complete`, which searches again."""
    g = rho.graph
    analysis = analyze_partial(g, rho)
    odd = analysis.odd_component
    root = sorted(odd)[rng.randrange(len(odd))]
    values = rho.as_dict()
    free = list(set_bits(rho.free_mask))  # ascending edge order
    for comp in analysis.components:
        comp_edges = [k for k in free if g.edges[k][0] in comp and g.edges[k][1] in comp]
        if not comp_edges:
            continue
        comp_root = root if comp == odd else min(comp)
        tree_edges = _tree_edges(g, comp_edges, comp_root)
        nontree = {k: rng.getrandbits(1) for k in comp_edges if k not in tree_edges}
        targets = {v: analysis.f_rho[v] for v in comp}
        values.update(tree_complete(g, comp, comp_edges, targets, comp_root, nontree))
    return root, sum(bit << k for k, bit in values.items())


# the last graph lists its edges in descending order, so listing order and
# neighbour order differ at every vertex of degree two or more
@settings(max_examples=150, deadline=None, database=None)
@given(
    st.sampled_from([
        cycle_graph(5),
        cycle_graph(9),
        complete_graph(5),
        random_regular_graph(9, 4, seed=9),
        Graph(9, random_regular_graph(9, 4, seed=9).edges[::-1]),
    ]),
    st.integers(0, 2**32),
    st.floats(0, 0.6),
)
def test_sample_matches_tree_complete_draw_for_draw(g, seed, fixed_share):
    rng = random.Random(seed)
    rho = EdgePartialAssignment.from_dict(
        g, {k: rng.getrandbits(1) for k in range(g.num_edges) if rng.random() < fixed_share}
    )
    assume(analyze_partial(g, rho).valid)
    rng1, rng2 = random.Random(seed), random.Random(seed)
    for _ in range(5):
        drawn = sample(rho, rng1)
        assert (drawn.root, drawn.assignment.bits) == _sample_by_tree_complete(rho, rng2)


def test_sample_draws_in_edge_order_past_the_set_table():
    # free edges inside a 33-vertex BFS ball of the 51-vertex graph; every
    # vertex outside the ball is fixed to an even residue by one edge into it
    g = random_regular_graph(51, 6, 2026)
    order, _ = bfs_tree(g, range(g.num_edges), 0)
    ball = set(order[:33])
    values = {k: 0 for k, (u, v) in enumerate(g.edges) if u not in ball or v not in ball}
    for v in sorted(set(range(g.num_vertices)) - ball):
        values[next(k for k, w in g.incident(v) if w in ball)] = 1
    rho = EdgePartialAssignment.from_dict(g, values)
    analysis = analyze_partial(g, rho)
    assert analysis.valid and analysis.odd_component == frozenset(ball)
    free = list(set_bits(rho.free_mask))
    # a set of these edges does not iterate in ascending order
    assert list(set(free)) != free
    rng1, rng2 = random.Random(0), random.Random(0)
    for _ in range(20):
        drawn = sample(rho, rng1)
        assert (drawn.root, drawn.assignment.bits) == _sample_by_tree_complete(rho, rng2)


def test_sample_requires_valid_rho():
    g = complete_graph(5)
    inc0 = [k for k, _ in g.incident(0)]
    bad = EdgePartialAssignment.from_dict(g, dict.fromkeys(inc0, 0))
    with pytest.raises(InvalidAssignmentError):
        sample(bad, random.Random(0))


def test_sample_roots_restricted_to_odd_component():
    g = complete_graph(5)
    inc0 = [k for k, _ in g.incident(0)]
    vals = dict.fromkeys(inc0, 0)
    vals[inc0[0]] = 1  # vertex 0 satisfied and isolated
    rho = EdgePartialAssignment.from_dict(g, vals)
    odd = analyze_partial(g, rho).odd_component
    assert odd == frozenset({1, 2, 3, 4})
    rng = random.Random(1)
    for _ in range(200):
        s = sample(rho, rng)
        assert s.root in odd
        # fixed edges preserved
        for k, bit in rho.entries:
            assert s.assignment.get(k) == bit


def test_root_of_many():
    g = complete_graph(5)
    r = root_of(g, 0)
    assert isinstance(r, Many) and r.violated == frozenset(range(5))


def _root_by_incidence(g, z):
    """Oracle: each vertex's parity summed over `Graph.incident`, vertex by vertex."""
    violated = []
    for v in range(g.num_vertices):
        acc = 0
        for k, _ in g.incident(v):
            acc ^= (z >> k) & 1
        if acc != 1:
            violated.append(v)
    return violated[0] if len(violated) == 1 else Many(frozenset(violated))


def test_root_of_matches_incidence_parity():
    graphs = [cycle_graph(n) for n in (3, 4, 7)] + [complete_graph(n) for n in (4, 5, 6)]
    graphs += [random_regular_graph(n, d, seed=s) for n, d, s in ((7, 4, 1), (8, 3, 2), (11, 6, 3), (51, 6, 2026))]
    rng = random.Random(17)
    kinds = Counter()
    for g in graphs:
        rho = EdgePartialAssignment.empty(g)
        for _ in range(60):
            if g.num_vertices % 2 and rng.getrandbits(1):
                # a sample has one root; flipping an edge moves it or makes three
                z = sample(rho, rng).assignment.bits ^ (rng.getrandbits(1) << rng.randrange(g.num_edges))
            else:
                z = rng.getrandbits(g.num_edges)
            got = root_of(g, z)
            assert got == _root_by_incidence(g, z)
            kinds[type(got)] += 1
    assert kinds[int] > 50 and kinds[Many] > 50


def test_tree_complete_unique_on_path():
    path = Graph.from_pairs(3, [(0, 1), (1, 2)])
    out = tree_complete(path, [0, 1, 2], [0, 1], {1: 0, 2: 1}, 0, {})
    # edge (1,2) forced to 1 by vertex 2, then edge (0,1) forced by vertex 1
    assert out == {1: 1, 0: 1}
    solutions = [
        (e0, e1)
        for e0 in (0, 1)
        for e1 in (0, 1)
        if (e0 ^ e1) == 0 and e1 == 1
    ]
    assert solutions == [(out[0], out[1])]


def test_tree_complete_nontree_branching():
    tri = cycle_graph(3)
    _, parent = bfs_tree(tri, [0, 1, 2], 0)
    nontree = ({0, 1, 2} - set(parent.values())).pop()
    seen = set()
    for h in (0, 1):
        out = tree_complete(tri, [0, 1, 2], [0, 1, 2], {1: 1, 2: 1}, 0, {nontree: h})
        seen.add(tuple(sorted(out.items())))
        for u in (1, 2):
            acc = 0
            for k, _ in tri.incident(u):
                acc ^= out[k]
            assert acc == 1
    assert len(seen) == 2


def test_tree_complete_single_vertex_and_disconnected():
    single = Graph(1, ())
    assert tree_complete(single, [0], [], {}, 0, {}) == {}
    two = Graph(2, ())
    with pytest.raises(ValueError):
        tree_complete(two, [0, 1], [], {1: 0}, 0, {})


def test_even_components_fully_satisfied():
    g = complete_graph(5)
    inc0 = [k for k, _ in g.incident(0)]
    vals = dict.fromkeys(inc0, 0)
    vals[inc0[0]] = 1
    rho = EdgePartialAssignment.from_dict(g, vals)
    rng = random.Random(5)
    for _ in range(100):
        s = sample(rho, rng)
        # vertex 0 sits in an even singleton component; its constraint holds
        acc = 0
        for k, _ in g.incident(0):
            acc ^= s.assignment.get(k)
        assert acc == 1


def test_assignment_uniform_within_each_root():
    # conditioned on the drawn root, the completion is uniform on the root's
    # space; on a triangle each space has just two points
    tri = cycle_graph(3)
    rho = EdgePartialAssignment.empty(tri)
    rng = random.Random(13)
    per_root = {v: Counter() for v in range(3)}
    for _ in range(3000):
        s = sample(rho, rng)
        per_root[s.root][s.assignment.bits] += 1
    for v, counts in per_root.items():
        members = set(points_array(root_space(rho, v)))
        assert set(counts) == members and len(members) == 2
        a, b = sorted(counts.values())
        total = a + b
        # two-sided binomial band at ~4 sigma
        assert abs(a - total / 2) <= 4 * (total * 0.25) ** 0.5


@st.composite
def partial_assignments(draw):
    """A random graph of at most 16 edges, listed in drawn order, a partial
    assignment to it, valid or not, and a vertex.  At times the graph is
    connected by a random spanning tree and, when its vertex count is odd,
    the fixed values are those of a sample, so that many root spaces are
    not empty."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if draw(st.booleans()) else []
    chords = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16 - len(tree))) if pairs else []
    g = Graph(n, tuple(draw(st.permutations(list(dict.fromkeys(tree + chords))))))
    mask = draw(st.integers(0, (1 << g.num_edges) - 1))
    z = draw(st.integers(0, (1 << g.num_edges) - 1))
    if tree and n % 2:
        z = sample(EdgePartialAssignment.empty(g), random.Random(z)).assignment.bits
    return EdgePartialAssignment(g, mask, z & mask), draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None, database=None)
@given(partial_assignments())
def test_root_space_is_the_extensions_with_that_root(case):
    # every extension of rho, enumerated, against the space in edge coordinates
    rho, v = case
    g = rho.graph
    free = list(set_bits(rho.free_mask))
    want = []
    for counter in range(1 << len(free)):
        z = rho.bits | sum(1 << k for j, k in enumerate(free) if counter >> j & 1)
        if _root_by_incidence(g, z) == v:
            want.append(z)
    if not want:
        with pytest.raises(InvalidAssignmentError):
            root_space(rho, v)
        return
    space = root_space(rho, v)
    assert space.width == g.num_edges
    assert sorted(points_array(space)) == want


def test_root_spaces_disjoint_equicardinal():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    point_sets = []
    for v in range(5):
        point_sets.append(set(points_array(root_space(rho, v))))
    assert {len(s) for s in point_sets} == {64}
    for i in range(5):
        for j in range(i + 1, 5):
            assert not point_sets[i] & point_sets[j]


def test_exact_root_distribution_uniform():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    rep = exact_root_distribution(rho)
    assert rep.ok
    assert all(p == Fraction(1, 5) for _, p in rep.law)
    # conditioning on one edge keeps the law uniform on the odd component
    rep = exact_root_distribution(rho, {0: 1})
    assert rep.ok


def test_exact_root_distribution_on_split():
    g = complete_graph(5)
    inc0 = [k for k, _ in g.incident(0)]
    # condition isolating vertex 0 with an odd residue: root forced there
    rep = exact_root_distribution(EdgePartialAssignment.empty(g), dict.fromkeys(inc0, 0))
    assert rep.odd_component == frozenset({0})
    assert rep.ok
    assert dict(rep.law)[0] == 1


def test_exact_root_distribution_on_even_singleton_split():
    # fixing vertex 0's edges to values satisfying its parity leaves an even
    # singleton plus an odd path; the law stays uniform on the path
    g = cycle_graph(5)
    rho = EdgePartialAssignment.empty(g)
    inc0 = [k for k, _ in g.incident(0)]
    rep = exact_root_distribution(rho, {inc0[0]: 1, inc0[1]: 0})
    assert rep.odd_component == frozenset({1, 2, 3, 4})
    assert rep.ok and dict(rep.law)[0] == 0


def test_exact_root_distribution_inconsistent_condition():
    # isolating two vertices with odd residues leaves three odd components,
    # which no sample can realize
    g = cycle_graph(5)
    rho = EdgePartialAssignment.empty(g)
    cond = {}
    for v in (0, 2):
        for k, _ in g.incident(v):
            cond[k] = 0
    with pytest.raises(InconsistentConditionError):
        exact_root_distribution(rho, cond)


@pytest.mark.parametrize("fixed", [{}, {0: 1}])
def test_exact_root_distribution_counts_match_point_enumeration(fixed):
    # counting by rank against the point-enumeration oracle, over every
    # conditioning of at most two free edges of K5
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g).extend(fixed)
    free = list(set_bits(rho.free_mask))
    points = {v: points_array(root_space(rho, v)) for v in range(5)}
    compared = 0
    for size in range(3):
        for subset in itertools.combinations(free, size):
            for bits in range(1 << size):
                cond = {k: (bits >> j) & 1 for j, k in enumerate(subset)}
                try:
                    rep = exact_root_distribution(rho, cond)
                except InconsistentConditionError:
                    continue
                cmask = sum(1 << k for k in cond)
                cval = sum(bit << k for k, bit in cond.items())
                want = [(v, sum(z & cmask == cval for z in points[v])) for v in range(5)]
                assert list(rep.counts) == want
                compared += 1
    assert compared > 100


@st.composite
def rooted_conditions(draw):
    """A random graph, a valid partial assignment and a condition on some of
    its free edges, which may match no sample.

    The graph is a random tree on an odd number of vertices plus random
    chords, and at times a separate edge (an even component).  Edges are
    fixed in drawn order up to the first that would make rho invalid.
    """
    n = draw(st.sampled_from([1, 3, 5, 7]))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    pairs |= set(draw(st.lists(st.sampled_from(chords), max_size=6))) if chords else set()
    if n >= 3 and draw(st.booleans()):
        pairs.add((n, n + 1))
        n += 2
    g = Graph.from_pairs(n, sorted(pairs))
    values = {}
    for k in draw(st.permutations(range(g.num_edges))):
        trial = EdgePartialAssignment.from_dict(g, {**values, k: draw(st.integers(0, 1))})
        if not analyze_partial(g, trial).valid:
            break
        values = trial.as_dict()
    rho = EdgePartialAssignment.from_dict(g, values)
    free = list(set_bits(rho.free_mask))
    cond = draw(st.lists(st.sampled_from(free), unique=True, max_size=len(free))) if free else []
    return rho, {k: draw(st.integers(0, 1)) for k in cond}


@settings(max_examples=300, deadline=None, database=None)
@given(rooted_conditions())
def test_exact_root_distribution_counts_match_root_spaces(case):
    # one tagged elimination for every root against a root space per root cut by the condition
    rho, cond = case
    want = []
    for v in sorted(analyze_partial(rho.graph, rho).odd_component):
        space = root_space(rho, v)
        for k, bit in cond.items():
            space = space.with_equation(1 << k, bit)
        want.append((v, 0 if space is EMPTY else space.size()))
    try:
        rep = exact_root_distribution(rho, cond)
    except InconsistentConditionError:
        combined = analyze_partial(rho.graph, rho.extend(cond))
        assert len(combined.odd_components) != 1 or all(c == 0 for _, c in want)
        return
    assert list(rep.counts) == want
    assert rep.ok


def _root_law_by_free_edge_positions(rho, condition=None):
    """`exact_root_distribution` as it was written over free-edge positions:
    a position dict, compressed vertex forms and one Fraction per vertex,
    each compared with 1/|c1|.  Kept as the reference for the mask version."""
    g = rho.graph
    odd = valid_analysis(rho).odd_component
    pos = {k: i for i, k in enumerate(set_bits(rho.free_mask))}
    forms = [sum(1 << pos[k] for k, _ in g.incident(u) if k in pos) for u in range(g.num_vertices)]
    condition = dict(condition or {})
    for k in condition:
        if k not in pos:
            raise ValueError(f"conditioned edge {k} is not free in rho")
    comb_analysis = analyze_partial(g, rho.extend(condition))
    if len(comb_analysis.odd_components) != 1:
        raise InconsistentConditionError("condition breaks the single-odd-component structure")
    c1 = comb_analysis.odd_components[0]
    f = rho.analysis.f_rho
    rows = [(form, f[u] | (2 << u)) for u, form in enumerate(forms)]
    rows += [(1 << pos[k], bit & 1) for k, bit in condition.items()]
    basis = []
    zero_tags = []
    for form, tag in rows:
        residue, tag = f2._tagged_insert(basis, form, tag)
        if not residue:
            zero_tags.append(tag)
    size = 1 << (len(pos) - len(basis))
    counts = [(v, size if all((tag ^ (tag >> (v + 1))) & 1 == 0 for tag in zero_tags) else 0) for v in sorted(odd)]
    total = sum(c for _, c in counts)
    if total == 0:
        raise InconsistentConditionError("condition matches no sample")
    law = tuple((v, Fraction(c, total)) for v, c in counts)
    support_ok = frozenset(v for v, c in counts if c > 0) == c1
    in_c1 = [c for v, c in counts if v in c1]
    equal_counts_ok = len(set(in_c1)) == 1 and all(c == 0 for v, c in counts if v not in c1)
    uniform_ok = all(p == Fraction(1, len(c1)) for v, p in law if v in c1) and support_ok
    return RootLawReport(c1, tuple(counts), law, support_ok, uniform_ok, equal_counts_ok)


@st.composite
def root_law_inputs(draw):
    """`rooted_conditions`, at times with one more condition entry: an edge
    fixed in rho, an edge index out of range, or a value other than a bit."""
    rho, cond = draw(rooted_conditions())
    extra = draw(st.sampled_from(["none", "fixed", "range", "value"]))
    fixed, free = list(set_bits(rho.mask)), list(set_bits(rho.free_mask))
    if extra == "fixed" and fixed:
        key, value = draw(st.sampled_from(fixed)), draw(st.integers(0, 1))
    elif extra == "range":
        key, value = draw(st.sampled_from([-1, rho.graph.num_edges, rho.graph.num_edges + 5])), draw(st.integers(0, 1))
    elif extra == "value" and free:
        key, value = draw(st.sampled_from(free)), 2
    else:
        return rho, cond
    items = list(cond.items())
    items.insert(draw(st.integers(0, len(items))), (key, value))
    return rho, dict(items)


def _root_law_outcome(law, rho, cond):
    try:
        return law(rho, cond)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(root_law_inputs())
def test_exact_root_distribution_matches_the_free_edge_position_version(case):
    # the whole report, or the same exception type and message
    rho, cond = case
    want = _root_law_outcome(_root_law_by_free_edge_positions, rho, cond)
    got = _root_law_outcome(exact_root_distribution, rho, cond)
    assert got == want
    assert repr(got) == repr(want)


def test_root_laws_are_pinned():
    """Root laws of every conditioning of at most two edges of K5 and of the
    7-vertex 4-regular graph at seed 7, the two graphs of tseitin-certify."""
    rows = []
    for g in (complete_graph(5), random_regular_graph(7, 4, seed=7)):
        rho = EdgePartialAssignment.empty(g)
        for size in range(3):
            for subset in itertools.combinations(range(g.num_edges), size):
                for bits in itertools.product((0, 1), repeat=size):
                    rep = exact_root_distribution(rho, dict(zip(subset, bits)))
                    law = [(v, p.numerator, p.denominator) for v, p in rep.law]
                    rows.append((sorted(rep.odd_component), rep.counts, law, rep.support_ok, rep.uniform_ok, rep.equal_counts_ok))
    assert len(rows) == 594
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "88f3c47885252abd"


@pytest.mark.parametrize(
    "graph, condition, odd",
    [
        (complete_graph(5), {0: 1}, {0, 1, 2, 3}),  # the support is all five vertices
        (cycle_graph(5), {0: 1, 1: 0}, {0, 1, 2, 3, 4}),  # vertex 1 is cut off, with count 0
    ],
)
def test_root_law_checks_fail_when_the_odd_component_is_not_the_support(monkeypatch, graph, condition, odd):
    # root hiding makes the three checks hold on every real input, so each is
    # shown to be a check by handing it a conditioned odd component that is wrong
    rho = EdgePartialAssignment.empty(graph)
    real = dtfooling.analyze_partial

    def wrong_odd_component(g, assignment):
        analysis = real(g, assignment)
        return analysis if assignment is rho else dataclasses.replace(analysis, odd_components=(frozenset(odd),))

    assert exact_root_distribution(rho, condition).ok
    monkeypatch.setattr(dtfooling, "analyze_partial", wrong_odd_component)
    rep = exact_root_distribution(rho, condition)
    assert rep.odd_component == frozenset(odd)
    assert (rep.support_ok, rep.uniform_ok, rep.equal_counts_ok) == (False, False, False)


def test_sampler_matches_exact_law_conditionally():
    g = complete_graph(5)
    rho = EdgePartialAssignment.empty(g)
    condition = {0: 1, 3: 0}
    law = dict(exact_root_distribution(rho, condition).law)
    rng = random.Random(11)
    counts = Counter()
    matched = 0
    while matched < 4000:
        s = sample(rho, rng)
        if all(s.assignment.get(k) == bit for k, bit in condition.items()):
            counts[s.root] += 1
            matched += 1
    for v, p in law.items():
        mean = matched * float(p)
        sigma = (matched * float(p) * (1 - float(p))) ** 0.5
        assert abs(counts.get(v, 0) - mean) <= 4 * max(sigma, 1.0)
