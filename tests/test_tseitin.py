import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resoplus import dtfooling, f2, tseitin
from resoplus._text import ParseError
from resoplus.cnf import Cnf, find_model, satisfying_chunks
from resoplus.gadget import ip_gadget, lift_cnf
from resoplus.oracles import eval_bits
from resoplus.tseitin import (
    EdgePartialAssignment,
    Graph,
    analyze_partial,
    brute_unsat,
    complete_graph,
    cycle_graph,
    expander_metrics,
    random_regular_graph,
    tseitin_cnf,
)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(chosen))


@settings(max_examples=200, deadline=None, database=None)
@given(random_graphs())
def test_cached_incidence_matches_edge_scan(g):
    degrees = []
    for v in range(g.num_vertices):
        scan = [(k, b if a == v else a) for k, (a, b) in enumerate(g.edges) if v in (a, b)]
        assert list(g.incident(v)) == scan
        degrees.append(len(scan))
    assert g.degree_if_regular() == (degrees[0] if degrees.count(degrees[0]) == len(degrees) else None)
    with pytest.raises(ValueError):
        g.incident(g.num_vertices)
    with pytest.raises(ValueError):
        g.incident(-1)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((1, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-3, ())
    with pytest.raises(ValueError, match="nonnegative"):
        Graph.from_text("v -3\n")
    g = Graph.from_pairs(3, [(2, 0), (0, 1)])
    assert g.edges == ((0, 2), (0, 1))


def test_k5_metrics():
    m = expander_metrics(complete_graph(5))
    assert abs(m.lambda_norm - 0.25) < 1e-9
    assert m.cheeger_ok is True
    # |S|=2 cut of K5 has 6 edges, comfortably above (4/5)*2
    assert m.worst_cut_ratio is not None and m.worst_cut_ratio * 5 >= 4


def test_disconnected_graph_fails_cheeger():
    g = Graph.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    m = expander_metrics(g)
    assert abs(m.lambda_norm - 1.0) < 1e-9
    assert m.cheeger_ok is False


def test_metrics_requires_regularity():
    with pytest.raises(ValueError):
        expander_metrics(Graph.from_pairs(3, [(0, 1)]))


def test_cheeger_sweep_skipped_above_cap():
    g = random_regular_graph(24, 3, seed=5)
    m = expander_metrics(g)
    assert m.cheeger_ok is None


def test_tseitin_cnf_shapes():
    t = tseitin_cnf(complete_graph(5))
    assert t.cnf.num_vars == 10
    assert len(t.cnf.clauses) == 40  # five vertices, 2^(4-1) each
    tri = tseitin_cnf(cycle_graph(3))
    assert tri.cnf.num_vars == 3 and len(tri.cnf.clauses) == 6
    for start, end in t.vertex_clause_ranges:
        assert end - start == 8


def test_tseitin_charge_validation():
    g = Graph(2, ((0, 1),))
    with pytest.raises(ValueError):
        tseitin_cnf(g, charge=(1, 1))  # even total charge in contradiction mode
    sat = tseitin_cnf(g, charge=(1, 1), contradiction=False)
    assert find_model(sat.cnf) == 1  # the single edge set to one
    unsat = tseitin_cnf(g, charge=(1, 0), contradiction=False)
    assert find_model(unsat.cnf) is None


def test_brute_unsat_examples():
    assert brute_unsat(tseitin_cnf(complete_graph(5)))
    assert not brute_unsat(Cnf(0, ()))  # the empty CNF is satisfiable
    tri = tseitin_cnf(cycle_graph(3)).cnf
    lifted = lift_cnf(tri, ip_gadget(2))
    assert lifted.num_vars == 6
    assert brute_unsat(lifted)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v))), max_size=3), max_size=6))))
def test_sweep_is_independent_of_chunk_size(case):
    n, clauses = case
    cnf = Cnf(n, tuple(tuple(c) for c in clauses))
    want = [x for x in range(1 << n) if eval_bits(cnf, x)]
    for bits in (0, 3, 16, 20):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(f2, "CHUNK_BITS", bits)
            got = [int(x) for chunk in satisfying_chunks(cnf) for x in chunk]
        assert got == want
    assert find_model(cnf) == (want[0] if want else None)


def test_violation_parity_identity():
    # on every total assignment, the number of violated vertex constraints is
    # at least one and has the parity of the total charge
    for g in (cycle_graph(3), cycle_graph(5), complete_graph(5)):
        charge_sum = g.num_vertices % 2
        for bits in range(1 << g.num_edges):
            r = dtfooling.root_of(g, bits)
            violated = 1 if isinstance(r, int) else len(r.violated)
            assert violated >= 1
            assert violated % 2 == charge_sum % 2


def _random_valid_rho(g, rng, max_fixed):
    rho = EdgePartialAssignment.empty(g)
    z = dtfooling.sample(rho, rng).assignment
    picks = rng.sample(range(g.num_edges), rng.randint(0, max_fixed))
    cand = EdgePartialAssignment.from_dict(g, {k: z.get(k) for k in picks})
    return cand if analyze_partial(g, cand).valid else None


def test_valid_assignments_downward_closed():
    g = complete_graph(5)
    rng = random.Random(77)
    checked = 0
    while checked < 1000:
        rho = _random_valid_rho(g, rng, 6)
        if rho is None or not rho.entries:
            continue
        edge = rng.choice([k for k, _ in rho.entries])
        smaller = EdgePartialAssignment.from_dict(g, {k: bit for k, bit in rho.entries if k != edge})
        assert analyze_partial(g, smaller).valid
        checked += 1


def test_valid_assignments_never_falsify():
    g = complete_graph(5)
    cnf = tseitin_cnf(g).cnf
    rng = random.Random(78)
    checked = 0
    while checked < 300:
        rho = _random_valid_rho(g, rng, 7)
        if rho is None:
            continue
        values = rho.as_dict()
        for clause in cnf.clauses:
            falsified = all(
                abs(l) - 1 in values and values[abs(l) - 1] == (0 if l > 0 else 1) for l in clause
            )
            assert not falsified
        checked += 1


def test_analyze_partial_examples():
    g = complete_graph(5)
    assert analyze_partial(g, EdgePartialAssignment.empty(g)).valid
    # K5 minus one edge stays connected
    one = EdgePartialAssignment.from_dict(g, {0: 0})
    pa = analyze_partial(g, one)
    assert pa.valid and len(pa.components) == 1
    # isolate vertex 0 with its constraint satisfied: even singleton, still valid
    inc0 = [k for k, _ in g.incident(0)]
    sat_vals = dict.fromkeys(inc0, 0)
    sat_vals[inc0[0]] = 1
    pa = analyze_partial(g, EdgePartialAssignment.from_dict(g, sat_vals))
    assert pa.valid and frozenset({0}) in pa.components
    # isolate vertex 0 violated: odd singleton, invalid
    pa = analyze_partial(g, EdgePartialAssignment.from_dict(g, dict.fromkeys(inc0, 0)))
    assert not pa.valid and frozenset({0}) in pa.odd_components


@st.composite
def graphs_with_values(draw):
    """A random graph and a random {edge: bit} assignment to some of its edges."""
    g = draw(random_graphs())
    edges = st.integers(0, g.num_edges - 1) if g.num_edges else st.nothing()
    return g, draw(st.dictionaries(edges, st.integers(0, 1))), draw(st.dictionaries(edges, st.integers(0, 1)))


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_with_values())
def test_analysis_matches_networkx_and_residue_parity(case):
    g, values, _ = case
    n = g.num_vertices
    free = [k for k in range(g.num_edges) if k not in values]
    free_graph = nx.Graph()
    free_graph.add_nodes_from(range(n))
    free_graph.add_edges_from(g.edges[k] for k in free)
    want = sorted((frozenset(c) for c in nx.connected_components(free_graph)), key=min)
    assert g.components(sum(1 << k for k in free)) == want
    residue = [(1 + sum(bit for k, bit in values.items() if v in g.edges[k])) % 2 for v in range(n)]
    odd = tuple(c for c in want if sum(residue[v] for v in c) % 2)
    pa = analyze_partial(g, EdgePartialAssignment.from_dict(g, values))
    assert pa.components == tuple(want)
    assert pa.f_rho == tuple(residue)
    assert pa.odd_components == odd
    assert pa.valid == (len(odd) == 1 and 2 * len(odd[0]) > n)


def _dict_extend(base, values):
    """extend's dict semantics: merge, refusing a value that contradicts a fixed one."""
    merged = dict(base)
    for k, bit in values.items():
        if k in merged and merged[k] != bit:
            raise ValueError(f"edge {k} already fixed to {merged[k]}")
        merged[k] = bit
    return merged


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_with_values())
def test_partial_assignment_follows_dict_semantics(case):
    g, base, more = case
    rho = EdgePartialAssignment.from_dict(g, base)
    assert rho.as_dict() == base
    assert rho.entries == tuple(sorted(base.items()))
    assert rho.free_mask == sum(1 << k for k in range(g.num_edges) if k not in base)
    assert EdgePartialAssignment.from_text(g, rho.to_text()) == rho
    parent_analysis = rho.analysis
    try:
        want = _dict_extend(base, more)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            rho.extend(more)
    else:
        child = rho.extend(more)
        assert child.as_dict() == want
        assert child.analysis == EdgePartialAssignment.from_dict(g, want).analysis
    assert rho.analysis is parent_analysis


def test_each_assignment_is_analysed_once():
    g = complete_graph(5)
    rho = EdgePartialAssignment.from_dict(g, {0: 1, 4: 0})
    assert analyze_partial(g, rho) is analyze_partial(g, rho)
    # an equal graph built apart is the same graph
    assert analyze_partial(complete_graph(5), rho) is rho.analysis


def test_partial_assignment_rejects_malformed_ints():
    g = complete_graph(5)
    rho = EdgePartialAssignment.from_dict(g, {0: 1})
    with pytest.raises(ValueError, match="another graph"):
        analyze_partial(cycle_graph(5), rho)
    with pytest.raises(ValueError, match="fixed edges"):
        EdgePartialAssignment(g, 0b01, 0b10)  # a value on free edge 1
    with pytest.raises(ValueError, match="out of range"):
        EdgePartialAssignment(g, 1 << g.num_edges, 0)
    with pytest.raises(ValueError, match="out of range"):
        EdgePartialAssignment(g, -1, 0)
    with pytest.raises(ValueError, match="out of range"):
        EdgePartialAssignment.from_dict(g, {g.num_edges: 0})
    with pytest.raises(ValueError, match="bits"):
        EdgePartialAssignment.from_dict(g, {0: 2})


def test_text_inputs_reject_duplicate_lines():
    # a later line used to override an earlier one without a word
    with pytest.raises(ParseError, match="^line 2: second v header$"):
        Graph.from_text("v 5\nv 3\ne 0 1\n")
    g = complete_graph(5)
    with pytest.raises(ParseError, match="^line 3: edge 0 is fixed twice$"):
        EdgePartialAssignment.from_text(g, "0 1\n2 1\n0 0\n")
    with pytest.raises(ParseError, match="^line 2: edge 3 is fixed twice$"):
        EdgePartialAssignment.from_text(g, "3 1\n3 1\n")
    assert EdgePartialAssignment.from_text(g, "0 1\n# 0 0\n2 0\n").as_dict() == {0: 1, 2: 0}


def test_graph_and_partial_file_round_trip():
    g = random_regular_graph(7, 4, seed=7)
    assert g.degree_if_regular() == 4
    assert Graph.from_text(g.to_text()) == g
    rho = EdgePartialAssignment.from_dict(g, {0: 1, 5: 0})
    assert EdgePartialAssignment.from_text(g, rho.to_text()) == rho


def test_emit_dimacs():
    tri = tseitin_cnf(cycle_graph(3))
    text = tri.cnf.to_dimacs()
    assert text.splitlines()[0] == "p cnf 3 6"
    assert Cnf.from_dimacs(text) == tri.cnf
    assert Cnf(0, ()).to_dimacs().splitlines()[0] == "p cnf 0 0"


def test_random_regular_reproducible():
    g1 = random_regular_graph(10, 3, seed=4)
    g2 = random_regular_graph(10, 3, seed=4)
    assert g1 == g2
    assert g1.degree_if_regular() == 3


@pytest.mark.parametrize("vertices, degree", [(6, 0), (4, 1), (2, 0), (4, -2)])
def test_random_regular_without_a_connected_graph_is_rejected(vertices, degree):
    # read past, each made 200 draws and then raised a RuntimeError
    with pytest.raises(ValueError, match=f"^no connected graph has degree {degree} and {vertices} vertices$"):
        random_regular_graph(vertices, degree, seed=1)


def test_random_regular_smallest_connected_graphs():
    assert random_regular_graph(1, 0, seed=1) == Graph(1, ())
    assert random_regular_graph(2, 1, seed=1) == Graph(2, ((0, 1),))


def test_random_regular_gives_up_with_a_value_error(monkeypatch):
    # a seed that finds no connected graph is out-of-scope input, exit 2 at the CLI
    monkeypatch.setattr(tseitin, "_REGULAR_GRAPH_TRIES", 0)
    with pytest.raises(ValueError, match="^failed to generate a random regular graph; try another seed$"):
        random_regular_graph(10, 3, seed=4)
