import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resoplus._text import ParseError
from resoplus.cnf import Cnf, _clause_masks
from resoplus.f2 import EMPTY, FVec, enumerate_points, full_space, is_subspace, space_from_pairs
from resoplus.gadget import ip_gadget, lift_cnf
from resoplus.resproof import (
    LEAF,
    QRY,
    WEAK,
    CheckResult,
    CycleError,
    DanglingNodeError,
    ProofDag,
    ProofNode,
    SatisfiableError,
    check,
    _falsifies,
    _reverse_postorder,
    metrics,
    parse_text,
    pdt_refute,
    to_text,
)
from resoplus.oracles import all_inputs_trace_ok, clause_negation_space, eval_bits, trace
from resoplus.tseitin import complete_graph, cycle_graph, tseitin_cnf

UNIT_PAIR = Cnf(1, ((1,), (-1,)))


def test_canonical_three_node_proof():
    dag = pdt_refute(UNIT_PAIR)
    assert check(dag, UNIT_PAIR).ok
    assert metrics(dag) == (3, 1)
    t = trace(dag, UNIT_PAIR, 1)
    assert UNIT_PAIR.clauses[t.clause_index] == (-1,)
    t = trace(dag, UNIT_PAIR, 0)
    assert UNIT_PAIR.clauses[t.clause_index] == (1,)


def test_file_round_trip():
    dag = pdt_refute(UNIT_PAIR)
    txt = to_text(dag)
    again = parse_text(txt)
    assert check(again, UNIT_PAIR).ok
    assert to_text(again) == txt


def test_parse_errors():
    with pytest.raises(DanglingNodeError):
        parse_text("rxp 1 1\n0 k=WEAK 7\n")
    with pytest.raises(CycleError):
        parse_text("rxp 1 2\n0 k=WEAK 1\n1 k=WEAK 0\n")
    with pytest.raises(ParseError, match="^line 2: "):
        parse_text("rxp 1 1\n0 k=BOGUS 0\n")
    with pytest.raises(ParseError, match="^line 1: missing rxp header$"):
        parse_text("0 k=LEAF 0\n")
    with pytest.raises(ParseError, match="^line 3: second rxp header$"):
        parse_text("rxp 1 2\n0 k=WEAK 1\nrxp 1 2\n1 k=LEAF 0\n")


def test_check_rejects_swapped_leaf_label():
    dag = pdt_refute(UNIT_PAIR)
    nodes = list(dag.nodes)
    for i, n in enumerate(nodes):
        if n.kind == LEAF:
            nodes[i] = ProofNode(n.node_id, LEAF, n.space, clause=1 - n.clause)
            break
    res = check(ProofDag.build(1, nodes), UNIT_PAIR)
    assert not res.ok and res.rule == "LEAF-FALSIFICATION"


def test_check_rejects_weaken_superset():
    cnf = Cnf(1, ((),))
    nodes = [
        ProofNode(0, WEAK, full_space(1), child=1),
        ProofNode(1, LEAF, space_from_pairs(1, [(1, 1)]), clause=0),
    ]
    res = check(ProofDag.build(1, nodes), cnf)
    assert not res.ok and res.rule == "WEAKEN-CONTAINMENT"


def test_check_rejects_bad_root():
    cnf = Cnf(1, ((),))
    nodes = [ProofNode(0, LEAF, space_from_pairs(1, [(1, 0)]), clause=0)]
    res = check(ProofDag.build(1, nodes), cnf)
    assert not res.ok and res.rule == "ROOT-SPACE"


def test_weakening_chain_depth_zero():
    cnf = Cnf(1, ((),))
    nodes = [ProofNode(i, WEAK, full_space(1), child=i + 1) for i in range(5)]
    nodes.append(ProofNode(5, LEAF, full_space(1), clause=0))
    dag = ProofDag.build(1, nodes)
    assert check(dag, cnf).ok
    assert metrics(dag) == (6, 0)


def test_complete_tree_depth():
    cnf = Cnf(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)))
    dag = pdt_refute(cnf)
    assert check(dag, cnf).ok
    assert metrics(dag)[1] == 2


def test_refutations_of_small_corpus():
    tri = tseitin_cnf(cycle_graph(3)).cnf
    k5 = tseitin_cnf(complete_graph(5)).cnf
    lifted_tri = lift_cnf(tri, ip_gadget(2))
    for cnf in (UNIT_PAIR, tri, k5, lifted_tri):
        dag = pdt_refute(cnf)
        assert check(dag, cnf).ok
    assert all_inputs_trace_ok(pdt_refute(tri), tri)
    assert all_inputs_trace_ok(pdt_refute(lifted_tri), lifted_tri)


def test_refutation_leaves_name_the_first_falsified_clause():
    # the mask test against a literal-by-literal scan, on a CNF with a
    # tautological clause and a repeated literal in front of shuffled clauses
    clauses = list(tseitin_cnf(complete_graph(5)).cnf.clauses)
    random.Random(3).shuffle(clauses)
    cnf = Cnf(10, tuple([(1, -1), (2, 2, -3)] + clauses))
    dag = pdt_refute(cnf)

    def first_falsified(space):
        fixed = {(f & -f).bit_length(): bit for f, bit in space.rows}
        for idx, clause in enumerate(cnf.clauses):
            if all(fixed.get(abs(lit)) == (0 if lit > 0 else 1) for lit in clause):
                return idx
        return None

    for node in dag.nodes:
        assert first_falsified(node.space) == (node.clause if node.kind == LEAF else None)
    assert check(dag, cnf).ok


def _pdt_refute_by_scan(cnf):
    """Oracle: the refuter scanning every clause at every node, recursively."""
    nodes = []
    masks = [(pos | neg, pos, neg) for pos, neg in _clause_masks(cnf)]

    def build(level, mask, value, space):
        node_id = len(nodes)
        for idx, (both, pos, neg) in enumerate(masks):
            if both & ~mask == 0 and value & pos == 0 and value & neg == neg:
                nodes.append(ProofNode(node_id, LEAF, space, clause=idx))
                return node_id
        if level == cnf.num_vars:
            raise SatisfiableError(FVec(cnf.num_vars, value))
        nodes.append(None)
        bit = 1 << level
        c0 = build(level + 1, mask | bit, value, space.with_equation(bit, 0))
        c1 = build(level + 1, mask | bit, value | bit, space.with_equation(bit, 1))
        nodes[node_id] = ProofNode(node_id, QRY, space, form=bit, child0=c0, child1=c1)
        return node_id

    build(0, 0, 0, full_space(cnf.num_vars))
    return ProofDag.build(cnf.num_vars, nodes)


@st.composite
def small_cnfs(draw):
    """Random CNFs on up to 6 variables whose clauses may be empty,
    tautological or repeat a literal."""
    n = draw(st.integers(0, 6))
    clauses = []
    if n:
        literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4).map(tuple), max_size=24))
    if draw(st.integers(0, 7)) == 0:  # now and then an empty clause, which closes the root
        clauses.insert(draw(st.integers(0, len(clauses))), ())
    return Cnf(n, tuple(clauses))


@settings(max_examples=400, deadline=None, database=None)
@given(small_cnfs())
def test_level_indexed_refuter_matches_clause_scan(cnf):
    try:
        want = _pdt_refute_by_scan(cnf)
    except SatisfiableError as exc:
        with pytest.raises(SatisfiableError) as got:
            pdt_refute(cnf)
        assert got.value.model == exc.model
        return
    dag = pdt_refute(cnf)
    assert (dag.width, dag.nodes) == (want.width, want.nodes)
    assert check(dag, cnf).ok


def test_trace_length_bounded_by_depth():
    tri = tseitin_cnf(cycle_graph(3)).cnf
    dag = pdt_refute(tri)
    _, depth = metrics(dag)
    for bits in range(8):
        assert trace(dag, tri, bits).path_length <= depth


def test_satisfiable_input_rejected_with_model():
    sat = Cnf(2, ((1, 2),))
    with pytest.raises(SatisfiableError) as exc:
        pdt_refute(sat)
    assert eval_bits(sat, exc.value.model.bits)


def _mutations(dag, cnf, rng):
    """Single-point corruptions that genuinely change the checked semantics."""
    nodes = list(dag.nodes)
    idx = rng.randrange(len(nodes))
    node = nodes[idx]
    kind = rng.choice(["rhs", "child", "label"])
    if kind == "rhs" and node.space is not EMPTY and node.space.rows:
        row_i = rng.randrange(len(node.space.rows))
        rows = list(node.space.rows)
        form, bit = rows[row_i]
        rows[row_i] = (form, bit ^ 1)
        new_space = space_from_pairs(dag.width, rows)
        if new_space == node.space:
            return None
        nodes[idx] = ProofNode(node.node_id, node.kind, new_space, clause=node.clause,
                               child=node.child, form=node.form, child0=node.child0, child1=node.child1)
        return nodes
    if kind == "child" and node.kind == QRY:
        other = rng.choice([n.node_id for n in nodes])
        if other in (node.child0, node.node_id):
            return None
        target = dag.by_id[node.child0]
        if dag.by_id[other].space == target.space:
            return None
        nodes[idx] = ProofNode(node.node_id, QRY, node.space, form=node.form,
                               child0=other, child1=node.child1)
        try:
            ProofDag.build(dag.width, nodes)
        except (CycleError, DanglingNodeError):
            return None
        return nodes
    if kind == "label" and node.kind == LEAF:
        other = rng.randrange(len(cnf.clauses))
        if other == node.clause:
            return None
        # independent oracle: keep only corruptions where some point of the
        # leaf space fails to falsify the new clause
        breaks = any(
            not cnf.clause_falsified_by(other, p.bits) for p in enumerate_points(node.space)
        )
        if not breaks:
            return None
        nodes[idx] = ProofNode(node.node_id, LEAF, node.space, clause=other)
        return nodes
    return None


def test_mutations_always_rejected():
    tri = tseitin_cnf(cycle_graph(3)).cnf
    corpus = [(UNIT_PAIR, pdt_refute(UNIT_PAIR)), (tri, pdt_refute(tri))]
    rng = random.Random(99)
    rejected = 0
    while rejected < 120:
        cnf, dag = corpus[rng.randrange(len(corpus))]
        mutated = _mutations(dag, cnf, rng)
        if mutated is None:
            continue
        res = check(ProofDag.build(dag.width, mutated), cnf)
        assert not res.ok, "a corrupted proof was silently accepted"
        rejected += 1


@st.composite
def space_and_clause(draw):
    """A space cut by unit and random equations, and a clause over its width
    that may repeat or negate a literal."""
    width = draw(st.integers(1, 7))
    forms = st.one_of(st.integers(0, width - 1).map(lambda v: 1 << v), st.integers(0, (1 << width) - 1))
    pairs = draw(st.lists(st.tuples(forms, st.integers(0, 1)), max_size=width + 1))
    literals = st.integers(1, width).flatmap(lambda v: st.sampled_from((v, -v)))
    return width, space_from_pairs(width, pairs), tuple(draw(st.lists(literals, max_size=4)))


@settings(max_examples=400, deadline=None, database=None)
@given(space_and_clause())
def test_falsifies_matches_negation_space_and_points(case):
    width, space, clause = case
    cnf = Cnf(width, (clause,))
    want = is_subspace(space, clause_negation_space(width, clause))
    assert _falsifies(space, clause) == want
    assert want == all(cnf.clause_falsified_by(0, p.bits) for p in enumerate_points(space))


@st.composite
def proof_graphs(draw):
    """(root id, [(id, kind, children)]) over ids 0..n-1, listed in shuffled order.

    A hidden rank orders the nodes, and every child ranks at most three
    above its parent, so the graph is acyclic and paths of unequal depth
    often meet.  The root may rank above other nodes, which it then cannot
    reach; a weakening node whose child ranks next to it extends a chain.
    """
    n = draw(st.integers(1, 24))
    rank = draw(st.permutations(range(n)))
    at = {r: nid for nid, r in enumerate(rank)}
    nodes = []
    for nid in range(n):
        room = n - 1 - rank[nid]
        kind = draw(st.sampled_from([LEAF, WEAK, WEAK, QRY, QRY])) if room else LEAF
        width = {LEAF: 0, WEAK: 1, QRY: 2}[kind]
        kids = tuple(at[rank[nid] + draw(st.integers(1, min(3, room)))] for _ in range(width))
        nodes.append((nid, kind, kids))
    return at[draw(st.integers(0, n // 2))], draw(st.permutations(nodes))


def _proof_nodes(root, listing):
    space = full_space(1)
    made = []
    for nid, kind, kids in listing:
        if kind == LEAF:
            made.append(ProofNode(nid, LEAF, space, clause=0))
        elif kind == WEAK:
            made.append(ProofNode(nid, WEAK, space, child=kids[0]))
        else:
            made.append(ProofNode(nid, QRY, space, form=1, child0=kids[0], child1=kids[1]))
    made.sort(key=lambda node: node.node_id != root)  # the root is listed first
    return made


def _digraph(nodes):
    graph = nx.DiGraph()
    graph.add_nodes_from(node.node_id for node in nodes)
    for node in nodes:
        for c in node.children():
            graph.add_edge(node.node_id, c, weight=int(node.kind == QRY))
    return graph


@settings(max_examples=400, deadline=None, database=None)
@given(proof_graphs())
def test_order_and_metrics_match_a_longest_path_oracle(case):
    nodes = _proof_nodes(*case)
    dag = ProofDag.build(1, nodes)
    place = {node.node_id: i for i, node in enumerate(dag.order)}
    assert sorted(place) == sorted(dag.by_id) and len(dag.order) == len(nodes)
    for node in nodes:
        assert dag.by_id[node.node_id] is dag.order[place[node.node_id]]
        assert all(place[node.node_id] < place[c] for c in node.children())
    # depth: the longest root path, a query counting one on its way out;
    # a sink edge out of every node carries the last node's own weight
    graph = _digraph(nodes)
    reach = graph.subgraph(nx.descendants(graph, dag.root.node_id) | {dag.root.node_id}).copy()
    for node in nodes:
        if node.node_id in reach:
            reach.add_edge(node.node_id, "sink", weight=int(node.kind == QRY))
    assert metrics(dag) == (len(nodes), nx.dag_longest_path_length(reach))


@settings(max_examples=300, deadline=None, database=None)
@given(proof_graphs(), st.data())
def test_cycle_error_names_a_node_on_a_cycle(case, data):
    root, listing = case
    inner = [entry for entry in listing if entry[1] != LEAF]
    if not inner:
        return
    # redirect one child anywhere, which may close a cycle
    nid, _, kids = data.draw(st.sampled_from(inner))
    target = data.draw(st.sampled_from([entry[0] for entry in listing]))
    listing = [(i, k, (target,) + kids[1:] if i == nid else ks) for i, k, ks in listing]
    nodes = _proof_nodes(root, listing)
    graph = _digraph(nodes)
    if nx.is_directed_acyclic_graph(graph):
        ProofDag.build(1, nodes)
        return
    with pytest.raises(CycleError, match=r"^cycle through node \d+$") as err:
        ProofDag.build(1, nodes)
    named = int(str(err.value).rsplit(" ", 1)[1])
    assert any(named in part for part in nx.strongly_connected_components(graph) if len(part) > 1) or (
        graph.has_edge(named, named)
    )


def _check_by_split(dag, cnf):
    """The checker as it was: both child spaces of a query built by `split`,
    and the nodes sorted by id on every call."""
    if cnf.num_vars != dag.width:
        return CheckResult(False, dag.root.node_id, "WIDTH-MISMATCH")
    if dag.root.space != full_space(dag.width):
        return CheckResult(False, dag.root.node_id, "ROOT-SPACE")
    for node in sorted(dag.nodes, key=lambda n: n.node_id):
        space = node.space
        if node.kind == QRY:
            space0, space1 = space.split(node.form)
            if dag.by_id[node.child0].space != space0:
                return CheckResult(False, node.node_id, "QUERY-SPLIT-0")
            if dag.by_id[node.child1].space != space1:
                return CheckResult(False, node.node_id, "QUERY-SPLIT-1")
        elif node.kind == WEAK:
            if not is_subspace(space, dag.by_id[node.child].space):
                return CheckResult(False, node.node_id, "WEAKEN-CONTAINMENT")
        else:
            if node.clause is None or not 0 <= node.clause < len(cnf.clauses):
                return CheckResult(False, node.node_id, "LEAF-CLAUSE-RANGE")
            if not _falsifies(space, cnf.clauses[node.clause]):
                return CheckResult(False, node.node_id, "LEAF-FALSIFICATION")
    return CheckResult(True)


def _verdict(result):
    return result.ok, result.node_id, result.rule


def _with_space(node, space):
    return ProofNode(node.node_id, node.kind, space, clause=node.clause, child=node.child,
                     form=node.form, child0=node.child0, child1=node.child1)


# unsatisfiable CNFs whose refutations run several levels deep
REFUTABLE = [UNIT_PAIR, tseitin_cnf(cycle_graph(3)).cnf, tseitin_cnf(cycle_graph(5)).cnf,
             tseitin_cnf(complete_graph(5)).cnf, lift_cnf(tseitin_cnf(cycle_graph(3)).cnf, ip_gadget(2))]


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(small_cnfs(), st.sampled_from(REFUTABLE)), st.sampled_from(["none", "rhs", "child", "label", "space"]),
       st.booleans(), st.data())
def test_check_matches_the_split_checker_on_mutated_refutations(cnf, kind, shuffle, data):
    try:
        dag = pdt_refute(cnf)
    except SatisfiableError:
        return
    nodes = list(dag.nodes)
    idx = data.draw(st.integers(0, len(nodes) - 1))
    node = nodes[idx]
    if kind == "rhs" and node.space.rows:  # flip one equation's right-hand side
        rows = list(node.space.rows)
        j = data.draw(st.integers(0, len(rows) - 1))
        rows[j] = (rows[j][0], rows[j][1] ^ 1)
        nodes[idx] = _with_space(node, space_from_pairs(dag.width, rows))
    elif kind == "child" and node.kind == QRY:  # redirect one child anywhere, itself included
        kids = dict(form=node.form, child0=node.child0, child1=node.child1)
        kids[data.draw(st.sampled_from(["child0", "child1"]))] = data.draw(st.sampled_from(sorted(dag.by_id)))
        nodes[idx] = ProofNode(node.node_id, QRY, node.space, **kids)
    elif kind == "label" and node.kind == LEAF:  # any clause index, one past the end included
        nodes[idx] = ProofNode(node.node_id, LEAF, node.space, clause=data.draw(st.integers(0, len(cnf.clauses))))
    elif kind == "space":  # a space cut by one more random equation, possibly EMPTY
        form = data.draw(st.integers(0, (1 << dag.width) - 1))
        nodes[idx] = _with_space(node, node.space.with_equation(form, data.draw(st.integers(0, 1))))
    if shuffle:  # list the nodes out of id order, which the DFS then orders
        rest = data.draw(st.permutations(nodes[1:]))
        nodes = nodes[:1] + list(rest)
    try:
        mutated = ProofDag.build(dag.width, nodes)
    except CycleError:
        return
    assert _verdict(check(mutated, cnf)) == _verdict(_check_by_split(mutated, cnf))


@settings(max_examples=300, deadline=None, database=None)
@given(proof_graphs(), st.data())
def test_check_matches_the_split_checker_on_random_dags(case, data):
    # every node gets a space from a small pool over width 3, so that
    # parents and children sometimes agree, a random form and a clause
    root, listing = case
    cnf = Cnf(3, ((1,), (-1, 2), (-2, -3), (3,)))
    pool = [full_space(3), EMPTY] + [
        space_from_pairs(3, pairs)
        for pairs in ([(0b001, 0)], [(0b001, 1)], [(0b001, 0), (0b010, 1)], [(0b011, 1)], [(0b001, 1), (0b110, 0)])
    ]
    nodes = []
    for nid, kind, kids in listing:
        space = pool[0] if nid == root else data.draw(st.sampled_from(pool))
        if kind == LEAF:
            nodes.append(ProofNode(nid, LEAF, space, clause=data.draw(st.integers(-1, 4))))
        elif kind == WEAK:
            nodes.append(ProofNode(nid, WEAK, space, child=kids[0]))
        else:
            form = data.draw(st.integers(0, 7))
            nodes.append(ProofNode(nid, QRY, space, form=form, child0=kids[0], child1=kids[1]))
    nodes.sort(key=lambda node: node.node_id != root)
    dag = ProofDag.build(3, nodes)
    assert _verdict(check(dag, cnf)) == _verdict(_check_by_split(dag, cnf))


@st.composite
def ascending_listings(draw):
    """Nodes listed by ascending id with every child's id above its
    parent's, as `pdt_refute` lays a proof out; half the time one child is
    then redirected to any id, which may point back or close a cycle."""
    ids = sorted(draw(st.lists(st.integers(0, 99), min_size=1, max_size=24, unique=True)))
    listing = []
    for pos, nid in enumerate(ids):
        later = ids[pos + 1:]
        kind = draw(st.sampled_from([LEAF, WEAK, QRY])) if later else LEAF
        kids = tuple(draw(st.sampled_from(later)) for _ in range({LEAF: 0, WEAK: 1, QRY: 2}[kind]))
        listing.append((nid, kind, kids))
    inner = [i for i, entry in enumerate(listing) if entry[1] != LEAF]
    if inner and draw(st.booleans()):
        i = draw(st.sampled_from(inner))
        nid, kind, kids = listing[i]
        listing[i] = (nid, kind, (draw(st.sampled_from(ids)),) + kids[1:])
    return listing


@settings(max_examples=400, deadline=None, database=None)
@given(ascending_listings())
def test_id_order_path_matches_the_dfs(listing):
    nodes = _proof_nodes(listing[0][0], listing)
    by_id = {node.node_id: node for node in nodes}
    try:
        dfs_order = _reverse_postorder(nodes, by_id)
    except CycleError as exc:
        with pytest.raises(CycleError) as got:
            ProofDag.build(1, nodes)
        assert str(got.value) == str(exc)
        return
    dag = ProofDag.build(1, nodes)
    place = {node.node_id: i for i, node in enumerate(dag.order)}
    assert len(dag.order) == len(nodes) and sorted(place) == sorted(by_id)
    assert all(place[node.node_id] < place[c] for node in nodes for c in node.children())
    assert [node.node_id for node in dag.id_order] == sorted(by_id)
    assert metrics(dag) == metrics(ProofDag(1, dag.nodes, dag.by_id, dfs_order, dag.id_order))


def test_a_query_on_itself_in_an_ascending_listing_is_a_cycle():
    space = full_space(1)
    nodes = [
        ProofNode(0, QRY, space, form=1, child0=1, child1=2),
        ProofNode(1, LEAF, space, clause=0),
        ProofNode(2, WEAK, space, child=2),
    ]
    with pytest.raises(CycleError, match=r"^cycle through node 2$"):
        ProofDag.build(1, nodes)
