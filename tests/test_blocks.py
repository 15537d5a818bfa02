import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resoplus.blocks import (
    BlockLayout,
    _augment,
    _join,
    ClosureAssignment,
    ClosureTable,
    NotExtendableError,
    amortized_closure,
    closure,
    is_extendable,
    is_safe,
    project_rows,
    restrict,
    substitute,
)
from resoplus._bits import parity
from resoplus.f2 import (
    EMPTY,
    _tagged_insert,
    enumerate_points,
    full_space,
    rank_of_rows,
    space_from_pairs,
)
from resoplus.oracles import (
    _coordinates,
    _exchangeable,
    acceptable_sets_bruteforce,
    amortized_closure_bruteforce,
    blockset_lex_ge,
    closure_bruteforce,
    fixed_blocks,
    is_deviolator,
    is_safe_bruteforce,
    is_safe_span_bruteforce,
    sample_point,
)
from resoplus.gadget import ip_gadget, sample_lifted
from resoplus.pdt import Leaf, Pdt, Query, block_complete, coin_game, lifted_dtfooling_distribution
from resoplus.tseitin import EdgePartialAssignment, cycle_graph


def unit(layout, i, j):
    return 1 << layout.flat(i, j)


def test_is_safe_examples():
    lay = BlockLayout(2, 2)
    assert is_safe([unit(lay, 0, 0) | unit(lay, 1, 1)], lay)
    # two independent vectors inside one block
    assert not is_safe([unit(lay, 0, 0), unit(lay, 0, 1)], lay)
    lay3 = BlockLayout(3, 1)
    assert is_safe([unit(lay3, 0, 0), unit(lay3, 1, 0), unit(lay3, 2, 0)], lay3)
    assert is_safe([], lay)


def test_closure_examples():
    lay = BlockLayout(2, 2)
    assert closure([unit(lay, 0, 0) | unit(lay, 1, 1)], lay) == frozenset()
    rows = [unit(lay, 0, 0), unit(lay, 0, 1), unit(lay, 1, 0)]
    assert closure(rows, lay) == frozenset({0})
    all_units = [unit(lay, i, j) for i in range(2) for j in range(2)]
    assert closure(all_units, lay) == frozenset({0, 1})


def test_closure_is_minimal_deviolator():
    rng = random.Random(3)
    for _ in range(200):
        n, b = rng.randint(1, 4), rng.randint(1, 3)
        lay = BlockLayout(n, b)
        rows = [rng.getrandbits(lay.width) for _ in range(rng.randint(0, 5))]
        cl = closure(rows, lay)
        assert cl == closure_bruteforce(rows, lay)
        assert is_deviolator(rows, lay, cl)
        # contained in every deviolator
        import itertools

        for size in range(n + 1):
            for s in itertools.combinations(range(n), size):
                if is_deviolator(rows, lay, s):
                    assert cl <= frozenset(s)


def independent_forms(rng, count, blocks, lay):
    """count linearly independent random forms supported on the given blocks."""
    while True:
        group = []
        for _ in range(count):
            bits = rng.getrandbits(len(blocks) * lay.b)
            group.append(sum(lay.block_value(bits, k) << (blk * lay.b) for k, blk in enumerate(blocks)))
        if rank_of_rows(group) == count:
            return group


@st.composite
def closure_cases(draw):
    n, b = draw(st.integers(1, 14)), draw(st.integers(1, 4))
    lay = BlockLayout(n, b)
    if n >= 3 and b >= 2 and draw(st.booleans()):
        # groups of four independent forms piled on three blocks overload them
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        rows = []
        for _ in range(draw(st.integers(1, n // 3))):
            rows += independent_forms(rng, 4, rng.sample(range(n), 3), lay)
        return lay, rows
    block, value = st.integers(0, n - 1), st.integers(1, (1 << b) - 1)
    # local and two-block rows pile onto few blocks, so closures are often non-empty
    local = st.builds(lambda i, v: v << (i * b), block, value)
    two = st.builds(lambda i, j, v, w: (v << (i * b)) ^ (w << (j * b)), block, block, value, value)
    dense = st.integers(0, (1 << lay.width) - 1)
    return lay, draw(st.lists(st.one_of(local, two, dense), max_size=2 * n))


@settings(max_examples=200, deadline=None, database=None)
@given(closure_cases())
def test_closure_matches_bruteforce(case):
    lay, rows = case
    assert closure(rows, lay) == closure_bruteforce(rows, lay)


@st.composite
def solutions_and_columns(draw):
    """An independent one-per-block column solution and the columns outside it."""
    lay = BlockLayout(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    rows = draw(st.lists(st.integers(0, (1 << lay.width) - 1), max_size=6))
    solution, outside = [], []
    for cols in _nonzero_columns(rows, lay).values():
        pick = draw(st.integers(-1, len(cols) - 1))  # -1 leaves the block out
        for k, (_, m) in enumerate(cols):
            if k == pick and rank_of_rows(solution + [m]) > len(solution):
                solution.append(m)
            else:
                outside.append(m)
    return solution, outside


@settings(max_examples=300, deadline=None, database=None)
@given(solutions_and_columns())
def test_exchange_coordinates_match_rank_definition(case):
    solution, outside = case
    for y, coord in zip(outside, _coordinates(solution, outside)):
        assert (coord[0] != 0) == (rank_of_rows(solution + [y]) > len(solution))
        for x in range(len(solution)):
            swapped = solution[:x] + solution[x + 1:] + [y]
            assert _exchangeable(coord, x) == (rank_of_rows(swapped) == len(solution))


def _nonzero_columns(rows, layout):
    """Per block, ascending: (flat column, mask over row indices), one pass over each row's bits."""
    cols = {}
    for r, row in enumerate(rows):
        while row:
            low = row & -row
            c = low.bit_length() - 1
            cols[c] = cols.get(c, 0) | (1 << r)
            row ^= low
    by_block = {}
    for c in sorted(cols):
        by_block.setdefault(layout.block_of(c), []).append((c, cols[c]))
    return by_block


def _augment_from_scratch(solution, ground):
    """One augmentation step as the engine made it before it carried
    coordinates: every outside column reduced afresh against an echelon basis
    of the solution.  solution holds (block, column, mask) triples; returns
    (a larger solution, empty set) or (None, the blocks the failed search
    reached)."""
    in_sol = {c for _, c, _ in solution}
    sol_of_block = {blk: j for j, (blk, _, _) in enumerate(solution)}
    outside = [(blk, c, m) for blk, cols in ground.items() for c, m in cols if c not in in_sol]
    coords = _coordinates([m for _, _, m in solution], [m for _, _, m in outside])
    start = [i for i, (residue, _) in enumerate(coords) if residue]
    parents = {("y", i): None for i in start}
    queue = list(parents)
    goal = next((("y", i) for i in start if outside[i][0] not in sol_of_block), None)
    qi = 0
    while goal is None and qi < len(queue):
        kind, idx = queue[qi]
        qi += 1
        if kind == "y":
            j = sol_of_block[outside[idx][0]]
            if ("x", j) not in parents:
                parents[("x", j)] = (kind, idx)
                queue.append(("x", j))
        else:
            for j, coord in enumerate(coords):
                if ("y", j) not in parents and _exchangeable(coord, idx):
                    parents[("y", j)] = (kind, idx)
                    if outside[j][0] not in sol_of_block:
                        goal = ("y", j)
                        break
                    queue.append(("y", j))
    if goal is None:
        return None, frozenset((outside[i] if kind == "y" else solution[i])[0] for kind, i in parents)
    add, drop = [], []
    node = goal
    while node is not None:
        kind, idx = node
        (add if kind == "y" else drop).append(idx)
        node = parents[node]
    return [t for j, t in enumerate(solution) if j not in drop] + [outside[j] for j in add], frozenset()


def closure_from_scratch(rows, layout):
    """The closure as the engine computed it before it kept a table: a fresh
    column table and greedy start on every call, then augmentation until the
    final, failed search."""
    ground = _nonzero_columns(rows, layout)
    solution, basis = [], []
    for blk, cols in ground.items():
        for c, m in cols:
            if _tagged_insert(basis, m, 1 << len(solution))[0]:
                solution.append((blk, c, m))
                break
    while True:
        bigger, reached = _augment_from_scratch(solution, ground)
        if bigger is None:
            return reached
        solution = bigger


def _subsets_up_to(n, size):
    return sum(math.comb(n, k) for k in range(size + 1))


@st.composite
def append_chains(draw):
    """A layout and a chain of row batches: local forms, cross-block forms,
    rows dependent on those before them, and whole-block coordinate fills."""
    lay = BlockLayout(draw(st.integers(1, 14)), draw(st.sampled_from([2, 3, 4])))
    n, b = lay.n, lay.b
    block, value = st.integers(0, n - 1), st.integers(1, (1 << b) - 1)
    local = st.builds(lambda i, v: ("rows", [v << (i * b)]), block, value)
    cross = st.builds(
        lambda blks, vs: ("rows", [sum(v << (i * b) for i, v in zip(blks, vs))]),
        st.lists(block, min_size=2, max_size=3, unique=True) if n > 1 else st.just([0]),
        st.lists(value, min_size=3, max_size=3),
    )
    fill = st.builds(lambda i: ("rows", [1 << lay.flat(i, j) for j in range(b)]), block)
    dependent = st.builds(lambda pick: ("dependent", pick), st.integers(0, 2**16 - 1))
    step = st.one_of(local, local, cross, cross, fill, dependent)
    return lay, draw(st.lists(st.lists(step, min_size=1, max_size=3), min_size=1, max_size=8))


def _batches(chain):
    """The rows of each batch of a chain; a dependent step is a sum of the rows before it."""
    rows = []
    for batch in chain:
        new = []
        for kind, arg in batch:
            if kind == "rows":
                new += arg
            else:  # a sum of earlier rows: in the span, so it must change nothing
                earlier = rows + new
                new.append(0)
                for k, row in enumerate(earlier):
                    if (arg >> (k % 16)) & 1:
                        new[-1] ^= row
        rows += new
        yield new


@settings(max_examples=150, deadline=None, database=None)
@given(append_chains())
def test_table_chains_match_oracles(case):
    lay, chain = case
    table = ClosureTable(lay)
    rows = []
    for new in _batches(chain):
        parent, parent_closure, parent_rank = table, table.closure(), table.rank
        table = table.extend(new)
        rows += new
        # extending leaves the parent as it was
        assert (parent.closure(), parent.rank) == (parent_closure, parent_rank)
        assert table.rank == rank_of_rows(rows)
        cl = table.closure()
        assert cl == closure_from_scratch(rows, lay)
        if _subsets_up_to(lay.n, len(cl)) <= 1500:
            assert cl == closure_bruteforce(rows, lay)
        if lay.n <= 6:
            assert is_safe(rows, lay) == (not cl) == is_safe_bruteforce(rows, lay)


def assert_carried_coordinates(lay, rows, res, tags, sol):
    """Coordinates carried over a solution, as a `ClosureTable` holds them,
    against `_coordinates` over that solution recomputed from scratch."""
    kept, basis = [], []
    for row in rows:
        if _tagged_insert(basis, row, 0)[0]:
            kept.append(row)
    assert len(res) == len(kept)
    masks = [sum(((row >> c) & 1) << k for k, row in enumerate(kept)) for c in range(lay.width)]
    # the rows that no residue holds include a pivot for every solution column
    pivots = [k for k, r in enumerate(res) if r == 0]
    assert rank_of_rows([sum(((masks[s] >> k) & 1) << i for i, k in enumerate(pivots)) for s in sol]) == len(sol)
    for c, (residue, tag) in enumerate(_coordinates([masks[s] for s in sol], masks)):
        carried_residue = sum(((r >> c) & 1) << k for k, r in enumerate(res))
        carried_tag = sum(((t >> c) & 1) << j for j, t in enumerate(tags))
        # a column is its residue plus the solution columns its tag marks
        summed = carried_residue
        for j, s in enumerate(sol):
            if carried_tag >> j & 1:
                summed ^= masks[s]
        assert summed == masks[c]
        # what the search reads does not depend on the pivots: whether the residue is zero, and then the tag
        assert (carried_residue == 0) == (residue == 0)
        if residue == 0:
            assert carried_tag == tag


@settings(max_examples=150, deadline=None, database=None)
@given(append_chains())
def test_carried_coordinates_match_a_from_scratch_reduction(case):
    # after each extend, from the parent's solution, and after the solve that grows it
    lay, chain = case
    table, rows = ClosureTable(lay), []
    for new in _batches(chain):
        table = table.extend(new)
        rows += new
        assert_carried_coordinates(lay, rows, table._res, table._tags, table._solution)
        assert table.rank == len(table._res)
        table.closure()
        assert_carried_coordinates(lay, rows, table._res, table._tags, table._solution)


@st.composite
def matching_cases(draw):
    """Rows on two fresh columns each: every column is a unit vector, so a
    one-per-block solution is a matching of blocks to rows, and a greedy one
    is often short of the maximum."""
    lay = BlockLayout(draw(st.integers(2, 10)), draw(st.integers(1, 3)))
    cols = draw(st.permutations(range(lay.width)))
    count = draw(st.integers(1, lay.width // 2))
    return lay, [(1 << cols[2 * k]) | (1 << cols[2 * k + 1]) for k in range(count)]


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(closure_cases(), matching_cases()), st.randoms(use_true_random=False))
def test_augmenting_from_any_start_keeps_the_coordinates(case, rnd):
    # a greedy start in random column order is maximal, so it grows only by
    # exchanges; after each augmentation the coordinates still match, and the
    # failed search reaches the closure, whatever the start
    lay, rows = case
    res, tags, sol = list(ClosureTable(lay).extend(rows)._res), [], []
    for c in rnd.sample(range(lay.width), lay.width):
        if all(s // lay.b != c // lay.b for s in sol) and any(r >> c & 1 for r in res):
            _join(res, tags, sol, c)
    assert_carried_coordinates(lay, rows, res, tags, sol)
    while (reached := _augment(res, tags, sol, lay.b)) is None:
        assert_carried_coordinates(lay, rows, res, tags, sol)
    assert frozenset(c // lay.b for c in range(lay.width) if reached >> c & 1) == closure(rows, lay)


def test_a_dependent_warm_start_is_caught():
    # appending rows keeps a solution independent, so a dependent warm start is a broken table
    lay = BlockLayout(3, 2)
    table = ClosureTable(lay).extend([unit(lay, 0, 0) | unit(lay, 1, 0), unit(lay, 2, 0)])
    assert table.closure() == frozenset()
    child = table.extend([unit(lay, 1, 1)])
    child._solution = (lay.flat(0, 0), lay.flat(1, 0))  # the same column mask twice
    with pytest.raises(RuntimeError, match="warm-start"):
        child.closure()


def test_table_rejects_rows_wider_than_the_layout():
    lay = BlockLayout(2, 2)
    with pytest.raises(ValueError):
        ClosureTable(lay).extend([1 << lay.width])
    with pytest.raises(ValueError):
        ClosureTable(lay).extend([-1])


def relabel(rows, lay, perm):
    """Move block i of every row to block perm[i]."""
    return [
        sum(lay.block_value(row, i) << (perm[i] * lay.b) for i in range(lay.n))
        for row in rows
    ]


def test_closure_at_64_blocks():
    # 64 blocks is far past any subset scan: check the structure, not an oracle
    lay = BlockLayout(64, 2)
    rng = random.Random(11)
    rows = []
    for first in range(0, 36, 3):
        # four independent forms on three blocks overload them
        rows += independent_forms(rng, 4, range(first, first + 3), lay)
    for _ in range(40):
        i, j = rng.sample(range(lay.n), 2)
        rows.append((rng.randrange(1, 1 << lay.b) << (i * lay.b)) | (rng.randrange(1, 1 << lay.b) << (j * lay.b)))
    cl = closure(rows, lay)
    assert 12 < len(cl) < lay.n

    def safe_without(blocks):
        sub, kept = lay.without(blocks)
        return is_safe(project_rows(rows, lay, kept), sub)

    assert safe_without(cl)
    assert not any(safe_without(cl - {i}) for i in cl)
    perm = list(range(lay.n))
    rng.shuffle(perm)
    assert closure(relabel(rows, lay, perm), lay) == frozenset(perm[i] for i in cl)


def _local_row(rng, lay):
    """A form on one block or on two blocks, so that closures are often non-empty."""
    row = 0
    for blk in rng.sample(range(lay.n), min(lay.n, rng.randint(1, 2))):
        row |= rng.randrange(1, 1 << lay.b) << (blk * lay.b)
    return row


def _local_tree(lay, depth, rng):
    """Complete tree of local forms, as the coin-game trees query."""
    if depth == 0:
        return Leaf()
    return Query(_local_row(rng, lay), _local_tree(lay, depth - 1, rng), _local_tree(lay, depth - 1, rng))


def _pinned_results():
    rng = random.Random(71)
    parts = []
    for _ in range(500):
        lay = BlockLayout(rng.randint(1, 8), rng.randint(1, 4))
        rows = [
            _local_row(rng, lay) if rng.getrandbits(1) else rng.getrandbits(lay.width)
            for _ in range(rng.randint(0, lay.n + 2))
        ]
        am, cert = amortized_closure(rows, lay)
        parts.append(f"{sorted(closure(rows, lay))}{sorted(am)}{cert}")
    graph, g = cycle_graph(5), ip_gadget(4)
    lay = BlockLayout(graph.num_edges, g.b)
    rho = EdgePartialAssignment.empty(graph)
    dist = lifted_dtfooling_distribution(lay, g, rho)
    y = ClosureAssignment.from_dict(lay, {})
    sampler = lambda r: sample_lifted(dist, None, r)
    for i in range(100):
        rng = random.Random(1000 + i)
        tree = Pdt(lay.width, _local_tree(lay, 6, rng))
        tprime = block_complete(tree, lay, full_space(lay.width), y)
        t = coin_game(tprime, lay, g, rho, sampler, Fraction(1), rng)
        parts.append(f"{t.root},{t.outcome},{t.total_paid},{len(t.steps)}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def test_block_complete_stages_match_from_scratch_closures():
    # each stage fills exactly the blocks that the query adds to the closure of
    # the space the stage starts from, computed afresh for every stage
    rng = random.Random(13)
    for trial in range(60):
        lay = BlockLayout(rng.randint(2, 6), rng.randint(2, 3))
        x0 = rng.getrandbits(lay.width)
        forms = [_local_row(rng, lay) for _ in range(rng.randint(0, 3))]
        a = space_from_pairs(lay.width, [(f, parity(f & x0)) for f in forms])
        y = ClosureAssignment.from_point(lay, closure(a.forms(), lay), x0)
        base = space_from_pairs(lay.width, list(a.rows) + y.coordinate_pairs())
        tprime = block_complete(Pdt(lay.width, _local_tree(lay, 5, rng)), lay, a, y)
        for x in [x0] + [sample_point(base, rng).bits for _ in range(6)]:
            node, space, start = tprime.root, base, base
            closed = closure(base.forms(), lay)
            filled = []
            while isinstance(node, Query):
                if node.note == "block-fill":
                    filled.append(lay.block_of(node.form.bit_length() - 1))
                else:
                    rows = start.forms() + (node.form,)
                    grown = closure(rows, lay)
                    assert grown == closure_from_scratch(rows, lay)
                    if lay.n <= 4:
                        assert grown == closure_bruteforce(rows, lay)
                    new = sorted(grown - closed)
                    assert filled == [i for i in new for _ in range(lay.b)]
                    closed |= grown
                    filled = []
                space = space.with_equation(node.form, parity(node.form & x))
                if node.note == "stage-end":
                    start = space
                    assert closure(space.forms(), lay) == closed
                node = node.child(parity(node.form & x))
            assert node.tag != "dead"


def test_closure_results_are_pinned():
    # recorded with the rank-based exchange test, which started every closure from an empty solution
    assert _pinned_results() == "7c0763c7859b7a0e"


def test_amortized_closure_examples():
    lay = BlockLayout(2, 2)
    rows = [unit(lay, 0, 0), unit(lay, 0, 1), unit(lay, 1, 0)]
    am, cert = amortized_closure(rows, lay)
    assert am == frozenset({0, 1})
    assert len(closure(rows, lay)) == 1
    lay6 = BlockLayout(6, 1)
    v = unit(lay6, 3, 0) | unit(lay6, 5, 0)
    assert amortized_closure([v], lay6)[0] == frozenset({5})
    assert amortized_closure([], lay) == (frozenset(), ())


def test_lex_order_reference_agrees_with_sort_key():
    rng = random.Random(9)
    universe = list(range(7))
    for _ in range(500):
        a = frozenset(rng.sample(universe, rng.randint(0, 6)))
        b = frozenset(rng.sample(universe, rng.randint(0, 6)))
        # the block-set order reads each set's indicator as a binary number
        assert blockset_lex_ge(a, b) == (sum(1 << i for i in a) >= sum(1 << i for i in b))


def test_amortized_matches_bruteforce_and_cert_valid():
    rng = random.Random(17)
    from resoplus.f2 import rank_of_rows

    for _ in range(300):
        n, b = rng.randint(1, 4), rng.randint(1, 3)
        lay = BlockLayout(n, b)
        rows = [rng.getrandbits(lay.width) for _ in range(rng.randint(0, 5))]
        am, cert = amortized_closure(rows, lay)
        assert am == amortized_closure_bruteforce(rows, lay)
        assert frozenset(blk for blk, _ in cert) == am
        cols = []
        for _, c in cert:
            col = 0
            for r, row in enumerate(rows):
                if (row >> c) & 1:
                    col |= 1 << r
            cols.append(col)
        assert rank_of_rows(cols) == len(cols)
        # the amortized closure is itself acceptable
        assert am in acceptable_sets_bruteforce(rows, lay) or not rows


def test_safety_oracles_agree():
    rng = random.Random(23)
    for _ in range(300):
        n, b = rng.randint(1, 4), rng.randint(1, 3)
        lay = BlockLayout(n, b)
        rows = [rng.getrandbits(lay.width) for _ in range(rng.randint(0, 5))]
        flags = {is_safe(rows, lay), is_safe_bruteforce(rows, lay), is_safe_span_bruteforce(rows, lay)}
        assert len(flags) == 1


def test_closure_assignment_text_round_trip():
    lay = BlockLayout(3, 4)
    y = ClosureAssignment.from_dict(lay, {0: 0b1010, 2: 0b0001})
    assert y.blocks == frozenset({0, 2})
    parsed = ClosureAssignment.from_text(lay, y.to_text())
    assert parsed == y
    assert y.value(2) == 0b0001


def test_is_extendable():
    lay = BlockLayout(2, 2)
    full = full_space(lay.width)
    y = ClosureAssignment.from_dict(lay, {0: 0b11})
    assert is_extendable(full, y)
    a = space_from_pairs(lay.width, [(unit(lay, 0, 0), 1)])
    y0 = ClosureAssignment.from_dict(lay, {0: 0b00})
    assert not is_extendable(a, y0)
    # consistent construction: read y off a member point
    rng = random.Random(2)
    for _ in range(100):
        rows = [(rng.getrandbits(4), rng.getrandbits(1)) for _ in range(rng.randint(0, 3))]
        sp = space_from_pairs(4, rows)
        if sp is EMPTY:
            continue
        x = sample_point(sp, rng)
        y = ClosureAssignment.from_point(lay, {rng.randrange(2)}, x.bits)
        assert is_extendable(sp, y)


def test_restrict_examples():
    lay = BlockLayout(2, 2)
    full = full_space(4)
    y_empty = ClosureAssignment.from_dict(lay, {})
    assert restrict(full, y_empty) == full
    # safe space restricted by the empty assignment is unchanged
    a = space_from_pairs(4, [(unit(lay, 0, 0) | unit(lay, 1, 0), 1)])
    assert restrict(a, y_empty) == a
    # both equations become tautologies after substituting the closure block
    rows = [(unit(lay, 0, 0), 1), (unit(lay, 0, 1), 0)]
    a2 = space_from_pairs(4, rows)
    assert closure(a2.forms(), lay) == frozenset({0})
    y = ClosureAssignment.from_dict(lay, {0: 0b01})
    out = restrict(a2, y)
    assert out == full_space(2)
    # inconsistent value is rejected
    with pytest.raises(NotExtendableError):
        restrict(a2, ClosureAssignment.from_dict(lay, {0: 0b00}))
    # wrong block set is rejected
    with pytest.raises(ValueError):
        restrict(a2, ClosureAssignment.from_dict(lay, {1: 0b00}))


def test_restrict_produces_safe_space():
    rng = random.Random(31)
    done = 0
    while done < 120:
        n, b = rng.randint(2, 4), rng.randint(1, 3)
        lay = BlockLayout(n, b)
        pairs = []
        x0 = rng.getrandbits(lay.width)
        for _ in range(rng.randint(0, 4)):
            form = rng.getrandbits(lay.width)
            pairs.append((form, parity(form & x0)))
        sp = space_from_pairs(lay.width, pairs)
        assert sp is not EMPTY
        cl = closure(sp.forms(), lay)
        if len(cl) == n:
            continue
        y = ClosureAssignment.from_point(lay, cl, x0)
        out = restrict(sp, y)
        sub_lay = BlockLayout(n - len(cl), b)
        assert out.width == sub_lay.width
        assert is_safe(out.forms(), sub_lay)
        done += 1


def test_nice_restriction_corollary():
    # nested pair with both the codimension gap and the amortized gap equal
    # to one: restricting by a closure assignment of the outer space keeps
    # both safe and preserves the unit codimension gap
    from resoplus.blocks import amortized_closure

    rng = random.Random(53)
    done = 0
    while done < 60:
        n, b = rng.randint(2, 3), rng.randint(2, 3)
        lay = BlockLayout(n, b)
        x0 = rng.getrandbits(lay.width)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            form = rng.getrandbits(lay.width)
            pairs.append((form, parity(form & x0)))
        a = space_from_pairs(lay.width, pairs)
        extra = rng.getrandbits(lay.width)
        b_sp = space_from_pairs(lay.width, pairs + [(extra, parity(extra & x0))])
        if b_sp.codim != a.codim + 1:
            continue
        gap = len(amortized_closure(b_sp.forms(), lay)[0]) - len(amortized_closure(a.forms(), lay)[0])
        if gap != 1:
            continue
        cl_a = closure(a.forms(), lay)
        # the amortized gap forces the closures to coincide
        assert closure(b_sp.forms(), lay) == cl_a
        if len(cl_a) == n:
            continue
        y = ClosureAssignment.from_point(lay, cl_a, x0)
        a_y, b_y = restrict(a, y), restrict(b_sp, y)
        sub = BlockLayout(n - len(cl_a), b)
        assert is_safe(a_y.forms(), sub) and is_safe(b_y.forms(), sub)
        assert b_y.codim == a_y.codim + 1
        done += 1


def test_substitute_agrees_with_pointwise_filtering():
    rng = random.Random(41)
    for _ in range(150):
        n, b = rng.randint(2, 3), rng.randint(1, 3)
        lay = BlockLayout(n, b)
        pairs = [(rng.getrandbits(lay.width), rng.getrandbits(1)) for _ in range(rng.randint(0, 4))]
        sp = space_from_pairs(lay.width, pairs)
        if sp is EMPTY:
            continue
        blocks = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
        y = ClosureAssignment.from_dict(lay, {i: rng.getrandbits(b) for i in blocks})
        out = substitute(sp, y)
        sub_lay, kept = lay.without(blocks)
        mask, value = y.fixed_bits()
        expected = set()
        for p in enumerate_points(sp):
            if p.bits & mask == value:
                compact = 0
                for pos, blk in enumerate(kept):
                    compact |= lay.block_value(p.bits, blk) << (pos * b)
                expected.add(compact)
        got = set() if out is EMPTY else {p.bits for p in enumerate_points(out)}
        assert got == expected


@st.composite
def layout_and_forms(draw):
    lay = BlockLayout(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    # unit forms make fixed blocks common; arbitrary forms fix them indirectly
    form = st.one_of(st.integers(0, lay.width - 1).map(lambda i: 1 << i), st.integers(0, (1 << lay.width) - 1))
    return lay, draw(st.lists(form, max_size=2 * lay.width))


@settings(max_examples=300, deadline=None, database=None)
@given(layout_and_forms())
def test_fixed_blocks_matches_span_definition(case):
    # a block is fixed iff every unit vector of it leaves the rank unchanged
    lay, forms = case
    space = space_from_pairs(lay.width, [(f, 0) for f in forms])
    r = rank_of_rows(forms)
    want = {i for i in range(lay.n) if all(rank_of_rows(forms + [unit(lay, i, j)]) == r for j in range(lay.b))}
    assert fixed_blocks(space, lay) == want
