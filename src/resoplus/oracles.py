"""Brute-force references for the engines, each by definition or exhaustive search.

Each reference is independent of the engine it checks: this module imports
only `f2`, `_bits`, numpy, the standard library and the data the engines
share (`BlockLayout`, `Gadget`, `Spectrum`, `LiftedDistribution`, `lift_eval`,
`Graph`, `Cnf`, `ProofDag` and the proof node kinds).  Closure and safety rest
on the matroid-intersection min-max (`is_deviolator`), and the samplers'
references draw by rejection or solve their own spanning trees.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import f2
from ._bits import mask_bits, parity, parity_u64
from .blocks import BlockLayout
from .cnf import Cnf
from .f2 import EMPTY, AffineSpace, CertificateError, FVec, rank_of_rows, space_from_pairs
from .gadget import Gadget, LiftedDistribution, Spectrum, lift_eval
from .resproof import LEAF, WEAK, ProofDag
from .tseitin import Graph

_REJECTION_TRIES = 100_000  # draws rejection_sample_lifted makes of z, and of x per z, before it gives up
_TRACE_WIDTH_CAP = 16  # widest proof all_inputs_trace_ok traces on every input


def blockset_lex_ge(a: Iterable[int], b: Iterable[int]) -> bool:
    """Reference comparator: descending sequences, elementwise, longer prefix wins."""
    sa, sb = sorted(a, reverse=True), sorted(b, reverse=True)
    for x, y in zip(sa, sb):
        if x != y:
            return x > y
    return len(sa) >= len(sb)


def _coordinates(masks: Sequence[int], cols: Sequence[int]) -> list[tuple[int, int]]:
    """(residue, tag) of each column over an echelon basis of the independent
    masks, tagged with the solution indices whose masks sum to each basis row:
    a column equals its residue plus the masks its tag marks.  The
    from-scratch form of the coordinates a `ClosureTable` carries."""
    basis: list[tuple[int, int, int]] = []
    for j, m in enumerate(masks):
        f2._tagged_insert(basis, m, 1 << j)
    return [f2._tagged_reduce(basis, col) for col in cols]


def _exchangeable(coord: tuple[int, int], x: int) -> bool:
    """True iff solution - x + y is independent, for y with these coordinates."""
    residue, tag = coord
    return residue != 0 or (tag >> x) & 1 == 1


def _columns_by_block(rows: Sequence[int], layout: BlockLayout) -> dict[int, list[int]]:
    """Per block, ascending: the mask over row indices of every nonzero column, by definition."""
    by_block: dict[int, list[int]] = {}
    for c in range(layout.width):
        col = sum(((row >> c) & 1) << r for r, row in enumerate(rows))
        if col:
            by_block.setdefault(layout.block_of(c), []).append(col)
    return by_block


def _independent(cols: Sequence[int]) -> bool:
    return rank_of_rows(cols) == len(cols)


def is_safe_bruteforce(rows: Sequence[int], layout: BlockLayout) -> bool:
    """Exhaustive column-choice form of the safety test."""
    r = rank_of_rows(rows)
    if r == 0:
        return True
    by_block = _columns_by_block(rows, layout)
    for combo in itertools.combinations(sorted(by_block), r):
        for pick in itertools.product(*[by_block[blk] for blk in combo]):
            if _independent(pick):
                return True
    return False


def is_safe_span_bruteforce(rows: Sequence[int], layout: BlockLayout) -> bool:
    """Direct span form: any k independent span vectors touch >= k blocks."""
    reduced = space_from_pairs(layout.width, [(row, 0) for row in rows]).forms()
    span = [0]
    for form in reduced:
        span += [v ^ form for v in span]
    for k in range(1, len(reduced) + 1):
        for combo in itertools.combinations(span[1:], k):
            if rank_of_rows(combo) < k:
                continue
            touched = {layout.block_of(c) for v in combo for c in range(layout.width) if v >> c & 1}
            if len(touched) < k:
                return False
    return True


def _deviolator_test(rows: Sequence[int], layout: BlockLayout):
    """A test of block sets S: whether the rows are safe once S is deleted, by the matroid-intersection min-max.

    Deleting blocks keeps the other blocks' columns.  For U the kept blocks
    with a nonzero column, the most independent columns in pairwise distinct
    blocks number the least, over T ⊆ U, of rank(T's columns) + |U| - |T|
    (Edmonds 1970), which reaches the rank of U's columns iff no T ⊆ U has a
    larger deficiency |T| - rank(T) than U.  Ranks come from one depth-first walk
    over the subsets, the largest deficiency below each from one pass per block.
    """
    by_block = _columns_by_block(rows, layout)
    nonzero = sorted(by_block)
    deficiency = [0] * (1 << len(nonzero))  # per subset, as a mask over `nonzero`
    stack: list[tuple[int, int, list[int]]] = [(0, 0, [])]  # (subset, next index, basis of its columns)
    while stack:
        subset, start, basis = stack.pop()
        deficiency[subset] = subset.bit_count() - len(basis)
        for i in range(start, len(nonzero)):
            grown = list(basis)
            for col in by_block[nonzero[i]]:
                for row in grown:
                    if col & row & -row:
                        col ^= row
                if col:
                    grown.append(col)
            stack.append((subset | 1 << i, i + 1, grown))
    most = list(deficiency)  # per subset, the largest deficiency of its subsets
    for i in range(len(nonzero)):
        for subset in range(len(most)):
            if subset >> i & 1 and most[subset ^ 1 << i] > most[subset]:
                most[subset] = most[subset ^ 1 << i]

    def test(blocks: Iterable[int]) -> bool:
        removed = set(blocks)
        kept = sum(1 << i for i, blk in enumerate(nonzero) if blk not in removed)
        return most[kept] == deficiency[kept]

    return test


def is_deviolator(rows: Sequence[int], layout: BlockLayout, blocks: Iterable[int]) -> bool:
    """Whether the rows are safe once the given blocks are deleted (`_deviolator_test`)."""
    return _deviolator_test(rows, layout)(blocks)


def closure_bruteforce(rows: Sequence[int], layout: BlockLayout) -> frozenset[int]:
    """Minimum-size deviolator by scanning all block subsets (`_deviolator_test`); checks it is unique."""
    test = _deviolator_test(rows, layout)
    for size in range(layout.n + 1):
        found = [frozenset(s) for s in itertools.combinations(range(layout.n), size) if test(s)]
        if found:
            if len(found) != 1:
                raise CertificateError(f"minimum deviolator not unique: {found}")
            return found[0]
    raise CertificateError("deleting every block leaves no deviolator")


def acceptable_sets_bruteforce(rows: Sequence[int], layout: BlockLayout) -> list[frozenset[int]]:
    by_block = _columns_by_block(rows, layout)
    blocks = sorted(by_block)
    out = [frozenset()]
    for size in range(1, len(blocks) + 1):
        for combo in itertools.combinations(blocks, size):
            if any(_independent(pick) for pick in itertools.product(*[by_block[blk] for blk in combo])):
                out.append(frozenset(combo))
    return out


def amortized_closure_bruteforce(rows: Sequence[int], layout: BlockLayout) -> frozenset[int]:
    best, *rest = acceptable_sets_bruteforce(rows, layout)  # the empty set comes first
    for S in rest:
        if blockset_lex_ge(S, best):
            best = S
    return best


def fixed_blocks(a: AffineSpace, layout: BlockLayout) -> frozenset[int]:
    """Blocks whose every coordinate is constant on the space: each of the
    block's b unit forms leaves the rank of the space's forms unchanged."""
    forms = list(a.forms())
    r = rank_of_rows(forms)
    return frozenset(
        i for i in range(layout.n)
        if all(rank_of_rows(forms + [1 << layout.flat(i, j)]) == r for j in range(layout.b))
    )


def walsh_spectrum_direct(g: Gadget) -> Spectrum:
    """Quadratic-time summation; oracle for the fast transform (b <= 6)."""
    if g.b > 6:
        raise ValueError("direct summation oracle is for b <= 6")
    nums = []
    for mask in range(1 << g.b):
        total = 0
        for v in range(1 << g.b):
            chi = -1 if parity(v & mask) else 1
            total += (1 - 2 * g.table[v]) * chi
        nums.append(total)
    return Spectrum(g.b, tuple(nums))


def parseval_holds(spectrum: Spectrum) -> bool:
    """Whether the squared coefficients of (-1)^g sum to one."""
    return sum(v * v for v in spectrum.numerators) == spectrum.denominator ** 2


def eta_by_summation(n: int, maxcoeff: Fraction) -> Fraction:
    """The error summation sum_k C(n,k) 2^k maxcoeff^k over k >= 1, term by term."""
    return sum((math.comb(n, k) * (2**k) * maxcoeff**k for k in range(1, n + 1)), start=Fraction(0))


def cube_counts(layout: BlockLayout, g: Gadget, z: FVec, spaces: Sequence[AffineSpace | f2._EmptySpace]) -> tuple[int, list[int]]:
    """Full-cube sweep in chunks (`f2.cube_chunks`): exactly |G^-1(z)| and |space ∩ G^-1(z)| for each space."""
    chunks = f2.cube_chunks(layout.width)
    if z.width != layout.n:
        raise ValueError("target width must be the block count")
    table = np.frombuffer(bytes(g.table), dtype=np.uint8)
    bmask = np.uint64(mask_bits(layout.b))
    gz_total = 0
    counts = [0] * len(spaces)
    for x in chunks:
        gmatch = np.ones(len(x), dtype=bool)
        for i in range(layout.n):
            vals = ((x >> np.uint64(i * layout.b)) & bmask).astype(np.int64)
            gmatch &= table[vals] == z.get(i)
        gz_total += int(np.count_nonzero(gmatch))
        for si, space in enumerate(spaces):
            if space is EMPTY:
                continue
            member = gmatch.copy()
            for form, bit in space.rows:
                member &= parity_u64(x & np.uint64(form)) == bit
            counts[si] += int(np.count_nonzero(member))
    return gz_total, counts


def rejection_sample_lifted(d: LiftedDistribution, conditioning: AffineSpace | None, rng) -> FVec:
    """Oracle sampler: draw from the unconditioned lift, reject outside C.

    z is picked by walking the weights; x is drawn from the cube until G(x) = z.
    """
    layout, g = d.layout, d.gadget
    total = sum(w for _, w in d.base)
    for _ in range(_REJECTION_TRIES):
        r = rng.randrange(total)
        for z, w in d.base:
            if r < w:
                break
            r -= w
        for _ in range(_REJECTION_TRIES):
            x = rng.getrandbits(layout.width)
            if lift_eval(g, layout, FVec(layout.width, x)).bits == z:
                break
        else:
            raise f2.EmptySpaceError("rejection sampler found no point of the fibre")
        if conditioning is None or conditioning.contains(x):
            return FVec(layout.width, x)
    raise f2.EmptySpaceError("rejection sampler exhausted its tries")


def sample_point(a: AffineSpace | f2._EmptySpace, rng) -> FVec:
    """Uniform member: free coordinates drawn uniformly, pivots solved."""
    if a is EMPTY:
        raise f2.EmptySpaceError("cannot sample from EMPTY")
    bits = 0
    for i in a.free_coords():
        if rng.getrandbits(1):
            bits |= 1 << i
    return FVec(a.width, f2._solve_pivots(a, bits))


def bfs_tree(g: Graph, edge_subset: Iterable[int], root: int) -> tuple[list[int], dict[int, int]]:
    """Deterministic BFS over the given edges, each vertex's (neighbour, edge) pairs in ascending order.

    Returns the visit order and, per non-root visited vertex, its parent edge.
    """
    near: dict[int, list[tuple[int, int]]] = {}
    for k in set(edge_subset):
        u, v = g.edges[k]
        near.setdefault(u, []).append((v, k))
        near.setdefault(v, []).append((u, k))
    order, parent_edge = [root], {}
    for u in order:  # order grows while it is walked
        for w, k in sorted(near.get(u, ())):
            if w != root and w not in parent_edge:
                parent_edge[w] = k
                order.append(w)
    return order, parent_edge


def tree_complete(
    g: Graph,
    component: Iterable[int],
    component_edges: Iterable[int],
    targets: Mapping[int, int],
    root: int,
    nontree: Mapping[int, int],
) -> dict[int, int]:
    """The unique extension of the non-tree values meeting targets off the root.

    The parity of the chosen edges at every vertex u != root equals
    targets[u]; the root's parity comes out as forced by the total parity.
    """
    comp = set(component)
    edges = set(component_edges)
    if root not in comp:
        raise ValueError("root must belong to the component")
    order, parent_edge = bfs_tree(g, edges, root)
    if set(order) != comp:
        raise ValueError("component is not connected by the given edges")
    out = dict(nontree)
    for k in edges - set(parent_edge.values()):
        if k not in out:
            raise ValueError(f"missing value for non-tree edge {k}")
    for u in reversed(order[1:]):
        bit = targets[u] & 1
        for k in edges:
            if k != parent_edge[u] and u in g.edges[k]:
                bit ^= out[k]
        out[parent_edge[u]] = bit
    return {k: out[k] for k in edges}


def eval_bits(cnf: Cnf, x: int) -> bool:
    """Whether the point x satisfies every clause."""
    return all(any((x >> (abs(lit) - 1)) & 1 == (lit > 0) for lit in clause) for clause in cnf.clauses)


def clause_negation_space(width: int, clause: tuple[int, ...]) -> AffineSpace | f2._EmptySpace:
    """Points falsifying an ordinary clause: every literal forced false."""
    return space_from_pairs(width, [(1 << (abs(lit) - 1), 0 if lit > 0 else 1) for lit in clause])


@dataclass(frozen=True)
class TraceResult:
    leaf_id: int
    clause_index: int
    path_length: int


def trace(dag: ProofDag, cnf: Cnf, x: int) -> TraceResult:
    """Follow the path of the point x from the root to a leaf whose clause x falsifies.

    The per-point meaning that `resproof.check` is sound against; a broken path raises `CertificateError`.
    """
    if x < 0 or x >> dag.width:
        raise ValueError("point out of range for width")
    node = dag.root
    length = 0
    while True:
        if node.space is EMPTY or not node.space.contains(x):
            raise CertificateError(f"input left the node space at {node.node_id}")
        if node.kind == LEAF:
            if not cnf.clause_falsified_by(node.clause, x):
                raise CertificateError(f"leaf clause {node.clause} not falsified")
            return TraceResult(node.node_id, node.clause, length)
        if node.kind == WEAK:
            node = dag.by_id[node.child]
            continue
        bit = parity(node.form & x)
        node = dag.by_id[node.child0 if bit == 0 else node.child1]
        length += 1


def all_inputs_trace_ok(dag: ProofDag, cnf: Cnf) -> bool:
    """Exhaustively re-run trace on every input; oracle for small widths."""
    if dag.width > _TRACE_WIDTH_CAP:
        raise f2.EnumerationCapError("width too large for exhaustive tracing")
    for bits in range(1 << dag.width):
        trace(dag, cnf, bits)
    return True
