"""The hard-distribution sampler over edge assignments and its exact root law.

A sample violates the parity constraint of exactly one vertex, the root.  The
root is uniform on the odd component of the source partial assignment; given
the root, the assignment is uniform on the affine space of completions, which
is realized by drawing the non-tree edges of a deterministic BFS spanning
tree uniformly, in ascending edge order, and solving for the tree edges
bottom-up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import f2
from ._bits import set_bits
from .f2 import AffineSpace, FVec, space_from_pairs
from .tseitin import EdgePartialAssignment, Graph, PartialAnalysis, analyze_partial


class InvalidAssignmentError(ValueError):
    """The source partial assignment is not valid."""


class InconsistentConditionError(ValueError):
    """The conditioning assignment matches no point of the distribution."""


@dataclass(frozen=True)
class Many:
    """More than one violated vertex; returned instead of a root."""

    violated: frozenset[int]


@dataclass(frozen=True)
class RootedSample:
    assignment: FVec  # one bit per edge
    root: int


def _adjacency(g: Graph, edges: Iterable[int]) -> dict[int, list[tuple[int, int]]]:
    """Per vertex touched by the edges, its (neighbour, edge) pairs in ascending order."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for k in edges:
        u, v = g.edges[k]
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    for lst in adj.values():
        lst.sort()
    return adj


def _bfs(adj: Mapping[int, list[tuple[int, int]]], root: int) -> tuple[list[int], dict[int, int]]:
    """BFS from root over an `_adjacency`: the visit order, and each other visited vertex's parent edge."""
    order = [root]
    parent_edge: dict[int, int] = {}
    seen = {root}
    for u in order:  # order grows while it is walked
        for w, k in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                parent_edge[w] = k
                order.append(w)
    return order, parent_edge


def _solve_tree_edges(
    g: Graph,
    edges: set[int],
    order: list[int],
    parent_edge: Mapping[int, int],
    targets: Mapping[int, int] | Sequence[int],
    out: dict[int, int],
) -> None:
    """Set each tree edge in out, leaves first, so that every vertex below the
    root (order[0]) has parity targets[u] over the given edges."""
    for u in reversed(order[1:]):
        k_parent = parent_edge[u]
        acc = 0
        for k, _ in g.incident(u):
            if k in edges and k != k_parent:
                acc ^= out.get(k, 0)
        out[k_parent] = acc ^ (targets[u] & 1)


def valid_analysis(rho: EdgePartialAssignment) -> PartialAnalysis:
    """rho's analysis; raises InvalidAssignmentError unless rho is valid.

    A valid assignment has exactly one odd component, its `odd_component`.
    """
    analysis = analyze_partial(rho.graph, rho)
    if not analysis.valid:
        raise InvalidAssignmentError("source assignment is not valid")
    return analysis


class _Forest:
    """What sampling needs of a valid rho's free-edge components, built once
    per rho and kept in its `memo` (`_forest`): one per rho.

    Per component with free edges: its least vertex (None for the odd
    component, whose BFS starts at the drawn root), its free edges in
    ascending order, and their sorted BFS adjacency.
    """

    __slots__ = ("graph", "f", "roots", "parts")

    def __init__(self, rho: EdgePartialAssignment):
        g = rho.graph
        analysis = valid_analysis(rho)
        odd = analysis.odd_component
        self.graph = g
        self.f = analysis.f_rho
        self.roots = sorted(odd)
        comp_of = {v: i for i, comp in enumerate(analysis.components) for v in comp}
        comp_edges: list[list[int]] = [[] for _ in analysis.components]
        for k in set_bits(rho.free_mask):
            comp_edges[comp_of[g.edges[k][0]]].append(k)
        self.parts = [
            (None if comp == odd else min(comp), edges, set(edges), _adjacency(g, edges))
            for comp, edges in zip(analysis.components, comp_edges)
            if edges
        ]


def _forest(rho: EdgePartialAssignment) -> _Forest:
    forest = rho.memo.get(_Forest)
    if forest is None:
        forest = rho.memo[_Forest] = _Forest(rho)
    return forest


def sample(rho: EdgePartialAssignment, rng: random.Random) -> RootedSample:
    """One draw of the hard distribution for a valid partial assignment.

    The root is drawn first.  Then, component by component, the non-tree
    free edges of a BFS spanning tree (from the root, or from the least
    vertex of an even component) are drawn in ascending order and the tree
    edges solved leaves first.  The BFS walks the adjacency of rho's `_Forest`.
    """
    forest = _forest(rho)
    root = forest.roots[rng.randrange(len(forest.roots))]
    values: dict[int, int] = {}  # the free edges' drawn and solved bits
    for fixed, edges, edge_set, adj in forest.parts:
        order, parent_edge = _bfs(adj, root if fixed is None else fixed)
        tree_edges = set(parent_edge.values())
        for k in edges:
            if k not in tree_edges:
                values[k] = rng.getrandbits(1)
        _solve_tree_edges(forest.graph, edge_set, order, parent_edge, forest.f, values)
    bits = rho.bits
    for k, bit in values.items():
        bits |= bit << k
    return RootedSample(FVec(forest.graph.num_edges, bits), root)


def root_of(g: Graph, z: int) -> int | Many:
    """The unique vertex whose odd-charge parity constraint z violates, or Many.

    z holds one bit per edge.  A vertex is violated when z sets an even
    number of its edges (`Graph._edge_masks`).
    """
    violated = [v for v, edges in enumerate(g._edge_masks) if not (z & edges).bit_count() & 1]
    if len(violated) == 1:
        return violated[0]
    return Many(frozenset(violated))


def root_space(rho: EdgePartialAssignment, v: int) -> AffineSpace:
    """The completions of rho violating exactly v, in edge coordinates (width num_edges).

    Its rows are rho's fixed edges as unit rows, and per vertex u the
    parity of u's edges: odd, except at v.
    """
    g = rho.graph
    pairs = [(1 << k, rho.bits >> k & 1) for k in set_bits(rho.mask)]
    pairs += [(edges, 1 ^ (u == v)) for u, edges in enumerate(g._edge_masks)]
    space = space_from_pairs(g.num_edges, pairs)
    if space is f2.EMPTY:
        raise InvalidAssignmentError(f"no completion violates exactly vertex {v}")
    return space


@dataclass(frozen=True)
class RootLawReport:
    """Exact conditional law of the root given a sub-assignment of free edges."""

    odd_component: frozenset[int]
    counts: tuple[tuple[int, int], ...]  # (vertex, matching completions)
    law: tuple[tuple[int, Fraction], ...]
    support_ok: bool  # support is exactly the odd component
    uniform_ok: bool  # the law is exactly uniform on it
    equal_counts_ok: bool  # |S_u| = |S_v| across the component

    @property
    def ok(self) -> bool:
        return self.support_ok and self.uniform_ok and self.equal_counts_ok

    def to_csv(self) -> str:
        lines = ["vertex,numerator,denominator"]
        for v, p in self.law:
            lines.append(f"{v},{p.numerator},{p.denominator}")
        return "\n".join(lines) + "\n"


def exact_root_distribution(
    rho: EdgePartialAssignment,
    condition: Mapping[int, int] | None = None,
) -> RootLawReport:
    """Exactly count the conditional root law and check root hiding.

    The law of root(z), for z drawn by the sampler and conditioned on agreeing
    with the given free-edge sub-assignment, must be uniform on the unique odd
    component of the combined partial assignment.  Each root's count is the
    size of its root space cut by the condition: 2^dim, or 0 when EMPTY.

    Root v's system is `root_space`'s with rho's unit rows already
    applied, plus the condition's unit rows: vertex row u is the mask of
    u's free edges, with right-hand side f_rho[u] flipped at v.  One tagged
    elimination serves every root.  A row's tag holds its right-hand side
    at bit 0 and, at bit u + 1, whether it sums vertex row u.  The rank does
    not depend on v, and v's system is consistent exactly when each row that
    reduces to zero has tag bit 0 equal to tag bit v + 1: so one OR over
    those rows of the tag's vertex bits, all flipped when bit 0 is set,
    marks every inconsistent root.
    """
    g = rho.graph
    analysis = valid_analysis(rho)
    odd = analysis.odd_component
    free = rho.free_mask
    condition = dict(condition or {})
    for k in condition:
        if k not in range(g.num_edges) or not free >> k & 1:
            raise ValueError(f"conditioned edge {k} is not free in rho")
    combined = rho.extend(condition)
    comb_analysis = analyze_partial(g, combined)
    if len(comb_analysis.odd_components) != 1:
        raise InconsistentConditionError("condition breaks the single-odd-component structure")
    c1 = comb_analysis.odd_components[0]

    f = analysis.f_rho
    rows = [(edges & free, f[u] | (2 << u)) for u, edges in enumerate(g._edge_masks)]
    rows += [(1 << k, bit & 1) for k, bit in condition.items()]
    basis: list[tuple[int, int, int]] = []
    bad = 0  # bit v set when root v's system is inconsistent
    every_vertex = (1 << g.num_vertices) - 1
    for form, tag in rows:
        residue, tag = f2._tagged_insert(basis, form, tag)
        if not residue:
            bad |= (tag >> 1) ^ (every_vertex if tag & 1 else 0)
    size = 1 << (free.bit_count() - len(basis))
    counts = tuple((v, 0 if bad >> v & 1 else size) for v in sorted(odd))
    total = sum(c for _, c in counts)
    if total == 0:
        raise InconsistentConditionError("condition matches no sample")
    share, zero = Fraction(size, total), Fraction(0)
    law = tuple((v, share if c else zero) for v, c in counts)
    support_ok = frozenset(v for v, c in counts if c) == c1
    in_c1 = [c for v, c in counts if v in c1]
    equal_counts_ok = len(set(in_c1)) == 1 and all(c == 0 for v, c in counts if v not in c1)
    uniform_ok = all(c * len(c1) == total for c in in_c1) and support_ok
    return RootLawReport(c1, counts, law, support_ok, uniform_ok, equal_counts_ok)
