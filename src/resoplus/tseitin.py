"""Graphs, expansion metrics, Tseitin CNFs and valid partial edge assignments.

Edge indices double as CNF variable indices (edge k is DIMACS variable k+1).
The charge defaults to all-ones, which makes the system contradictory exactly
when the vertex count is odd.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._bits import set_bits
from ._text import Lines, expect, parse_bits, parse_int
from .cnf import Cnf, find_model

CHEEGER_SWEEP_CAP = 20
_REGULAR_GRAPH_TRIES = 200  # pairing-model attempts random_regular_graph makes


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges normalized to (min, max) pairs."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("vertex out of range")
            if u > v:
                raise ValueError("edges must be normalized as (min, max)")
            if (u, v) in seen:
                raise ValueError("duplicate edge")
            seen.add((u, v))

    @classmethod
    def from_pairs(cls, num_vertices: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(num_vertices, tuple((min(u, v), max(u, v)) for u, v in pairs))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree_if_regular(self) -> int | None:
        degrees = {edges.bit_count() for edges in self._edge_masks}
        return degrees.pop() if len(degrees) == 1 else None

    @cached_property
    def _incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, its (edge index, other endpoint) pairs in ascending edge index."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for k, (a, b) in enumerate(self.edges):
            out[a].append((k, b))
            out[b].append((k, a))
        return tuple(map(tuple, out))

    @cached_property
    def _edge_masks(self) -> tuple[int, ...]:
        """Per vertex, the mask of its incident edges: bit k set when edge k touches it."""
        out = [0] * self.num_vertices
        for k, (a, b) in enumerate(self.edges):
            out[a] |= 1 << k
            out[b] |= 1 << k
        return tuple(out)

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(edge index, other endpoint) pairs for edges at v, ascending index."""
        if not 0 <= v < self.num_vertices:
            raise ValueError("vertex out of range")
        return self._incidence[v]

    def adjacency(self) -> np.ndarray:
        m = np.zeros((self.num_vertices, self.num_vertices), dtype=np.float64)
        for u, v in self.edges:
            m[u, v] = 1.0
            m[v, u] = 1.0
        return m

    def components(self, free: int) -> list[frozenset[int]]:
        """Connected components of (V, the edges whose bits are set in the mask free), sorted by least vertex."""
        seen = [False] * self.num_vertices
        out = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for u in comp:  # comp grows while it is walked
                for k, w in self._incidence[u]:
                    if not seen[w] and free >> k & 1:
                        seen[w] = True
                        comp.append(w)
            out.append(frozenset(comp))
        return out

    def to_text(self) -> str:
        lines = [f"v {self.num_vertices}"]
        lines += [f"e {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        num = None
        pairs = []
        with Lines(text, "#") as lines:
            for fields in lines:
                if fields[0] != "v":
                    u, w = expect(fields, "e <u> <w>")
                    pairs.append((parse_int(u, False), parse_int(w, False)))
                elif num is not None:
                    raise ValueError("second v header")
                else:
                    # signed, so that Graph itself reports a negative count
                    num = parse_int(expect(fields, "v <count>")[0], True)
            if num is None:
                raise ValueError("missing v header")
        return cls.from_pairs(num, pairs)


def complete_graph(k: int) -> Graph:
    return Graph(k, tuple((u, v) for u in range(k) for v in range(u + 1, k)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_pairs(k, [(i, (i + 1) % k) for i in range(k)])


def random_regular_graph(num_vertices: int, degree: int, seed: int) -> Graph:
    """Seed-reproducible connected d-regular simple graph via the repaired pairing model.

    Leftover stubs from colliding pairs are reshuffled and matched again until
    none remain or no suitable pair exists, in which case the attempt restarts;
    so does a disconnected graph, up to _REGULAR_GRAPH_TRIES attempts.
    """
    if (num_vertices * degree) % 2:
        raise ValueError("num_vertices * degree must be even")
    if degree >= num_vertices:
        raise ValueError("degree must be below the vertex count")
    if degree < 2 and num_vertices > degree + 1:
        raise ValueError(f"no connected graph has degree {degree} and {num_vertices} vertices")
    rng = random.Random(seed)

    def try_once() -> set[tuple[int, int]] | None:
        pairs: set[tuple[int, int]] = set()
        stubs = [v for v in range(num_vertices) for _ in range(degree)]
        while stubs:
            rng.shuffle(stubs)
            leftover: list[int] = []
            it = iter(stubs)
            for u, v in zip(it, it):
                if u == v or (min(u, v), max(u, v)) in pairs:
                    leftover += [u, v]
                else:
                    pairs.add((min(u, v), max(u, v)))
            if len(leftover) == len(stubs):
                # no progress; give up unless some suitable pair still exists
                suitable = any(
                    a != b and (min(a, b), max(a, b)) not in pairs
                    for i, a in enumerate(leftover)
                    for b in leftover[i + 1 :]
                )
                if not suitable:
                    return None
            stubs = leftover
        return pairs

    for _ in range(_REGULAR_GRAPH_TRIES):
        pairs = try_once()
        if pairs is None:
            continue
        g = Graph(num_vertices, tuple(sorted(pairs)))
        if len(g.components((1 << g.num_edges) - 1)) != 1:
            continue
        return g
    raise ValueError("failed to generate a random regular graph; try another seed")


@dataclass(frozen=True)
class ExpanderMetrics:
    degree: int
    lambda_norm: float
    cheeger_ok: bool | None  # None when the exhaustive cut sweep was skipped
    worst_cut_ratio: float | None


def expander_metrics(g: Graph) -> ExpanderMetrics:
    """Normalized second adjacency eigenvalue plus the exhaustive Cheeger sweep.

    cheeger_ok asserts every cut (S, V-S) has at least d/5 * min(|S|, |V|-|S|)
    edges; the sweep covers all 2^(|V|-1) cuts and is skipped above
    CHEEGER_SWEEP_CAP vertices.
    """
    d = g.degree_if_regular()
    if d is None:
        raise ValueError("expander metrics require a regular graph")
    if d == 0:
        raise ValueError("expander metrics require at least one edge")
    eigs = np.linalg.eigvalsh(g.adjacency())
    lam = float(max(abs(eigs[0]), abs(eigs[-2]))) / d if g.num_vertices > 1 else 0.0
    if g.num_vertices > CHEEGER_SWEEP_CAP:
        return ExpanderMetrics(d, lam, None, None)
    nv = g.num_vertices
    masks = np.arange(1, 1 << (nv - 1), dtype=np.uint64)
    cut = np.zeros(len(masks), dtype=np.int64)
    for u, v in g.edges:
        bu = (masks >> np.uint64(u)) & np.uint64(1) if u < nv - 1 else np.zeros(len(masks), dtype=np.uint64)
        bv = (masks >> np.uint64(v)) & np.uint64(1) if v < nv - 1 else np.zeros(len(masks), dtype=np.uint64)
        cut += (bu ^ bv).astype(np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    min_side = np.minimum(sizes, nv - sizes)
    ok = bool(np.all(5 * cut >= d * min_side))
    ratio = float(np.min(cut / np.maximum(min_side, 1)))
    return ExpanderMetrics(d, lam, ok, ratio)


@dataclass(frozen=True)
class TseitinCnf:
    """Per-vertex odd-charge parity constraints expanded into clauses."""

    graph: Graph
    charge: tuple[int, ...]
    cnf: Cnf
    vertex_clause_ranges: tuple[tuple[int, int], ...]


def tseitin_cnf(g: Graph, charge: Sequence[int] | None = None, contradiction: bool = True) -> TseitinCnf:
    """Build the Tseitin CNF; variables are edges, vertex-major clause order.

    Each vertex contributes the 2^(deg-1) clauses forbidding the local edge
    patterns of the wrong parity, enumerated lexicographically over the
    incident edges in ascending edge-index order.
    """
    if charge is None:
        charge = (1,) * g.num_vertices
    charge = tuple(int(c) for c in charge)
    if len(charge) != g.num_vertices or any(c not in (0, 1) for c in charge):
        raise ValueError(f"charge must be {g.num_vertices} bits 0 or 1, got {charge}")
    if contradiction and sum(charge) % 2 == 0:
        raise ValueError("contradiction mode needs odd total charge")
    clauses: list[tuple[int, ...]] = []
    ranges = []
    for v in range(g.num_vertices):
        inc = g.incident(v)
        start = len(clauses)
        for pattern in product((0, 1), repeat=len(inc)):
            if sum(pattern) % 2 == charge[v]:
                continue
            clause = tuple(
                (k + 1) if bit == 0 else -(k + 1) for (k, _), bit in zip(inc, pattern)
            )
            clauses.append(clause)
        ranges.append((start, len(clauses)))
    return TseitinCnf(g, charge, Cnf(g.num_edges, tuple(clauses)), tuple(ranges))


def brute_unsat(formula: Cnf | TseitinCnf) -> bool:
    """Exhaustive unsatisfiability sweep over all assignments."""
    c = formula.cnf if isinstance(formula, TseitinCnf) else formula
    return find_model(c) is None


@dataclass(frozen=True)
class EdgePartialAssignment:
    """A {0,1,*} assignment to edges: bit k of mask fixes edge k to bit k of bits."""

    graph: Graph
    mask: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << self.graph.num_edges:
            raise ValueError("edge index out of range")
        if self.bits & ~self.mask:
            raise ValueError("values must lie on fixed edges")

    @classmethod
    def empty(cls, g: Graph) -> "EdgePartialAssignment":
        return cls(g, 0, 0)

    @classmethod
    def from_dict(cls, g: Graph, values: Mapping[int, int]) -> "EdgePartialAssignment":
        mask = bits = 0
        for k, bit in values.items():
            if not 0 <= k < g.num_edges:
                raise ValueError("edge index out of range")
            if bit not in (0, 1):
                raise ValueError("fixed values must be bits")
            mask |= 1 << k
            bits |= bit << k
        return cls(g, mask, bits)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The (edge, bit) pairs of the fixed edges, in ascending edge order."""
        return tuple((k, self.bits >> k & 1) for k in range(self.graph.num_edges) if self.mask >> k & 1)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def free_mask(self) -> int:
        """The mask of the free edges: bit k set when edge k is not fixed."""
        return ((1 << self.graph.num_edges) - 1) ^ self.mask

    def extend(self, values: Mapping[int, int]) -> "EdgePartialAssignment":
        new = EdgePartialAssignment.from_dict(self.graph, values)
        clash = self.mask & new.mask & (self.bits ^ new.bits)
        if clash:
            k = next(k for k in values if clash >> k & 1)
            raise ValueError(f"edge {k} already fixed to {self.bits >> k & 1}")
        return EdgePartialAssignment(self.graph, self.mask | new.mask, self.bits | new.bits)

    @cached_property
    def analysis(self) -> "PartialAnalysis":
        """Components, parity residues and validity; computed once per assignment.

        Valid means: exactly one component of the free-edge graph has odd residue
        sum, and that component contains more than half of the vertices.
        """
        g = self.graph
        f = [1] * g.num_vertices  # f(v) = 1 + sum of fixed incident edge values, mod 2
        for k in set_bits(self.bits):
            u, v = g.edges[k]
            f[u] ^= 1
            f[v] ^= 1
        comps = g.components(self.free_mask)
        odd = tuple(c for c in comps if sum(f[v] for v in c) & 1)
        valid = len(odd) == 1 and 2 * len(odd[0]) > g.num_vertices
        return PartialAnalysis(tuple(comps), tuple(f), odd, valid)

    @cached_property
    def memo(self) -> dict:
        """Values that other modules derive from this assignment alone, by key.

        They live and die with the assignment.  None may refer back to it, so
        that a dropped assignment is freed by reference counting.
        """
        return {}

    def to_text(self) -> str:
        return "".join(f"{k} {bit}\n" for k, bit in self.entries)

    @classmethod
    def from_text(cls, g: Graph, text: str) -> "EdgePartialAssignment":
        values = {}
        with Lines(text, "#") as lines:
            for fields in lines:
                k_s, bit_s = expect(fields, "<edge> <bit>")
                k = parse_int(k_s, False)
                if k in values:
                    raise ValueError(f"edge {k} is fixed twice")
                values[k] = parse_bits(bit_s, 1)
        return cls.from_dict(g, values)


@dataclass(frozen=True)
class PartialAnalysis:
    components: tuple[frozenset[int], ...]
    f_rho: tuple[int, ...]
    odd_components: tuple[frozenset[int], ...]
    valid: bool

    @property
    def odd_component(self) -> frozenset[int] | None:
        return self.odd_components[0] if len(self.odd_components) == 1 else None


def analyze_partial(g: Graph, rho: EdgePartialAssignment) -> PartialAnalysis:
    """The analysis of a partial edge assignment over g; see EdgePartialAssignment.analysis."""
    if g is not rho.graph and g != rho.graph:
        raise ValueError("the assignment is over another graph")
    return rho.analysis
