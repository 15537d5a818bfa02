"""Parity decision trees, the block-completing transform, and the coin game.

Trees may hold lazy children (zero-argument callables resolved on first
visit), so the block-completing transform and adaptive adversaries never
materialize branches that no sampled input reaches.  Block-completed nodes
carry the space of the answers on their path, and the coin game follows a
point through them (`_walk`).

The coin game charges a tree for shrinking the odd component of the revealed
base assignment: when the revealed blocks split the component and the root
stays in the largest piece, the tree pays the shrinkage in coins; if the root
lands outside the largest piece the tree wins outright; it loses when a due
payment exceeds the remaining budget.

Both games drive one accountant, which owns the game state: the revealed
partial assignment and its analysis, made at the start and after each
reveal.  Unlifted adversaries implement `next_edge(analysis, graph, free, rng)`,
where `free` is the mask of the free edges (bit k set when edge k is free).
"""
from __future__ import annotations

from _blake2 import blake2b  # hashlib's blake2b, without loading OpenSSL
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import f2
from .blocks import BlockLayout, ClosureAssignment, ClosureTable, amortized_closure
from ._bits import mask_bits, parity, set_bits
from .dtfooling import root_of, root_space, sample as dtf_sample, valid_analysis
from .f2 import EMPTY, AffineSpace, CertificateError, FVec, full_space, points_array
from .gadget import (
    EmptyPreimageError,
    Gadget,
    LiftedDistribution,
    _check_layout,
    _class_counts,
    _target_classes,
    count_preimages,
    lift_eval,
    sample_lifted,
)
from .tseitin import EdgePartialAssignment, Graph, PartialAnalysis, analyze_partial

LIFTED_SUPPORT_CAP = 18


@dataclass(frozen=True)
class Leaf:
    tag: str = ""


class Query:
    """A linear-form query node; children may be lazy thunks.  A node that
    `block_complete` builds carries the space of the answers on its path."""

    __slots__ = ("form", "note", "space", "_kids")

    def __init__(self, form: int, child0, child1, note: str = "", space: AffineSpace | None = None):
        self.form = form
        self.note = note
        self.space = space
        self._kids = [child0, child1]

    def child(self, bit: int):
        kid = self._kids[bit]
        if callable(kid):
            kid = kid()
            self._kids[bit] = kid
        return kid


PdtNode = Leaf | Query


@dataclass(frozen=True)
class Pdt:
    width: int
    root: PdtNode


def random_linear_tree(width: int, depth: int, rng: random.Random) -> Pdt:
    """Complete tree of independent uniformly random nonzero forms."""
    if depth > 14:
        raise ValueError("random tree depth capped at 14")
    return Pdt(width, _random_linear_node(width, depth, rng))


def _random_linear_node(width: int, depth: int, rng: random.Random) -> PdtNode:
    if depth == 0:
        return Leaf()
    form = 0
    while form == 0:
        form = rng.getrandbits(width)
    return Query(form, _random_linear_node(width, depth - 1, rng), _random_linear_node(width, depth - 1, rng))


def _walk(t: Pdt, x: int) -> Iterator[tuple[PdtNode, AffineSpace]]:
    """The nodes on the path of x from the root, each with the space that reaches it.

    The walk starts from the space the root carries (the one the tree was
    completed in), else the full space.  Each step takes the space its child
    carries, else cuts the last space by the answer.
    """
    if x < 0 or x >> t.width:
        raise ValueError("point out of range for width")
    node = t.root
    space = getattr(node, "space", None)  # a leaf carries none
    if space is None:
        space = full_space(t.width)
    elif not space.contains(x):
        raise ValueError("point lies outside the space the tree was completed in")
    yield node, space
    while isinstance(node, Query):
        form, bit = node.form, parity(node.form & x)
        node = node.child(bit)
        space = getattr(node, "space", None) or space.with_equation(form, bit)
        if space is EMPTY:
            raise RuntimeError("a point left the space of its own answers")
        yield node, space


def block_complete(
    t: Pdt,
    layout: BlockLayout,
    a: AffineSpace,
    y: ClosureAssignment,
) -> Pdt:
    """Insert whole-block coordinate queries before closure-growing queries.

    Whenever the original tree is about to query a form that would add new
    blocks to the closure of the accumulated space, the result first queries
    every coordinate of those blocks (ascending), then the form.  After each
    stage the closure of the accumulated space equals the set of fully
    queried blocks, and the closure growth is bounded by one block per
    original query.  Each path carries one closure table, extended by the
    forms its stages add, so every closure starts from the last solution.
    Each query node carries its path's space, the root `a` cut by y.
    """
    if a.width != layout.width or t.width != layout.width:
        raise ValueError("width mismatch")
    if layout.b < 2:
        raise ValueError("block completion needs blocks of at least 2 bits")
    start_amortized = len(amortized_closure(a.forms(), layout)[0])
    base = a
    for form, bit in y.coordinate_pairs():
        base = base.with_equation(form, bit)
        if base is EMPTY:
            raise ValueError("closure assignment is not extendable in the space")
    table = ClosureTable(layout).extend(base.forms())
    if not y.blocks <= table.closure():
        raise ValueError("assignment blocks must be closed in the starting space")
    return Pdt(layout.width, _descend(t.root, base, table, start_amortized + 1))


def _descend(node: PdtNode, space: AffineSpace, table: ClosureTable, limit: int) -> PdtNode:
    """The block-completed subtree of an original node, reached with this space and table."""
    if isinstance(node, Leaf):
        return node
    return _Stage(node, table, limit).fill(0, space)


class _Stage:
    """One original query on one path: the coordinates it fills, then the query.

    The stage's table holds the forms of the space it starts from, whose
    closure is the set of blocks queried so far; `check` adds the filled
    coordinates and the query, and the next stage starts from it.  Lazy
    children are partials of the stage's methods, so a dropped tree holds
    no reference cycle.
    """

    __slots__ = ("orig", "coords", "closed", "check", "limit")

    def __init__(self, orig: Query, table: ClosureTable, limit: int):
        layout = table.layout
        closed = table.closure()
        grown = table.extend((orig.form,))
        self.closed = closed | grown.closure()
        # |Cl| <= |amortized Cl| <= starting amortized closure + one per query
        if len(self.closed) > limit:
            raise CertificateError("closure grew faster than one block per query")
        self.orig = orig
        self.coords = [layout.flat(i, j) for i in sorted(self.closed - closed) for j in range(layout.b)]
        self.check = grown.extend([1 << c for c in self.coords] + [orig.form])
        self.limit = limit

    def fill(self, pos: int, sp: AffineSpace) -> PdtNode:
        if pos == len(self.coords):
            return Query(self.orig.form, partial(self.query_kid, sp, 0), partial(self.query_kid, sp, 1), "stage-end", sp)
        form = 1 << self.coords[pos]
        return Query(form, partial(self.fill_kid, pos, sp, 0), partial(self.fill_kid, pos, sp, 1), "block-fill", sp)

    def fill_kid(self, pos: int, sp: AffineSpace, bit: int) -> PdtNode:
        nxt = sp.with_equation(1 << self.coords[pos], bit)
        if nxt is EMPTY:
            return Leaf("dead")
        return self.fill(pos + 1, nxt)

    def query_kid(self, sp: AffineSpace, bit: int) -> PdtNode:
        nxt = sp.with_equation(self.orig.form, bit)
        if nxt is EMPTY:
            return Leaf("dead")
        if self.check.rank != nxt.codim:
            raise CertificateError("the closure table and the space of the path differ")
        if self.check.closure() != self.closed:
            raise CertificateError("closure after a stage differs from the queried blocks")
        return _descend(self.orig.child(bit), nxt, self.check, self.limit + 1)


@dataclass(frozen=True)
class GameStep:
    revealed: tuple[int, ...]  # newly revealed base variables (edges)
    odd_before: int
    odd_after: int
    paid: int
    won: bool


@dataclass(frozen=True)
class GameTranscript:
    budget: Fraction
    steps: tuple[GameStep, ...]
    outcome: str  # WIN | LOSE | EXHAUSTED_QUERIES
    root: int
    initial_odd_size: int
    final_odd_size: int
    final_partial: EdgePartialAssignment

    @property
    def total_paid(self) -> int:
        return sum(s.paid for s in self.steps)

    def identity_holds(self) -> bool:
        shrink = self.initial_odd_size - self.final_odd_size
        win_shrink = sum(s.odd_before - s.odd_after for s in self.steps if s.won)
        return shrink == self.total_paid + win_shrink


class _Accountant:
    """Owns a game's state against the hidden edge bits z: partial, analysis, payments, outcome."""

    def __init__(self, rho: EdgePartialAssignment, z: int, budget: Fraction):
        root = root_of(rho.graph, z)
        if not isinstance(root, int):
            raise ValueError("assignment does not have a unique root")
        self.z = z
        self.root = root
        self.budget = Fraction(budget)
        self.remaining = Fraction(budget)
        self.partial = rho
        self.analysis = analyze_partial(rho.graph, rho)
        if self.analysis.odd_component is None or root not in self.analysis.odd_component:
            raise ValueError(f"root {root} is not in the unique odd component of rho")
        self.odd: frozenset[int] = self.analysis.odd_component
        self.initial = len(self.odd)
        self.steps: list[GameStep] = []
        self.outcome: str | None = None

    def reveal(self, edges: int) -> None:
        """Reveal z on the free edges of the mask and settle the step's payment."""
        p = self.partial
        edges &= p.free_mask
        if self.outcome is not None or not edges:
            return
        before = self.odd
        self.partial = EdgePartialAssignment(p.graph, p.mask | edges, p.bits | (self.z & edges))
        self.analysis = analyze_partial(self.partial.graph, self.partial)
        pieces = [c for c in self.analysis.components if c <= before]
        after = next(c for c in pieces if self.root in c)
        largest = max(pieces, key=lambda c: (len(c), -min(c)))
        won = after != largest
        paid = 0 if won else len(before) - len(largest)
        self.steps.append(GameStep(tuple(set_bits(edges)), len(before), len(after), paid, won))
        self.odd = after
        if won:
            self.outcome = "WIN"
        elif paid > self.remaining:
            self.outcome = "LOSE"
        self.remaining -= paid

    def transcript(self) -> GameTranscript:
        return GameTranscript(
            self.budget,
            tuple(self.steps),
            self.outcome or "EXHAUSTED_QUERIES",
            self.root,
            self.initial,
            len(self.odd),
            self.partial,
        )


def _rooted_support(rho: EdgePartialAssignment) -> Iterator[tuple[int, int]]:
    """(root, z) for every point z of the hard distribution's support, root by root.

    z is a point of the root's space (`root_space`), so its root is known
    by construction.
    """
    analysis = valid_analysis(rho)
    free = rho.free_mask.bit_count()
    if free > LIFTED_SUPPORT_CAP:
        raise f2.EnumerationCapError(f"{free} free edges exceed support cap {LIFTED_SUPPORT_CAP}")
    for v in sorted(analysis.odd_component):
        for z in points_array(root_space(rho, v)):
            yield v, z


def lifted_dtfooling_distribution(layout: BlockLayout, g: Gadget, rho: EdgePartialAssignment) -> LiftedDistribution:
    """The lift of the hard distribution: explicit uniform support over roots.

    The per-root completion spaces are disjoint and equicardinal, so listing
    every completion with weight one is exactly the sampler's base law.
    """
    return LiftedDistribution(layout, g, tuple((z, 1) for _, z in _cached_support(layout, rho)[0]))


def _cached_support(layout: BlockLayout, rho: EdgePartialAssignment) -> tuple[list[tuple[int, int]], np.ndarray]:
    """`_rooted_support` as a list, and each point's block classes (`gadget._target_classes`).

    The layout must have one block per edge.  Then both depend on rho
    alone (a class is a bit of z), so they are kept in rho's `memo` and go
    with rho.
    """
    if layout.n != rho.graph.num_edges:
        raise ValueError("layout must have one block per edge")
    kept = rho.memo.get(_cached_support)
    if kept is None:
        points = list(_rooted_support(rho))
        kept = rho.memo[_cached_support] = (points, _target_classes(layout, [z for _, z in points]))
    return kept


def exact_lifted_root_law(
    layout: BlockLayout,
    g: Gadget,
    rho: EdgePartialAssignment,
    conditioning: AffineSpace | None = None,
) -> tuple[tuple[int, Fraction], ...]:
    """Exact law of root(G(x)) for x from the lifted hard distribution given x in C.

    A support point z weighs |G^-1(z) ∩ C| / |G^-1(z)|.  The counts for all
    support points come from one Walsh-domain product of per-block syndrome
    tables.  The support and its block classes depend on rho alone, so
    they are built once and kept (`_cached_support`).  The fibre
    |G^-1(z)| depends only on |z|, so the counts are summed per (root, |z|)
    and divided once per group.  The near-uniformity of the lifted root can
    then be checked against the finite-scale spectral budget.
    """
    support, classes = _cached_support(layout, rho)
    space = conditioning if conditioning is not None else full_space(layout.width)
    _check_layout(space, layout, g)
    counts = _class_counts(space, layout, g, classes).tolist()
    groups: dict[tuple[int, int], list[int]] = {}  # (root, |z|) -> [summed count, one z]
    for (root, z), cnt in zip(support, counts):
        group = groups.setdefault((root, z.bit_count()), [0, z])
        group[0] += cnt
    weights: dict[int, Fraction] = {}
    for (root, _), (cnt, z) in groups.items():
        fibre = count_preimages(g, layout, z)
        if fibre == 0:
            raise EmptyPreimageError("a support point has an empty fibre")
        weights[root] = weights.get(root, Fraction(0)) + Fraction(cnt, fibre)
    total = sum(weights.values())
    if total == 0:
        raise f2.EmptySpaceError("conditioning removes the whole lifted support")
    return tuple(sorted((v, p / total) for v, p in weights.items()))


def _unit_rows(layout: BlockLayout, units: int, space: AffineSpace) -> tuple[int, int]:
    """The mask of the space's unit rows, and the mask of the blocks fixed by those not in `units`.

    A coordinate the space determines is a unit row of its reduced echelon
    form, so a path's unit rows only grow.  A new equation can complete
    blocks it does not touch, so every row is read; `oracles.fixed_blocks`,
    which decides by rank, is the from-scratch form.
    """
    new = sum(f for f, _ in space.rows if f & (f - 1) == 0) & ~units  # pivots are distinct
    if not new:
        return units, 0
    units |= new
    b, whole = layout.b, mask_bits(layout.b)
    return units, sum(1 << i for i in {c // b for c in set_bits(new)} if units >> (i * b) & whole == whole)


def coin_game(
    tprime: Pdt,
    layout: BlockLayout,
    g: Gadget,
    rho: EdgePartialAssignment,
    sampler: Callable[[random.Random], FVec],
    budget: Fraction,
    rng: random.Random,
) -> GameTranscript:
    """Play the lifted coin game on one sampled input.

    The sampler draws the lifted point; the tree's queries are answered
    truthfully, and whenever the accumulated equations determine every bit of
    new blocks, those base variables are revealed to the accountant.  The
    spaces come from `_walk`, so a block-completed tree's are read, not
    built again; each new one is read for new unit rows (`_unit_rows`).
    """
    x = sampler(rng)
    acct = _Accountant(rho, lift_eval(g, layout, x).bits, budget)
    units, last = 0, None
    for _, space in _walk(tprime, x.bits):
        if space is not last:
            units, fixed = _unit_rows(layout, units, space)
            acct.reveal(fixed)
            last = space
        if acct.outcome is not None:
            break
    return acct.transcript()


class EdgeQueryStrategy:
    """Adaptive ordinary-decision-tree adversary over edge variables; one instance per game.

    `next_edge` reads `free`, the mask of the free edges (bit k set when edge k is free).
    """

    name = "base"

    def next_edge(self, analysis: PartialAnalysis, graph: Graph, free: int, rng: random.Random) -> int | None:
        raise NotImplementedError


class RandomEdgeStrategy(EdgeQueryStrategy):
    """Queries a uniformly random free edge: the r-th in ascending order, r drawn by `randrange`."""

    name = "random-edge"

    def next_edge(self, analysis, graph, free, rng):
        if not free:
            return None
        for _ in range(rng.randrange(free.bit_count())):
            free &= free - 1  # clears the lowest set bit
        return (free & -free).bit_length() - 1


class GreedyCutStrategy(EdgeQueryStrategy):
    """Carves at the cheapest corner of the odd component.

    Repeatedly targets the vertex of the current odd component with the
    fewest free edges (the least on a tie) and queries its lowest free edge,
    the greedy way to split something off with the fewest queries.
    """

    name = "greedy-cut"

    def next_edge(self, analysis, graph, free, rng):
        odd = analysis.odd_component
        if odd is None or not free:
            return None
        masks = graph._edge_masks
        best = min(((n, v) for v in odd if (n := (masks[v] & free).bit_count())), default=None)
        edges = free if best is None else masks[best[1]] & free  # all free edges when no odd vertex has one
        return (edges & -edges).bit_length() - 1


def run_unlifted_game(
    rho: EdgePartialAssignment,
    strategy: EdgeQueryStrategy,
    z: FVec,
    q: int,
    budget: Fraction,
    rng: random.Random,
) -> tuple[GameTranscript, EdgePartialAssignment]:
    """Ordinary decision tree over edges against a sampled base assignment."""
    acct = _Accountant(rho, z.bits, budget)
    for _ in range(q):
        if acct.outcome is not None:
            break
        free = acct.partial.free_mask
        e = strategy.next_edge(acct.analysis, rho.graph, free, rng)
        if e is None:
            break
        if e < 0 or not free >> e & 1:
            raise ValueError(f"strategy queried a fixed edge {e}")
        acct.reveal(1 << e)
    return acct.transcript(), acct.partial


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The Wilson score interval at 95% confidence."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96
    phat = successes / trials
    denom = 1 + z * z / trials
    center = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


@dataclass(frozen=True)
class TrialRow:
    strategy: str
    trial: int
    root: int
    success: bool
    outcome: str
    paid: int
    identity_ok: bool


@dataclass(frozen=True)
class StrategySummary:
    strategy: str
    trials: int
    successes: int
    wilson_low: float
    wilson_high: float
    all_identities_ok: bool
    max_paid: int


@dataclass(frozen=True)
class ExperimentReport:
    graph_vertices: int
    graph_edges: int
    degree: int
    q: int
    trials: int
    seed: int
    budget: Fraction
    rows: tuple[TrialRow, ...]
    summaries: tuple[StrategySummary, ...]

    def to_csv(self) -> str:
        lines = ["strategy,trial,root,success,outcome,paid,identity_ok"]
        for r in self.rows:
            lines.append(
                f"{r.strategy},{r.trial},{r.root},{int(r.success)},{r.outcome},{r.paid},{int(r.identity_ok)}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"graph: {self.graph_vertices} vertices, {self.graph_edges} edges, degree {self.degree}",
            f"q={self.q} trials={self.trials} seed={self.seed} budget={self.budget}",
        ]
        for s in self.summaries:
            lines.append(
                f"{s.strategy}: success {s.successes}/{s.trials}"
                f" wilson95=[{s.wilson_low:.4f}, {s.wilson_high:.4f}]"
                f" identities_ok={s.all_identities_ok} max_paid={s.max_paid}"
            )
        return "\n".join(lines) + "\n"


def default_strategies() -> dict[str, Callable[[], EdgeQueryStrategy]]:
    return {
        "greedy-cut": GreedyCutStrategy,
        "random-edge": RandomEdgeStrategy,
    }


def _trial_seed(seed: int, name: str, trial: int) -> int:
    """A 64-bit seed hashed from (seed, name, trial): distinct triples get unrelated streams."""
    text = json.dumps([str(seed), name, str(trial)])
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


def _experiment(
    graph: Graph,
    names: Iterable[str],
    q: int,
    trials: int,
    seed: int,
    budget: Fraction | None,
    play: Callable[[str, random.Random, Fraction], GameTranscript],
) -> ExperimentReport:
    """Run `trials` plays per name and summarize them.

    play(name, rng, budget) returns the game's transcript; a trial succeeds
    when its final partial assignment is still valid.  Each trial's seed is
    a hash of (seed, name, trial).
    """
    d = graph.degree_if_regular()
    if d is None:
        raise ValueError("hardness experiment expects a regular graph")
    if budget is None:
        budget = Fraction(graph.num_vertices, 50 * d)
    rows: list[TrialRow] = []
    summaries: list[StrategySummary] = []
    for name in sorted(names):
        successes = 0
        identities = True
        max_paid = 0
        for trial in range(trials):
            rng = random.Random(_trial_seed(seed, name, trial))
            transcript = play(name, rng, budget)
            ok = analyze_partial(graph, transcript.final_partial).valid
            successes += ok
            ident = transcript.identity_holds()
            identities &= ident
            max_paid = max(max_paid, transcript.total_paid)
            rows.append(TrialRow(name, trial, transcript.root, ok, transcript.outcome, transcript.total_paid, ident))
        low, high = wilson_interval(successes, trials)
        summaries.append(StrategySummary(name, trials, successes, low, high, identities, max_paid))
    return ExperimentReport(
        graph.num_vertices,
        graph.num_edges,
        d,
        q,
        trials,
        seed,
        budget,
        tuple(rows),
        tuple(summaries),
    )


def lifted_hardness_experiment(
    graph: Graph,
    g: Gadget,
    q: int,
    trials: int,
    seed: int,
    budget: Fraction | None = None,
) -> ExperimentReport:
    """Coin-game Monte Carlo over random linear parity trees of depth q on the lifted space.

    Each trial draws a fresh tree, runs it through the block-completing
    transform, and plays it against an exact sample of the lifted hard
    distribution; success means the revealed base partial assignment stays
    valid.  Desk scale only: the explicit lifted support caps the edge count.
    """
    rho = EdgePartialAssignment.empty(graph)
    layout = BlockLayout(graph.num_edges, g.b)
    dist = lifted_dtfooling_distribution(layout, g, rho)
    base_space = full_space(layout.width)
    y = ClosureAssignment.from_dict(layout, {})

    def play(name: str, rng: random.Random, budget: Fraction):
        tprime = block_complete(random_linear_tree(layout.width, q, rng), layout, base_space, y)
        return coin_game(tprime, layout, g, rho, lambda r: sample_lifted(dist, None, r), budget, rng)

    return _experiment(graph, ("random-linear",), q, trials, seed, budget, play)


def hardness_experiment(
    graph: Graph,
    q: int,
    trials: int,
    seed: int,
    strategies: Mapping[str, Callable[[], EdgeQueryStrategy]] | None = None,
    budget: Fraction | None = None,
) -> ExperimentReport:
    """Monte Carlo estimate of how often q queries keep the assignment valid.

    Per trial: sample the hard distribution, run the adversary for q edge
    queries, record whether the revealed partial assignment is still valid,
    plus the coin-game transcript and its accounting identity.
    """
    if strategies is None:
        strategies = default_strategies()
    rho = EdgePartialAssignment.empty(graph)

    def play(name: str, rng: random.Random, budget: Fraction):
        drawn = dtf_sample(rho, rng)
        return run_unlifted_game(rho, strategies[name](), drawn.assignment, q, budget, rng)[0]

    return _experiment(graph, strategies, q, trials, seed, budget, play)
