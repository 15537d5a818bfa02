"""Block-structured F2 algebra: safety, closure, amortized closure, restriction.

Coordinates of a width n*b space are grouped into n blocks of b bits;
coordinate (i, j) sits at flat index i*b + j.  A set of equation forms is
"safe" when any k independent vectors in its span touch at least k distinct
blocks; equivalently, one can pick rank-many columns in pairwise distinct
blocks that are linearly independent.  The closure is the unique minimal set
of blocks whose removal restores safety; it is read off the certificate of
the matroid intersection that decides safety, with no cap on the block
count.  The amortized closure is the lexicographically largest block set that
admits one independent column per block.

One engine decides safety and closure: `ClosureTable`, a column table that
grows by appending rows and warm-starts each intersection from the maximum
solution of the table it was extended from.  `closure` and `is_safe` are the
empty table extended by the given rows; `pdt.block_complete` carries one
table down each path of the transformed tree.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import f2
from ._bits import bits_to_string, mask_bits, parity, string_to_bits
from .f2 import EMPTY, AffineSpace, _tagged_insert, _tagged_reduce, rank_of_rows


class NotExtendableError(ValueError):
    """The assignment matches no point of the space."""


@dataclass(frozen=True)
class BlockLayout:
    """n blocks of b bits each over a flat width of n*b coordinates."""

    n: int
    b: int

    def __post_init__(self):
        if self.n < 0 or self.b <= 0:
            raise ValueError("need n >= 0 and b >= 1")

    @property
    def width(self) -> int:
        return self.n * self.b

    def flat(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.b):
            raise ValueError("block coordinate out of range")
        return i * self.b + j

    def block_of(self, flat: int) -> int:
        return flat // self.b

    def block_mask(self, i: int) -> int:
        return mask_bits(self.b) << (i * self.b)

    def block_value(self, bits: int, i: int) -> int:
        return (bits >> (i * self.b)) & mask_bits(self.b)

    def blocks_touched(self, form: int) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if form & self.block_mask(i))

    def without(self, blocks: Iterable[int]) -> tuple["BlockLayout", tuple[int, ...]]:
        """Reduced layout after deleting blocks, with the kept original indices."""
        removed = set(blocks)
        kept = tuple(i for i in range(self.n) if i not in removed)
        return BlockLayout(len(kept), self.b), kept


def project_rows(rows: Sequence[int], layout: BlockLayout, kept_blocks: Sequence[int]) -> list[int]:
    """Drop the columns of all blocks not in kept_blocks, compacting indices."""
    out = []
    bmask = mask_bits(layout.b)
    for row in rows:
        new = 0
        for pos, blk in enumerate(kept_blocks):
            new |= ((row >> (blk * layout.b)) & bmask) << (pos * layout.b)
        out.append(new)
    return out


def _independent(cols: Sequence[int]) -> bool:
    return rank_of_rows(cols) == len(cols)


def _coordinates(masks: Sequence[int], cols: Sequence[int]) -> list[tuple[int, int]]:
    """(residue, tag) of each column over an echelon basis of the independent
    masks, tagged with the solution indices whose masks sum to each basis row:
    a column equals its residue plus the masks its tag marks."""
    basis: list[tuple[int, int, int]] = []
    for j, m in enumerate(masks):
        _tagged_insert(basis, m, 1 << j)
    return [_tagged_reduce(basis, col) for col in cols]


def _exchangeable(coord: tuple[int, int], x: int) -> bool:
    """True iff solution - x + y is independent, for y with these coordinates."""
    residue, tag = coord
    return residue != 0 or (tag >> x) & 1 == 1


def _augment(
    solution: list[tuple[int, int, int]], ground: dict[int, list[tuple[int, int]]]
) -> tuple[list[tuple[int, int, int]] | None, frozenset[int]]:
    """One matroid-intersection augmentation step.

    solution: common independent set as (block, col index, col mask) triples,
    at most one per block, column masks linearly independent.  ground maps a
    block to its usable columns.  Returns (a larger solution, empty set), or,
    when no augmenting path is left, (None, the blocks of every element the
    search reached from the M1-addable columns).

    Every outside column is reduced once against an echelon basis of the
    solution: a nonzero residue makes it M1-addable, and otherwise
    solution - x + y is independent exactly when bit x of y's tag is set.
    """
    in_sol = {c for _, c, _ in solution}
    sol_of_block = {blk: j for j, (blk, _, _) in enumerate(solution)}
    outside = [
        (blk, c, m)
        for blk, cols in ground.items()
        for c, m in cols
        if c not in in_sol
    ]
    coords = _coordinates([m for _, _, m in solution], [m for _, _, m in outside])

    # BFS over alternating exchange arcs from M1-addable to M2-addable elements.
    start = [i for i, (residue, _) in enumerate(coords) if residue]
    parents: dict[tuple[str, int], tuple[str, int] | None] = {("y", i): None for i in start}
    queue: list[tuple[str, int]] = list(parents)
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
    add: list[int] = []
    drop: list[int] = []
    node: tuple[str, int] | None = goal
    while node is not None:
        kind, idx = node
        (add if kind == "y" else drop).append(idx)
        node = parents[node]
    new_solution = [t for j, t in enumerate(solution) if j not in set(drop)]
    new_solution += [outside[j] for j in add]
    return new_solution, frozenset()


class ClosureTable:
    """The matroid column table of an append-only row set, with its last solution.

    `extend` returns a new table and leaves this one as it was.  A row in the
    span of the rows before it is skipped: it changes no dependency among the
    columns.  Every other row sets its own bit, k for the k-th kept row, in
    the mask of each column it touches.  Appending rows only adds coordinates
    to the column masks, so an independent column set stays independent: a
    table hands the maximum one-per-block solution of its closure to the
    tables extended from it, as their warm start (Cunningham, SIAM J.
    Comput. 1986).
    """

    __slots__ = ("layout", "_basis", "_cols", "_warm", "_solved")

    def __init__(self, layout: BlockLayout):
        self.layout = layout
        self._basis: tuple[tuple[int, int, int], ...] = ()  # echelon basis of the kept rows, untagged
        self._cols: dict[int, int] = {}  # flat column -> mask over the kept rows
        self._warm: tuple[tuple[int, int], ...] = ()  # (block, column) pairs of an independent one-per-block set
        self._solved: tuple[tuple[tuple[int, int], ...], frozenset[int]] | None = None

    @property
    def rank(self) -> int:
        return len(self._basis)

    def extend(self, rows: Iterable[int]) -> "ClosureTable":
        """A new table holding these rows after this table's rows."""
        width = self.layout.width
        basis = list(self._basis)
        cols = dict(self._cols)
        for row in rows:
            if row < 0 or row >> width:
                raise ValueError("row does not fit the layout")
            bit = 1 << len(basis)
            if not _tagged_insert(basis, row, 0)[0]:
                continue
            while row:
                low = row & -row
                c = low.bit_length() - 1
                cols[c] = cols.get(c, 0) | bit
                row ^= low
        table = ClosureTable(self.layout)
        table._basis = tuple(basis)
        table._cols = cols
        table._warm = self._solved[0] if self._solved is not None else self._warm
        return table

    def ground(self) -> dict[int, list[tuple[int, int]]]:
        """Per block, ascending: (flat column, column mask) of every nonzero column."""
        b = self.layout.b
        ground: dict[int, list[tuple[int, int]]] = {}
        for c in sorted(self._cols):
            ground.setdefault(c // b, []).append((c, self._cols[c]))
        return ground

    def closure(self) -> frozenset[int]:
        """The minimal deviolator of the rows, read off the final augmenting-path search.

        f(S) = dim{span vectors supported on S's columns} - |S| is supermodular
        and every deviolator contains its least maximiser, so that is the
        closure.  By the matroid-intersection min-max theorem, the blocks the
        final, failed search reaches from the M1-addable columns form exactly
        that least maximiser.  A solution of full rank leaves no column
        M1-addable, so the closure is then empty with no search.
        """
        if self._solved is None:
            self._solved = self._solve()
        return self._solved[1]

    def _solve(self) -> tuple[tuple[tuple[int, int], ...], frozenset[int]]:
        """A maximum one-per-block independent column set, and the closure.

        The warm solution is re-checked as it is loaded into an echelon basis;
        unused blocks are then filled greedily, in column order, with the
        first column independent of those taken.  Augmentation runs only
        when that leaves the solution short of the rank.
        """
        cols, b, rank = self._cols, self.layout.b, len(self._basis)
        echelon: list[tuple[int, int, int]] = []  # of the solution's column masks

        def independent(c: int) -> bool:
            return _tagged_insert(echelon, cols[c], 0)[0] != 0

        solution = list(self._warm)
        if not all(independent(c) for _, c in solution):
            raise RuntimeError("a warm-start column is dependent on the others")
        used = {blk for blk, _ in solution}
        if len(solution) < rank:
            for c in sorted(cols):
                blk = c // b
                if blk not in used and independent(c):
                    solution.append((blk, c))
                    used.add(blk)
                    if len(solution) == rank:
                        break
        if len(solution) == rank:
            return tuple(solution), frozenset()
        ground = self.ground()
        triples = [(blk, c, cols[c]) for blk, c in solution]
        while True:
            bigger, reached = _augment(triples, ground)
            if bigger is None:
                return tuple((blk, c) for blk, c, _ in triples), reached
            triples = bigger


def is_safe(rows: Sequence[int], layout: BlockLayout) -> bool:
    """True iff rank-many independent columns exist in pairwise distinct blocks: the closure is empty."""
    return not closure(rows, layout)


def is_deviolator(rows: Sequence[int], layout: BlockLayout, blocks: Iterable[int]) -> bool:
    sub_layout, kept = layout.without(blocks)
    return is_safe(project_rows(rows, layout, kept), sub_layout)


def closure(rows: Sequence[int], layout: BlockLayout) -> frozenset[int]:
    """The minimal deviolator: `ClosureTable.closure` of the empty table extended by the rows."""
    return ClosureTable(layout).extend(rows).closure()


def blockset_sort_key(blocks: Iterable[int]) -> int:
    """Sort key realizing the block-set order: indicator read as a binary number.

    Equivalent to comparing descending-sorted index sequences elementwise with
    longer-prefix-wins.
    """
    return sum(1 << i for i in blocks)


def blockset_lex_ge(a: Iterable[int], b: Iterable[int]) -> bool:
    """Reference comparator: descending sequences, elementwise, longer prefix wins."""
    sa, sb = sorted(a, reverse=True), sorted(b, reverse=True)
    for x, y in zip(sa, sb):
        if x != y:
            return x > y
    return len(sa) >= len(sb)


def amortized_closure(rows: Sequence[int], layout: BlockLayout) -> tuple[frozenset[int], tuple[tuple[int, int], ...]]:
    """Lexicographically largest acceptable block set plus certificate columns.

    Greedy from the highest block index: acceptable sets are downward closed,
    so including a block whenever the candidate set stays acceptable maximizes
    the indicator-number order.  The certificate pairs (block, flat column)
    have linearly independent columns, one per member block.
    """
    ground = ClosureTable(layout).extend(rows).ground()
    chosen: list[int] = []
    solution: list[tuple[int, int, int]] = []
    for i in range(layout.n - 1, -1, -1):
        if i not in ground:
            continue
        candidate = {blk: cols for blk, cols in ground.items() if blk == i or blk in chosen}
        bigger, _ = _augment(solution, candidate)
        if bigger is not None:
            chosen.append(i)
            solution = bigger
    cert = tuple(sorted((blk, c) for blk, c, _ in solution))
    return frozenset(chosen), cert


# Brute-force references used as oracles by the property suites.


def _columns_by_block(rows: Sequence[int], layout: BlockLayout) -> dict[int, list[int]]:
    """Per block, ascending: the mask over row indices of every nonzero column, by definition."""
    by_block: dict[int, list[int]] = {}
    for c in range(layout.width):
        col = sum(((row >> c) & 1) << r for r, row in enumerate(rows))
        if col:
            by_block.setdefault(layout.block_of(c), []).append(col)
    return by_block


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
    reduced = f2.space_from_pairs(layout.width, [(row, 0) for row in rows]).forms()
    r = len(reduced)
    span = []
    for coeffs in range(1, 1 << len(reduced)):
        v = 0
        for j in range(len(reduced)):
            if (coeffs >> j) & 1:
                v ^= reduced[j]
        span.append(v)
    for k in range(1, r + 1):
        for combo in itertools.combinations(span, k):
            if rank_of_rows(combo) < k:
                continue
            touched = set()
            for v in combo:
                touched |= layout.blocks_touched(v)
            if len(touched) < k:
                return False
    return True


def closure_bruteforce(rows: Sequence[int], layout: BlockLayout) -> frozenset[int]:
    """Minimum-size deviolator by scanning all block subsets; asserts uniqueness."""
    best: list[frozenset[int]] = []
    best_size = layout.n + 1
    for size in range(layout.n + 1):
        for S in itertools.combinations(range(layout.n), size):
            if is_deviolator(rows, layout, S):
                best = [frozenset(S)]
                best_size = size
                break
        if best:
            break
    for S in itertools.combinations(range(layout.n), best_size):
        fs = frozenset(S)
        if fs not in best and is_deviolator(rows, layout, S):
            best.append(fs)
    if len(best) != 1:
        raise AssertionError(f"minimum deviolator not unique: {best}")
    return best[0]


def acceptable_sets_bruteforce(rows: Sequence[int], layout: BlockLayout) -> list[frozenset[int]]:
    by_block = _columns_by_block(rows, layout)
    blocks = sorted(by_block)
    out = [frozenset()]
    for size in range(1, len(blocks) + 1):
        for combo in itertools.combinations(blocks, size):
            ok = any(
                _independent(pick)
                for pick in itertools.product(*[by_block[blk] for blk in combo])
            )
            if ok:
                out.append(frozenset(combo))
    return out


def amortized_closure_bruteforce(rows: Sequence[int], layout: BlockLayout) -> frozenset[int]:
    best: frozenset[int] | None = None
    for S in acceptable_sets_bruteforce(rows, layout):
        if best is None or blockset_lex_ge(S, best):
            best = S
    if best is None:
        raise RuntimeError("the empty block set is always acceptable")
    return best


@dataclass(frozen=True)
class ClosureAssignment:
    """Full b-bit values for a set of blocks."""

    layout: BlockLayout
    entries: tuple[tuple[int, int], ...]  # (block, b-bit value), sorted by block

    def __post_init__(self):
        seen = set()
        for blk, val in self.entries:
            if not 0 <= blk < self.layout.n:
                raise ValueError("block out of range")
            if not 0 <= val < (1 << self.layout.b):
                raise ValueError("value out of range for block width")
            if blk in seen:
                raise ValueError("duplicate block")
            seen.add(blk)
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError("entries must be sorted by block")

    @classmethod
    def from_dict(cls, layout: BlockLayout, values: dict[int, int]) -> "ClosureAssignment":
        return cls(layout, tuple(sorted(values.items())))

    @classmethod
    def from_point(cls, layout: BlockLayout, blocks: Iterable[int], bits: int) -> "ClosureAssignment":
        return cls.from_dict(layout, {i: layout.block_value(bits, i) for i in blocks})

    @property
    def blocks(self) -> frozenset[int]:
        return frozenset(blk for blk, _ in self.entries)

    def value(self, block: int) -> int:
        for blk, val in self.entries:
            if blk == block:
                return val
        raise KeyError(block)

    def coordinate_pairs(self) -> list[tuple[int, int]]:
        """The assignment as unit-form equations over the full layout."""
        pairs = []
        for blk, val in self.entries:
            for j in range(self.layout.b):
                pairs.append((1 << self.layout.flat(blk, j), (val >> j) & 1))
        return pairs

    def fixed_bits(self) -> tuple[int, int]:
        """(mask, value) over the full width covering exactly the member blocks."""
        mask = 0
        value = 0
        for blk, val in self.entries:
            mask |= self.layout.block_mask(blk)
            value |= val << (blk * self.layout.b)
        return mask, value

    def to_text(self) -> str:
        return " ".join(f"{blk}:{bits_to_string(val, self.layout.b)}" for blk, val in self.entries)

    @classmethod
    def from_text(cls, layout: BlockLayout, text: str) -> "ClosureAssignment":
        values = {}
        for token in text.split():
            blk_s, val_s = token.split(":")
            values[int(blk_s)] = string_to_bits(val_s)
        return cls.from_dict(layout, values)


def fixed_blocks(a: AffineSpace, layout: BlockLayout) -> frozenset[int]:
    """Blocks whose every coordinate is constant on the space.

    A unit vector is in the span of reduced echelon rows exactly when it is
    one of the rows, so a block is fixed iff its b unit forms are all rows.
    """
    units = Counter(layout.block_of(f.bit_length() - 1) for f in a.forms() if f & (f - 1) == 0)
    return frozenset(i for i, k in units.items() if k == layout.b)


def is_extendable(a: AffineSpace, y: ClosureAssignment) -> bool:
    """True iff some point of the space agrees with the assignment."""
    if a.width != y.layout.width:
        raise ValueError("width mismatch")
    joint = f2.space_from_pairs(a.width, list(a.rows) + y.coordinate_pairs())
    return joint is not EMPTY


def substitute(a: AffineSpace, y: ClosureAssignment) -> AffineSpace | f2._EmptySpace:
    """Plug the assignment in and re-index onto the remaining blocks."""
    layout = y.layout
    if a.width != layout.width:
        raise ValueError("width mismatch")
    mask, value = y.fixed_bits()
    sub_layout, kept = layout.without(y.blocks)
    pairs = []
    for form, bit in a.rows:
        new_bit = bit ^ parity(form & mask & value)
        new_form = project_rows([form & ~mask], layout, kept)[0]
        pairs.append((new_form, new_bit))
    return f2.space_from_pairs(sub_layout.width, pairs)


def restrict(a: AffineSpace, y: ClosureAssignment) -> AffineSpace:
    """Restriction by a closure assignment; the result is a safe space."""
    cl = closure(a.forms(), y.layout)
    if y.blocks != cl:
        raise ValueError(f"assignment blocks {sorted(y.blocks)} differ from closure {sorted(cl)}")
    if not is_extendable(a, y):
        raise NotExtendableError("no point of the space matches the assignment")
    result = substitute(a, y)
    if result is EMPTY:
        raise RuntimeError("an extendable assignment substituted to the empty space")
    return result
