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
solution of the table it was extended from, carrying every column's
coordinates over that solution.  `closure` and `is_safe` are the empty
table extended by the given rows; `pdt.block_complete` carries one table
down each path of the transformed tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from . import f2
from ._bits import mask_bits, parity, set_bits
from .f2 import EMPTY, AffineSpace, _tagged_insert


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


def _join(res: list[int], tags: list[int], sol: list[int], c: int) -> None:
    """Add column c, whose residue is nonzero, to the solution.

    The lowest bit of c's residue becomes a pivot.  Every column whose
    residue holds that bit sheds c's residue and takes c's tag plus c
    itself, as `f2._tagged_insert` clears a new pivot.
    """
    holders = res[next(k for k, r in enumerate(res) if r >> c & 1)]  # the columns whose residue has the pivot
    for k, r in enumerate(res):
        if r >> c & 1:
            res[k] = r ^ holders
    for j, t in enumerate(tags):
        if t >> c & 1:
            tags[j] = t ^ holders
    tags.append(holders)
    sol.append(c)


def _swap(tags: list[int], sol: list[int], j: int, y: int) -> None:
    """Put column y, of zero residue and with bit j in its tag, in place of solution column j.

    y is s_j plus the other solution columns of its tag, so every column
    whose tag has bit j trades those others in; no residue changes.
    """
    holders = tags[j]  # the columns whose tag has bit j
    if not holders >> y & 1:
        raise RuntimeError("an exchange column does not depend on the column it replaces")
    for i, t in enumerate(tags):
        if i != j and t >> y & 1:
            tags[i] = t ^ holders
    sol[j] = y


def _augment(res: list[int], tags: list[int], sol: list[int], b: int, usable: int = -1) -> int | None:
    """One matroid-intersection augmentation step over the usable columns.

    The solution holds at most one column per block of b bits; res and tags
    are the coordinates over it (see `ClosureTable`), updated in place.  A
    column of nonzero residue is M1-addable, and solution - s_j + y is
    independent exactly when y's residue is nonzero or its tag has bit j, so
    the search reads the coordinates and reduces no column.  Returns None
    after augmenting, or, when no augmenting path is left, the mask of every
    column the search reached from the M1-addable ones.

    The path is applied as it is walked back: one swap per exchange, then
    the join of its M1-addable start.  One swap can spoil another only when
    each swap's new column is one arc from the other's old column, and on a
    shortest path one of those two arcs would skip ahead, so every exchange
    stays valid in any order.
    """
    owner = {c // b: j for j, c in enumerate(sol)}
    outside = usable
    for c in sol:
        outside &= ~(1 << c)
    seen = reduce(or_, res, 0) & outside  # every column reached so far
    came_from: dict[int, int] = {}  # column -> the solution index whose exchange reached it
    reached_by: dict[int, int] = {}  # solution index -> the column of its block that reached it
    queue: list[int] = []  # solution indices, in the order reached
    qi = 0
    frontier, x, goal = seen, None, None
    while goal is None:
        for y in set_bits(frontier):
            if x is not None:
                came_from[y] = x
            j = owner.get(y // b)
            if j is None:
                goal = y
                break
            if j not in reached_by:
                reached_by[j] = y
                queue.append(j)
        else:  # no free block reached: exchange the next solution column
            if qi == len(queue):
                return seen
            x = queue[qi]
            qi += 1
            frontier = tags[x] & outside & ~seen
            seen |= frontier
    while goal in came_from:
        j = came_from[goal]
        _swap(tags, sol, j, goal)
        goal = reached_by[j]
    _join(res, tags, sol, goal)
    return None


class ClosureTable:
    """The matroid column table of an append-only row set, with its last solution.

    `extend` returns a new table and leaves this one as it was, so both
    children of a query extend one table.  A row in the span of the rows
    before it is skipped: it changes no dependency among the columns.  Every
    other row is the k-th kept row and gives each column it touches bit k.
    Appending rows only adds coordinates to the columns, so an independent
    column set stays independent: a table hands the maximum one-per-block
    solution of its closure to the tables extended from it, as their warm
    start (Cunningham, SIAM J. Comput. 1986).

    The table also carries each column's coordinates over that solution
    s_0, s_1, ...: a residue over the kept rows and a tag over the solution,
    such that the column is its residue plus the solution columns its tag
    marks, and every residue is zero at the pivots, one kept row per
    solution column.  They are held transposed, as column masks: `_res[k]`
    holds the columns whose residue has bit k, `_tags[j]` those whose tag
    has bit j.  Appending the row k costs one mask: a column's residue gains
    bit k when the row touches the column or, exclusively, an odd number of
    the solution columns its tag marks.  A column that joins the solution
    clears its pivot from the coordinates that hold it (`_join`), and an
    exchange rewrites the tags that hold the column it replaces (`_swap`).
    """

    __slots__ = ("layout", "_basis", "_res", "_tags", "_solution", "_closure")

    def __init__(self, layout: BlockLayout):
        self.layout = layout
        self._basis: tuple[tuple[int, int, int], ...] = ()  # echelon basis of the kept rows, untagged
        self._res: tuple[int, ...] = ()  # per kept row k: the columns whose residue has bit k
        self._tags: tuple[int, ...] = ()  # per solution column j: the columns whose tag has bit j
        self._solution: tuple[int, ...] = ()  # flat columns, at most one per block, independent
        self._closure: frozenset[int] | None = None

    @property
    def rank(self) -> int:
        return len(self._basis)

    def extend(self, rows: Iterable[int]) -> "ClosureTable":
        """A new table holding these rows after this table's rows."""
        width = self.layout.width
        basis, res = list(self._basis), list(self._res)
        sol, tags = self._solution, self._tags
        held = 0  # the solution's columns
        for c in sol:
            held |= 1 << c
        for row in rows:
            if row < 0 or row >> width:
                raise ValueError("row does not fit the layout")
            if not _tagged_insert(basis, row, 0)[0]:
                continue
            residues = row
            if row & held:
                for c, t in zip(sol, tags):
                    if row >> c & 1:
                        residues ^= t
            res.append(residues)
        table = ClosureTable(self.layout)
        table._basis, table._res = tuple(basis), tuple(res)
        table._tags, table._solution = tags, sol
        if len(res) == len(self._res):  # no row kept: nothing changed
            table._closure = self._closure
        return table

    def closure(self) -> frozenset[int]:
        """The minimal deviolator of the rows, read off the final augmenting-path search.

        f(S) = dim{span vectors supported on S's columns} - |S| is supermodular
        and every deviolator contains its least maximiser, so that is the
        closure.  By the matroid-intersection min-max theorem, the blocks the
        final, failed search reaches from the M1-addable columns form exactly
        that least maximiser.  A solution of full rank leaves no column
        M1-addable, so the closure is then empty with no search.
        """
        if self._closure is None:
            self._closure = self._solve()
        return self._closure

    def _solve(self) -> frozenset[int]:
        """Grow the carried solution to a maximum one and return the closure.

        Each carried solution column must read as itself.  Unused blocks are
        then filled greedily, in column order, with the first column of
        nonzero residue.  Augmentation runs only when that leaves the
        solution short of the rank.  The table keeps the solution it ends
        with, and its coordinates.
        """
        res, tags, sol = list(self._res), list(self._tags), list(self._solution)
        b, rank = self.layout.b, len(res)
        whole = mask_bits(b)
        held = used = 0  # the solution's columns, and the columns of its blocks
        for c in sol:
            held |= 1 << c
            used |= whole << (c - c % b)
        live = reduce(or_, res, 0)  # the columns of nonzero residue
        if live & held or any(t & held != 1 << c for c, t in zip(sol, tags)):
            raise RuntimeError("a warm-start column is dependent on the others")
        free = live & ~used  # columns of nonzero residue in unused blocks
        while free and len(sol) < rank:
            c = (free & -free).bit_length() - 1
            _join(res, tags, sol, c)
            used |= whole << (c - c % b)
            free = reduce(or_, res, 0) & ~used
        closed: frozenset[int] = frozenset()
        while len(sol) < rank:
            reached = _augment(res, tags, sol, b)
            if reached is not None:
                closed = frozenset(c // b for c in set_bits(reached))
                break
        self._res, self._tags, self._solution = tuple(res), tuple(tags), tuple(sol)
        return closed


def is_safe(rows: Sequence[int], layout: BlockLayout) -> bool:
    """True iff rank-many independent columns exist in pairwise distinct blocks: the closure is empty."""
    return not closure(rows, layout)


def closure(rows: Sequence[int], layout: BlockLayout) -> frozenset[int]:
    """The minimal deviolator: `ClosureTable.closure` of the empty table extended by the rows."""
    return ClosureTable(layout).extend(rows).closure()


def amortized_closure(rows: Sequence[int], layout: BlockLayout) -> tuple[frozenset[int], tuple[tuple[int, int], ...]]:
    """Lexicographically largest acceptable block set plus certificate columns.

    Greedy from the highest block index: acceptable sets are downward closed,
    so including a block whenever the candidate set stays acceptable maximizes
    the indicator-number order.  The certificate pairs (block, flat column)
    have linearly independent columns, one per member block.
    """
    res, tags, sol = list(ClosureTable(layout).extend(rows)._res), [], []
    support = 0  # the nonzero columns
    for row in rows:
        support |= row
    chosen: list[int] = []
    usable = 0
    for i in range(layout.n - 1, -1, -1):
        cols = support & layout.block_mask(i)
        if cols and _augment(res, tags, sol, layout.b, usable | cols) is None:
            chosen.append(i)
            usable |= cols
    cert = tuple(sorted((c // layout.b, c) for c in sol))
    return frozenset(chosen), cert


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
    """Restriction by a closure assignment; the result is a safe space.

    `substitute` is EMPTY exactly when no point of the space agrees with the
    assignment, so it decides extendability too.
    """
    cl = closure(a.forms(), y.layout)
    if y.blocks != cl:
        raise ValueError(f"assignment blocks {sorted(y.blocks)} differ from closure {sorted(cl)}")
    result = substitute(a, y)
    if result is EMPTY:
        raise NotExtendableError("no point of the space matches the assignment")
    return result
