"""Bit-packed linear algebra over F2.

Points, forms and equation systems are Python ints used as bitsets;
coordinate i of a width-w vector is bit i (little-endian by index, and the
textual form puts coordinate 0 leftmost).  `FVec` pairs the bits with their
width only where a point crosses the library boundary.  Affine spaces are
kept eagerly normalized in reduced row-echelon form, so two spaces are equal
as sets exactly when their dataclass fields compare equal.
`AffineSpace.with_equation` is the one place a (form, bit) row enters that
form: every other constructor here is a fold of it.
`AffineSpace.split` gives both halves of a space under one form from a
single reduction, through the same insertion step.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._bits import bits_to_string, mask_bits, parity

ENUMERATION_CAP = 26  # the widest exhaustive sweep, in bits: 2^26 points
CHUNK_BITS = 16  # a cube sweep goes 2^16 points at a time: 512 KiB a uint64 array


class EnumerationCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed ENUMERATION_CAP."""


class EmptySpaceError(ValueError):
    """Raised when an operation requires a non-empty affine space."""


class CertificateError(RuntimeError):
    """A certificate the library built, or a reference it was checked against, is broken."""


@dataclass(frozen=True)
class FVec:
    """A vector in F2^width: a point handed out or taken in with its width."""

    width: int
    bits: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        if not 0 <= self.bits <= mask_bits(self.width):
            raise ValueError("bits out of range for width")

    def get(self, i: int) -> int:
        if not 0 <= i < self.width:
            raise IndexError("coordinate out of range")
        return (self.bits >> i) & 1

    def to_string(self) -> str:
        return bits_to_string(self.bits, self.width)

    def __str__(self) -> str:
        return self.to_string()


def rank_of_rows(rows: Sequence[int]) -> int:
    """Rank of int-bitset rows: the size of their tagged echelon basis."""
    basis: list[tuple[int, int, int]] = []
    for row in rows:
        _tagged_insert(basis, row, 0)
    return len(basis)


def _tagged_reduce(basis: list[tuple[int, int, int]], row: int, tag: int = 0) -> tuple[int, int]:
    """(residue, tag) of a tagged row against a tagged echelon basis.

    basis holds (pivot bit, row, tag) triples.  Each basis row whose pivot
    the row contains is XORed into it, and its tag into the tag; a tag marks
    which input rows a row sums, so the row equals its residue plus the sum
    of the basis rows it was reduced by.
    """
    for pivot, b, t in basis:
        if row & pivot:
            row ^= b
            tag ^= t
    return row, tag


def _tagged_insert(basis: list[tuple[int, int, int]], row: int, tag: int) -> tuple[int, int]:
    """Reduce a tagged row and add its residue to the basis when nonzero; returns (residue, tag)."""
    row, tag = _tagged_reduce(basis, row, tag)
    if row:
        basis.append((row & -row, row, tag))
    return row, tag


class _EmptySpace:
    """Distinguished empty result so set algebra composes without exceptions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"

    def __bool__(self) -> bool:
        return False

    def with_equation(self, form: int, bit: int) -> "_EmptySpace":
        return self

    def split(self, form: int) -> tuple["_EmptySpace", "_EmptySpace"]:
        return self, self


EMPTY = _EmptySpace()


@dataclass(frozen=True, slots=True)
class AffineSpace:
    """A non-empty affine subspace {x : <form_i, x> = bit_i for all i}.

    Stored in reduced row-echelon form: the pivot of a row is its lowest set
    bit, rows are sorted by pivot and every pivot appears in exactly one row.
    Construct via `space_from_pairs`, `full_space` or `with_equation`, which
    return EMPTY on an inconsistent system.
    """

    width: int
    rows: tuple[tuple[int, int], ...]

    @property
    def codim(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.width - len(self.rows)

    def size(self) -> int:
        return 1 << self.dim

    def forms(self) -> tuple[int, ...]:
        return tuple(f for f, _ in self.rows)

    def pivots(self) -> tuple[int, ...]:
        return tuple((f & -f).bit_length() - 1 for f, _ in self.rows)

    def free_coords(self) -> tuple[int, ...]:
        piv = set(self.pivots())
        return tuple(i for i in range(self.width) if i not in piv)

    def contains(self, x: int) -> bool:
        return all(parity(x & f) == c for f, c in self.rows)

    def to_text(self) -> str:
        return "\n".join(f"{bits_to_string(f, self.width)} = {c}" for f, c in self.rows)

    def reduce(self, form: int, bit: int = 0) -> tuple[int, int]:
        """The equation <form, x> = bit with every pivot of self cleared.

        It holds on self exactly when the reduced one does.  The form is
        reduced by every row whose pivot it contains; as each pivot sits in
        one row, the order does not matter.
        """
        if form < 0 or form >> self.width:
            raise ValueError("form out of range for width")
        bit &= 1
        rows = self.rows
        # rows are sorted by pivot, so a form clear of every bit up to the
        # last pivot holds none of them
        if not rows or form & (((rows[-1][0] & -rows[-1][0]) << 1) - 1) == 0:
            return form, bit
        for f, c in rows:
            if form & f & -f:
                form ^= f
                bit ^= c
        return form, bit

    def with_equation(self, form: int, bit: int) -> "AffineSpace | _EmptySpace":
        """The space cut by <form, x> = bit: self if implied, EMPTY if contradicted."""
        form, bit = self.reduce(form, bit)
        if form == 0:
            return EMPTY if bit else self
        return self._insert(form, bit)

    def split(self, form: int) -> tuple["AffineSpace | _EmptySpace", "AffineSpace | _EmptySpace"]:
        """(self cut by <form, x> = 0, self cut by <form, x> = 1), from one reduction."""
        form, bit = self.reduce(form)
        if form == 0:
            return (EMPTY, self) if bit else (self, EMPTY)
        return self._insert(form, bit), self._insert(form, bit ^ 1)

    def _insert(self, form: int, bit: int) -> "AffineSpace":
        """The space with a nonzero reduced row added (`_inserted_rows`)."""
        return AffineSpace(self.width, _inserted_rows(self.rows, form, bit))


def _inserted_rows(rows: tuple[tuple[int, int], ...], form: int, bit: int) -> tuple[tuple[int, int], ...]:
    """Echelon rows with a nonzero reduced row added: the row is cleared from
    the rows containing its pivot and inserted by pivot.

    Rows without the new pivot are shared, not copied, so deep trees of
    spaces stay small.  When every row's form lies below the new pivot, no
    row holds that pivot, which then sits above every other: the row is
    appended.  A row may hold bits above its own pivot, so a new pivot
    above the last one is only the first, constant-time test.
    """
    low = form & -form
    if not rows or (low > rows[-1][0] & -rows[-1][0] and max(rows)[0] < low):
        return rows + ((form, bit),)
    out = [(fc[0] ^ form, fc[1] ^ bit) if fc[0] & low else fc for fc in rows]
    out.insert(bisect.bisect(out, low, key=lambda fc: fc[0] & -fc[0]), (form, bit))
    return tuple(out)


def full_space(width: int) -> AffineSpace:
    return AffineSpace(width, ())


def space_from_pairs(width: int, pairs: Sequence[tuple[int, int]]) -> AffineSpace | _EmptySpace:
    space = full_space(width)
    for form, bit in pairs:
        space = space.with_equation(form, bit)
        if space is EMPTY:
            break
    return space


def is_subspace(inner: AffineSpace | _EmptySpace, outer: AffineSpace | _EmptySpace) -> bool:
    """True iff inner, as a point set, is contained in outer.

    A non-empty inner lies in outer exactly when every equation of outer
    holds on it, that is, reduces to (0, 0) against inner's rows.
    """
    if inner is EMPTY:
        return True
    if outer is EMPTY:
        return False
    if inner.width != outer.width:
        raise ValueError("width mismatch")
    return all(inner.reduce(f, c) == (0, 0) for f, c in outer.rows)


def _solve_pivots(space: AffineSpace, free_bits: int) -> int:
    """Complete an assignment of the free coordinates to a member point."""
    x = free_bits
    for f, c in space.rows:
        low = f & -f
        if parity(x & (f ^ low)) != c:
            x |= low
    return x


def _check_cap(dim: int, what: str) -> None:
    if dim > ENUMERATION_CAP:
        raise EnumerationCapError(f"{what} {dim} exceeds cap {ENUMERATION_CAP}")


def cube_chunks(width: int) -> Iterator[np.ndarray]:
    """Every point of F2^width as uint64 bitmasks in counter order, 2^CHUNK_BITS at a time.

    The one exhaustive cube sweep; a small chunk stays in cache and keeps
    the peak small.  The cap is checked on the call, before any chunk.
    """
    _check_cap(width, "width")
    step = 1 << min(width, CHUNK_BITS)
    return (np.arange(start, start + step, dtype=np.uint64) for start in range(0, 1 << width, step))


def enumerate_points(a: AffineSpace | _EmptySpace) -> Iterator[FVec]:
    """All members as FVecs, in the counter order of `points_array`."""
    for bits in points_array(a):
        yield FVec(a.width, bits)


def points_array(a: AffineSpace | _EmptySpace) -> list[int]:
    """All members as int bitmasks at any width, in counter order over the free coordinates, lowest first."""
    if a is EMPTY:
        return []
    free = a.free_coords()
    _check_cap(len(free), "free dimension")
    base = _solve_pivots(a, 0)
    pts = [base]
    for i in free:
        shifted = _solve_pivots(a, 1 << i) ^ base
        pts += [p ^ shifted for p in pts]
    return pts

